//! Property-based tests over the whole stack: for randomly generated programs,
//! the timing model (with and without dynamic vectorization) must commit the
//! same dynamic instruction stream the functional emulator retires, finish
//! without deadlock, and leave identical architectural state.

use proptest::prelude::*;
use sdv::core::DvConfig;
use sdv::emu::Emulator;
use sdv::isa::{ArchReg, Asm, Program};
use sdv::sim::{PortKind, UarchConfig};
use sdv::uarch::{ConfigBuilder, Processor};

/// A small recipe for one loop iteration of a generated program.
#[derive(Debug, Clone)]
enum Step {
    /// `dst += array[idx]`, walking the array with the given element stride.
    StridedLoad { stride: u8 },
    /// Store the accumulator to a slot in a scratch array.
    Store { slot: u8 },
    /// `acc += scratch[slot * 8 + offset]`, reading 1, 2, 4 or 8 bytes
    /// (`width` 0..4): partial and unaligned overlaps with the stores.
    Reload { slot: u8, offset: u8, width: u8 },
    /// Integer arithmetic on the accumulator.
    Alu { op: u8, imm: i8 },
    /// Reload a fixed global (stride-0 load).
    Global,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..=4).prop_map(|stride| Step::StridedLoad { stride }),
        (0u8..16).prop_map(|slot| Step::Store { slot }),
        (0u8..16, 0u8..8, 0u8..4).prop_map(|(slot, offset, width)| Step::Reload {
            slot,
            offset,
            width
        }),
        (0u8..4, any::<i8>()).prop_map(|(op, imm)| Step::Alu { op, imm }),
        Just(Step::Global),
    ]
}

/// Builds a terminating loop program from a random recipe.
fn build_program(steps: &[Step], iterations: u8) -> Program {
    let mut a = Asm::new();
    let array = a.data_u64(&(0..512u64).map(|i| i * 3 + 1).collect::<Vec<_>>());
    let scratch = a.alloc(16 * 8, 8);
    let global = a.data_u64(&[42]);
    let (counter, acc, ptr, tmp, val) = (
        ArchReg::int(1),
        ArchReg::int(2),
        ArchReg::int(3),
        ArchReg::int(4),
        ArchReg::int(5),
    );
    let scratch_base = ArchReg::int(20);
    let global_base = ArchReg::int(21);
    a.li(scratch_base, scratch as i64);
    a.li(global_base, global as i64);
    a.li(counter, i64::from(iterations.max(1)));
    a.li(acc, 1);
    a.li(ptr, array as i64);
    a.label("loop");
    for step in steps {
        match step {
            Step::StridedLoad { stride } => {
                a.ld(val, ptr, 0);
                a.add(acc, acc, val);
                a.addi(ptr, ptr, i64::from(*stride) * 8);
                // Wrap the pointer so it never leaves the array.
                a.li(tmp, (array + 256 * 8) as i64);
                a.blt(ptr, tmp, "nowrap");
                a.li(ptr, array as i64);
                a.label("nowrap");
                // Labels must be unique; use the accumulator to avoid reuse.
                // (handled below by renaming)
            }
            Step::Store { slot } => {
                a.sd(acc, scratch_base, i64::from(*slot) * 8);
            }
            Step::Reload {
                slot,
                offset,
                width,
            } => {
                let at = i64::from(*slot) * 8 + i64::from(*offset);
                match width % 4 {
                    0 => a.lbu(val, scratch_base, at),
                    1 => a.lhu(val, scratch_base, at),
                    2 => a.lwu(val, scratch_base, at),
                    _ => a.ld(val, scratch_base, at),
                }
                a.add(acc, acc, val);
            }
            Step::Alu { op, imm } => match op % 4 {
                0 => a.addi(acc, acc, i64::from(*imm)),
                1 => a.xori(acc, acc, i64::from(*imm)),
                2 => a.slli(acc, acc, i64::from(*imm as u8 % 8)),
                _ => a.srli(acc, acc, i64::from(*imm as u8 % 8)),
            },
            Step::Global => {
                a.ld(val, global_base, 0);
                a.add(acc, acc, val);
            }
        }
    }
    a.addi(counter, counter, -1);
    a.bne(counter, ArchReg::ZERO, "loop");
    a.halt();
    a.finish()
}

/// `build_program` uses a label inside the loop body; make sure the generator
/// only ever emits one strided load per recipe to keep labels unique — this
/// helper enforces that at the strategy level.
fn dedup_strided(steps: Vec<Step>) -> Vec<Step> {
    let mut seen_load = false;
    steps
        .into_iter()
        .filter(|s| {
            if matches!(s, Step::StridedLoad { .. }) {
                if seen_load {
                    return false;
                }
                seen_load = true;
            }
            true
        })
        .collect()
}

/// Builds a store-coherence storm: the loop strided-loads an array while
/// storing `offset` slots ahead of the read pointer, so every vectorized
/// load pattern keeps colliding with committed stores (§3.6) and the
/// pipeline squashes and rebuilds its scheduler over and over.
fn build_squash_storm(offset: u8, iterations: u8) -> Program {
    let mut a = Asm::new();
    let array = a.data_u64(&vec![1u64; 256]);
    let (p, v, c) = (ArchReg::int(1), ArchReg::int(2), ArchReg::int(3));
    a.li(p, array as i64);
    a.li(c, i64::from(iterations.max(1)) * 8);
    a.label("loop");
    a.ld(v, p, 0);
    a.addi(v, v, 1);
    a.sd(v, p, i64::from(offset) * 8);
    a.addi(p, p, 8);
    a.addi(c, c, -1);
    a.bne(c, ArchReg::ZERO, "loop");
    a.halt();
    a.finish()
}

/// The single-port machine of the fast ≡ reference differential: 4-way (128-entry window) or
/// 8-way (256-entry window), with a scalar or a wide port.
fn machine(wide: bool, eight_way: bool) -> ConfigBuilder {
    let kind = if wide {
        PortKind::Wide
    } else {
        PortKind::Scalar
    };
    UarchConfig::builder()
        .issue_width(if eight_way { 8 } else { 4 })
        .port_kind(kind)
}

/// The DV sizings the differential draws from: the paper's default, vector
/// length 2 or 8 instead of 4, and 16 vector registers instead of 128.
fn dv_sizing(index: usize) -> DvConfig {
    let default = DvConfig::default();
    match index {
        0 => default,
        1 => DvConfig {
            vector_length: 2,
            ..default
        },
        2 => DvConfig {
            vector_length: 8,
            ..default
        },
        _ => DvConfig {
            vector_registers: 16,
            ..default
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn pipeline_commits_exactly_what_the_emulator_retires(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        iterations in 1u8..20,
        vectorize in any::<bool>(),
        wide in any::<bool>(),
    ) {
        let steps = dedup_strided(steps);
        let program = build_program(&steps, iterations);

        // Reference: functional execution.
        let mut reference = Emulator::new(&program);
        let reference_count = reference.run_with(1_000_000, |_| {});

        // Timing model.
        let kind = if wide { PortKind::Wide } else { PortKind::Scalar };
        let cfg = UarchConfig::four_way(1, kind).with_vectorization(vectorize);
        let mut proc = Processor::new(&cfg, &program);
        let stats = proc.run(1_000_000);

        prop_assert_eq!(stats.committed, reference_count, "every retired instruction commits");
        prop_assert!(stats.cycles > 0);
        prop_assert!(stats.ipc() <= cfg.commit_width as f64 + 1e-9, "IPC cannot exceed commit width");

        // Architectural state must match the reference exactly.
        for reg in [1u8, 2, 3, 4, 5] {
            prop_assert_eq!(
                proc.emulator().int_reg(ArchReg::int(reg)),
                reference.int_reg(ArchReg::int(reg)),
                "register x{} differs", reg
            );
        }
    }

    #[test]
    fn vectorization_never_changes_the_committed_instruction_count(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        iterations in 1u8..16,
    ) {
        let steps = dedup_strided(steps);
        let program = build_program(&steps, iterations);
        let base_cfg = UarchConfig::four_way(1, PortKind::Wide);
        let dv_cfg = base_cfg.clone().with_vectorization(true);
        let base = sdv::uarch::simulate(&base_cfg, &program, 1_000_000);
        let dv = sdv::uarch::simulate(&dv_cfg, &program, 1_000_000);
        prop_assert_eq!(base.committed, dv.committed);
        prop_assert!(dv.committed_validations <= dv.committed);
        // Validations never execute on the scalar units, so DV can only reduce
        // the scalar arithmetic count.
        prop_assert!(dv.scalar_arith_executed <= base.scalar_arith_executed);
    }

    // The fast ≡ reference differential, 72 cases over three strategies: on
    // random programs and store-coherence squash storms, with a scalar or a
    // wide port and DV on or off.  A §3.6 squash rebuilds the whole wakeup
    // scoreboard and every vector-register waiter list, and the clock-jump
    // proof drains the vector wakeups itself, which is where the fast model
    // would drift first.

    /// Wakeup issue ≡ full-window scan, on the 4-way and the 8-way machine
    /// (256-entry window, so more validations park at once), with DV at one
    /// of the [`dv_sizing`]s.
    #[test]
    fn wakeup_scheduler_issues_the_same_sequence_as_the_full_scan_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        iterations in 1u8..20,
        vectorize in any::<bool>(),
        wide in any::<bool>(),
        storm in any::<bool>(),
        storm_offset in 1u8..4,
        eight_way in any::<bool>(),
        sizing in 0usize..4,
    ) {
        let program = differential_program(steps, iterations, storm, storm_offset);
        let machine = machine(wide, eight_way);
        let cfg = if vectorize {
            machine.dv_config(dv_sizing(sizing))
        } else {
            machine
        }
        .build();
        check_fast_matches_reference(&program, &cfg)?;
    }

    /// Fast ≡ reference over the shared struct-of-arrays ROB, on the 4-way
    /// machine: the wakeup scheduler's per-lane bookkeeping (pending
    /// counts, waiter lists, group tags) against the full-window scan.
    #[test]
    fn soa_matches_aos(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        iterations in 1u8..20,
        vectorize in any::<bool>(),
        wide in any::<bool>(),
        storm in any::<bool>(),
        storm_offset in 1u8..4,
    ) {
        let program = differential_program(steps, iterations, storm, storm_offset);
        let cfg = machine(wide, false).build().with_vectorization(vectorize);
        check_fast_matches_reference(&program, &cfg)?;
    }

    /// Macro-stepping ≡ the per-cycle loop, on the 4-way and the 8-way
    /// machine.
    #[test]
    fn macro_stepping_matches_the_per_cycle_loop(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        iterations in 1u8..20,
        vectorize in any::<bool>(),
        wide in any::<bool>(),
        storm in any::<bool>(),
        storm_offset in 1u8..4,
        eight_way in any::<bool>(),
    ) {
        let program = differential_program(steps, iterations, storm, storm_offset);
        let cfg = machine(wide, eight_way).build().with_vectorization(vectorize);
        check_fast_matches_reference(&program, &cfg)?;
    }
}

/// The program one differential case runs: a squash storm or a random loop.
fn differential_program(
    steps: Vec<Step>,
    iterations: u8,
    storm: bool,
    storm_offset: u8,
) -> Program {
    if storm {
        build_squash_storm(storm_offset, iterations)
    } else {
        build_program(&dedup_strided(steps), iterations)
    }
}

/// Runs `program` under the fast model (wakeup issue, clock jumps) and the
/// reference model (full-window scan, per-cycle ticks), which share dispatch
/// and commit: both must issue the *same instruction sequence* — cycle by
/// cycle, sequence number by sequence number — and produce bit-identical
/// statistics, and the reference must never jump the clock.
fn check_fast_matches_reference(program: &Program, cfg: &UarchConfig) -> Result<(), TestCaseError> {
    use sdv::uarch::Model;
    let mut fast = Processor::new(cfg, program);
    prop_assert_eq!(fast.model(), Model::Fast, "default model");
    fast.record_issue_trace(true);
    let fast_stats = fast.run(1_000_000);
    let fast_trace = fast.take_issue_trace();

    let mut reference = Processor::new(cfg, program);
    reference.set_model(Model::Reference);
    reference.record_issue_trace(true);
    let reference_stats = reference.run(1_000_000);
    let reference_trace = reference.take_issue_trace();

    prop_assert!(!fast_trace.is_empty(), "something must issue");
    prop_assert_eq!(
        reference.macro_step_telemetry(),
        (0, 0),
        "the reference never jumps"
    );
    prop_assert_eq!(&fast_trace, &reference_trace, "issue sequences diverge");
    prop_assert_eq!(fast_stats, reference_stats, "statistics diverge");
    Ok(())
}
