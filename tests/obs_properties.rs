//! Property tests for the observability layer.
//!
//! The load-bearing one is the cycle-attribution **exhaustiveness proof**:
//! with the ledger enabled, every simulated cycle must land in exactly one
//! [`CycleBucket`], so the bucket-sum equals `RunStats::cycles` — on random
//! programs, squash storms, and both pipeline models.  The remaining tests pin that the ledger never perturbs the
//! bit-identical statistics discipline and that the tracer's ring bound
//! drops oldest-first with an exact counter.

use proptest::prelude::*;
use sdv::isa::{ArchReg, Asm, Program};
use sdv::obs::{CycleBucket, EventTracer, MetricsRegistry, TraceEvent};
use sdv::sim::{PortKind, UarchConfig};
use sdv::uarch::{Model, Processor};

/// A small recipe for one loop iteration of a generated program (the same
/// generator family as `tests/pipeline_properties.rs`).
#[derive(Debug, Clone)]
enum Step {
    /// `dst += array[idx]`, walking the array with the given element stride.
    StridedLoad { stride: u8 },
    /// Store the accumulator to a slot in a scratch array.
    Store { slot: u8 },
    /// Integer arithmetic on the accumulator.
    Alu { op: u8, imm: i8 },
    /// Reload a fixed global (stride-0 load).
    Global,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..=4).prop_map(|stride| Step::StridedLoad { stride }),
        (0u8..16).prop_map(|slot| Step::Store { slot }),
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
                a.li(tmp, (array + 256 * 8) as i64);
                a.blt(ptr, tmp, "nowrap");
                a.li(ptr, array as i64);
                a.label("nowrap");
            }
            Step::Store { slot } => {
                a.sd(acc, scratch_base, i64::from(*slot) * 8);
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

/// Keeps at most one strided load per recipe (the loop body label must stay
/// unique).
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

/// Store-coherence storm (§3.6 squash pressure), same shape as the
/// fast ≡ reference differential uses.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Exhaustiveness: the bucket-sum equals the `RunStats` cycle total
    /// under both models, so the taxonomy is total — no cycle is dropped or
    /// double-charged.  Buckets themselves legitimately differ between the
    /// models (a macro-step jump charges its window to `macro_step_jumped`
    /// where the reference's per-cycle loop classifies each cycle
    /// individually); only the sum is invariant.
    #[test]
    fn bucket_sum_equals_total_cycles(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        iterations in 1u8..20,
        vectorize in any::<bool>(),
        wide in any::<bool>(),
        storm in any::<bool>(),
        storm_offset in 1u8..4,
    ) {
        let steps = dedup_strided(steps);
        let program = if storm {
            build_squash_storm(storm_offset, iterations)
        } else {
            build_program(&steps, iterations)
        };
        let kind = if wide { PortKind::Wide } else { PortKind::Scalar };
        let cfg = UarchConfig::four_way(1, kind).with_vectorization(vectorize);

        for model in [Model::Fast, Model::Reference] {
            let mut proc = Processor::new(&cfg, &program);
            proc.set_model(model);
            proc.record_cycle_ledger(true);
            let stats = proc.run(1_000_000);
            let ledger = proc.cycle_ledger().expect("ledger enabled");
            prop_assert_eq!(
                ledger.total(), stats.cycles,
                "bucket-sum must equal total cycles ({:?}): {:?}",
                model, ledger
            );
            prop_assert!(
                ledger.get(CycleBucket::Committing) > 0,
                "a completed run must have committing cycles"
            );
            // The committed stream retires at most commit-width per
            // cycle, so committing cycles bound the instruction count.
            prop_assert!(
                ledger.get(CycleBucket::Committing) * cfg.commit_width as u64
                    >= stats.committed
            );
        }
    }

    /// The ledger and the metrics export are observation-only: enabling
    /// them must not perturb the bit-identical statistics or the issue
    /// trace, on random programs and squash storms alike.  The exported
    /// work counters are deterministic (two observed runs agree exactly)
    /// and consistent: every promotion was preceded by a park, and squash
    /// counters appear exactly when §3.6 conflicts did.
    #[test]
    fn ledger_never_perturbs_stats(
        steps in proptest::collection::vec(step_strategy(), 1..8),
        iterations in 1u8..16,
        vectorize in any::<bool>(),
        storm in any::<bool>(),
        storm_offset in 1u8..4,
    ) {
        let steps = dedup_strided(steps);
        let program = if storm {
            build_squash_storm(storm_offset, iterations)
        } else {
            build_program(&steps, iterations)
        };
        let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(vectorize);

        let mut plain = Processor::new(&cfg, &program);
        plain.record_issue_trace(true);
        let plain_stats = plain.run(1_000_000);
        let plain_trace = plain.take_issue_trace();

        let observe = || {
            let mut observed = Processor::new(&cfg, &program);
            observed.record_issue_trace(true);
            observed.record_cycle_ledger(true);
            let stats = observed.run(1_000_000);
            let trace = observed.take_issue_trace();
            let mut registry = MetricsRegistry::new();
            observed.obs_metrics(&mut registry);
            (stats, trace, registry)
        };
        let (observed_stats, observed_trace, registry) = observe();

        let conflicts = observed_stats.dv.map_or(0, |dv| dv.store_conflicts);
        prop_assert_eq!(plain_stats, observed_stats, "stats diverge under observation");
        prop_assert_eq!(plain_trace, observed_trace, "issue trace diverges under observation");

        let counter = |name: &str| registry.counter(name).expect("counter exported");
        prop_assert!(counter("pipeline.vector.promoted") <= counter("pipeline.vector.parked"));
        prop_assert_eq!(counter("pipeline.squash.events"), conflicts, "one squash per §3.6 conflict");
        if conflicts == 0 {
            prop_assert_eq!(counter("pipeline.squash.rearmed_entries"), 0);
        }
        if !vectorize {
            prop_assert_eq!(counter("pipeline.vector.parked"), 0, "parking needs DV");
        }
        let (_, _, again) = observe();
        prop_assert_eq!(again, registry, "work counters are deterministic");
    }

    /// Ring-buffer bound: recording N > capacity events keeps exactly the
    /// newest `capacity`, drops oldest-first, and counts drops exactly.
    #[test]
    fn tracer_ring_drops_oldest_with_exact_counter(
        capacity in 1usize..32,
        extra in 0u64..64,
    ) {
        let mut tracer = EventTracer::new(capacity);
        let total = capacity as u64 + extra;
        for n in 0..total {
            tracer.record(TraceEvent::instant(&format!("e{n}"), "test", n, 1, &[]));
        }
        prop_assert_eq!(tracer.len(), capacity);
        prop_assert_eq!(tracer.dropped(), extra);
        let first = tracer.events().next().expect("non-empty");
        prop_assert_eq!(first.name.clone(), format!("e{extra}"), "oldest surviving event");
        let last = tracer.events().last().expect("non-empty");
        prop_assert_eq!(last.name.clone(), format!("e{}", total - 1));
    }

    /// Registry JSON round-trip on randomly populated registries.
    #[test]
    fn registry_json_round_trips(
        counters in proptest::collection::vec((0u8..26, 0u64..1_000_000), 0..8),
        gauges in proptest::collection::vec((0u8..26, -1000i32..1000), 0..4),
    ) {
        let mut reg = MetricsRegistry::new();
        for (name, v) in counters {
            reg.add_counter(&format!("c.{}", char::from(b'a' + name)), v);
        }
        for (name, v) in gauges {
            reg.set_gauge(&format!("g.{}", char::from(b'a' + name)), f64::from(v) / 8.0);
        }
        let back = MetricsRegistry::from_json(&reg.to_json()).expect("round trip parses");
        prop_assert_eq!(back, reg);
    }
}
