//! Static/dynamic consistency gate: what `sdv-analyze` claims about a
//! program must hold for every actual run of it.
//!
//! The envelope's contract is *soundness*, not precision: each bound is an
//! over-approximation, so a dynamic run escaping it is a bug in the analyzer
//! (or an unsound shortcut in a kernel), never acceptable noise.  Three
//! properties are pinned here for every in-tree kernel:
//!
//! 1. the analyzer finds no error-severity diagnostics at the scale of every
//!    `RunConfig` preset (CI's `sdv-analyze check` step enforces the same
//!    verdict at scales 1 and 8),
//! 2. the addresses an emulated run actually touches stay inside the static
//!    footprint interval (or the analyzer declared the footprint unbounded),
//! 3. the simulated vector-mode fraction never exceeds the static
//!    vectorizable bound.
//!
//! Plus the negative side: seeded-bug programs each fire exactly the
//! diagnostic they were built to demonstrate.

use sdv::analyze::{analyze, Rule, Severity};
use sdv::emu::Emulator;
use sdv::isa::{ArchReg, Asm};
use sdv::sim::{PortKind, RunConfig, UarchConfig};
use sdv::uarch::simulate;
use sdv::workloads::Workload;

const RC: RunConfig = RunConfig {
    scale: 1,
    max_insts: 20_000,
};

/// Inclusive hull of every address an emulated run of `w` touches.
fn dynamic_footprint(w: Workload) -> Option<(u64, u64)> {
    let program = w.build(RC.scale);
    let mut hull: Option<(u64, u64)> = None;
    let mut emu = Emulator::new(&program);
    emu.run_with(RC.max_insts, |r| {
        if let Some(mem) = r.mem {
            let (first, last) = (mem.addr, mem.addr + mem.width - 1);
            hull = Some(match hull {
                None => (first, last),
                Some((lo, hi)) => (lo.min(first), hi.max(last)),
            });
        }
    });
    hull
}

#[test]
fn every_kernel_is_statically_clean() {
    let presets = [
        RunConfig::quick(),
        RunConfig::standard(),
        RunConfig::thorough(),
    ];
    for scale in presets.map(|rc| rc.scale) {
        for w in Workload::extended() {
            let analysis = analyze(&w.build(scale));
            assert!(
                !analysis.has_errors(),
                "{w} at scale {scale}: {:#?}",
                analysis.diags
            );
        }
    }
}

/// Property 2: dynamic memory hull ⊆ static footprint interval.
#[test]
fn dynamic_footprint_stays_inside_the_static_envelope() {
    let mut bounded = 0;
    for w in Workload::extended() {
        let envelope = analyze(&w.build(RC.scale)).envelope;
        let Some((lo, hi)) = dynamic_footprint(w) else {
            continue; // a kernel with no memory traffic satisfies any hull
        };
        assert!(
            envelope.contains_range(lo, hi),
            "{w}: dynamic hull [{lo:#x}, {hi:#x}] escapes static footprint \
             {:?} (unbounded={})",
            envelope.footprint,
            envelope.footprint_unbounded
        );
        if !envelope.footprint_unbounded {
            bounded += 1;
        }
        // The hull must also stay inside the *declared* regions the analyzer
        // derived from the program image — data segments and stack.
        assert!(
            envelope.declared.overlaps(lo, hi),
            "{w}: dynamic hull [{lo:#x}, {hi:#x}] misses every declared region"
        );
    }
    // The check must not pass vacuously: at least one kernel's footprint has
    // to resolve to a finite interval for containment to mean anything.
    assert!(
        bounded >= 1,
        "no kernel produced a bounded static footprint"
    );
}

/// Property 3: simulated vector-mode fraction ≤ static vectorizable bound.
#[test]
fn vector_mode_fraction_stays_under_the_static_bound() {
    let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true);
    for w in Workload::extended() {
        let program = w.build(RC.scale);
        let envelope = analyze(&program).envelope;
        let stats = simulate(&cfg, &program, RC.max_insts);
        assert!(
            stats.vector_mode_fraction() <= envelope.vectorizable_bound + 1e-9,
            "{w}: dynamic vector-mode fraction {:.4} exceeds static bound {:.4}",
            stats.vector_mode_fraction(),
            envelope.vectorizable_bound
        );
    }
    // Every in-tree kernel has some all-vectorizable block prefix, so the
    // bounds above are all 1.0 (the gate still bites if an analyzer change
    // ever *lowers* one below a kernel's true fraction).  Pin a case where
    // the bound is tight and non-trivial: an all-control program bounds the
    // fraction at exactly zero, and a simulated run agrees.
    let mut a = Asm::new();
    a.halt();
    let program = a.finish();
    let envelope = analyze(&program).envelope;
    assert_eq!(envelope.vectorizable_bound, 0.0);
    let stats = simulate(&cfg, &program, RC.max_insts);
    assert_eq!(stats.vector_mode_fraction(), 0.0);
}

// ---------------------------------------------------------------------------
// Seeded-bug fixtures: each program is built around exactly one defect and
// must fire exactly that diagnostic.
// ---------------------------------------------------------------------------

fn rules_of(diags: &[sdv::analyze::Diag]) -> Vec<Rule> {
    let mut rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn seeded_use_before_def_fires() {
    let mut a = Asm::new();
    let buf = a.alloc(32, 8);
    let (p, v) = (ArchReg::int(1), ArchReg::int(2));
    a.li(p, buf as i64);
    a.add(v, v, p); // v read before any write on every path
    a.sd(v, p, 0);
    a.halt();
    let analysis = analyze(&a.finish());
    assert!(analysis.has_errors());
    assert_eq!(rules_of(&analysis.diags), vec![Rule::UseBeforeDef]);
    let d = &analysis.diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.msg.contains("x2"), "{}", d.msg);
}

#[test]
fn seeded_unreachable_block_fires() {
    let mut a = Asm::new();
    let buf = a.alloc(32, 8);
    let (p, v) = (ArchReg::int(1), ArchReg::int(2));
    a.li(p, buf as i64);
    a.j("end");
    a.label("dead");
    a.ld(v, p, 0); // never executed
    a.label("end");
    a.halt();
    let analysis = analyze(&a.finish());
    assert!(!analysis.has_errors(), "unreachable code is only a warning");
    assert_eq!(rules_of(&analysis.diags), vec![Rule::UnreachableBlock]);
    assert_eq!(analysis.diags[0].severity, Severity::Warning);
}

#[test]
fn seeded_out_of_footprint_store_fires() {
    let mut a = Asm::new();
    let buf = a.alloc(64, 8);
    let (p, stray) = (ArchReg::int(1), ArchReg::int(2));
    a.li(p, buf as i64);
    a.ld(stray, p, 0);
    // A store 16 MiB past the data hull: statically resolvable, disjoint
    // from text, every data segment and the stack region.
    a.li(stray, (buf + (16 << 20)) as i64);
    a.sd(p, stray, 0);
    a.halt();
    let analysis = analyze(&a.finish());
    assert!(analysis.has_errors());
    assert_eq!(rules_of(&analysis.diags), vec![Rule::OutOfFootprint]);
    let d = &analysis.diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.msg.contains("outside every declared region"), "{}", d.msg);
}

/// The fixtures compose: a program with all three defects reports all three
/// rules, errors first.
#[test]
fn seeded_defects_compose() {
    let mut a = Asm::new();
    let buf = a.alloc(32, 8);
    let (p, v) = (ArchReg::int(1), ArchReg::int(2));
    a.li(p, buf as i64);
    a.sd(v, p, 0); // use-before-def of v
    a.li(v, (buf + (16 << 20)) as i64);
    a.sd(p, v, 0); // out-of-footprint store
    a.j("end");
    a.label("dead");
    a.nop(); // unreachable
    a.label("end");
    a.halt();
    let analysis = analyze(&a.finish());
    assert_eq!(
        rules_of(&analysis.diags),
        vec![
            Rule::UseBeforeDef,
            Rule::UnreachableBlock,
            Rule::OutOfFootprint
        ]
    );
    assert_eq!(analysis.diags[0].severity, Severity::Error);
    assert_eq!(
        analysis.diags.last().expect("has diags").severity,
        Severity::Warning
    );
}
