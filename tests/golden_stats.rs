//! Golden-stats equivalence: per-workload `RunStats` counters pinned against
//! values captured from the build *before* the event-driven hot-path refactor
//! (wakeup-driven issue, indexed LSQ disambiguation, flat emulator memory).
//!
//! These are exact integer equalities — cycles, committed validations, memory
//! accesses, vector-element usage — across every paper workload on both a
//! vectorizing and a scalar-baseline configuration.  Any scheduling,
//! disambiguation or memory-model change that alters timing by a single cycle
//! fails this test; performance work must be behaviour-preserving.

use sdv::sim::{Model, PortKind, Processor, UarchConfig, Workload};

const SCALE: u64 = 1;
const MAX_INSTS: u64 = 10_000;

/// `(config label, workload, cycles, committed, validations, memory accesses,
/// scalar arith, mispredictions, elem computed+used, computed-not-used,
/// not-computed, registers released)` captured pre-refactor.
#[allow(clippy::type_complexity)]
const GOLDEN: &[(
    &str,
    Workload,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
)] = &[
    (
        "1pV",
        Workload::Go,
        9310,
        10000,
        3133,
        829,
        3572,
        1240,
        3133,
        4402,
        9,
        1886,
    ),
    (
        "1pV",
        Workload::M88ksim,
        5738,
        10002,
        5002,
        2100,
        2288,
        198,
        5002,
        2818,
        0,
        1955,
    ),
    (
        "1pV",
        Workload::Gcc,
        10194,
        10000,
        4221,
        2032,
        2958,
        972,
        4221,
        4911,
        0,
        2283,
    ),
    (
        "1pV",
        Workload::Compress,
        3447,
        10000,
        4977,
        1636,
        1474,
        22,
        4977,
        13005,
        14,
        4499,
    ),
    (
        "1pV",
        Workload::Li,
        26096,
        10000,
        2496,
        6430,
        12551,
        17,
        1646,
        7694,
        660,
        2500,
    ),
    (
        "1pV",
        Workload::Ijpeg,
        3874,
        10000,
        3470,
        1094,
        4383,
        23,
        3470,
        5244,
        30,
        2186,
    ),
    (
        "1pV",
        Workload::Perl,
        3991,
        10003,
        4227,
        417,
        2481,
        95,
        4227,
        9555,
        26,
        3452,
    ),
    (
        "1pV",
        Workload::Vortex,
        3554,
        10001,
        3162,
        2257,
        4116,
        23,
        3162,
        4106,
        16,
        1821,
    ),
    (
        "1pV",
        Workload::Swim,
        4121,
        10003,
        5888,
        1988,
        2488,
        40,
        5888,
        119,
        37,
        1511,
    ),
    (
        "1pV",
        Workload::Applu,
        3969,
        10002,
        7322,
        3179,
        1626,
        17,
        7322,
        52,
        42,
        1854,
    ),
    (
        "1pV",
        Workload::Turb3d,
        5590,
        10002,
        5436,
        2973,
        8541,
        17,
        5436,
        3669,
        23,
        2282,
    ),
    (
        "1pV",
        Workload::Fpppp,
        5667,
        10003,
        6790,
        1446,
        1889,
        17,
        6772,
        2704,
        0,
        2369,
    ),
    (
        "4pnoIM",
        Workload::Go,
        11691,
        10000,
        0,
        1859,
        5030,
        1240,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::M88ksim,
        5618,
        10002,
        0,
        2713,
        6396,
        198,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Gcc,
        17557,
        10000,
        0,
        2474,
        4819,
        972,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Compress,
        4299,
        10000,
        0,
        2147,
        5768,
        22,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Li,
        25929,
        10000,
        0,
        3769,
        3768,
        17,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Ijpeg,
        7079,
        10003,
        0,
        1961,
        6145,
        23,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Perl,
        4726,
        10001,
        0,
        1206,
        5626,
        95,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Vortex,
        10905,
        10002,
        0,
        2898,
        5843,
        23,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Swim,
        13071,
        10003,
        0,
        3820,
        5436,
        40,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Applu,
        18457,
        10000,
        0,
        3160,
        6334,
        17,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Turb3d,
        17766,
        10000,
        0,
        3635,
        5474,
        17,
        0,
        0,
        0,
        0,
    ),
    (
        "4pnoIM",
        Workload::Fpppp,
        6936,
        10002,
        0,
        1872,
        7984,
        17,
        0,
        0,
        0,
        0,
    ),
];

fn config(label: &str) -> UarchConfig {
    match label {
        "1pV" => UarchConfig::four_way(1, PortKind::Wide).with_vectorization(true),
        "4pnoIM" => UarchConfig::four_way(4, PortKind::Scalar),
        other => panic!("unknown golden config {other}"),
    }
}

/// Runs every golden cell under `model` and asserts all ten counters.
fn assert_every_cell_matches(model: Model) {
    for &(
        label,
        workload,
        cycles,
        committed,
        validations,
        mem,
        arith,
        mispred,
        used,
        not_used,
        not_comp,
        released,
    ) in GOLDEN
    {
        let cfg = config(label);
        let program = workload.build(SCALE);
        let mut proc = Processor::new(&cfg, &program);
        proc.set_model(model);
        let stats = proc.run(MAX_INSTS);
        let ctx = format!("{model:?} {label}/{workload}");
        assert_eq!(stats.cycles, cycles, "{ctx}: cycles");
        assert_eq!(stats.committed, committed, "{ctx}: committed");
        assert_eq!(
            stats.committed_validations, validations,
            "{ctx}: validations"
        );
        assert_eq!(stats.memory_accesses, mem, "{ctx}: memory accesses");
        assert_eq!(
            stats.scalar_arith_executed, arith,
            "{ctx}: scalar arithmetic"
        );
        assert_eq!(stats.mispredictions, mispred, "{ctx}: mispredictions");
        let usage = stats.element_usage.unwrap_or_default();
        assert_eq!(usage.computed_used, used, "{ctx}: elements computed+used");
        assert_eq!(usage.computed_not_used, not_used, "{ctx}: computed, unused");
        assert_eq!(usage.not_computed, not_comp, "{ctx}: never computed");
        assert_eq!(
            usage.registers_released, released,
            "{ctx}: registers released"
        );
    }
}

/// The default (fast) model reproduces every golden counter set.
#[test]
fn run_stats_match_the_pre_refactor_build_exactly() {
    assert_eq!(
        Model::default(),
        Model::Fast,
        "the fast model is the default"
    );
    assert_every_cell_matches(Model::Fast);
}

/// The reference model — full-window issue scan and per-cycle ticks, over
/// the dispatch and commit loops it shares with the fast model — reproduces
/// the same counter sets on every cell.
#[test]
fn reference_model_matches_the_golden_stats_on_every_cell() {
    assert_every_cell_matches(Model::Reference);
}

/// On every fifth golden cell the reference model's full-window-scan
/// scheduler reaches the golden cycle count by issuing the fast model's exact
/// instruction sequence, so the two agree cycle by cycle, not only in total.
#[test]
fn oracle_scheduler_matches_the_golden_stats_too() {
    for &(label, workload, cycles, ..) in GOLDEN.iter().step_by(5) {
        let cfg = config(label);
        let program = workload.build(SCALE);
        let traces = [Model::Fast, Model::Reference].map(|model| {
            let mut proc = Processor::new(&cfg, &program);
            proc.set_model(model);
            proc.record_issue_trace(true);
            let stats = proc.run(MAX_INSTS);
            assert_eq!(stats.cycles, cycles, "{model:?} {label}/{workload}: cycles");
            proc.take_issue_trace()
        });
        assert!(
            !traces[0].is_empty(),
            "{label}/{workload}: something must issue"
        );
        assert!(
            traces[0] == traces[1],
            "{label}/{workload}: issue sequences diverge"
        );
    }
}
