//! Criterion micro-bench for the pipeline's fast loop (`Model::Fast`: wakeup
//! issue, clock jumps, batched dispatch and run-retire commit) against its
//! reference (`Model::Reference`: full-window scan, per-cycle ticks,
//! entry-at-a-time dispatch and commit) on the two busy-cycle mixes.
//!
//! * `dispatch_heavy` — a vectorizing single-port wide config on `swim`:
//!   strided floating-point loads keep the decoder emitting wide DV fetch
//!   groups, so the batched VRMT pass and bulk wakeup-scoreboard setup
//!   dominate.
//! * `commit_heavy` — a four-way scalar config on `m88ksim`: high scalar ILP
//!   with few stores produces long ready runs at the ROB head, so the
//!   run-retire drain (one stats flush and one head advance per run)
//!   dominates.
//!
//! Both models are bit-identical by construction (see the fast ≡ reference
//! differential in `tests/pipeline_properties.rs` and the golden-stats
//! pins); this bench
//! tracks the *throughput* gap only.
//! Like the figure benches, `cargo bench -- --test` doubles as a smoke test.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdv_sim::{Model, PortKind, Processor, ProcessorConfig, Workload};

const MAX_INSTS: u64 = 60_000;

/// Runs `workload` under `cfg` on the given model and returns the cycle
/// count (consumed by `black_box` so the simulation cannot be elided).
fn run_cycles(workload: Workload, cfg: &ProcessorConfig, model: Model) -> u64 {
    let program = workload.build(2);
    let mut proc = Processor::new(cfg, &program);
    proc.set_model(model);
    proc.run(black_box(MAX_INSTS)).cycles
}

fn dispatch_heavy_config() -> ProcessorConfig {
    ProcessorConfig::four_way(1, PortKind::Wide).with_vectorization(true)
}

fn commit_heavy_config() -> ProcessorConfig {
    ProcessorConfig::four_way(4, PortKind::Scalar)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipehot");
    let dispatch_cfg = dispatch_heavy_config();
    group.bench_function("dispatch_heavy_fast", |b| {
        b.iter(|| run_cycles(Workload::Swim, &dispatch_cfg, Model::Fast));
    });
    group.bench_function("dispatch_heavy_reference", |b| {
        b.iter(|| run_cycles(Workload::Swim, &dispatch_cfg, Model::Reference));
    });
    let commit_cfg = commit_heavy_config();
    group.bench_function("commit_heavy_fast", |b| {
        b.iter(|| run_cycles(Workload::M88ksim, &commit_cfg, Model::Fast));
    });
    group.bench_function("commit_heavy_reference", |b| {
        b.iter(|| run_cycles(Workload::M88ksim, &commit_cfg, Model::Reference));
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
);
criterion_main!(benches);
