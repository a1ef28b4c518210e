//! Criterion micro-bench for the memory and front-end hot paths:
//! `Cache::access` under hit-heavy and miss-heavy mixes (way-predicted fast
//! path vs the `NaiveScan` reference) and the batched emulator hand-off
//! (`Emulator::step_group` vs per-instruction `step`).
//!
//! Like the figure benches, `cargo bench -- --test` doubles as a smoke test.
//! The absolute numbers are a local probe, not a gate: end-to-end
//! regressions are caught by the `perfbench` benchmark (`BENCHMARK.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdv_emu::Emulator;
use sdv_mem::{Cache, CacheConfig, CacheModel};
use sdv_sim::Workload;

/// Hit-heavy stream: sequential words through a working set that fits in the
/// L1 (one cold pass, then in-cache re-reads with occasional writes).
fn cache_stream_hits(model: CacheModel) -> u64 {
    let mut cache = Cache::with_model(CacheConfig::l1d_table1(), model);
    let mut hits = 0;
    for pass in 0..4u64 {
        for addr in (0..16 * 1024u64).step_by(8) {
            if cache
                .access(black_box(addr), pass == 3 && addr % 64 == 0)
                .hit
            {
                hits += 1;
            }
        }
    }
    hits
}

/// Miss-heavy stream: page-strided addresses that collide in a few sets, so
/// nearly every access is a fill plus an eviction (many dirty).
fn cache_stream_misses(model: CacheModel) -> u64 {
    let mut cache = Cache::with_model(CacheConfig::l1d_table1(), model);
    let mut writebacks = 0;
    for round in 0..8u64 {
        for line in 0..1024u64 {
            let addr = line * 64 * 1024 + (line % 8) * 32 + round;
            if cache
                .access(black_box(addr), line % 2 == 0)
                .writeback
                .is_some()
            {
                writebacks += 1;
            }
        }
    }
    writebacks
}

/// Retires `Workload::Compress` one instruction at a time.
fn emulate_stepwise(max_insts: u64) -> u64 {
    let program = Workload::Compress.build(1);
    let mut emu = Emulator::new(&program);
    let mut n = 0;
    while n < max_insts {
        match emu.step() {
            Ok(_) => n += 1,
            Err(_) => break,
        }
    }
    n
}

/// Retires the same stream in fetch-group batches.
fn emulate_grouped(max_insts: u64, group: usize) -> u64 {
    let program = Workload::Compress.build(1);
    let mut emu = Emulator::new(&program);
    let mut buf = Vec::with_capacity(group);
    let mut n = 0;
    while n < max_insts {
        buf.clear();
        match emu.step_group(group.min((max_insts - n) as usize), true, &mut buf) {
            Ok(k) => n += k as u64,
            Err(_) => break,
        }
    }
    n
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("memhot");
    group.bench_function("cache_hits_fastpath", |b| {
        b.iter(|| cache_stream_hits(CacheModel::FastPath));
    });
    group.bench_function("cache_hits_naive", |b| {
        b.iter(|| cache_stream_hits(CacheModel::NaiveScan));
    });
    group.bench_function("cache_misses_fastpath", |b| {
        b.iter(|| cache_stream_misses(CacheModel::FastPath));
    });
    group.bench_function("cache_misses_naive", |b| {
        b.iter(|| cache_stream_misses(CacheModel::NaiveScan));
    });
    group.bench_function("emulate_step", |b| b.iter(|| emulate_stepwise(30_000)));
    group.bench_function("emulate_step_group4", |b| {
        b.iter(|| emulate_grouped(30_000, 4));
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
);
criterion_main!(benches);
