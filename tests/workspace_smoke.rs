//! Workspace smoke test: every workload must assemble and make real forward
//! progress through the full pipeline, with vectorization both off and on,
//! and dynamic vectorization must not cost IPC on the paper's most
//! vectorizable kernel (swim).

use sdv::sim::{PortKind, UarchConfig};
use sdv::uarch::simulate;
use sdv::workloads::Workload;

const MAX_INSTS: u64 = 20_000;
const MIN_COMMITTED: u64 = 1_000;

#[test]
fn every_workload_builds_and_runs_with_and_without_vectorization() {
    for workload in Workload::all() {
        let program = workload.build(1);
        assert!(
            !program.is_empty(),
            "{workload}: kernel assembled to an empty text segment"
        );
        for vectorize in [false, true] {
            let cfg = UarchConfig::four_way(1, PortKind::Wide).with_vectorization(vectorize);
            let stats = simulate(&cfg, &program, MAX_INSTS);
            assert!(
                stats.committed >= MIN_COMMITTED,
                "{workload} (vectorize={vectorize}): committed only {} instructions",
                stats.committed
            );
            assert!(
                stats.ipc() > 0.0,
                "{workload} (vectorize={vectorize}): zero IPC"
            );
            if vectorize {
                let dv = stats.dv.expect("vectorized runs must report DV stats");
                assert!(
                    dv.loads_observed > 0,
                    "{workload}: the Table of Loads never saw a load"
                );
            }
        }
    }
}

/// Pinned smoke expectations for the ROADMAP's mixed-stride and
/// irregular-update kernels (`repro --extended` members, not figure suite).
#[test]
fn stridemix_and_histo_have_pinned_smoke_behaviour() {
    let scalar_cfg = UarchConfig::four_way(1, PortKind::Wide);
    let vector_cfg = scalar_cfg.clone().with_vectorization(true);
    let mut vectorized = Vec::new();
    for workload in [Workload::StrideMix, Workload::Histo] {
        let program = workload.build(1);
        let scalar = simulate(&scalar_cfg, &program, MAX_INSTS);
        let vector = simulate(&vector_cfg, &program, MAX_INSTS);
        for stats in [&scalar, &vector] {
            assert!(
                stats.committed >= MIN_COMMITTED,
                "{workload}: committed only {}",
                stats.committed
            );
            assert!(stats.ipc() > 0.0, "{workload}: zero IPC");
        }
        let dv = vector.dv.expect("vectorized runs report DV stats");
        assert!(
            dv.loads_observed > 0 && dv.elements_launched > 0,
            "{workload}: dynamic vectorization never engaged"
        );
        vectorized.push((scalar, vector, dv));
    }
    let (_, stridemix, stridemix_dv) = &vectorized[0];
    let (histo_scalar, histo, histo_dv) = &vectorized[1];
    // stridemix: both streams have constant strides, so vector instances are
    // plentiful — and the sparse stream's wrap-around periodically breaks its
    // stride, which must surface as validation failures, not wrong results.
    assert!(
        stridemix_dv.load_instances > 500,
        "stridemix should vectorize heavily, got {} instances",
        stridemix_dv.load_instances
    );
    assert!(
        stridemix_dv.validation_failures > 0,
        "the sparse stream's wrap must break its stride occasionally"
    );
    // histo: the histogram read-modify-writes are data-dependent, so the
    // store-conflict path is exercised constantly — and the stride-1 key
    // stream still makes DV a clear IPC win on this memory-bound kernel.
    assert!(
        histo_dv.stores_checked > 1_000,
        "histo must exercise store-conflict checking, got {}",
        histo_dv.stores_checked
    );
    assert!(
        histo.ipc() > histo_scalar.ipc(),
        "histo: vectorizing the key stream should win ({:.3} vs {:.3})",
        histo.ipc(),
        histo_scalar.ipc()
    );
    // The structured kernel spends a larger share of its commits in vector
    // mode than the irregular one (compare fractions via cross-products).
    assert!(
        stridemix.committed_vector_mode * histo.committed
            > histo.committed_vector_mode * stridemix.committed,
        "stridemix should out-vectorize histo"
    );
}

#[test]
fn vectorization_does_not_cost_ipc_on_swim() {
    let program = Workload::Swim.build(1);
    let scalar_cfg = UarchConfig::four_way(1, PortKind::Wide);
    let vector_cfg = scalar_cfg.clone().with_vectorization(true);
    let scalar = simulate(&scalar_cfg, &program, MAX_INSTS);
    let vector = simulate(&vector_cfg, &program, MAX_INSTS);
    assert!(
        vector.ipc() >= scalar.ipc(),
        "swim: vectorized IPC {:.3} fell below scalar IPC {:.3}",
        vector.ipc(),
        scalar.ipc()
    );
}
