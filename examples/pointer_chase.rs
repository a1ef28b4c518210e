//! Irregular code: what dynamic vectorization does (and does not do) on a
//! pointer-chasing workload like the paper's `li` and `gcc`.
//!
//! The `li` kernel chases cons cells whose addresses have no usable stride, so
//! almost nothing vectorizes; the `vortex` kernel copies records with stride-1
//! field accesses and vectorizes heavily.  This example contrasts the two.
//!
//! ```text
//! cargo run --release --example pointer_chase
//! ```

use sdv::sim::{MachineWidth, RunConfig, RunEngine, Variant, Workload};

fn main() {
    let cfg = Variant::Vectorized.config(MachineWidth::FourWay, 1);
    let rc = RunConfig {
        scale: 4,
        max_insts: 300_000,
    };
    let workloads = [
        Workload::Li,
        Workload::Gcc,
        Workload::Vortex,
        Workload::Compress,
    ];

    // One engine batch simulates the four kernels on four threads.
    let engine = RunEngine::new(rc).with_threads(4);
    let suite = engine.suite(&workloads, &cfg);

    println!("4-way, 1 wide port, dynamic vectorization enabled\n");
    println!(
        "  {:<10} {:>8} {:>14} {:>16} {:>14}",
        "workload", "IPC", "validations", "vector mode %", "mispredict %"
    );
    for (workload, stats) in &suite.runs {
        println!(
            "  {:<10} {:>8.3} {:>14} {:>15.1}% {:>13.1}%",
            workload.name(),
            stats.ipc(),
            stats.committed_validations,
            stats.vector_mode_fraction() * 100.0,
            stats.misprediction_rate() * 100.0,
        );
    }
    println!(
        "\npointer chasing (li) stays scalar while record copying (vortex) vectorizes,\n\
         mirroring the per-benchmark spread of Figure 3 in the paper."
    );
}
