//! Host readings from `/proc`: peak resident memory and run-queue wait.

/// Peak resident set size (`VmHWM`) in MB; 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds this process's main thread has waited on a run queue (the second
/// field of `/proc/self/schedstat`).  The kernel counts it in scheduler
/// ticks, so it shows descheduling but cannot time a single cell.
pub fn runqueue_wait_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns * 1e-9)
}
