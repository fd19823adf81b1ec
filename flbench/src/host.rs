//! Facts about the host a result was measured on.

use std::fs;

/// The CPU features the crypto kernels dispatch on.
const CPU_FLAGS: [&str; 3] = ["avx2", "avx512ifma", "sha_ni"];

/// One line naming the thread count, the dispatch-relevant CPU flags, the
/// compiler and the build profile.
pub fn facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let dispatch: Vec<String> = CPU_FLAGS
        .iter()
        .map(|f| format!("{f}={}", if flags.contains(f) { "yes" } else { "no" }))
        .collect();
    format!(
        "host: nproc={nproc} {} rustc=\"{}\" profile=\"{}\"",
        dispatch.join(" "),
        env!("FLBENCH_RUSTC_VERSION"),
        env!("FLBENCH_PROFILE"),
    )
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
