//! What the benchmark reads about the host and the process: cores, CPU
//! model, commit, peak resident memory, and the environment guard.

use serde_json::{json, Value};
use std::path::Path;

/// Worker threads the parallel legs use: the cores this process may
/// run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model named in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let head = read(&git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown" } else { head }.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build provenance recorded with every result.
pub fn provenance() -> Value {
    json!({
        "nproc": nproc(),
        "cpu": cpu_model(),
        "commit": commit(),
    })
}

/// This process's peak resident set (`VmHWM`), in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kb as f64 / 1024.0
}

/// Reset `VmHWM` to the current resident set, so the next reading is
/// the peak of what runs in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `PHISHSIM_*` variables set in the environment. Each selects a
/// different program (a cache switched off, a thread count forced), so
/// the benchmark refuses to measure under any of them.
pub fn phishsim_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PHISHSIM_"))
        .collect()
}
