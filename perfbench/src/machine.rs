//! Machine descriptor and process memory readings.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A `/proc/self/status` size field (`VmHWM`, `VmRSS`, ...), in MiB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Resets this process's VmHWM to its current RSS, so the peak reported
/// after the timed phase excludes the one-time reference computation.
/// Returns that RSS in MiB: heap freed by the reference but kept by the
/// allocator stays in it, so a value close to the reported peak means the
/// peak measures the leftover.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))?;
    status_mb("VmRSS:").ok_or_else(|| "VmRSS unreadable".into())
}

/// One line naming the machine, the kernel backend in effect, the seed and
/// the sample counts, printed next to every result.
pub fn descriptor(seed: u64, samples: &[(&str, usize)]) -> String {
    let counts: Vec<String> = samples.iter().map(|(n, c)| format!("{n}={c}")).collect();
    format!(
        "machine: nproc={} cpu=\"{}\" backend={} seed={seed} samples[{}]",
        nproc(),
        cpu_model(),
        lima_matrix::backend::active_kind().name(),
        counts.join(" ")
    )
}
