//! Sample statistics: percentiles and the reported tail.

/// Percentile `p` in [0, 1] of ascending `sorted` samples (nearest rank on
/// `(n - 1) * p`, the rule the repository's other benchmarks use).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Percentiles tried for the reported tail, highest last.
const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` with fewer than eleven
/// samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| {
            let idx = ((s.len() as f64 - 1.0) * p).round() as usize;
            !s.is_empty() && s.len() - 1 - idx.min(s.len() - 1) >= 10
        })
        .map(|&p| (p, percentile(&s, p)))
}

/// One line describing a latency sample set: `<name>_p50`, the tail and
/// the sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let mut line = format!(
        "{name}_p50 = {:.4} {unit} (n={})",
        median(samples),
        samples.len()
    );
    match tail(samples) {
        Some((p, v)) => line.push_str(&format!(", {name}_p{} = {v:.4} {unit}", p * 100.0)),
        None => line.push_str(", no tail percentile has 10 samples beyond it"),
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0, 5.0]), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let s: Vec<f64> = (0..21).map(f64::from).collect();
        // p50 sits at index 10, leaving exactly 10 samples above it.
        assert_eq!(tail(&s), Some((0.5, 10.0)));
        let s: Vec<f64> = (0..1001).map(f64::from).collect();
        // p99 at index 990 leaves 10 beyond; p99.9 would leave 1.
        assert_eq!(tail(&s), Some((0.99, 990.0)));
    }
}
