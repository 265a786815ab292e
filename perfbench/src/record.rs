//! Verdict records and the end-to-end statistics computed from them.

use std::collections::BTreeMap;

/// No timed verdict should take less than this: below ~1 ms a verdict
/// time is mostly clock, cache and frequency noise, so the workloads
/// batch their smallest operations (see each workload's repetition
/// table).
pub const VERDICT_FLOOR_MS: f64 = 1.0;

/// One timed, checked operation.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Grouping key: one per model (and per arena hit/miss on the
    /// server), so the geometric mean weights every model equally.
    pub key: String,
    /// Wall time in milliseconds.
    pub ms: f64,
    /// Arrived and equals the oracle.
    pub correct: bool,
    /// Ended in an error, refusal, timeout, panic or missing frame.
    pub failed: bool,
}

/// The end-to-end figures of a set of verdicts.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Verdicts attempted.
    pub attempted: usize,
    /// Verdicts that failed.
    pub failed: usize,
    /// Verdicts that arrived and were right.
    pub correct: usize,
    /// Verdicts per second, as the caller measured it.
    pub verdicts_per_s: f64,
    /// Median verdict time.
    pub p50_ms: f64,
    /// 90th-percentile verdict time.
    pub p90_ms: f64,
    /// Geometric mean over keys of each key's geometric mean.
    pub geomean_ms: f64,
    /// Fastest verdict (checked against [`VERDICT_FLOOR_MS`]).
    pub min_ms: f64,
}

/// Quantile `q` of ascending `sorted` by linear interpolation between
/// closest ranks (the same rule as `statistics.quantiles(...,
/// method="inclusive")`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.max(1e-9).ln(), n + 1));
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// Summarise `verdicts`, completed at `verdicts_per_s`.
pub fn summarize(verdicts: &[Verdict], verdicts_per_s: f64) -> Summary {
    let mut times: Vec<f64> = verdicts.iter().map(|v| v.ms).collect();
    times.sort_by(f64::total_cmp);
    let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for v in verdicts {
        by_key.entry(&v.key).or_default().push(v.ms);
    }
    Summary {
        attempted: verdicts.len(),
        failed: verdicts.iter().filter(|v| v.failed).count(),
        correct: verdicts.iter().filter(|v| v.correct).count(),
        verdicts_per_s,
        p50_ms: quantile(&times, 0.5),
        p90_ms: quantile(&times, 0.9),
        geomean_ms: geomean(by_key.values().map(|t| geomean(t.iter().copied()))),
        min_ms: times.first().copied().unwrap_or(f64::NAN),
    }
}

impl Summary {
    /// Percent of attempted verdicts that were right.
    pub fn correct_share(&self) -> f64 {
        100.0 * self.correct as f64 / self.attempted.max(1) as f64
    }

    /// Percent of attempted verdicts that failed.
    pub fn failed_share(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The peak resident set of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(key: &str, ms: f64) -> Verdict {
        Verdict {
            key: key.to_owned(),
            ms,
            correct: true,
            failed: false,
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn geomean_weights_keys_not_samples() {
        // Nine samples of `a` at 1 ms and one of `b` at 100 ms: every key
        // counts once, so the mean is sqrt(1 * 100).
        let mut vs: Vec<Verdict> = (0..9).map(|_| v("a", 1.0)).collect();
        vs.push(v("b", 100.0));
        let s = summarize(&vs, 1.0);
        assert!((s.geomean_ms - 10.0).abs() < 1e-9);
    }
}
