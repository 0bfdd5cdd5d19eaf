//! What one workload run hands back: end-to-end metrics, deterministic
//! counts, per-layer timings and the outcome of every output check.

use std::collections::BTreeMap;
use std::time::Duration;

/// One workload's results. Counts and timings live in separate maps:
/// counts must repeat exactly for a seed, timings never do.
#[derive(Default)]
pub struct Report {
    /// The workload's own end-to-end metrics, raw: (name, value, unit).
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Host-normalized values of the `BENCHMARK.json` end-to-end metrics.
    pub setup_s: f64,
    pub primary_per_s: f64,
    pub secondary_per_s: f64,
    /// Deterministic counts (simulated events, ops, jobs).
    pub counts: BTreeMap<String, u64>,
    /// Wall-clock per-layer numbers: (value, unit).
    pub timings: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted (simulation runs, round trips, served jobs).
    pub attempted: u64,
    /// Operations that failed, timed out, retried or degraded.
    pub failures: Vec<String>,
    /// Output checks that did not hold.
    pub wrong: Vec<String>,
}

impl Report {
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn timing(&mut self, name: &str, value: f64, unit: &'static str) {
        self.timings.insert(name.to_string(), (value, unit));
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }

    /// Checks that a count came out the same on every repetition, then
    /// records it.
    pub fn count_same(&mut self, name: &str, values: &[u64]) {
        let first = values.first().copied().unwrap_or(0);
        self.check(values.iter().all(|v| *v == first), || {
            format!("{name} differs between repetitions of one seed: {values:?}")
        });
        self.count(name, first);
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn median_secs(values: &[Duration]) -> f64 {
    median(&values.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// splitmix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn count_same_flags_a_differing_repetition() {
        let mut r = Report::default();
        r.count_same("soc.delivered", &[5, 5, 5]);
        assert!(r.wrong.is_empty());
        r.count_same("soc.delivered", &[5, 6]);
        assert_eq!(r.wrong.len(), 1);
        assert_eq!(r.counts["soc.delivered"], 5);
    }
}
