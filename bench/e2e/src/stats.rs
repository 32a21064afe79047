//! Latency samples and the few order statistics the report needs.

/// Latency samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in microseconds; 0 when there are no
    /// samples.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_us(50.0)
    }

    /// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
    /// samples beyond it, with its name; `(0, "none")` below 100 samples.
    pub fn tail_us(&self) -> (f64, &'static str) {
        for (p, name) in [(99.9, "p99.9"), (99.0, "p99"), (95.0, "p95"), (90.0, "p90")] {
            if self.0.len() as f64 * (1.0 - p / 100.0) >= 10.0 {
                return (self.percentile_us(p), name);
            }
        }
        (0.0, "none")
    }
}

/// Latencies of one kind of operation in a run whose slices alternate
/// between traced and untraced (see `openloop::traced_slice`).
#[derive(Clone, Debug, Default)]
pub struct Sliced {
    pub untraced: Samples,
    pub traced: Samples,
}

impl Sliced {
    pub fn push(&mut self, traced: bool, ns: u64) {
        if traced {
            self.traced.push(ns);
        } else {
            self.untraced.push(ns);
        }
    }

    /// Every sample of the run.
    pub fn all(&self) -> Samples {
        let mut s = self.untraced.clone();
        s.extend(&self.traced);
        s
    }

    /// What a figure a user sees is computed from: in a traced run only the
    /// untraced slices, otherwise everything.
    pub fn undisturbed(&self, traced_run: bool) -> Samples {
        if traced_run {
            self.untraced.clone()
        } else {
            self.all()
        }
    }

    /// `(traced p50, untraced p50)` for `loadgen.trace_overhead_share`.
    pub fn overhead_pair(&self) -> (f64, f64) {
        (self.traced.p50_us(), self.untraced.p50_us())
    }
}

/// Median of a small set of floats (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::default();
        for i in 1..=1000u64 {
            s.push(i * 1000);
        }
        assert_eq!(s.p50_us(), 500.0);
        assert_eq!(s.percentile_us(99.0), 990.0);
        assert_eq!(s.tail_us(), (990.0, "p99"));
        assert_eq!(Samples::default().p50_us(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
