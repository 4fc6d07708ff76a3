//! Order statistics over latency samples.

/// Latency samples of one operation kind, in the order they were taken.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `p`-quantile (`0.0..=1.0`) by the nearest-rank rule.
    ///
    /// # Panics
    /// Panics on an empty sample set: every workload issues at least one
    /// operation of every kind, so an empty set is a bug in the script.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of an empty sample set");
        let mut sorted = self.0.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly beyond the `p`-quantile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        beyond(self.0.len(), p)
    }
}

/// How many of `n` samples lie strictly beyond the `p`-quantile's rank — the
/// guide's "at least ten samples beyond it" support for a percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// so `compare` reports the same spread the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |i: usize| {
                let pos = i as f64 * (n as f64 + 1.0) / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + frac * (v[j] - v[j - 1])
            };
            (at(1), at(2), at(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.quantile(1.0), 100.0);
        let s = Samples((1..=1000).map(f64::from).collect());
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.beyond(0.95), 50);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
    }
}
