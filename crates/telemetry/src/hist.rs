//! Log-bucketed latency/work histograms.
//!
//! [`Histogram`] buckets non-negative integer samples by bit length
//! (powers of two): bucket 0 holds the value 0, bucket `b ≥ 1` holds
//! values in `[2^(b-1), 2^b)`. That gives constant-time recording, a
//! fixed 65-slot footprint regardless of range, and quantile estimates
//! with bounded relative error (one octave) — the usual trade for
//! recording per-chunk latencies and per-vertex wedge-expansion costs in
//! hot paths without allocating.

use crate::json::Json;

/// Number of buckets: one for zero plus one per possible bit length.
const NBUCKETS: usize = 65;

/// Power-of-two bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NBUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value: 0 for 0, else its bit length.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Inclusive value range covered by bucket `b`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        match b {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (b - 1), (1u64 << b) - 1),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any was recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), interpolated linearly
    /// within the containing bucket and clamped to the observed
    /// `[min, max]` so p0/p100 are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c > target {
                let (lo, hi) = Self::bucket_bounds(b);
                let frac = (target - cum) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Raw per-bucket counts, indexed by [`Histogram::bucket_bounds`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={}  min={}  p50={:.0}  p90={:.0}  p99={:.0}  max={}",
            self.count,
            self.min,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }

    /// Lower to JSON: exact state plus convenience quantiles (the
    /// quantiles are derived and ignored when parsing back).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| Json::Arr(vec![Json::UInt(b as u64), Json::UInt(c)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::UInt(self.count)),
            ("sum".into(), Json::UInt(self.sum)),
            ("min".into(), Json::UInt(self.min)),
            ("max".into(), Json::UInt(self.max)),
            ("p50".into(), Json::Float(self.p50())),
            ("p90".into(), Json::Float(self.p90())),
            ("p99".into(), Json::Float(self.p99())),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }

    /// Reconstruct from [`Histogram::to_json`] output.
    pub fn from_json(j: &Json) -> Result<Histogram, String> {
        let get = |k: &str| j.get(k).ok_or_else(|| format!("histogram: missing `{k}`"));
        let mut h = Histogram::new();
        h.count = get("count")?.as_u64().ok_or("histogram count: integer")?;
        h.sum = get("sum")?.as_u64().ok_or("histogram sum: integer")?;
        h.min = get("min")?.as_u64().ok_or("histogram min: integer")?;
        h.max = get("max")?.as_u64().ok_or("histogram max: integer")?;
        for pair in get("buckets")?.as_arr().ok_or("histogram buckets: array")? {
            let pair = pair.as_arr().ok_or("histogram bucket: [index, count]")?;
            let (b, c) = match pair {
                [b, c] => (
                    b.as_u64().ok_or("bucket index: integer")? as usize,
                    c.as_u64().ok_or("bucket count: integer")?,
                ),
                _ => return Err("histogram bucket: expected a pair".into()),
            };
            if b >= NBUCKETS {
                return Err(format!("bucket index {b} out of range"));
            }
            h.buckets[b] = c;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for b in 0..NBUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(b);
            assert_eq!(Histogram::bucket_of(lo), b);
            assert_eq!(Histogram::bucket_of(hi), b);
        }
    }

    #[test]
    fn exact_stats_and_bounded_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), 1000);
        // Log buckets bound the relative error by one octave.
        let p50 = h.p50();
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
        assert!(h.p99() <= 1000.0);
        assert!(h.quantile(0.0) >= 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        a.record(100);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), 100);
        assert_eq!(a.sum(), 108);
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 9, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(h, back);
        // Empty round-trips too (min stays at the sentinel).
        let e = Histogram::new();
        assert_eq!(Histogram::from_json(&e.to_json()).unwrap(), e);
    }
}
