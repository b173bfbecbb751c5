//! Log-bucketed latency histograms (HDR-style).
//!
//! Values are bucketed by their power-of-2 **major** with
//! `2^SUB_BITS` linear **sub-buckets** per major: values below
//! `2^SUB_BITS` land in exact single-value buckets, and every larger
//! bucket has width `2^(major - SUB_BITS)`, so the bucket containing a
//! value `v` is never wider than `v / 2^SUB_BITS`. Quantile estimates
//! return the bucket midpoint, bounding the relative error by
//! `2^-(SUB_BITS+1)` (~1.6% at `SUB_BITS = 5`) plus integer rounding.
//!
//! The bucket index is branch-free arithmetic on `leading_zeros`, and
//! counts live in a lazily grown `Vec<u64>` (nanosecond values up to
//! ~10 s need fewer than a thousand buckets), so recording into a
//! histogram costs one index computation and one slot increment — cheap
//! enough to hang off every `span!` drop.
//!
//! A histogram is also a span's statistics: beside the buckets it keeps
//! the exact count, sum, min and max, so the registry holds one
//! histogram (plus a byte sum) per name and derives `SpanStats` from
//! it. Histograms are sharded per thread exactly like counters (see
//! `registry`): dying threads fold theirs into the retired accumulator,
//! and [`Histogram::merge`] is exact (bucket-wise addition), so
//! snapshot quantiles see every recorded value exactly once.

/// Linear sub-bucket resolution: `2^SUB_BITS` sub-buckets per
/// power-of-2 major.
pub const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Index of the bucket containing `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let major = 63 - v.leading_zeros() as u64; // >= SUB_BITS
        let sub = (v >> (major - SUB_BITS as u64)) & (SUB_COUNT - 1);
        ((major - SUB_BITS as u64 + 1) * SUB_COUNT + sub) as usize
    }
}

/// Lowest value that lands in bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_COUNT {
        i
    } else {
        let major_off = i / SUB_COUNT; // 1-based offset above the linear region
        let sub = i % SUB_COUNT;
        (SUB_COUNT + sub) << (major_off - 1)
    }
}

/// Width of bucket `i` (1 in the exact region, `2^(major - SUB_BITS)`
/// above it).
#[inline]
fn bucket_width(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_COUNT {
        1
    } else {
        1 << (i / SUB_COUNT - 1)
    }
}

/// A log-bucketed histogram of `u64` values (typically nanoseconds).
///
/// Supports exact [`merge`](Self::merge), bucket-wise
/// [`delta_since`](Self::delta_since), and quantile estimation with
/// bounded relative error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, grown lazily to the highest touched index.
    counts: Vec<u64>,
    count: u64,
    /// Sum of recorded values (saturating).
    total: u64,
    /// Smallest recorded value (exact; 0 while empty).
    min: u64,
    /// Largest recorded value (exact, not bucket-rounded).
    max: u64,
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        self.total = self.total.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (exact; 0 while empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact bucket-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise difference since `earlier` (which must be an earlier
    /// view of the same accumulating histogram). `min` and `max` keep
    /// the cumulative values — extrema don't subtract.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let counts = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c.saturating_sub(earlier.counts.get(i).copied().unwrap_or(0)))
            .collect();
        Histogram {
            counts,
            count: self.count.saturating_sub(earlier.count),
            total: self.total.saturating_sub(earlier.total),
            min: self.min,
            max: self.max,
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`): the midpoint of the
    /// bucket holding the value of rank `ceil(q * count)`. Returns 0
    /// for an empty histogram. Relative error is bounded by
    /// `2^-(SUB_BITS+1)` plus integer rounding.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = bucket_lower(i) + bucket_width(i) / 2;
                // Never report beyond the observed maximum.
                return mid.min(self.max);
            }
        }
        self.max
    }

    /// Iterate non-empty buckets as `(upper_bound_inclusive, count)`,
    /// in increasing bound order — the shape Prometheus exposition and
    /// the flight dump serialize.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower(i) + bucket_width(i) - 1, c))
    }
}

/// The standard quantile summary every span key gains in a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantiles {
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// Exact observed maximum.
    pub max: u64,
}

impl Quantiles {
    pub(crate) fn from_hist(h: &Histogram) -> Quantiles {
        Quantiles {
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every value maps into a bucket whose [lower, lower+width)
        // range contains it, and indices are monotone in the value.
        let mut probes: Vec<u64> = (0..40u64)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift) + off))
            .collect();
        probes.sort_unstable();
        let mut prev = 0usize;
        for v in probes {
            let i = bucket_index(v);
            let lo = bucket_lower(i);
            let w = bucket_width(i);
            assert!(lo <= v && v < lo + w, "v={v} i={i} lo={lo} w={w}");
            assert!(i >= prev, "index not monotone at v={v}");
            prev = i;
        }
    }

    #[test]
    fn exact_region_is_exact() {
        let mut h = Histogram::default();
        for v in 0..SUB_COUNT {
            h.record(v);
        }
        for (i, (upper, count)) in h.buckets().enumerate() {
            assert_eq!(upper, i as u64);
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn quantile_of_uniform_values() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1k..1M, spread over many majors
        }
        for (q, exact) in [(0.5, 500_000u64), (0.9, 900_000), (0.99, 990_000)] {
            let est = h.quantile(q);
            let err = est.abs_diff(exact);
            assert!(
                err as f64 <= exact as f64 / 32.0 + 1.0,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.buckets().count(), 0);
    }
}
