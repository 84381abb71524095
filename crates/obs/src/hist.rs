//! Log-bucketed, lock-free, mergeable histograms, and the per-pair map
//! the engine keys them by.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Bucket `0` holds the value `0`; bucket `i >= 1` holds values whose
/// bit length is `i`, i.e. the half-open power-of-two range
/// `[2^(i-1), 2^i)`. 64-bit values need buckets `0..=64`.
const BUCKETS: usize = 65;

/// A lock-free histogram over `u64` values (nanoseconds, nnz counts)
/// with power-of-two buckets.
///
/// Recording is two relaxed `fetch_add`s plus one bucket increment —
/// cheap enough for the conversion hot path. Quantiles resolve to the
/// *upper bound* of the bucket containing the requested rank, so they
/// are conservative (never under-report) and stable across merges.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index for a value: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (its inclusive upper bound).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (saturating only at `u64` wrap, which a
    /// nanosecond counter reaches after ~584 years of busy time).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Folds `other`'s recordings into `self` (histograms are CRDT-style
    /// mergeable: bucket-wise addition).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v != 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket containing the `ceil(q * count)`-th smallest
    /// recording. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// One `(src, dst)` pair's histograms: conversion latency and input nnz.
pub struct PairSnapshot {
    /// Human-readable pair label (`"SCOO->CSR"`).
    pub label: String,
    /// The pair's plan fingerprint (the engine's cache key).
    pub pair: u64,
    /// End-to-end conversion latency, nanoseconds.
    pub latency_nanos: Histogram,
    /// Input stored-entry counts.
    pub nnz: Histogram,
}

struct PairEntry {
    label: String,
    latency: Histogram,
    nnz: Histogram,
}

/// Per-`(src, dst)` histograms keyed by plan fingerprint.
///
/// The fast path (an already-seen pair) is one shared-lock map read plus
/// lock-free histogram recording; the write lock is taken only the first
/// time a pair appears.
#[derive(Default)]
pub struct PairHistograms {
    map: RwLock<HashMap<u64, Arc<PairEntry>>>,
}

impl PairHistograms {
    /// An empty map.
    pub fn new() -> Self {
        PairHistograms::default()
    }

    /// Records one conversion of `pair`: `latency_nanos` of wall time
    /// moving `nnz` stored entries. `label` is only invoked the first
    /// time the pair is seen.
    pub fn record(&self, pair: u64, label: impl FnOnce() -> String, latency_nanos: u64, nnz: u64) {
        let entry = {
            let map = self.map.read().unwrap_or_else(|e| e.into_inner());
            map.get(&pair).cloned()
        };
        let entry = match entry {
            Some(e) => e,
            None => {
                let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
                Arc::clone(map.entry(pair).or_insert_with(|| {
                    Arc::new(PairEntry {
                        label: label(),
                        latency: Histogram::new(),
                        nnz: Histogram::new(),
                    })
                }))
            }
        };
        entry.latency.record(latency_nanos);
        entry.nnz.record(nnz);
    }

    /// Number of distinct pairs recorded.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no pair has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every pair's histograms, sorted by label
    /// (then fingerprint) so exposition output is deterministic.
    pub fn snapshot(&self) -> Vec<PairSnapshot> {
        let entries: Vec<(u64, Arc<PairEntry>)> = {
            let map = self.map.read().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (*k, Arc::clone(v))).collect()
        };
        let mut out: Vec<PairSnapshot> = entries
            .into_iter()
            .map(|(pair, e)| {
                let latency = Histogram::new();
                latency.merge(&e.latency);
                let nnz = Histogram::new();
                nnz.merge(&e.nnz);
                PairSnapshot { label: e.label.clone(), pair, latency_nanos: latency, nnz }
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label).then(a.pair.cmp(&b.pair)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        // 0 is its own bucket; [2^(i-1), 2^i) shares bucket i.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Upper bounds are inclusive and agree with the assignment.
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 5, 127, 128, 129, 1 << 40] {
            assert!(v <= bucket_upper(bucket_of(v)), "value {v} above its bucket bound");
            if bucket_of(v) > 0 {
                assert!(
                    v > bucket_upper(bucket_of(v) - 1),
                    "value {v} belongs in an earlier bucket"
                );
            }
        }
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0, "empty histogram quantiles are 0");
        // 90 small values (bucket upper 1), 10 large (bucket upper 1023).
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(900);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 + 9000);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.quantile(0.90), 1);
        assert_eq!(h.p95(), 1023);
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.quantile(0.0), 1, "q=0 is the minimum's bucket");
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [1000u64, 2000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 6 + 3000);
        // Both sides' buckets: 1 | 2, 3 | 1000 | 2000.
        assert_eq!(a.quantile(0.2), 1);
        assert_eq!(a.p50(), 3);
        assert_eq!(a.quantile(0.8), 1023);
        assert_eq!(a.p99(), 2047);
    }

    #[test]
    fn pair_histograms_key_by_fingerprint_and_sort_by_label() {
        let pairs = PairHistograms::new();
        pairs.record(2, || "b->c".into(), 100, 5);
        pairs.record(1, || "a->b".into(), 200, 6);
        pairs.record(2, || panic!("label closure must not re-run"), 300, 7);
        assert_eq!(pairs.len(), 2);
        let snap = pairs.snapshot();
        assert_eq!(snap[0].label, "a->b");
        assert_eq!(snap[1].label, "b->c");
        assert_eq!(snap[1].latency_nanos.count(), 2);
        assert_eq!(snap[1].nnz.sum(), 12);
    }
}
