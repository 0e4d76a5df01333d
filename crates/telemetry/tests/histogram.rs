//! Histogram semantics tests: log2 bucket boundaries and exact
//! nearest-rank percentiles (the contract that lets the registry's
//! `service.latency_ns` histogram reproduce `ServiceSummary` percentiles
//! byte-for-byte).

use mp_telemetry::{bucket_index, bucket_range, HistSnapshot};

#[test]
fn bucket_boundaries_are_exact_powers_of_two() {
    // Bucket 0 holds only zero; bucket k >= 1 holds [2^(k-1), 2^k).
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    for k in 1..64usize {
        let lo = 1u64 << (k - 1);
        let hi = (1u64 << k) - 1;
        assert_eq!(bucket_index(lo), k, "low edge of bucket {k}");
        assert_eq!(bucket_index(hi), k, "high edge of bucket {k}");
        assert_eq!(bucket_range(k), (lo, hi));
    }
    assert_eq!(bucket_index(u64::MAX), 64);
    assert_eq!(bucket_range(64), (1u64 << 63, u64::MAX));
    assert_eq!(bucket_range(0), (0, 0));
}

#[test]
fn every_sample_lands_in_its_reported_bucket() {
    let mut h = HistSnapshot::new();
    let samples = [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX];
    h.observe_all(&samples);
    assert_eq!(h.count(), samples.len() as u64);
    for &v in &samples {
        let k = bucket_index(v);
        let (lo, hi) = bucket_range(k);
        assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
        assert!(h.buckets()[k] > 0, "bucket {k} empty despite sample {v}");
    }
    assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
}

#[test]
fn percentiles_are_exact_nearest_rank_not_interpolated() {
    let mut h = HistSnapshot::new();
    h.observe_all(&[10, 20, 30, 40]);
    // nearest-rank: rank = ceil(q*n) clamped to [1, n], value = sorted[rank-1]
    assert_eq!(h.percentile(0.50), Some(20));
    assert_eq!(h.percentile(0.51), Some(30));
    assert_eq!(h.percentile(0.75), Some(30));
    assert_eq!(h.percentile(0.99), Some(40));
    assert_eq!(h.percentile(0.999), Some(40));
    assert_eq!(h.percentile(0.0), Some(10));
    assert_eq!(h.percentile(1.0), Some(40));
    assert_eq!(HistSnapshot::new().percentile(0.5), None);
}

#[test]
fn percentiles_match_a_reference_sort_for_awkward_sizes() {
    // Duplicates, unsorted insert order, sizes that stress the ceil/clamp.
    for n in [1usize, 2, 3, 7, 99, 100, 101, 1000] {
        let mut h = HistSnapshot::new();
        let samples: Vec<u64> = (0..n).map(|i| ((i * 7919 + 13) % 257) as u64).collect();
        h.observe_all(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            assert_eq!(
                h.percentile(q),
                Some(sorted[rank - 1]),
                "n={n} q={q} disagrees with the reference nearest-rank"
            );
        }
        assert_eq!(h.min(), sorted.first().copied());
        assert_eq!(h.max(), sorted.last().copied());
    }
}

#[test]
fn absorb_merges_counts_sums_and_buckets() {
    let mut a = HistSnapshot::new();
    a.observe_all(&[1, 2, 3]);
    let mut b = HistSnapshot::new();
    b.observe_all(&[100, 200]);
    a.absorb(&b);
    assert_eq!(a.count(), 5);
    assert_eq!(a.sum(), 306);
    assert_eq!(a.percentile(0.999), Some(200));
    assert_eq!(a.buckets().iter().sum::<u64>(), 5);
    // Absorbing into an empty histogram, or building one from owned
    // samples, equals observing the same samples one by one.
    let mut empty = HistSnapshot::new();
    empty.absorb(&a);
    assert_eq!(empty, a);
    for samples in [vec![1, 2, 3, 100, 200], vec![200, 1, 100]] {
        let mut observed = HistSnapshot::new();
        observed.observe_all(&samples);
        assert_eq!(HistSnapshot::from_samples(samples), observed);
    }
}
