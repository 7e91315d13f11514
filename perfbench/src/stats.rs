//! Small numeric helpers: percentiles over raw samples, histogram deltas,
//! order-independent result fingerprints and resident-memory readings.

use pbds_core::HistogramSnapshot;
use pbds_storage::Relation;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; `f64::INFINITY`
/// entries stand for failed requests and sort above every latency.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a few repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Quantile (in the histogram's exposition unit) of what a histogram
/// recorded between two snapshots of it.
pub fn histogram_delta_quantile(
    before: Option<&HistogramSnapshot>,
    after: Option<&HistogramSnapshot>,
    q: f64,
) -> f64 {
    let Some(after) = after else { return 0.0 };
    let mut counts: BTreeMap<u64, i64> = after.buckets().map(|(b, c)| (b, c as i64)).collect();
    if let Some(before) = before {
        for (bound, c) in before.buckets() {
            *counts.entry(bound).or_default() -= c as i64;
        }
    }
    let total: i64 = counts.values().map(|c| (*c).max(0)).sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q * total as f64).ceil() as i64).max(1);
    let mut cum = 0i64;
    for (bound, c) in &counts {
        cum += (*c).max(0);
        if cum >= target {
            return *bound as f64 * after.scale();
        }
    }
    0.0
}

/// Order-independent fingerprint of a result relation: the row count plus
/// the wrapping sum of per-row hashes. Two relations are bag-equal exactly
/// when their fingerprints match (up to hash collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    rows: usize,
    hash_sum: u64,
}

impl Fingerprint {
    pub fn of(relation: &Relation) -> Fingerprint {
        let hash_sum = relation.rows().iter().fold(0u64, |acc, row| {
            let mut h = DefaultHasher::new();
            row.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        Fingerprint {
            rows: relation.len(),
            hash_sum,
        }
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_and_counts_failures_high() {
        let v = [3.0, 1.0, 2.0, f64::INFINITY];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), f64::INFINITY);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
