//! Small, exact helpers the benchmark's figures and checks rest on.

/// Exact `q`-quantile of raw samples by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it. Sorts a
/// copy; `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over samples already sorted ascending.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// Median of a few repetitions: the middle value, or the mean of the
/// two middle values for an even count. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Relabel a partition canonically: clusters are numbered 0, 1, 2, … in
/// the order of their first member. Two labelings describe the same
/// partition exactly when their canonical forms are equal, whatever
/// label values a driver's schedule happened to produce.
pub fn canonical<L: Copy + Ord>(labels: &[L]) -> Vec<u32> {
    let mut seen = std::collections::BTreeMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = seen.len() as u32;
            *seen.entry(l).or_insert(next)
        })
        .collect()
}

/// Pair-flow conservation of one clustering run: every generated pair
/// was aligned, skipped, or left unconsumed in a buffer, and none was
/// lost to a fault. Returns the violation as text.
pub fn check_conservation(
    generated: u64,
    processed: u64,
    skipped: u64,
    unconsumed: u64,
    lost: u64,
) -> Result<(), String> {
    let accounted = processed + skipped + unconsumed;
    if generated != accounted {
        return Err(format!(
            "pair flow not conserved: generated {generated} != processed {processed} + \
             skipped {skipped} + unconsumed {unconsumed}"
        ));
    }
    if lost != 0 {
        return Err(format!("{lost} pairs lost to faults"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.99), Some(99.0));
        // Values between buckets come back exactly, not rounded.
        assert_eq!(percentile(&[6.9, 11.1, 7.3], 0.5), Some(7.3));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[4.0], 0.99), Some(4.0));
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.0));
        assert_eq!(percentile_sorted(&[], 0.75), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn canonical_relabelling_ignores_label_values() {
        let a = canonical(&[7usize, 7, 3, 9, 3]);
        let b = canonical(&[0u64, 0, 1, 2, 1]);
        assert_eq!(a, vec![0, 0, 1, 2, 1]);
        assert_eq!(a, b);
        // A different partition stays different.
        assert_ne!(canonical(&[1, 1, 2, 2, 2]), canonical(&[1, 1, 2, 2, 3]));
        assert!(canonical::<u8>(&[]).is_empty());
    }

    #[test]
    fn conservation_check_flags_leaks_and_losses() {
        assert!(check_conservation(10, 4, 5, 1, 0).is_ok());
        assert!(check_conservation(10, 4, 5, 0, 0).is_err());
        assert!(check_conservation(10, 4, 5, 2, 0).is_err());
        assert!(check_conservation(10, 4, 5, 1, 1).is_err());
    }
}
