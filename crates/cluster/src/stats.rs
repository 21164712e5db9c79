//! Run statistics: the numbers behind Table 3 and Figures 6–8.

/// Wall-clock seconds spent in each pipeline component (Table 3's rows).
/// In the parallel driver each value is the maximum across ranks — the
/// critical-path time, which is what the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimers {
    /// Bucket counting, global summation and bucket assignment.
    pub partitioning: f64,
    /// Per-bucket subtree construction.
    pub gst_construction: f64,
    /// Collecting and sorting nodes by string-depth (generator setup).
    pub node_sorting: f64,
    /// Pairwise (anchored banded) alignment.
    pub alignment: f64,
    /// End-to-end wall clock.
    pub total: f64,
}

impl PhaseTimers {
    /// Merge with another rank's timers, keeping per-phase maxima.
    pub fn max_with(&mut self, other: &PhaseTimers) {
        self.partitioning = self.partitioning.max(other.partitioning);
        self.gst_construction = self.gst_construction.max(other.gst_construction);
        self.node_sorting = self.node_sorting.max(other.node_sorting);
        self.alignment = self.alignment.max(other.alignment);
        self.total = self.total.max(other.total);
    }
}

/// Recovery and fault counters, all zero on a fault-free run. Reported
/// as the `faults.*` metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// `Work` batches re-sent after a slave missed its reply deadline.
    pub retries: u64,
    /// Reports ignored as duplicate or stale (wrong sequence number, or
    /// from a slave already declared dead), plus reports and reconciler
    /// records rejected for naming an EST outside the library or a pair
    /// the receiving shard does not own.
    pub duplicate_reports: u64,
    /// Slaves declared dead after the retry budget ran out.
    pub dead_slaves: u64,
    /// Outstanding pairs of dead slaves put back on the work queue.
    pub reassigned_pairs: u64,
    /// Queued pairs discarded because no live slave remained; also
    /// counted into `pairs_skipped` so conservation stays exact.
    pub abandoned_pairs: u64,
    /// Pairs slaves shipped that never reached the master (dropped in
    /// flight, or held by a dead slave); folded into `pairs_unconsumed`
    /// so conservation stays exact. Driver-computed.
    pub lost_pairs: u64,
}

/// Counters for one clustering run (Figure 7's three series and more).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterStats {
    /// Promising pairs generated by the suffix-tree generators.
    pub pairs_generated: u64,
    /// Pairs on which the alignment algorithm was actually run.
    pub pairs_processed: u64,
    /// Alignments accepted as merge evidence.
    pub pairs_accepted: u64,
    /// Accepted alignments that caused an actual cluster merge (the rest
    /// arrived after their clusters were already joined).
    pub merges: u64,
    /// Pairs the master discarded because both ESTs already shared a
    /// cluster — the work saved by the greedy order.
    pub pairs_skipped: u64,
    /// Processed pairs rejected by the cheap pre-alignment filter
    /// (anchor geometry or diagonal identity) without any DP cell being
    /// filled. A subset of `pairs_processed`, so conservation is
    /// untouched.
    pub pairs_prefiltered: u64,
    /// Pairs generated but still buffered (never dispatched) when the run
    /// ended — the tail the greedy order made unnecessary. Conservation:
    /// `pairs_generated == pairs_processed + pairs_skipped + pairs_unconsumed`.
    pub pairs_unconsumed: u64,
    /// Point-to-point messages exchanged (parallel driver only).
    pub messages: u64,
    /// Fraction of wall-clock the master spent busy (parallel only).
    pub master_busy_frac: f64,
    /// Recovery counters (all zero unless faults occurred).
    pub faults: FaultStats,
    /// Component wall-clock breakdown.
    pub timers: PhaseTimers,
}

/// The outcome of a clustering run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// `labels[i]` identifies EST `i`'s cluster (labels are arbitrary but
    /// consistent: equal label ⇔ same cluster).
    pub labels: Vec<usize>,
    /// Number of clusters.
    pub num_clusters: usize,
    /// Run statistics.
    pub stats: ClusterStats,
}

impl ClusterResult {
    /// Group EST indices by cluster, ordered by smallest member.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut by_label: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &l) in self.labels.iter().enumerate() {
            by_label.entry(l).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = by_label.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }

    /// Histogram of cluster sizes: `(size, how many clusters)`.
    pub fn size_histogram(&self) -> Vec<(usize, usize)> {
        let mut hist: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        for c in self.clusters() {
            *hist.entry(c.len()).or_insert(0) += 1;
        }
        hist.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_max_merge() {
        let mut a = PhaseTimers {
            partitioning: 1.0,
            gst_construction: 5.0,
            node_sorting: 0.1,
            alignment: 2.0,
            total: 8.0,
        };
        let b = PhaseTimers {
            partitioning: 2.0,
            gst_construction: 3.0,
            node_sorting: 0.2,
            alignment: 9.0,
            total: 7.0,
        };
        a.max_with(&b);
        assert_eq!(a.partitioning, 2.0);
        assert_eq!(a.gst_construction, 5.0);
        assert_eq!(a.alignment, 9.0);
        assert_eq!(a.total, 8.0);
    }

    #[test]
    fn clusters_group_by_label() {
        let r = ClusterResult {
            labels: vec![5, 9, 5, 7, 9],
            num_clusters: 3,
            stats: ClusterStats::default(),
        };
        assert_eq!(r.clusters(), vec![vec![0, 2], vec![1, 4], vec![3]]);
        assert_eq!(r.size_histogram(), vec![(1, 1), (2, 2)]);
    }
}
