//! The master's decision rule, written once (paper §3.3).
//!
//! Every promising pair meets the same judge: it is *skipped* when its
//! ESTs already share a cluster (the work-saving rule the
//! decreasing-MCS order makes effective), otherwise aligned, and an
//! accepted alignment *merges* the two clusters. [`Judge`] owns
//! `CLUSTERS`, the [`MergeTrace`], the [`ClusterStats`] booking of that
//! rule and the `merge` event, so the sequential driver, the persistent
//! driver, the incremental fold and the protocol master cannot drift
//! apart in what they skip, merge or count.
//!
//! The union–find is a type parameter over [`UnionFind`]
//! ([`DisjointSets`] for the in-process drivers, [`ShardDsu`] for a
//! protocol master), so the hot loop is monomorphised. The judge never
//! owns an [`AlignContext`]: the drivers that align lend theirs to
//! [`Judge::cluster_forest`], and the master, which aligns nothing, only
//! calls [`Judge::skips`] and [`Judge::fold`].

use crate::align_task::{AlignContext, PairOutcome};
use crate::config::ClusterConfig;
use crate::stats::ClusterStats;
use crate::trace::MergeTrace;
use pace_dsu::{DisjointSets, ShardDsu};
use pace_gst::LocalForest;
use pace_obs::{metric, Event, Obs, Timer};
use pace_pairgen::{CandidatePair, PairGenConfig, PairGenerator};

/// The two union–find operations the rule needs.
pub trait UnionFind {
    /// Whether `a` and `b` are known to share a set.
    fn same(&mut self, a: usize, b: usize) -> bool;
    /// Merge the sets of `a` and `b`; `true` when the merge is new and
    /// belongs in the trace.
    fn union(&mut self, a: usize, b: usize) -> bool;
}

impl UnionFind for DisjointSets {
    #[inline]
    fn same(&mut self, a: usize, b: usize) -> bool {
        DisjointSets::same(self, a, b)
    }
    #[inline]
    fn union(&mut self, a: usize, b: usize) -> bool {
        DisjointSets::union(self, a, b)
    }
}

/// A shard's view: `same` is `false` across the shard boundary and a
/// cross edge `union`s `true` exactly once (see [`ShardDsu`]).
impl UnionFind for ShardDsu {
    #[inline]
    fn same(&mut self, a: usize, b: usize) -> bool {
        ShardDsu::same(self, a, b)
    }
    #[inline]
    fn union(&mut self, a: usize, b: usize) -> bool {
        ShardDsu::union(self, a, b)
    }
}

/// `CLUSTERS` plus the rule that grows it and the books it keeps.
///
/// Only the judge books `pairs_processed`, `pairs_accepted`,
/// `pairs_skipped` (per pair) and `merges`, and only it records into the
/// trace. Callers own the rest of [`ClusterStats`]: phase timers outside
/// clustering, fault counters, and — for the protocol master, which
/// receives pairs instead of generating them — `pairs_generated`.
#[derive(Debug, Clone)]
pub struct Judge<U> {
    /// `CLUSTERS`.
    pub clusters: U,
    trace: MergeTrace,
    /// The run's counters.
    pub stats: ClusterStats,
    cfg: ClusterConfig,
    /// Pairs with both ESTs below this index are skipped unseen: they
    /// were judged by an earlier fold. 0 outside the incremental fold.
    first_new: usize,
    obs: Obs,
}

impl<U: UnionFind> Judge<U> {
    /// A judge over `clusters` with empty books. Merge events and the
    /// MCS-length histogram go to `obs`.
    pub fn new(clusters: U, cfg: &ClusterConfig, obs: &Obs) -> Self {
        Judge::resume(clusters, MergeTrace::new(), Default::default(), cfg, obs)
    }

    /// A judge continuing from restored state (a checkpoint, or the
    /// previous fold's books).
    pub fn resume(
        clusters: U,
        trace: MergeTrace,
        stats: ClusterStats,
        cfg: &ClusterConfig,
        obs: &Obs,
    ) -> Self {
        Judge {
            clusters,
            trace,
            stats,
            cfg: cfg.clone(),
            first_new: 0,
            obs: obs.clone(),
        }
    }

    /// Every merge, in the order it was performed.
    pub fn trace(&self) -> &MergeTrace {
        &self.trace
    }

    /// The configuration the rule runs under.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Skip every pair whose ESTs are both below `first_new` (the
    /// incremental fold's old–old rule).
    pub fn set_first_new(&mut self, first_new: usize) {
        self.first_new = first_new;
    }

    /// The skip rule: `true` (booked as skipped) when both ESTs predate
    /// `first_new`, or when skipping is on and they already share a
    /// cluster.
    #[inline]
    pub fn skips(&mut self, pair: &CandidatePair) -> bool {
        let (i, j) = pair.est_indices();
        let skip = (i < self.first_new && j < self.first_new)
            || (self.cfg.skip_clustered_pairs && self.clusters.same(i, j));
        if skip {
            self.stats.pairs_skipped += 1;
        }
        skip
    }

    /// Fold one alignment outcome into `CLUSTERS`; returns whether it
    /// merged two clusters.
    #[inline]
    pub fn fold(&mut self, outcome: &PairOutcome) -> bool {
        self.stats.pairs_processed += 1;
        if !outcome.accepted {
            return false;
        }
        self.stats.pairs_accepted += 1;
        let (i, j) = outcome.pair.est_indices();
        if !self.clusters.union(i, j) {
            return false;
        }
        self.stats.merges += 1;
        self.trace.record(outcome);
        let obs = &self.obs;
        obs.emit_with(|| Event::Merge {
            t: obs.now(),
            est_a: i,
            est_b: j,
            mcs_len: outcome.pair.mcs_len,
            score_ratio: outcome.score_ratio,
        });
        true
    }

    /// Run the demand-driven loop over every pair `forest` generates:
    /// skip, align through `ctx`, fold. Generator setup lands in the
    /// node-sorting phase, batch generation in the pair-generation phase
    /// (one duration per forest, rank 0) and the
    /// [`metric::PAIRGEN_FIRST_BATCH_SECS`] gauge, alignment time in
    /// `timers.alignment`, and the generator's output in
    /// `pairs_generated` and the [`metric::PAIRS_MCS_LEN`] histogram.
    pub fn cluster_forest(&mut self, ctx: &mut AlignContext, forest: &LocalForest) {
        let span = self.obs.span(metric::PHASE_NODE_SORTING);
        let mut generator = PairGenerator::new(
            ctx.store(),
            forest,
            PairGenConfig {
                psi: self.cfg.psi,
                order: self.cfg.order,
            },
        );
        let setup = span.finish();
        self.stats.timers.node_sorting += setup;

        // Generation and alignment run in many short bursts, so each
        // accumulates on a Timer. One batch buffer serves the whole forest.
        let prefiltered = ctx.pairs_prefiltered();
        let mut gen_timer = Timer::new();
        let mut align_timer = Timer::new();
        let mut batch: Vec<CandidatePair> = Vec::new();
        let batchsize = self.cfg.batchsize;
        gen_timer.time(|| generator.next_batch_into(batchsize, &mut batch));
        self.obs
            .registry()
            .set_gauge_max(metric::PAIRGEN_FIRST_BATCH_SECS, setup + gen_timer.secs());
        while !batch.is_empty() {
            for pair in &batch {
                if self.skips(pair) {
                    continue;
                }
                let outcome = align_timer.time(|| ctx.align(pair, &self.cfg));
                self.fold(&outcome);
            }
            gen_timer.time(|| generator.next_batch_into(batchsize, &mut batch));
        }
        self.obs
            .registry()
            .record_phase(metric::PHASE_PAIR_GENERATION, 0, gen_timer.secs());
        self.stats.timers.alignment += align_timer.secs();
        self.stats.pairs_prefiltered += ctx.pairs_prefiltered() - prefiltered;
        self.stats.pairs_generated += generator.stats().emitted;
        for (len, n) in generator.emitted_by_mcs_len() {
            self.obs
                .registry()
                .observe_n(metric::PAIRS_MCS_LEN, len as u64, n);
        }
    }

    /// Take the union–find, trace and counters back out.
    pub fn into_parts(self) -> (U, MergeTrace, ClusterStats) {
        (self.clusters, self.trace, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_dsu::ShardSpec;
    use pace_seq::{EstId, Strand};

    fn pair(i: u32, j: u32) -> CandidatePair {
        CandidatePair {
            s1: EstId(i).str_id(Strand::Forward),
            s2: EstId(j).str_id(Strand::Forward),
            off1: 0,
            off2: 0,
            mcs_len: 30,
        }
    }

    fn outcome(i: u32, j: u32, accepted: bool) -> PairOutcome {
        PairOutcome {
            pair: pair(i, j),
            accepted,
            score_ratio: if accepted { 0.95 } else { 0.2 },
        }
    }

    fn judge<U: UnionFind>(clusters: U, skip_clustered_pairs: bool) -> Judge<U> {
        let cfg = ClusterConfig {
            skip_clustered_pairs,
            ..ClusterConfig::small()
        };
        Judge::new(clusters, &cfg, &Obs::noop())
    }

    #[test]
    fn skips_old_old_pairs_and_same_cluster_pairs_when_on() {
        let mut j = judge(DisjointSets::new(6), true);
        j.set_first_new(3);
        assert!(j.skips(&pair(0, 2)), "old–old");
        assert!(!j.skips(&pair(2, 3)) && !j.skips(&pair(4, 5)));
        j.fold(&outcome(4, 5, true));
        assert!(j.skips(&pair(4, 5)), "same cluster");
        assert_eq!(j.stats.pairs_skipped, 2);

        let mut j = judge(DisjointSets::new(6), false);
        j.fold(&outcome(4, 5, true));
        assert!(!j.skips(&pair(4, 5)));
        assert_eq!(j.stats.pairs_skipped, 0);
    }

    #[test]
    fn accepted_outcome_that_merges_nothing_is_booked_but_not_traced() {
        let mut j = judge(DisjointSets::new(4), false);
        assert!(j.fold(&outcome(0, 1, true)) && j.fold(&outcome(1, 2, true)));
        assert!(!j.fold(&outcome(0, 2, true)), "already one cluster");
        assert!(!j.fold(&outcome(2, 3, false)));
        let s = j.stats;
        assert_eq!((s.pairs_processed, s.pairs_accepted, s.merges), (4, 3, 2));
        let traced: Vec<_> = j
            .trace
            .records()
            .iter()
            .map(|r| (r.est_a, r.est_b))
            .collect();
        assert_eq!(traced, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn shard_cross_edge_is_traced_exactly_once() {
        // Shard 0 of two owns ESTs 0..5; (2, 7) straddles the boundary.
        let mut j = judge(ShardDsu::new(ShardSpec::new(10, 2), 0), true);
        assert!(j.fold(&outcome(2, 7, true)));
        assert!(!j.fold(&outcome(2, 7, true)), "repeat edge");
        assert!(!j.skips(&pair(2, 7)), "a shard cannot prove a cross pair");
        assert_eq!(
            (j.trace.len(), j.stats.merges, j.stats.pairs_accepted),
            (1, 1, 2)
        );
        assert_eq!(j.clusters.cross_edges().total_unique(), 1);
    }
}
