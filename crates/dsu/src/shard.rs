//! Sharded union–find: an id-range view of the cluster structure plus a
//! mergeable log of cross-shard edges.
//!
//! The sharded clustering driver splits the master's `CLUSTERS` by EST
//! id-range into `K` shards. Each shard master owns one [`ShardDsu`]: a
//! flat [`DisjointSets`] over its contiguous range, plus a [`CrossEdges`]
//! log for unions whose endpoints straddle shard boundaries. Cross edges
//! cannot be resolved locally, so `union` records them (deduplicated)
//! and `same` conservatively answers `false` — a sound under-
//! approximation of global connectivity, which is exactly what the
//! skip-redundant-pairs rule needs to stay partition-preserving.
//!
//! The logs are *mergeable*: a reconciler drains each shard's pending
//! edges at epoch barriers and folds them (together with the shards'
//! local structure, via [`ShardDsu::apply_to`]) into one global
//! [`DisjointSets`]. Because unions are commutative and idempotent with
//! respect to the final partition, any interleaving of local unions and
//! epoch folds converges to the same partition as a flat union–find over
//! the same edge sequence — the property the proptest below pins down.

use crate::dsu::DisjointSets;
use std::collections::HashSet;
use std::ops::Range;

/// Contiguous id-range ownership: shard `s` owns the elements `e` with
/// `e * num_shards / num_elements == s`. Ranges partition `0..n` and are
/// balanced to within one element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    num_elements: usize,
    num_shards: usize,
}

impl ShardSpec {
    /// Ownership map of `num_elements` ids over `num_shards` shards.
    pub fn new(num_elements: usize, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(
            num_elements <= u32::MAX as usize,
            "element count exceeds u32 range"
        );
        ShardSpec {
            num_elements,
            num_shards,
        }
    }

    /// Total elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning element `e`.
    #[inline]
    pub fn owner_of(&self, e: usize) -> usize {
        debug_assert!(e < self.num_elements, "element {e} out of range");
        if self.num_shards == 1 {
            return 0;
        }
        // u128 so `e * K` cannot overflow for any u32-range input.
        ((e as u128 * self.num_shards as u128) / self.num_elements as u128) as usize
    }

    /// The canonical owner of a pair: the shard owning the smaller id.
    /// Routing by the minimum makes ownership independent of pair
    /// orientation.
    #[inline]
    pub fn owner_of_pair(&self, a: usize, b: usize) -> usize {
        self.owner_of(a.min(b))
    }

    /// The id-range shard `s` owns (may be empty when shards outnumber
    /// elements).
    pub fn range_of(&self, s: usize) -> Range<usize> {
        assert!(s < self.num_shards, "shard {s} out of range");
        let n = self.num_elements as u128;
        let k = self.num_shards as u128;
        let lo = (s as u128 * n).div_ceil(k) as usize;
        let hi = ((s as u128 + 1) * n).div_ceil(k) as usize;
        lo..hi
    }
}

/// A deduplicated, mergeable log of cross-shard merge edges.
///
/// Edges are stored normalized (`min`, `max`), so the same pair pushed in
/// either orientation counts once. `drain` hands the *pending* edges to
/// the reconciler while the dedup memory persists — re-pushing an edge
/// after a drain stays a no-op, which is what keeps shard-level merge
/// counts equal to the number of distinct cross edges.
#[derive(Debug, Clone, Default)]
pub struct CrossEdges {
    pending: Vec<(u32, u32)>,
    seen: HashSet<(u32, u32)>,
}

impl CrossEdges {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a cross-shard edge. Returns `true` the first time this
    /// (unordered) pair is seen, `false` for duplicates.
    pub fn push(&mut self, a: u32, b: u32) -> bool {
        let key = (a.min(b), a.max(b));
        if self.seen.insert(key) {
            self.pending.push(key);
            true
        } else {
            false
        }
    }

    /// Distinct edges ever pushed.
    pub fn total_unique(&self) -> usize {
        self.seen.len()
    }

    /// Take the pending edges (an epoch flush). Dedup memory is kept.
    pub fn drain(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.pending)
    }
}

/// One shard of the cluster structure: a local union–find over a
/// contiguous id-range plus the [`CrossEdges`] log for everything that
/// escapes the range.
///
/// `same` is deliberately conservative — `false` whenever either element
/// is out of range — so a caller using it to skip redundant work never
/// skips a pair whose global connectivity this shard cannot prove.
#[derive(Debug, Clone)]
pub struct ShardDsu {
    spec: ShardSpec,
    shard: usize,
    base: usize,
    local: DisjointSets,
    cross: CrossEdges,
}

impl ShardDsu {
    /// The `shard`-th view of `spec`.
    pub fn new(spec: ShardSpec, shard: usize) -> Self {
        let range = spec.range_of(shard);
        ShardDsu {
            spec,
            shard,
            base: range.start,
            local: DisjointSets::new(range.len()),
            cross: CrossEdges::new(),
        }
    }

    /// The ownership map this shard is a view of.
    #[inline]
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Whether this shard owns element `e`.
    #[inline]
    pub fn owns(&self, e: usize) -> bool {
        e < self.spec.num_elements() && self.spec.owner_of(e) == self.shard
    }

    /// Union `a` and `b`. Both in-range: a local union (returns whether
    /// a merge happened). Otherwise: a cross-shard edge — logged, and
    /// `true` exactly once per distinct edge so the caller records it
    /// (in a merge trace) exactly once.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        if self.owns(a) && self.owns(b) {
            self.local.union(a - self.base, b - self.base)
        } else {
            self.cross.push(a as u32, b as u32)
        }
    }

    /// Whether `a` and `b` are *provably* in the same set using only
    /// this shard's local knowledge. `false` for any out-of-range
    /// element — the conservative answer that keeps skipping sound.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        if self.owns(a) && self.owns(b) {
            self.local.same(a - self.base, b - self.base)
        } else {
            false
        }
    }

    /// Local merges performed (excludes cross edges).
    pub fn local_merges(&self) -> usize {
        self.spec.range_of(self.shard).len() - self.local.num_sets()
    }

    /// The cross-edge log.
    pub fn cross_edges(&self) -> &CrossEdges {
        &self.cross
    }

    /// Take the cross edges pending since the last flush (an epoch
    /// barrier hands these to the reconciler).
    pub fn drain_cross_edges(&mut self) -> Vec<(u32, u32)> {
        self.cross.drain()
    }

    /// Fold this shard's local structure into a global union–find over
    /// the full element range (the reconciler's final fold).
    pub fn apply_to(&self, global: &mut DisjointSets) {
        let range = self.spec.range_of(self.shard);
        for e in range {
            let local = e - self.base;
            let root = self.local.find_immutable(local);
            if root != local {
                global.union(e, root + self.base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ranges_partition_the_elements() {
        for n in [0usize, 1, 2, 7, 40, 41] {
            for k in [1usize, 2, 3, 5, 8] {
                let spec = ShardSpec::new(n, k);
                let mut covered = 0usize;
                for s in 0..k {
                    let r = spec.range_of(s);
                    assert_eq!(r.start, covered, "n={n} k={k} shard {s} gap");
                    covered = r.end;
                    for e in r {
                        assert_eq!(spec.owner_of(e), s, "n={n} k={k} e={e}");
                    }
                }
                assert_eq!(covered, n, "n={n} k={k} ranges must cover 0..n");
            }
        }
    }

    #[test]
    fn ranges_are_balanced_within_one() {
        let spec = ShardSpec::new(103, 8);
        let sizes: Vec<usize> = (0..8).map(|s| spec.range_of(s).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced ranges: {sizes:?}");
    }

    #[test]
    fn pair_owner_is_orientation_independent() {
        let spec = ShardSpec::new(100, 4);
        assert_eq!(spec.owner_of_pair(3, 97), spec.owner_of_pair(97, 3));
        assert_eq!(spec.owner_of_pair(3, 97), spec.owner_of(3));
    }

    #[test]
    fn cross_edges_dedupe_across_drains() {
        let mut log = CrossEdges::new();
        assert!(log.push(5, 9));
        assert!(!log.push(9, 5), "reversed orientation must dedupe");
        assert_eq!(log.drain(), vec![(5, 9)]);
        assert!(!log.push(5, 9), "dedup memory must survive a drain");
        assert!(log.drain().is_empty());
        assert_eq!(log.total_unique(), 1);
    }

    #[test]
    fn local_union_and_same_work_in_range() {
        let spec = ShardSpec::new(20, 2);
        let mut shard = ShardDsu::new(spec, 1); // owns 10..20
        assert!(shard.owns(10) && shard.owns(19) && !shard.owns(9));
        assert!(shard.union(12, 15));
        assert!(!shard.union(15, 12));
        assert!(shard.same(12, 15));
        assert!(!shard.same(12, 16));
        assert_eq!(shard.local_merges(), 1);
    }

    #[test]
    fn cross_union_is_logged_not_applied() {
        let spec = ShardSpec::new(20, 2);
        let mut shard = ShardDsu::new(spec, 0);
        assert!(shard.union(3, 14), "first cross edge reports a merge");
        assert!(!shard.union(14, 3), "duplicate cross edge is silent");
        assert!(!shard.same(3, 14), "cross connectivity is never claimed");
        assert_eq!(shard.local_merges(), 0);
        assert_eq!(shard.drain_cross_edges(), vec![(3, 14)]);
    }

    #[test]
    fn apply_to_transfers_local_structure() {
        let spec = ShardSpec::new(10, 2);
        let mut shard = ShardDsu::new(spec, 1); // owns 5..10
        shard.union(5, 7);
        shard.union(7, 9);
        let mut global = DisjointSets::new(10);
        shard.apply_to(&mut global);
        assert!(global.same(5, 9));
        assert!(!global.same(4, 5));
    }

    proptest! {
        /// Random interleavings of shard-local unions and epoch-barrier
        /// cross-edge folds converge to the same partition as a flat DSU
        /// over the same union sequence, for generated shard counts and
        /// epoch lengths.
        #[test]
        fn sharded_folds_match_flat_dsu(
            n in 1usize..48,
            k in 1usize..6,
            epoch_len in 1usize..10,
            ops in proptest::collection::vec((0usize..48, 0usize..48), 0..160),
        ) {
            let spec = ShardSpec::new(n, k);
            let mut shards: Vec<ShardDsu> =
                (0..k).map(|s| ShardDsu::new(spec, s)).collect();
            let mut flat = DisjointSets::new(n);
            let mut global = DisjointSets::new(n);

            for (i, (a, b)) in ops.iter().enumerate() {
                let (a, b) = (a % n, b % n);
                flat.union(a, b);
                shards[spec.owner_of_pair(a, b)].union(a, b);
                if (i + 1) % epoch_len == 0 {
                    // Epoch barrier: every shard flushes its pending
                    // cross edges into the global structure.
                    for shard in shards.iter_mut() {
                        for (x, y) in shard.drain_cross_edges() {
                            global.union(x as usize, y as usize);
                        }
                    }
                }
            }
            // Final reconciliation: residual cross edges + local folds.
            for shard in shards.iter_mut() {
                for (x, y) in shard.drain_cross_edges() {
                    global.union(x as usize, y as usize);
                }
            }
            for shard in &shards {
                shard.apply_to(&mut global);
            }

            prop_assert_eq!(global.num_sets(), flat.num_sets());
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(
                        global.same(a, b),
                        flat.same(a, b),
                        "partition diverged at ({}, {})", a, b
                    );
                }
            }
        }
    }
}
