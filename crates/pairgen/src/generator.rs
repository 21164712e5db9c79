//! The on-demand pair generator (Algorithm 1 of the paper).
//!
//! `GeneratePairs` processes every forest node of string-depth ≥ ψ in
//! decreasing string-depth order. Leaves seed their lsets from the leaf
//! labels; internal nodes eliminate duplicate strings across their
//! children's lsets (global marker array), emit the Cartesian products of
//! lsets of *different children* and *different characters* (or both λ),
//! and then splice the children's lsets into their own. The generator is
//! resumable: [`PairGenerator::next_batch`] advances just far enough to
//! satisfy the request and remembers everything else for the next call.
//!
//! A processed node's lsets wait in a recycled slot pool until its parent
//! consumes them; a flat per-node handle table finds the slot. A leaf
//! holding a single suffix can emit nothing (a pair needs two strings),
//! so it is never scheduled: its parent builds the one-entry lset in
//! place from the leaf label.

use crate::lset::{class_of, Arena, Lsets, NUM_CLASSES};
use crate::pair::CandidatePair;
use pace_gst::{LocalForest, NodeIdx, Subtree};
use pace_seq::{SequenceStore, StrId, Strand};
use std::collections::VecDeque;

/// Handle-table entry of a node whose lsets are not in the pool.
const NO_SLOT: u32 = u32::MAX;

/// In which order promising pairs are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairOrder {
    /// Decreasing maximal-common-substring length — the paper's order,
    /// obtained by sorting nodes by decreasing string-depth. Pairs most
    /// likely to merge clusters come out first, which is what makes the
    /// master's "skip pairs already clustered together" rule so effective.
    #[default]
    DecreasingMcs,
    /// Tree order (no sort) — the "traditional way of generating pairs in
    /// an arbitrary order" used as the ablation baseline.
    Arbitrary,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairGenConfig {
    /// Minimum maximal-common-substring length ψ for a pair to be
    /// promising. Must be at least the bucket window `w` of the forest.
    pub psi: u32,
    /// Pair reporting order.
    pub order: PairOrder,
}

impl PairGenConfig {
    /// Config with the given ψ and the paper's decreasing-MCS order.
    pub fn new(psi: u32) -> Self {
        PairGenConfig {
            psi,
            order: PairOrder::DecreasingMcs,
        }
    }
}

/// Counters describing a generator's work so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenStats {
    /// Forest nodes of depth ≥ ψ processed. Single-suffix leaves, which
    /// emit nothing and are never scheduled, count from the start.
    pub nodes_processed: u64,
    /// Raw pairs produced by the Cartesian products, before any filtering.
    pub raw_pairs: u64,
    /// Pairs discarded because both strings belong to the same EST.
    pub discarded_self: u64,
    /// Mirror-image pairs discarded (the smaller EST's string was in
    /// complemented form; the complementary pair is generated elsewhere).
    pub discarded_mirror: u64,
    /// Promising pairs actually emitted.
    pub emitted: u64,
}

/// Resumable promising-pair generator over one rank's forest.
pub struct PairGenerator<'s> {
    store: &'s SequenceStore,
    forest: &'s LocalForest,
    /// `(subtree index, node index)` in processing order.
    schedule: Vec<(u32, NodeIdx)>,
    /// Next schedule position to process.
    pos: usize,
    /// `base[t]`: subtree `t`'s first entry in `slot_of`.
    base: Vec<usize>,
    /// Pool slot holding each processed node's pending lsets, indexed by
    /// `base[t] + v`; [`NO_SLOT`] until the node is processed.
    slot_of: Vec<u32>,
    /// The slot pool. A slot returns to `free` when the parent consumes
    /// it, so the pool tracks only the active frontier.
    slots: Vec<Lsets>,
    free: Vec<u32>,
    arena: Arena,
    /// `marker[sid] == mark` ⇔ string seen at the node with id `mark`.
    marker: Vec<u64>,
    mark_ctr: u64,
    buffer: VecDeque<CandidatePair>,
    stats: GenStats,
    /// Emission counts indexed by MCS length (ψ-tuning diagnostics).
    emitted_by_len: Vec<u64>,
    /// Scratch: the children's lsets of the internal node in hand.
    child_lsets: Vec<Lsets>,
}

impl<'s> PairGenerator<'s> {
    /// Create a generator for `forest`. Requires `psi ≥ w` (a maximal
    /// common substring shorter than the bucket window can have no node).
    pub fn new(store: &'s SequenceStore, forest: &'s LocalForest, config: PairGenConfig) -> Self {
        assert!(
            config.psi as usize >= forest.w,
            "psi ({}) must be at least the bucket window w ({})",
            config.psi,
            forest.w
        );
        let schedule = make_schedule(forest, config.psi, config.order);
        let mut base = Vec::with_capacity(forest.subtrees.len());
        let mut nodes = 0usize;
        for tree in &forest.subtrees {
            base.push(nodes);
            nodes += tree.len();
        }
        PairGenerator {
            store,
            forest,
            schedule: schedule.nodes,
            pos: 0,
            base,
            slot_of: vec![NO_SLOT; nodes],
            slots: Vec::new(),
            free: Vec::new(),
            arena: Arena::with_capacity(forest.num_suffixes()),
            marker: vec![0; store.num_strings()],
            mark_ctr: 0,
            buffer: VecDeque::new(),
            stats: GenStats {
                nodes_processed: schedule.single_leaves,
                ..GenStats::default()
            },
            emitted_by_len: vec![0; schedule.max_depth as usize + 1],
            child_lsets: Vec::new(),
        }
    }

    /// Whether every node has been processed and every pair delivered.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.schedule.len() && self.buffer.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> GenStats {
        self.stats
    }

    /// How many pairs have been emitted per maximal-common-substring
    /// length so far, as `(len, count)` in ascending length, lengths with
    /// no emission left out — the distribution that informs the choice
    /// of ψ (pairs just above the threshold are the marginal candidates).
    pub fn emitted_by_mcs_len(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.emitted_by_len
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(len, &n)| (len as u32, n))
    }

    /// Approximate heap footprint of the generator's own state: the lset
    /// arena, marker array, schedule, handle table, slot pool (its
    /// high-water size), histogram and pair buffer.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.memory_bytes()
            + self.marker.capacity() * size_of::<u64>()
            + self.schedule.capacity() * size_of::<(u32, NodeIdx)>()
            + self.base.capacity() * size_of::<usize>()
            + self.slot_of.capacity() * size_of::<u32>()
            + (self.slots.capacity() + self.child_lsets.capacity()) * size_of::<Lsets>()
            + self.free.capacity() * size_of::<u32>()
            + self.emitted_by_len.capacity() * size_of::<u64>()
            + self.buffer.capacity() * size_of::<CandidatePair>()
    }

    /// Produce up to `max` promising pairs, advancing the traversal only
    /// as far as needed. Returns fewer than `max` only when the forest is
    /// exhausted; an empty vector means no pairs remain.
    pub fn next_batch(&mut self, max: usize) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        self.next_batch_into(max, &mut out);
        out
    }

    /// [`next_batch`](Self::next_batch) into a caller-owned buffer: `out`
    /// is cleared and refilled, so a driver looping over batches reuses
    /// one allocation for the whole run.
    pub fn next_batch_into(&mut self, max: usize, out: &mut Vec<CandidatePair>) {
        out.clear();
        while self.buffer.len() < max && self.pos < self.schedule.len() {
            let (t, v) = self.schedule[self.pos];
            self.pos += 1;
            self.process_node(t as usize, v);
        }
        let take = max.min(self.buffer.len());
        out.extend(self.buffer.drain(..take));
    }

    /// Drain every remaining pair (convenience for tests and the baseline).
    pub fn generate_all(&mut self) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        loop {
            let batch = self.next_batch(4096);
            if batch.is_empty() {
                break;
            }
            out.extend(batch);
        }
        out
    }

    fn process_node(&mut self, t: usize, v: NodeIdx) {
        self.stats.nodes_processed += 1;
        let forest = self.forest;
        let tree = &forest.subtrees[t];
        let emitted = self.stats.emitted;
        let lsets = if tree.is_leaf(v) {
            self.process_leaf(tree, v)
        } else {
            self.process_internal(tree, self.base[t], v)
        };
        self.emitted_by_len[tree.depth(v) as usize] += self.stats.emitted - emitted;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = lsets;
                slot
            }
            None => {
                self.slots.push(lsets);
                (self.slots.len() - 1) as u32
            }
        };
        self.slot_of[self.base[t] + v as usize] = slot;
    }

    /// A fresh node id for the duplicate-elimination marker.
    fn next_mark(&mut self) -> u64 {
        self.mark_ctr += 1;
        self.mark_ctr
    }

    /// Append the suffix `(sid, off)` to `lsets` under its left-extension
    /// class, unless its string was already seen under `mark` (one lset
    /// occurrence per string, paper §3.2).
    fn push_unseen(&mut self, lsets: &mut Lsets, mark: u64, sid: u32, off: u32) {
        if self.marker[sid as usize] == mark {
            return;
        }
        self.marker[sid as usize] = mark;
        let class = class_of(self.store.left_char(StrId(sid), off as usize));
        let e = self.arena.alloc(sid, off);
        lsets.push(&mut self.arena, class, e);
    }

    /// `ProcessLeaf`: build the lsets from the leaf labels, keeping one
    /// occurrence per string, then emit the products of different-class
    /// lsets plus the unordered pairs within `l_λ`.
    fn process_leaf(&mut self, tree: &Subtree, v: NodeIdx) -> Lsets {
        let depth = tree.depth(v);
        let mark = self.next_mark();
        let mut lsets = Lsets::new();
        for suf in tree.leaf_suffixes(v) {
            self.push_unseen(&mut lsets, mark, suf.sid, suf.off);
        }

        // P_v = ⋃ l_ci × l_cj for ci < cj, plus l_λ × l_λ (unordered).
        let arena = &self.arena;
        let buffer = &mut self.buffer;
        let stats = &mut self.stats;
        for ci in 0..NUM_CLASSES {
            for cj in (ci + 1)..NUM_CLASSES {
                for (sid1, off1) in lsets.iter(arena, ci) {
                    for (sid2, off2) in lsets.iter(arena, cj) {
                        emit(buffer, stats, sid1, off1, sid2, off2, depth);
                    }
                }
            }
        }
        // λ × λ: both suffixes are whole strings; the shared prefix is
        // trivially left-maximal at the string boundary.
        let mut lambda = lsets.iter(arena, 0);
        while let Some((s1, o1)) = lambda.next() {
            for (s2, o2) in lambda.clone() {
                emit(buffer, stats, s1, o1, s2, o2, depth);
            }
        }
        lsets
    }

    /// `ProcessInternalNode`: eliminate duplicate strings across the
    /// children's lsets, emit products of different children with
    /// different characters (or both λ), then union the lsets upward.
    /// `base` is the subtree's offset in the handle table.
    fn process_internal(&mut self, tree: &Subtree, base: usize, v: NodeIdx) -> Lsets {
        let depth = tree.depth(v);
        let mark = self.next_mark();

        // Step 1: take each child's lsets out of the pool and strip
        // strings already seen at this node (shared mark ⇒ cross-child
        // dedup). A single-suffix leaf was never scheduled: its one-entry
        // lset is built here from the leaf label.
        let mut child_lsets = std::mem::take(&mut self.child_lsets);
        for u in tree.children(v) {
            let mut ls = Lsets::new();
            if let [suf] = tree.leaf_suffixes(u) {
                self.push_unseen(&mut ls, mark, suf.sid, suf.off);
            } else {
                let slot = self.slot_of[base + u as usize];
                debug_assert_ne!(slot, NO_SLOT, "child must be processed before its parent");
                ls = self.slots[slot as usize];
                self.free.push(slot);
                ls.dedup_against(&mut self.arena, &mut self.marker, mark);
            }
            child_lsets.push(ls);
        }

        // Step 2: P_v = ⋃ l_ci(u_k) × l_cj(u_l), k < l, ci ≠ cj or both λ.
        let arena = &self.arena;
        let buffer = &mut self.buffer;
        let stats = &mut self.stats;
        for k in 0..child_lsets.len() {
            for l in (k + 1)..child_lsets.len() {
                for ci in 0..NUM_CLASSES {
                    for cj in 0..NUM_CLASSES {
                        if ci == cj && ci != 0 {
                            continue;
                        }
                        for (sid1, off1) in child_lsets[k].iter(arena, ci) {
                            for (sid2, off2) in child_lsets[l].iter(arena, cj) {
                                emit(buffer, stats, sid1, off1, sid2, off2, depth);
                            }
                        }
                    }
                }
            }
        }

        // Step 3: l_c(v) = ⋃_k l_c(u_k) — O(|Σ|²) splices, children freed.
        let mut merged = Lsets::new();
        for ls in child_lsets.drain(..) {
            merged.append(&mut self.arena, ls);
        }
        self.child_lsets = child_lsets;
        merged
    }
}

/// The node-processing order plus what building it learned.
struct Schedule {
    /// `(subtree index, node index)` in processing order.
    nodes: Vec<(u32, NodeIdx)>,
    /// Single-suffix leaves of depth ≥ ψ: settled here, never scheduled.
    single_leaves: u64,
    /// Deepest scheduled node (0 when none).
    max_depth: u32,
}

/// Build the node-processing schedule without a comparison sort.
///
/// Every node of depth ≥ ψ is scheduled except single-suffix leaves,
/// which emit nothing and whose parent reads their label directly.
/// String-depths are bounded by the longest stored string, so the
/// decreasing-MCS order is a bucket sort over the depth range —
/// O(nodes + depth range) instead of O(nodes · log nodes). The fill order
/// reproduces the old comparator's `(Reverse(depth), t, Reverse(v))` key
/// byte-for-byte: depths are laid out deepest first, and within a depth
/// entries arrive in ascending subtree order with descending node index
/// (the tie-break that puts equal-depth terminator leaves before their
/// parents, keeping children ahead of parents everywhere). `Arbitrary`
/// keeps that reverse-DFS fill order but one run for all depths.
fn make_schedule(forest: &LocalForest, psi: u32, order: PairOrder) -> Schedule {
    let single_leaf = |tree: &Subtree, v: NodeIdx| tree.leaf_suffixes(v).len() == 1;

    // Pass 1: scheduled nodes per depth.
    let mut per_depth: Vec<usize> = Vec::new();
    let mut single_leaves = 0u64;
    for tree in &forest.subtrees {
        for (v, depth) in tree.node_depths() {
            if depth < psi {
                continue;
            }
            if single_leaf(tree, v) {
                single_leaves += 1;
                continue;
            }
            let d = depth as usize;
            if d >= per_depth.len() {
                per_depth.resize(d + 1, 0);
            }
            per_depth[d] += 1;
        }
    }
    let max_depth = per_depth.len().saturating_sub(1) as u32;
    let total: usize = per_depth.iter().sum();

    // Next free position per depth; `Arbitrary` shares entry 0.
    let mut next = vec![0usize; per_depth.len().max(1)];
    if order == PairOrder::DecreasingMcs {
        let mut at = 0;
        for d in (0..per_depth.len()).rev() {
            next[d] = at;
            at += per_depth[d];
        }
    }

    // Pass 2: fill.
    let mut nodes = vec![(0u32, 0 as NodeIdx); total];
    for (t, tree) in forest.subtrees.iter().enumerate() {
        for v in (0..tree.len() as NodeIdx).rev() {
            let depth = tree.depth(v);
            if depth < psi || single_leaf(tree, v) {
                continue;
            }
            let key = match order {
                PairOrder::DecreasingMcs => depth as usize,
                PairOrder::Arbitrary => 0,
            };
            nodes[next[key]] = (t as u32, v);
            next[key] += 1;
        }
    }
    Schedule {
        nodes,
        single_leaves,
        max_depth,
    }
}

/// Filter and normalize one raw pair, pushing it to the buffer if it
/// survives (see [`CandidatePair`] for the normalization rules).
#[inline]
fn emit(
    buffer: &mut VecDeque<CandidatePair>,
    stats: &mut GenStats,
    sid1: u32,
    off1: u32,
    sid2: u32,
    off2: u32,
    depth: u32,
) {
    stats.raw_pairs += 1;
    let (x, y) = (StrId(sid1), StrId(sid2));
    if x.est() == y.est() {
        stats.discarded_self += 1;
        return;
    }
    let ((s1, o1), (s2, o2)) = if x.est() < y.est() {
        ((x, off1), (y, off2))
    } else {
        ((y, off2), (x, off1))
    };
    if s1.strand() == Strand::Reverse {
        stats.discarded_mirror += 1;
        return;
    }
    stats.emitted += 1;
    buffer.push_back(CandidatePair {
        s1,
        s2,
        off1: o1,
        off2: o2,
        mcs_len: depth,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_gst::build_sequential;
    use pace_seq::SequenceStore;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn store(ests: &[&[u8]]) -> SequenceStore {
        SequenceStore::from_ests(ests).unwrap()
    }

    fn generate(store: &SequenceStore, w: usize, psi: u32) -> (Vec<CandidatePair>, GenStats) {
        let forest = build_sequential(store, w);
        let mut g = PairGenerator::new(store, &forest, PairGenConfig::new(psi));
        let pairs = g.generate_all();
        (pairs, g.stats())
    }

    /// All distinct maximal common substrings of `a` and `b` with length
    /// ≥ psi, by brute force over occurrence pairs.
    fn brute_mcs(a: &[u8], b: &[u8], psi: usize) -> BTreeSet<Vec<u8>> {
        let mut out = BTreeSet::new();
        for i in 0..a.len() {
            for j in 0..b.len() {
                if a[i] != b[j] {
                    continue;
                }
                // Only start at left-maximal occurrence pairs.
                if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
                    continue;
                }
                let mut k = 0;
                while i + k < a.len() && j + k < b.len() && a[i + k] == b[j + k] {
                    k += 1;
                }
                if k >= psi {
                    out.insert(a[i..i + k].to_vec());
                }
            }
        }
        out
    }

    /// Check Lemma-1 conditions at the witness offsets of one pair.
    fn check_witness(store: &SequenceStore, p: &CandidatePair) {
        let a = store.seq(p.s1);
        let b = store.seq(p.s2);
        let (i, j, k) = (p.off1 as usize, p.off2 as usize, p.mcs_len as usize);
        assert!(i + k <= a.len() && j + k <= b.len(), "witness out of range");
        assert_eq!(&a[i..i + k], &b[j..j + k], "witness is not a match: {p}");
        // Left-maximal: boundary on either side, or differing characters.
        assert!(
            i == 0 || j == 0 || a[i - 1] != b[j - 1],
            "witness left-extensible: {p}"
        );
        // Right-maximal likewise.
        assert!(
            i + k == a.len() || j + k == b.len() || a[i + k] != b[j + k],
            "witness right-extensible: {p}"
        );
    }

    #[test]
    fn two_overlapping_ests_are_paired() {
        // e0 and e1 share the 12-base block "ACGGTTCAGGAT".
        let s = store(&[b"TTTTACGGTTCAGGAT", b"ACGGTTCAGGATCCCC"]);
        let (pairs, stats) = generate(&s, 2, 8);
        assert!(stats.emitted > 0);
        let found = pairs
            .iter()
            .any(|p| p.est_indices() == (0, 1) && p.mcs_len >= 12);
        assert!(found, "overlap pair not generated: {pairs:?}");
        for p in &pairs {
            check_witness(&s, p);
            assert!(p.mcs_len >= 8);
        }
    }

    #[test]
    fn reverse_strand_overlap_is_found_once_per_mcs() {
        // e1 starts with the reverse complement of e0's block: the overlap
        // exists only between e0-forward and e1-reverse.
        let block = b"ACGGTTCAGGATTCAG";
        let mut e1 = pace_seq::reverse_complement(block);
        e1.extend_from_slice(b"GGGG");
        let s = SequenceStore::from_ests(&[block.to_vec(), e1]).unwrap();
        let (pairs, _) = generate(&s, 2, 10);
        let hits: Vec<_> = pairs.iter().filter(|p| p.est_indices() == (0, 1)).collect();
        assert!(!hits.is_empty(), "reverse-strand overlap missed");
        for p in &hits {
            assert_eq!(p.s2.strand(), Strand::Reverse, "{p}");
            check_witness(&s, p);
        }
    }

    #[test]
    fn unrelated_ests_produce_no_pairs() {
        let s = store(&[b"AAAAAAAAAACCCCAAA", b"GTGTGTGTGTGTGTGT"]);
        let (pairs, _) = generate(&s, 2, 8);
        assert!(pairs.is_empty(), "unexpected pairs: {pairs:?}");
    }

    #[test]
    fn psi_threshold_filters_short_matches() {
        // Shared block of length exactly 9.
        let s = store(&[b"TTTTGACGTACGG", b"GACGTACGGCCCC"]);
        let (pairs, _) = generate(&s, 2, 10);
        assert!(
            pairs
                .iter()
                .all(|p| p.est_indices() != (0, 1) || p.mcs_len >= 10),
            "mcs below psi emitted"
        );
        let (pairs, _) = generate(&s, 2, 9);
        assert!(pairs.iter().any(|p| p.est_indices() == (0, 1)));
    }

    #[test]
    fn decreasing_order_is_respected() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
            b"GGCCAATTCCGGATCA",
        ]);
        let forest = build_sequential(&s, 2);
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        let mut last = u32::MAX;
        loop {
            let batch = g.next_batch(1);
            if batch.is_empty() {
                break;
            }
            assert!(
                batch[0].mcs_len <= last,
                "order violated: {} after {}",
                batch[0].mcs_len,
                last
            );
            last = batch[0].mcs_len;
        }
    }

    #[test]
    fn batching_matches_one_shot() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let one_shot = PairGenerator::new(&s, &forest, PairGenConfig::new(6)).generate_all();
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        let mut batched = Vec::new();
        while !g.is_exhausted() {
            batched.extend(g.next_batch(3));
        }
        assert_eq!(one_shot, batched);
        assert_eq!(g.stats().emitted as usize, batched.len());
    }

    #[test]
    fn mcs_histogram_accounts_for_every_emission() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        let pairs = g.generate_all();
        let hist: BTreeMap<u32, u64> = g.emitted_by_mcs_len().collect();
        let total: u64 = hist.values().sum();
        assert_eq!(total, pairs.len() as u64);
        // Recompute the histogram from the pairs themselves.
        let mut expect = BTreeMap::new();
        for p in &pairs {
            *expect.entry(p.mcs_len).or_insert(0u64) += 1;
        }
        assert_eq!(hist, expect);
        assert!(hist.keys().all(|&len| len >= 6));
    }

    #[test]
    fn next_batch_respects_max() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let mut g = PairGenerator::new(&s, &forest, PairGenConfig::new(6));
        loop {
            let batch = g.next_batch(2);
            assert!(batch.len() <= 2);
            if batch.is_empty() {
                break;
            }
        }
        assert!(g.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "psi")]
    fn psi_below_window_rejected() {
        let s = store(&[b"ACGTACGTACGT"]);
        let forest = build_sequential(&s, 4);
        let _ = PairGenerator::new(&s, &forest, PairGenConfig::new(3));
    }

    #[test]
    fn arbitrary_order_emits_same_pair_set() {
        let s = store(&[
            b"TTTTACGGTTCAGGATGGCTTA",
            b"ACGGTTCAGGATGGCTTAGGCC",
            b"CATCATGGCTTAGGCCAATT",
        ]);
        let forest = build_sequential(&s, 2);
        let sorted = PairGenerator::new(&s, &forest, PairGenConfig::new(6)).generate_all();
        let mut arb_cfg = PairGenConfig::new(6);
        arb_cfg.order = PairOrder::Arbitrary;
        let arbitrary = PairGenerator::new(&s, &forest, arb_cfg).generate_all();
        let canon = |v: &[CandidatePair]| {
            let mut v: Vec<_> = v.to_vec();
            v.sort_by_key(|p| (p.s1, p.s2, p.mcs_len, p.off1, p.off2));
            v
        };
        assert_eq!(canon(&sorted), canon(&arbitrary));
    }

    /// Pair-id multiset of the emissions, for quantitative checks.
    fn emission_counts(pairs: &[CandidatePair]) -> BTreeMap<(u32, u32), usize> {
        let mut m = BTreeMap::new();
        for p in pairs {
            *m.entry((p.s1.0, p.s2.0)).or_insert(0) += 1;
        }
        m
    }

    fn dna_ests() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
                3..28,
            ),
            2..6,
        )
    }

    /// The pre-rewrite schedule: comparator sort over the collected
    /// nodes, single-suffix leaves excluded.
    fn comparator_schedule(
        forest: &pace_gst::LocalForest,
        psi: u32,
        order: PairOrder,
    ) -> Vec<(u32, pace_gst::NodeIdx)> {
        let mut schedule = Vec::new();
        for (t, tree) in forest.subtrees.iter().enumerate() {
            for (v, depth) in tree.node_depths() {
                if depth >= psi && tree.leaf_suffixes(v).len() != 1 {
                    schedule.push((t as u32, v));
                }
            }
        }
        match order {
            PairOrder::DecreasingMcs => schedule.sort_by_key(|&(t, v)| {
                let depth = forest.subtrees[t as usize].depth(v);
                (std::cmp::Reverse(depth), t, std::cmp::Reverse(v))
            }),
            PairOrder::Arbitrary => schedule.sort_by_key(|&(t, v)| (t, std::cmp::Reverse(v))),
        }
        schedule
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The depth-bucket schedule is byte-identical — same `(t, v)`
        /// sequence — to the old comparator (minus single-suffix leaves)
        /// for random forests, in both orders and across ψ values.
        #[test]
        fn depth_bucket_schedule_matches_comparator(
            ests in dna_ests(),
            w in 1usize..4,
            psi_extra in 0u32..6,
        ) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let forest = build_sequential(&s, w);
            let psi = w as u32 + psi_extra;
            for order in [PairOrder::DecreasingMcs, PairOrder::Arbitrary] {
                let fast = super::make_schedule(&forest, psi, order).nodes;
                let reference = comparator_schedule(&forest, psi, order);
                prop_assert_eq!(&fast, &reference, "order {:?} psi {}", order, psi);
            }
        }

        /// `DecreasingMcs` still processes every scheduled child before
        /// its parent (the invariant `process_internal` relies on when it
        /// takes the children's pending lsets out of the pool); the only
        /// unscheduled children are single-suffix leaves.
        #[test]
        fn decreasing_mcs_yields_children_before_parents(ests in dna_ests(), w in 1usize..3) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let forest = build_sequential(&s, w);
            let schedule = super::make_schedule(&forest, w as u32, PairOrder::DecreasingMcs).nodes;
            let mut position = std::collections::HashMap::new();
            for (i, &(t, v)) in schedule.iter().enumerate() {
                position.insert((t, v), i);
            }
            for (t, tree) in forest.subtrees.iter().enumerate() {
                for v in 0..tree.len() as u32 {
                    let Some(&pv) = position.get(&(t as u32, v)) else {
                        continue;
                    };
                    for c in tree.children(v) {
                        // In-scope parents have in-scope children (child
                        // depth ≥ parent depth ≥ ψ).
                        let Some(&pc) = position.get(&(t as u32, c)) else {
                            prop_assert_eq!(tree.leaf_suffixes(c).len(), 1);
                            continue;
                        };
                        prop_assert!(
                            pc < pv,
                            "child {} (pos {}) scheduled after parent {} (pos {})",
                            c, pc, v, pv
                        );
                    }
                }
            }
        }

        /// The three paper lemmas, verified against brute force on the
        /// normalized pair space {(e_i fwd, e_j fwd/rev) : i < j}.
        #[test]
        fn lemmas_hold(ests in dna_ests(), psi in 3u32..6) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let (pairs, stats) = generate(&s, 2, psi);
            prop_assert_eq!(stats.emitted as usize, pairs.len());

            // Lemma 1: every emission witnesses a maximal common substring
            // of length ≥ ψ at its recorded offsets.
            for p in &pairs {
                check_witness(&s, p);
                prop_assert!(p.mcs_len >= psi);
            }

            let counts = emission_counts(&pairs);
            let n = s.num_ests() as u32;
            for i in 0..n {
                let s1 = pace_seq::EstId(i).str_id(Strand::Forward);
                for j in (i + 1)..n {
                    for strand in [Strand::Forward, Strand::Reverse] {
                        let s2 = pace_seq::EstId(j).str_id(strand);
                        let mcs = brute_mcs(s.seq(s1), s.seq(s2), psi as usize);
                        let got = counts.get(&(s1.0, s2.0)).copied().unwrap_or(0);
                        // Lemma 3: at least one emission when an MCS ≥ ψ exists.
                        if !mcs.is_empty() {
                            prop_assert!(
                                got >= 1,
                                "pair ({}, {}) with MCS {:?} never generated",
                                s1, s2, mcs
                            );
                        }
                        // Corollary 2: at most one emission per distinct MCS.
                        prop_assert!(
                            got <= mcs.len(),
                            "pair ({}, {}) generated {} times but has {} MCSs",
                            s1, s2, got, mcs.len()
                        );
                    }
                }
            }
        }

        /// Emission order is non-increasing in MCS length.
        #[test]
        fn order_non_increasing(ests in dna_ests()) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let (pairs, _) = generate(&s, 2, 3);
            for w in pairs.windows(2) {
                prop_assert!(w[0].mcs_len >= w[1].mcs_len);
            }
        }

        /// Raw counts are consistent: raw = self + mirror + emitted.
        #[test]
        fn stats_balance(ests in dna_ests()) {
            let s = SequenceStore::from_ests(&ests).unwrap();
            let (_, st) = generate(&s, 2, 3);
            prop_assert_eq!(
                st.raw_pairs,
                st.discarded_self + st.discarded_mirror + st.emitted
            );
        }
    }
}
