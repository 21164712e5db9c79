//! Byte-identity pins for the linear-time phase rewrite.
//!
//! The counting-sort subtree builder, the depth-bucketed node schedule,
//! and the dynamic rayon-shim scheduler must all be *pure speedups*:
//! the trees, the emitted pair stream (order included), and the final
//! partitions have to be bit-for-bit what the comparison-sort code
//! produced. The fingerprints below were captured from the pre-rewrite
//! implementation on pinned simulator seeds; any divergence means the
//! rewrite changed observable behaviour, not just its running time.

use pace::cluster::{cluster_parallel, cluster_sequential, ClusterConfig};
use pace::gst::build_sequential;
use pace::pairgen::{GenStats, PairGenConfig, PairGenerator};
use pace::{SequenceStore, SimConfig};

/// Pinned seeds; chosen to overlap the CI fault-matrix seeds.
const SEEDS: [u64; 3] = [11, 47, 3000];

fn dataset(n: usize, seed: u64) -> SequenceStore {
    let ds = pace::simulate::generate(&SimConfig {
        chimera_prob: 0.002,
        expression: pace::simulate::Expression::Zipf(0.6),
        ..SimConfig::sized(n, seed)
    });
    SequenceStore::from_ests(&ds.ests).unwrap()
}

/// Order-sensitive FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of the full promising-pair stream, order included: pins
/// both the subtree construction (leaf/arena layout) and the node
/// schedule (emission order).
fn pair_stream_fingerprint(store: &SequenceStore, psi: u32) -> u64 {
    let forest = build_sequential(store, 8);
    let mut g = PairGenerator::new(store, &forest, PairGenConfig::new(psi));
    let mut h = Fnv::new();
    loop {
        let batch = g.next_batch(512);
        if batch.is_empty() {
            break;
        }
        for p in &batch {
            h.push(p.s1.0 as u64);
            h.push(p.s2.0 as u64);
            h.push(p.off1 as u64);
            h.push(p.off2 as u64);
            h.push(p.mcs_len as u64);
        }
    }
    h.finish()
}

/// Final generator counters plus an order-sensitive fingerprint of the
/// MCS-length histogram (`(len, count)` in ascending length): pins the
/// node accounting and the per-depth emission tally, not only the stream.
fn generator_outcome(store: &SequenceStore, psi: u32) -> (GenStats, u64) {
    let forest = build_sequential(store, 8);
    let mut g = PairGenerator::new(store, &forest, PairGenConfig::new(psi));
    while !g.next_batch(512).is_empty() {}
    let mut h = Fnv::new();
    for (len, n) in g.emitted_by_mcs_len() {
        h.push(len as u64);
        h.push(n);
    }
    (g.stats(), h.finish())
}

/// Fingerprint of the DFS node arrays of every subtree, order included.
fn forest_fingerprint(store: &SequenceStore) -> u64 {
    let forest = build_sequential(store, 8);
    let mut h = Fnv::new();
    for t in &forest.subtrees {
        h.push(t.bucket as u64);
        for n in t.nodes() {
            h.push(n.rightmost as u64);
            h.push(n.depth as u64);
            h.push(n.suf_start as u64);
            h.push(n.suf_end as u64);
        }
        for s in t.suffixes() {
            h.push(s.sid as u64);
            h.push(s.off as u64);
        }
    }
    h.finish()
}

/// Fingerprint of a canonical partition (clusters ordered by smallest
/// member, members ascending).
fn partition_fingerprint(labels: &[usize]) -> u64 {
    let mut by_label: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &l) in labels.iter().enumerate() {
        by_label.entry(l).or_default().push(i);
    }
    let mut clusters: Vec<Vec<usize>> = by_label.into_values().collect();
    clusters.sort_by_key(|c| c[0]);
    let mut h = Fnv::new();
    for c in &clusters {
        h.push(c.len() as u64);
        for &i in c {
            h.push(i as u64);
        }
    }
    h.finish()
}

fn cfg() -> ClusterConfig {
    ClusterConfig {
        psi: 20,
        ..Default::default()
    }
}

#[test]
fn pair_stream_matches_pre_rewrite_fingerprints() {
    // Captured from the sort_by_key implementation at the parent commit.
    const PINNED: [u64; 3] = [0xf900f38f9e2f22f8, 0xa718d934efee4a1b, 0xbfb8720fd2773176];
    for (seed, expect) in SEEDS.into_iter().zip(PINNED) {
        let store = dataset(160, seed);
        let got = pair_stream_fingerprint(&store, 20);
        assert_eq!(
            got, expect,
            "pair stream diverged from pre-rewrite order (seed {seed}): got {got:#018x}"
        );
    }
}

#[test]
fn forest_matches_pre_rewrite_fingerprints() {
    const PINNED: [u64; 3] = [0x298024df8256734b, 0x6e36eeb1b1d2cbdb, 0xdc2cff80282e2c0d];
    for (seed, expect) in SEEDS.into_iter().zip(PINNED) {
        let store = dataset(160, seed);
        let got = forest_fingerprint(&store);
        assert_eq!(
            got, expect,
            "forest layout diverged from pre-rewrite builder (seed {seed}): got {got:#018x}"
        );
    }
}

#[test]
fn partitions_match_pre_rewrite_fingerprints() {
    const PINNED: [u64; 3] = [0x4fbb913f8e28a823, 0xd129aacd76bfe42b, 0xa6c9f14f6cd9e289];
    for (seed, expect) in SEEDS.into_iter().zip(PINNED) {
        let store = dataset(160, seed);
        let seq = cluster_sequential(&store, &cfg());
        let par = cluster_parallel(&store, &cfg(), 3);
        let got = partition_fingerprint(&seq.labels);
        assert_eq!(
            got, expect,
            "sequential partition diverged (seed {seed}): got {got:#018x}"
        );
        assert_eq!(
            partition_fingerprint(&par.labels),
            got,
            "parallel partition diverged from sequential (seed {seed})"
        );
    }
}

#[test]
fn generator_stats_and_mcs_histogram_match_pins() {
    // Captured from the hash-map generator at the parent commit, before
    // single-suffix leaves left the schedule: `nodes_processed` must
    // still count them.
    const PINNED: [(GenStats, u64); 3] = [
        (
            GenStats {
                nodes_processed: 250_859,
                raw_pairs: 12_224,
                discarded_self: 0,
                discarded_mirror: 6_112,
                emitted: 6_112,
            },
            0xba633d2902a9cc16,
        ),
        (
            GenStats {
                nodes_processed: 255_587,
                raw_pairs: 12_032,
                discarded_self: 0,
                discarded_mirror: 6_016,
                emitted: 6_016,
            },
            0x6d9808f80bece6ad,
        ),
        (
            GenStats {
                nodes_processed: 234_299,
                raw_pairs: 10_716,
                discarded_self: 0,
                discarded_mirror: 5_358,
                emitted: 5_358,
            },
            0xc1c8125eb79c7ea9,
        ),
    ];
    for (seed, (expect_stats, expect_hist)) in SEEDS.into_iter().zip(PINNED) {
        let store = dataset(160, seed);
        let (got_stats, got_hist) = generator_outcome(&store, 20);
        assert_eq!(
            got_stats, expect_stats,
            "generator counters diverged (seed {seed})"
        );
        assert_eq!(
            got_hist, expect_hist,
            "MCS-length histogram diverged (seed {seed}): got {got_hist:#018x}"
        );
    }
}
