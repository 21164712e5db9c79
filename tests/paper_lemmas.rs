//! The paper's pair-generation guarantees (§3.2), checked at bench scale
//! on the smoke bench's 800-EST library (`pace_bench::dataset(800, 3000)`,
//! the paper's w = 8, ψ = 20) rather than on proptest-sized inputs.
//!
//! * Lemma 1 — every emission's witness offsets mark a maximal exact
//!   match of length ≥ ψ between its two strings.
//! * Lemma 3 — the distinct pairs emitted are exactly the pairs that
//!   share a ψ-mer, read off an independent ψ-mer index.
//! * Corollary 2 — a pair is emitted at most once per maximal common
//!   substring: its `c` emissions witness `c` different substrings, each
//!   one a maximal common substring of length ≥ ψ by a seed-and-extend
//!   oracle.
//!
//! Pairs are in the generator's normalized space: `(s1, s2)` with
//! `est(s1) < est(s2)` and `s1` forward (the mirror image of a
//! reverse–forward pair is its complement, emitted instead).

use pace::gst::build_sequential;
use pace::pairgen::{CandidatePair, PairGenConfig, PairGenerator};
use pace::seq::{StrId, Strand};
use pace::{ClusterConfig, SequenceStore, SimConfig};
use std::collections::{HashMap, HashSet};

/// The smoke bench's library: 800 ESTs, Zipf 0.6 expression, chimeras
/// at 0.002, simulator seed 3000.
fn smoke_library() -> SequenceStore {
    let ds = pace::simulate::generate(&SimConfig {
        chimera_prob: 0.002,
        expression: pace::simulate::Expression::Zipf(0.6),
        ..SimConfig::sized(800, 3000)
    });
    SequenceStore::from_ests(&ds.ests).unwrap()
}

/// 2-bit code of a DNA base.
fn code(b: u8) -> u64 {
    match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        b'T' => 3,
        other => panic!("non-DNA byte {other:#04x} in the library"),
    }
}

/// Every ψ-mer of `seq` as `(start, packed key)`; 1 ≤ ψ ≤ 32.
fn psi_mers(seq: &[u8], psi: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let mask = u64::MAX >> (64 - 2 * psi);
    let mut key = 0u64;
    seq.iter().enumerate().filter_map(move |(i, &b)| {
        key = ((key << 2) | code(b)) & mask;
        (i + 1 >= psi).then(|| (i + 1 - psi, key))
    })
}

/// The normalized id of the unordered string pair `{x, y}` of different
/// ESTs, or `None` when it is the mirror image of a normalized pair.
fn normalized(x: StrId, y: StrId) -> Option<(u32, u32)> {
    let (a, b) = if x.est() < y.est() { (x, y) } else { (y, x) };
    (a.strand() == Strand::Forward).then_some((a.0, b.0))
}

/// Lemma 3's oracle: every normalized pair of strings of different ESTs
/// that share a ψ-mer.
fn pairs_sharing_a_psi_mer(store: &SequenceStore, psi: usize) -> HashSet<(u32, u32)> {
    let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
    for sid in store.str_ids() {
        for (_, key) in psi_mers(store.seq(sid), psi) {
            let holders = index.entry(key).or_default();
            if holders.last() != Some(&sid.0) {
                holders.push(sid.0);
            }
        }
    }
    // Neighbouring ψ-mers of a gene mostly share their holder list, so
    // each distinct list is expanded once.
    let lists: HashSet<Vec<u32>> = index.into_values().filter(|h| h.len() > 1).collect();
    let mut pairs = HashSet::new();
    for holders in &lists {
        for (i, &x) in holders.iter().enumerate() {
            for &y in &holders[i + 1..] {
                let (x, y) = (StrId(x), StrId(y));
                if x.est() != y.est() {
                    pairs.extend(normalized(x, y));
                }
            }
        }
    }
    pairs
}

/// Distinct maximal common substrings of `a` and `b` of length ≥ ψ: every
/// left-maximal shared ψ-mer seeds one, extended right to its end.
fn distinct_mcs<'a>(a: &'a [u8], b: &[u8], psi: usize) -> HashSet<&'a [u8]> {
    let mut at: HashMap<u64, Vec<usize>> = HashMap::new();
    for (j, key) in psi_mers(b, psi) {
        at.entry(key).or_default().push(j);
    }
    let mut out = HashSet::new();
    for (i, key) in psi_mers(a, psi) {
        for &j in at.get(&key).into_iter().flatten() {
            if i > 0 && j > 0 && a[i - 1] == b[j - 1] {
                continue;
            }
            let mut k = psi;
            while i + k < a.len() && j + k < b.len() && a[i + k] == b[j + k] {
                k += 1;
            }
            out.insert(&a[i..i + k]);
        }
    }
    out
}

/// Lemma 1 at one emission: the witness is an exact match of length
/// `mcs_len ≥ ψ`, and neither end extends.
fn check_witness(store: &SequenceStore, p: &CandidatePair, psi: u32) {
    let a = store.seq(p.s1);
    let b = store.seq(p.s2);
    let (i, j, k) = (p.off1 as usize, p.off2 as usize, p.mcs_len as usize);
    assert!(p.mcs_len >= psi, "MCS below ψ: {p}");
    assert!(
        i + k <= a.len() && j + k <= b.len(),
        "witness out of range: {p}"
    );
    assert_eq!(&a[i..i + k], &b[j..j + k], "witness is not a match: {p}");
    assert!(
        i == 0 || j == 0 || a[i - 1] != b[j - 1],
        "witness left-extensible: {p}"
    );
    assert!(
        i + k == a.len() || j + k == b.len() || a[i + k] != b[j + k],
        "witness right-extensible: {p}"
    );
}

#[test]
fn lemmas_hold_on_the_smoke_library() {
    let cfg = ClusterConfig::default();
    let psi = cfg.psi as usize;
    assert!(psi <= 32, "ψ-mers are packed into a u64");
    let store = smoke_library();
    let forest = build_sequential(&store, cfg.window_w);
    let pairs = PairGenerator::new(&store, &forest, PairGenConfig::new(cfg.psi)).generate_all();
    assert!(
        pairs.len() > 10_000,
        "library too sparse: {} pairs",
        pairs.len()
    );

    let mut emissions: HashMap<(u32, u32), Vec<&CandidatePair>> = HashMap::new();
    for p in &pairs {
        check_witness(&store, p, cfg.psi);
        assert_eq!(normalized(p.s1, p.s2), Some((p.s1.0, p.s2.0)), "{p}");
        emissions.entry((p.s1.0, p.s2.0)).or_default().push(p);
    }

    // Lemma 3: emitted pairs = ψ-mer-sharing pairs, both directions.
    let oracle = pairs_sharing_a_psi_mer(&store, psi);
    let emitted: HashSet<(u32, u32)> = emissions.keys().copied().collect();
    let missed: Vec<_> = oracle.difference(&emitted).take(5).collect();
    assert!(
        missed.is_empty(),
        "pairs sharing a ψ-mer never emitted: {missed:?}"
    );
    let spurious: Vec<_> = emitted.difference(&oracle).take(5).collect();
    assert!(
        spurious.is_empty(),
        "pairs emitted without a shared ψ-mer: {spurious:?}"
    );

    // Corollary 2: at most one emission per distinct MCS — the repeated
    // emissions of a pair witness pairwise different MCSs, each one the
    // oracle finds.
    let mut repeated = 0;
    for (&(x, y), ps) in emissions.iter().filter(|(_, ps)| ps.len() > 1) {
        repeated += 1;
        let a = store.seq(StrId(x));
        let mcs = distinct_mcs(a, store.seq(StrId(y)), psi);
        let witnessed: HashSet<&[u8]> = ps
            .iter()
            .map(|p| &a[p.off1 as usize..(p.off1 + p.mcs_len) as usize])
            .collect();
        assert_eq!(
            witnessed.len(),
            ps.len(),
            "pair ({x}, {y}) emitted twice for one MCS"
        );
        assert!(
            witnessed.is_subset(&mcs),
            "pair ({x}, {y}) witnesses an MCS the oracle lacks"
        );
    }
    assert!(
        repeated > 0,
        "no pair emitted twice: Corollary 2 went unexercised"
    );
}
