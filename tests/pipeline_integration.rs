//! End-to-end integration tests spanning all crates: simulate → store →
//! GST → pair generation → clustering → quality assessment.

use pace::{Pace, PaceConfig, SequenceStore, SimConfig};
use pace_simulate::generate;

/// Settings for short test reads (full-size defaults would need 500-base
/// reads to be meaningful).
fn test_config() -> PaceConfig {
    let mut c = PaceConfig::small_inputs();
    c.cluster.psi = 16;
    c.cluster.overlap.min_overlap_len = 40;
    c
}

fn dataset(n: usize, seed: u64, error_rate: f64) -> pace::EstDataset {
    generate(&SimConfig {
        num_genes: (n / 12).max(2),
        num_ests: n,
        est_len_mean: 220.0,
        est_len_sd: 25.0,
        est_len_min: 120,
        exon_len: (220, 400),
        exons_per_gene: (1, 2),
        error_rate,
        seed,
        ..SimConfig::default()
    })
}

#[test]
fn full_pipeline_recovers_structure_cleanly() {
    let ds = {
        let mut c = SimConfig {
            num_genes: 150 / 12,
            num_ests: 150,
            est_len_mean: 220.0,
            est_len_sd: 25.0,
            est_len_min: 120,
            exon_len: (220, 400),
            exons_per_gene: (1, 2),
            error_rate: 0.0,
            seed: 101,
            ..SimConfig::default()
        };
        c.repeat_gene_prob = 0.0;
        generate(&c)
    };
    let outcome = Pace::new(test_config()).cluster(&ds.ests).unwrap();
    let q = outcome.quality(&ds.truth);
    assert!(q.ov < 0.005, "clean data must not over-merge: {q}");
    assert!(q.oq > 0.85, "clean data quality too low: {q}");
}

#[test]
fn full_pipeline_tolerates_sequencing_errors() {
    let ds = dataset(150, 102, 0.02);
    let outcome = Pace::new(test_config()).cluster(&ds.ests).unwrap();
    let q = outcome.quality(&ds.truth);
    assert!(q.cc > 0.80, "2% error data collapsed: {q}");
}

#[test]
fn sequential_and_parallel_drivers_agree() {
    let ds = dataset(120, 103, 0.0);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();

    let seq = pace::cluster::cluster_sequential(&store, &test_config().cluster);
    for p in [2, 4, 6] {
        let par = pace::cluster::cluster_parallel(&store, &test_config().cluster, p);
        let agreement = pace::quality::assess(&par.labels, &seq.labels);
        assert!(
            agreement.oq > 0.98,
            "p={p} diverged from sequential: {agreement}"
        );
    }
}

#[test]
fn pace_and_baseline_see_the_same_biology() {
    let ds = dataset(100, 104, 0.0);
    let store = SequenceStore::from_ests(&ds.ests).unwrap();

    let pace_result = pace::cluster::cluster_sequential(&store, &test_config().cluster);

    let mut bl_cfg = pace::baseline::BaselineConfig::small();
    bl_cfg.psi = 16;
    bl_cfg.overlap.min_overlap_len = 40;
    let baseline = pace::baseline::cluster_baseline(&store, &bl_cfg).unwrap();

    let agreement = pace::quality::assess(&pace_result.labels, &baseline.labels);
    assert!(
        agreement.oq > 0.97,
        "PaCE and baseline disagree on clean data: {agreement}"
    );
    // And PaCE does it with strictly less alignment work.
    assert!(pace_result.stats.pairs_processed < baseline.stats.alignments);
}

#[test]
fn fasta_roundtrip_feeds_the_pipeline() {
    let ds = dataset(40, 105, 0.01);
    // Write the simulated reads as FASTA, re-parse, cluster the parse.
    let records: Vec<pace::seq::FastaRecord> = ds
        .ests
        .iter()
        .enumerate()
        .map(|(i, est)| pace::seq::FastaRecord {
            id: format!("est_{i}"),
            description: format!("gene={}", ds.truth[i]),
            sequence: est.clone(),
        })
        .collect();
    let fasta = pace::seq::fasta::to_fasta_string(&records, 60);
    let parsed = pace::seq::parse_fasta(&fasta).unwrap();
    assert_eq!(parsed.len(), 40);
    let ests: Vec<Vec<u8>> = parsed.into_iter().map(|r| r.sequence).collect();
    assert_eq!(ests, ds.ests);

    let outcome = Pace::new(test_config()).cluster(&ests).unwrap();
    assert_eq!(outcome.num_ests, 40);
}

#[test]
fn deterministic_end_to_end() {
    let ds = dataset(80, 106, 0.02);
    let a = Pace::new(test_config()).cluster(&ds.ests).unwrap();
    let b = Pace::new(test_config()).cluster(&ds.ests).unwrap();
    assert_eq!(
        a.result.labels, b.result.labels,
        "sequential run not deterministic"
    );
    assert_eq!(
        a.result.stats.pairs_processed,
        b.result.stats.pairs_processed
    );
}

/// Labels, not just partitions, are a pure function of the input: two
/// parallel runs over one noisy library return equal label vectors —
/// the smallest-member labels the daemon serves.
#[test]
fn parallel_labels_are_deterministic() {
    let ds = dataset(800, 7, 0.02);
    let mut config = test_config();
    config.num_processors = 3;
    let a = Pace::new(config.clone()).cluster(&ds.ests).unwrap();
    let b = Pace::new(config).cluster(&ds.ests).unwrap();
    assert_eq!(a.labels(), b.labels());
    assert!(a.labels().iter().enumerate().all(|(i, &l)| l <= i));
}

#[test]
fn figure7_shape_holds_end_to_end() {
    // Pairs processed must be well below pairs generated once clusters
    // form (Figure 7's key message), and accepted ≤ processed.
    let ds = dataset(200, 107, 0.01);
    let outcome = Pace::new(test_config()).cluster(&ds.ests).unwrap();
    let s = &outcome.result.stats;
    assert!(s.pairs_generated > 0);
    assert!(
        s.pairs_processed < s.pairs_generated,
        "no alignment work was saved: {} of {}",
        s.pairs_processed,
        s.pairs_generated
    );
    assert!(s.pairs_accepted <= s.pairs_processed);
}

#[test]
fn cluster_config_controls_behavior() {
    let ds = dataset(80, 108, 0.0);
    // A very strict psi finds fewer promising pairs than a loose one.
    let loose = {
        let mut c = test_config();
        c.cluster.psi = 12;
        Pace::new(c).cluster(&ds.ests).unwrap()
    };
    let strict = {
        let mut c = test_config();
        c.cluster.psi = 60;
        Pace::new(c).cluster(&ds.ests).unwrap()
    };
    assert!(
        strict.result.stats.pairs_generated < loose.result.stats.pairs_generated,
        "psi had no effect: strict {} vs loose {}",
        strict.result.stats.pairs_generated,
        loose.result.stats.pairs_generated
    );
}

#[test]
fn reverse_complemented_library_clusters_identically() {
    // Flipping the strand of every read must not change the partition:
    // the GST holds both strands of everything.
    let ds = dataset(60, 109, 0.0);
    let flipped: Vec<Vec<u8>> = ds
        .ests
        .iter()
        .map(|e| pace::seq::reverse_complement(e))
        .collect();
    let a = Pace::new(test_config()).cluster(&ds.ests).unwrap();
    let b = Pace::new(test_config()).cluster(&flipped).unwrap();
    let agreement = pace::quality::assess(&a.result.labels, &b.result.labels);
    assert_eq!(
        agreement.counts.fp + agreement.counts.fn_,
        0,
        "strand flip changed the clustering: {agreement}"
    );
}
