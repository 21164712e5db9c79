//! Direct tests of the slave loop against a *scripted* master.
//!
//! The unit tests of `master.rs` verify the master state machine in
//! isolation; here the real `run_slave` is driven over the real
//! message-passing runtime by a hand-written master script on rank 0 —
//! the one-shard (`K = 1`) world layout — pinning down
//! the wire protocol itself: the three-portion startup, the R/P piggyback
//! pattern, PAIRBUF top-up to `E`, the exhausted flag, and shutdown.

use pace_cluster::messages::Msg;
use pace_cluster::slave_sharded::run_slave;
use pace_cluster::ClusterConfig;
use pace_gst::{assign_buckets, build_forest_for_rank, count_buckets};
use pace_mpisim::run_world;
use pace_seq::SequenceStore;
use pace_simulate::{generate, SimConfig};

fn workload(n: usize, seed: u64) -> SequenceStore {
    let ds = generate(&SimConfig {
        num_genes: (n / 10).max(2),
        num_ests: n,
        est_len_mean: 220.0,
        est_len_sd: 25.0,
        est_len_min: 120,
        exon_len: (220, 400),
        exons_per_gene: (1, 2),
        seed,
        ..SimConfig::default()
    });
    SequenceStore::from_ests(&ds.ests).unwrap()
}

fn cfg() -> ClusterConfig {
    let mut c = ClusterConfig::small();
    c.psi = 16;
    c.overlap.min_overlap_len = 40;
    c.batchsize = 10;
    c
}

/// Run `script` as rank 0 against one real slave on rank 1.
fn with_slave<R: Send>(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    script: impl Fn(&pace_mpisim::Rank<Msg>) -> R + Sync,
) -> Vec<Option<R>> {
    let counts = count_buckets(store, cfg.window_w);
    let partition = assign_buckets(&counts, 1);
    let forest = build_forest_for_rank(store, &partition, 0);
    run_world(2, |rank| {
        if rank.rank() == 0 {
            Some(script(&rank))
        } else {
            run_slave(&rank, store, &forest, cfg);
            None
        }
    })
}

/// Receive the next Report, failing on anything else.
fn recv_report(
    rank: &pace_mpisim::Rank<Msg>,
) -> (
    Vec<pace_cluster::PairOutcome>,
    Vec<pace_pairgen::CandidatePair>,
    bool,
) {
    match rank.recv().expect("slave alive") {
        (
            1,
            Msg::Report {
                seq: _,
                results,
                pairs,
                exhausted,
            },
        ) => (results, pairs, exhausted),
        (from, other) => panic!("expected Report from 1, got {} from {from}", other.kind()),
    }
}

#[test]
fn startup_report_carries_portion1_results_and_portion3_pairs() {
    let store = workload(60, 71);
    let cfg = cfg();
    let out = with_slave(&store, &cfg, |rank| {
        let (results, pairs, exhausted) = recv_report(rank);
        // Portion 1 was aligned (batchsize results) and portion 3 shipped.
        assert_eq!(results.len(), cfg.batchsize, "portion-1 results");
        assert_eq!(pairs.len(), cfg.batchsize, "portion-3 pairs");
        assert!(!exhausted, "workload has plenty of pairs");
        rank.send(1, Msg::Shutdown);
        true
    });
    assert_eq!(out[0], Some(true));
}

#[test]
fn work_reply_returns_results_and_tops_up_to_e() {
    let store = workload(60, 72);
    let cfg = cfg();
    let out = with_slave(&store, &cfg, |rank| {
        let (_r0, _p0, _) = recv_report(rank);
        // Ask for E = 25 pairs and send no work: the next report must
        // carry the portion-2 results (batchsize) and exactly 25 pairs.
        rank.send(
            1,
            Msg::Work {
                seq: 1,
                pairs: vec![],
                request: 25,
            },
        );
        let (results, pairs, _) = recv_report(rank);
        assert_eq!(results.len(), cfg.batchsize, "portion-2 results");
        assert_eq!(pairs.len(), 25, "PAIRBUF topped up to E");
        rank.send(1, Msg::Shutdown);
        true
    });
    assert_eq!(out[0], Some(true));
}

#[test]
fn dispatched_work_results_come_back_on_next_interaction() {
    let store = workload(60, 73);
    let cfg = cfg();
    let out = with_slave(&store, &cfg, |rank| {
        let (_r0, p0, _) = recv_report(rank);
        // Hand portion 3 back to the slave as work.
        let sent = p0.len();
        rank.send(
            1,
            Msg::Work {
                seq: 1,
                pairs: p0,
                request: 0,
            },
        );
        // Next report: portion-2 results, no pairs (E was 0).
        let (r1, p1, _) = recv_report(rank);
        assert_eq!(r1.len(), cfg.batchsize);
        assert!(p1.is_empty(), "E = 0 must return no pairs");
        // Flush: the results of the dispatched work arrive now.
        rank.send(
            1,
            Msg::Work {
                seq: 2,
                pairs: vec![],
                request: 0,
            },
        );
        let (r2, _, _) = recv_report(rank);
        assert_eq!(r2.len(), sent, "results of the dispatched batch");
        rank.send(1, Msg::Shutdown);
        true
    });
    assert_eq!(out[0], Some(true));
}

#[test]
fn slave_reports_exhausted_when_drained() {
    let store = workload(12, 74); // tiny: few promising pairs
    let cfg = cfg();
    let out = with_slave(&store, &cfg, |rank| {
        let (_, _, mut exhausted) = recv_report(rank);
        let mut rounds = 0u64;
        while !exhausted {
            rank.send(
                1,
                Msg::Work {
                    seq: rounds + 1,
                    pairs: vec![],
                    request: 1000,
                },
            );
            let (_, pairs, ex) = recv_report(rank);
            exhausted = ex;
            rounds += 1;
            assert!(rounds < 100, "slave never exhausts");
            if ex {
                // Final report may carry the last pairs; afterwards the
                // generator is dry.
                let _ = pairs;
            }
        }
        rank.send(1, Msg::Shutdown);
        rounds
    });
    assert!(out[0].unwrap() < 100);
}

#[test]
fn protocol_traffic_is_counted_by_comm_stats() {
    let store = workload(60, 75);
    let cfg = cfg();
    let out = with_slave(&store, &cfg, |rank| {
        let (_r0, _p0, _) = recv_report(rank);
        rank.send(
            1,
            Msg::Work {
                seq: 1,
                pairs: vec![],
                request: 5,
            },
        );
        let (_r1, _p1, _) = recv_report(rank);
        rank.send(1, Msg::Shutdown);
        rank.stats()
    });
    let comm = out[0].unwrap();
    // Two reports from the slave plus two sends from the script — the
    // world-level counter must see all of them.
    assert!(comm.messages >= 4, "messages = {}", comm.messages);
}

#[test]
fn empty_forest_slave_exhausts_immediately() {
    // A store whose suffixes are all shorter than the window: the forest
    // is empty and the slave must report exhausted at startup.
    let store = SequenceStore::from_ests(&[&b"ACG"[..], b"TGA"]).unwrap();
    let mut c = ClusterConfig::small();
    c.window_w = 4;
    c.psi = 8;
    let out = with_slave(&store, &c, |rank| {
        let (results, pairs, exhausted) = recv_report(rank);
        assert!(results.is_empty());
        assert!(pairs.is_empty());
        assert!(exhausted);
        rank.send(1, Msg::Shutdown);
        true
    });
    assert_eq!(out[0], Some(true));
}
