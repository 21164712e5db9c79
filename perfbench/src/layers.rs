//! The traced run: per-layer metrics, timed from outside.
//!
//! The batch pipeline is replayed sequentially through each crate's
//! public functions — `pace_seq` parse and store, `pace_gst` bucket
//! partition and forest build, `pace_pairgen` generator set-up and
//! batches, the skip/align/union loop over `pace_dsu` and
//! `AlignContext::align` — timing every call and recording it as a span
//! on a `pace_obs` tracer. The daemon layers are measured the same way:
//! `IncrementalClusterer::fold_batch` over the daemon's batches,
//! `pace_serve::save_state` on the result, client-observed ingest calls,
//! and the `pace_serve` request codec over the workload's query mix. The
//! transport layer is read from the registry of a p = 2
//! `cluster_parallel_obs` run. No layer's call is nested in another's,
//! so each span's duration is its self time.

use crate::daemon::{self, batch_ranges};
use crate::endtoend::{check_batch, check_daemon};
use crate::workload::{Inputs, Workload};
use crate::{cluster_fasta, med, same_partition, stats, Metric, Tally};
use pace_cluster::{AlignContext, ClusterConfig};
use pace_core::IncrementalClusterer;
use pace_dsu::DisjointSets;
use pace_obs::{metric, Obs, Tracer};
use pace_pairgen::{CandidatePair, PairGenConfig, PairGenerator};
use pace_seq::{PackedText, SequenceStore};
use pace_wire::Wire;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Minimum wall time of each wire-codec timing loop.
const CODEC_LOOP: Duration = Duration::from_millis(150);

/// Times calls and records each as a span on the tracer's lane `rank`.
struct Lane<'a> {
    tracer: &'a Tracer,
    origin: Instant,
    rank: usize,
}

impl Lane<'_> {
    fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let d = t0.elapsed();
        self.tracer.span(
            self.rank,
            name,
            (t0 - self.origin).as_micros() as u64,
            d.as_micros() as u64,
            0,
            0,
        );
        (r, d.as_secs_f64())
    }
}

/// One outside-timed sequential replay of the batch pipeline.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    parse_s: f64,
    store_bytes: f64,
    partition_s: f64,
    build_s: f64,
    nodes: f64,
    suffixes: f64,
    gst_bytes: f64,
    pg_setup_s: f64,
    first_batch_s: f64,
    next_batch_s: f64,
    batch_p99_us: f64,
    pairs: f64,
    pg_bytes: f64,
    skipped: f64,
    aligned: f64,
    accepted: f64,
    prefiltered: f64,
    align_s: f64,
    dsu_s: f64,
    labels: Vec<usize>,
}

impl Replay {
    /// Self time of every layer on the blocking path.
    fn layer_sum(&self) -> f64 {
        self.parse_s
            + self.partition_s
            + self.build_s
            + self.pg_setup_s
            + self.next_batch_s
            + self.align_s
            + self.dsu_s
    }
}

fn replay(fasta: &str, cfg: &ClusterConfig, lane: &Lane) -> Result<Replay, String> {
    let t_all = Instant::now();
    let mut r = Replay::default();
    let (store, t) = lane.time("seq.parse", || {
        let records = pace_seq::parse_fasta(fasta).map_err(|e| e.to_string())?;
        SequenceStore::from_ests(&records.iter().map(|x| &x.sequence).collect::<Vec<_>>())
            .map_err(|e| e.to_string())
    });
    let store = store?;
    r.parse_s = t;
    r.store_bytes = store.memory_bytes() as f64;

    let (partition, t) = lane.time("gst.partition", || {
        pace_gst::assign_buckets(&pace_gst::count_buckets(&store, cfg.window_w), 1)
    });
    r.partition_s = t;
    let (forest, t) = lane.time("gst.build", || {
        pace_gst::build_forest_for_rank(&store, &partition, 0)
    });
    r.build_s = t;
    r.nodes = forest.num_nodes() as f64;
    r.suffixes = forest.num_suffixes() as f64;
    r.gst_bytes = forest.memory_bytes() as f64;

    let (mut generator, t) = lane.time("pairgen.setup", || {
        PairGenerator::new(
            &store,
            &forest,
            PairGenConfig {
                psi: cfg.psi,
                order: cfg.order,
            },
        )
    });
    r.pg_setup_s = t;

    let (packed, t) = lane.time("align.setup", || {
        cfg.packed_alignment.then(|| PackedText::from_store(&store))
    });
    r.align_s += t;
    let mut ctx = AlignContext::new(&store, packed.as_ref());
    let mut clusters = DisjointSets::new(store.num_ests());
    let mut batch: Vec<CandidatePair> = Vec::new();
    let mut batch_us = Vec::new();
    let mut pg_bytes = 0usize;
    loop {
        let ((), t) = lane.time("pairgen.next_batch", || {
            generator.next_batch_into(cfg.batchsize, &mut batch)
        });
        if batch_us.is_empty() {
            r.first_batch_s = t;
        }
        batch_us.push(t * 1e6);
        r.next_batch_s += t;
        pg_bytes = pg_bytes.max(generator.memory_bytes());
        if batch.is_empty() {
            break;
        }
        for pair in &batch {
            let (i, j) = pair.est_indices();
            if cfg.skip_clustered_pairs {
                // Too short for a µs span: timed, not traced.
                let t0 = Instant::now();
                let same = clusters.same(i, j);
                r.dsu_s += t0.elapsed().as_secs_f64();
                if same {
                    r.skipped += 1.0;
                    continue;
                }
            }
            let (outcome, t) = lane.time("align.align", || ctx.align(pair, cfg));
            r.align_s += t;
            r.aligned += 1.0;
            if outcome.accepted {
                r.accepted += 1.0;
                let t0 = Instant::now();
                clusters.union(i, j);
                r.dsu_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    let (labels, t) = lane.time("dsu.labels", || clusters.labels());
    r.dsu_s += t;
    r.labels = labels;
    r.pairs = generator.stats().emitted as f64;
    r.pg_bytes = pg_bytes as f64;
    r.prefiltered = ctx.pairs_prefiltered() as f64;
    r.batch_p99_us = stats::percentile(&batch_us, 0.99).unwrap_or(f64::NAN);
    r.wall_s = t_all.elapsed().as_secs_f64();
    stats::check_conservation(r.pairs as u64, r.aligned as u64, r.skipped as u64, 0, 0)?;
    Ok(r)
}

/// Median of one field over the replays.
fn med_of(replays: &[Replay], f: impl Fn(&Replay) -> f64) -> f64 {
    med(&replays.iter().map(f).collect::<Vec<_>>())
}

/// Transport and master figures of a p = 2 run, from its registry.
struct ParallelRun {
    messages: f64,
    bytes: f64,
    master_busy_frac: f64,
    unattributed_s: f64,
}

fn parallel(
    inputs: &Inputs,
    cfg: &ClusterConfig,
    reference: &[usize],
    tally: &mut Tally,
) -> ParallelRun {
    let store = SequenceStore::from_ests(&inputs.seqs).expect("generated DNA");
    let obs = Obs::noop();
    let (result, _trace) = pace_cluster::cluster_parallel_obs(&store, cfg, 2, &obs);
    tally.check(
        "p = 2 pair-flow conservation",
        crate::conserved(&result.stats),
    );
    tally.check(
        "p = 2 partition equals the replayed partition",
        same_partition(&result.labels, reference, "p = 2 vs replay"),
    );
    let snap = obs.registry().snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    let crit = |k: &str| snap.phases.get(k).map_or(0.0, |a| a.max);
    let named = [
        metric::PHASE_PARTITIONING,
        metric::PHASE_GST_CONSTRUCTION,
        metric::PHASE_NODE_SORTING,
        metric::PHASE_ALIGNMENT,
    ]
    .iter()
    .map(|p| crit(p))
    .sum::<f64>();
    ParallelRun {
        messages: counter(metric::COMM_MESSAGES),
        bytes: counter(metric::COMM_BYTES),
        master_busy_frac: snap
            .gauges
            .get(metric::MASTER_BUSY_FRAC)
            .copied()
            .unwrap_or(f64::NAN),
        unattributed_s: crit(metric::PHASE_TOTAL) - named,
    }
}

/// Replay the daemon's folds outside the daemon, then checkpoint the
/// result. Returns (fold times in s, checkpoint seconds, checkpoint
/// bytes, labels).
fn folds(
    wl: Workload,
    inputs: &Inputs,
    dir: &Path,
    lane: &Lane,
) -> Result<(Vec<f64>, f64, f64, Vec<usize>), String> {
    let mut clusterer = IncrementalClusterer::new(wl.cluster_config());
    let mut fold_s = Vec::new();
    let ranges = batch_ranges(inputs.len(), wl.ingest_batches());
    for range in &ranges {
        let (summary, t) = lane.time("core.fold_batch", || {
            clusterer.fold_batch(&inputs.ids[range.clone()], &inputs.seqs[range.clone()])
        });
        summary.map_err(|e| format!("fold: {e}"))?;
        fold_s.push(t);
    }
    let ckpt = dir.join("replay-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let (saved, t) = lane.time("store.save_state", || {
        pace_serve::save_state(&ckpt, &clusterer, ranges.len() as u64)
    });
    saved.map_err(|e| format!("save_state: {e}"))?;
    let bytes: u64 = std::fs::read_dir(&ckpt)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    Ok((fold_s, t, bytes as f64, clusterer.labels()))
}

/// Mean µs per call of `f` over `items`, looping for at least
/// [`CODEC_LOOP`]. NaN for no items.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return f64::NAN;
    }
    let mut calls = 0usize;
    let t0 = Instant::now();
    while calls == 0 || t0.elapsed() < CODEC_LOOP {
        for item in items {
            f(item);
        }
        calls += items.len();
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

pub fn run(
    wl: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    out: &Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let inputs = &wl.library(seed, 0);
    let cfg = wl.cluster_config();
    let start = Instant::now();
    let obs = Obs::with_tracer();
    let tracer = obs.tracer().expect("a tracer is attached");
    let lane = |rank| Lane {
        tracer,
        origin: start,
        rank,
    };

    // Untraced batch runs alternate with traced sequential replays of
    // the same pipeline, so both see the same conditions.
    let mut untraced = Vec::new();
    let mut replays = Vec::new();
    let mut reference: Option<Vec<usize>> = None;
    while replays.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let Some(batch) = tally.record("batch clustering run", cluster_fasta(wl, &inputs.fasta))
        else {
            return Vec::new();
        };
        let reference = reference.get_or_insert_with(|| batch.labels.clone());
        check_batch(&batch, reference, tally);
        untraced.push(batch.secs);

        let Some(r) = tally.record("traced replay", replay(&inputs.fasta, &cfg, &lane(0))) else {
            return Vec::new();
        };
        tally.check(
            "replayed partition equals the batch partition",
            same_partition(&r.labels, reference, "replay vs batch"),
        );
        replays.push(r);
    }
    let reference = reference.expect("at least one batch run");
    let cluster_s = med(&untraced);

    // Daemon, probed: client-observed ingest calls and the query mix.
    let Some(d) = tally.record(
        "daemon run",
        daemon::run(wl, inputs, dir, Some((tracer, start))),
    ) else {
        return Vec::new();
    };
    check_daemon(&d, &reference, tally);
    let Some((fold_s, ckpt_s, ckpt_bytes, fold_labels)) =
        tally.record("fold replay", folds(wl, inputs, dir, &lane(2)))
    else {
        return Vec::new();
    };
    tally.check(
        "replayed folds give the daemon's partition",
        same_partition(&fold_labels, &d.labels, "fold replay vs daemon"),
    );
    let client_p99 = stats::percentile(&d.query_us, 0.99).unwrap_or(f64::NAN);

    // The request codec over the query mix the daemon answered.
    let requests: Vec<_> = d.kept.iter().map(|(q, _)| q.to_bytes()).collect();
    let replies: Vec<_> = d.kept.iter().map(|(_, r)| r.to_bytes()).collect();
    let encode_us = per_call_us(&d.kept, |(q, _)| {
        black_box(black_box(q).to_bytes());
    });
    let decode_us = per_call_us(&replies, |bytes| {
        black_box(pace_serve::Response::from_bytes(black_box(bytes)).ok());
    });
    // Each frame carries an 8-byte length + CRC header.
    let frame_bytes = requests
        .iter()
        .zip(&replies)
        .map(|(q, r)| (q.len() + r.len() + 16) as f64)
        .sum::<f64>()
        / requests.len().max(1) as f64;

    let par = parallel(inputs, &cfg, &reference, tally);

    let trace_path = out.join(format!("trace-{}.json", wl.name()));
    if let Err(e) = tracer.write_chrome_file(&trace_path) {
        eprintln!("perfbench: writing {}: {e}", trace_path.display());
    }

    let rs = &replays;
    let layer_sum = med_of(rs, Replay::layer_sum);
    let pairs = med_of(rs, |r| r.pairs);
    let generated = d.stats.pairs_generated as f64;
    let fold_ms: Vec<f64> = fold_s.iter().map(|s| s * 1e3).collect();
    let call_ms: Vec<f64> = d.ingest_call_s.iter().map(|s| s * 1e3).collect();
    eprintln!(
        "perfbench: {} seed {seed}: untraced runs {:?}, replays {:?}, {} spans, trace in {}",
        wl.name(),
        untraced,
        replays.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        tracer.recorded(),
        trace_path.display()
    );
    vec![
        Metric::new("seq.parse_s", med_of(rs, |r| r.parse_s), "s"),
        Metric::new("seq.store_bytes", med_of(rs, |r| r.store_bytes), "bytes"),
        Metric::new("gst.partition_s", med_of(rs, |r| r.partition_s), "s"),
        Metric::new("gst.build_s", med_of(rs, |r| r.build_s), "s"),
        Metric::new("gst.nodes", med_of(rs, |r| r.nodes), "count"),
        Metric::new(
            "gst.suffixes_per_s",
            med_of(rs, |r| r.suffixes / r.build_s),
            "1/s",
        ),
        Metric::new("gst.bytes", med_of(rs, |r| r.gst_bytes), "bytes"),
        Metric::new("pairgen.setup_s", med_of(rs, |r| r.pg_setup_s), "s"),
        Metric::new(
            "pairgen.first_batch_s",
            med_of(rs, |r| r.first_batch_s),
            "s",
        ),
        Metric::new("pairgen.next_batch_s", med_of(rs, |r| r.next_batch_s), "s"),
        Metric::new("pairgen.batch_p99_us", med_of(rs, |r| r.batch_p99_us), "us"),
        Metric::new("pairgen.pairs", pairs, "count"),
        Metric::new(
            "pairgen.pairs_per_s",
            med_of(rs, |r| r.pairs / r.next_batch_s),
            "1/s",
        ),
        Metric::new("pairgen.bytes", med_of(rs, |r| r.pg_bytes), "bytes"),
        Metric::new(
            "cluster.skip_ratio",
            med_of(rs, |r| r.skipped / r.pairs),
            "ratio",
        ),
        Metric::new("cluster.aligned", med_of(rs, |r| r.aligned), "count"),
        Metric::new("dsu.ops_s", med_of(rs, |r| r.dsu_s), "s"),
        Metric::new("align.s", med_of(rs, |r| r.align_s), "s"),
        Metric::new(
            "align.pairs_per_s",
            med_of(rs, |r| r.aligned / r.align_s),
            "1/s",
        ),
        Metric::new(
            "align.accept_ratio",
            med_of(rs, |r| r.accepted / r.aligned),
            "ratio",
        ),
        Metric::new("align.prefiltered", med_of(rs, |r| r.prefiltered), "count"),
        Metric::new("mpisim.messages", par.messages, "count"),
        Metric::new("mpisim.bytes", par.bytes, "bytes"),
        Metric::new("cluster.master_busy_frac", par.master_busy_frac, "ratio"),
        Metric::new("cluster.par_unattributed_s", par.unattributed_s, "s"),
        Metric::new("cluster.unattributed_s", cluster_s - layer_sum, "s"),
        Metric::new(
            "trace.overhead_s",
            med_of(rs, |r| r.wall_s) - cluster_s,
            "s",
        ),
        Metric::new(
            "core.fold_p50_ms",
            stats::percentile(&fold_ms, 0.5).unwrap_or(f64::NAN),
            "ms",
        ),
        Metric::new(
            "core.fold_last_ms",
            fold_ms.last().copied().unwrap_or(f64::NAN),
            "ms",
        ),
        Metric::new(
            "core.pairs_per_new_est",
            generated / inputs.len() as f64,
            "count",
        ),
        Metric::new(
            "core.skip_ratio",
            d.stats.pairs_skipped as f64 / generated,
            "ratio",
        ),
        Metric::new("store.checkpoint_s", ckpt_s, "s"),
        Metric::new("store.checkpoint_bytes", ckpt_bytes, "bytes"),
        Metric::new(
            "serve.ingest_call_p50_ms",
            stats::percentile(&call_ms, 0.5).unwrap_or(f64::NAN),
            "ms",
        ),
        Metric::new("serve.client_query_p99_us", client_p99, "us"),
        Metric::new("serve.server_query_p99_us", d.server.query_p99_us, "us"),
        Metric::new(
            "serve.query_gap_p99_us",
            client_p99 - d.server.query_p99_us,
            "us",
        ),
        Metric::new("wire.request_encode_us", encode_us, "us"),
        Metric::new("wire.response_decode_us", decode_us, "us"),
        Metric::new("wire.frame_bytes", frame_bytes, "bytes"),
    ]
}
