//! The untraced run: end-to-end metrics as a user of the system sees
//! them.

use crate::daemon::DaemonRun;
use crate::workload::{Inputs, Workload, QUALITY_LIBRARIES};
use crate::{cluster_fasta, conserved, med, same_partition, stats, BatchRun, Metric, Tally};
use pace_quality::{PairCounts, QualityMetrics};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 5;

/// Generate the run's libraries `SETUP_REPS` times, checking each
/// generation reproduces the first. Returns the libraries and the
/// median set-up time in CPU seconds (see [`crate::cpu`]).
pub fn setup(wl: Workload, seed: u64, tally: &mut Tally) -> (Vec<Inputs>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<Vec<Inputs>> = None;
    for _ in 0..SETUP_REPS {
        let t0 = crate::cpu::process_s();
        let libs = wl.generate(seed);
        times.push(crate::cpu::process_s() - t0);
        match &first {
            None => first = Some(libs),
            Some(f) => tally.check(
                "inputs are a function of the seed",
                if *f == libs {
                    Ok(())
                } else {
                    Err("two generations from one seed differ".into())
                },
            ),
        }
    }
    (first.expect("at least one set-up"), med(&times))
}

/// Check one batch run against the library's first batch run: pair flow
/// conserved, and the same partition (the schedule may relabel).
pub fn check_batch(run: &BatchRun, reference: &[usize], tally: &mut Tally) {
    tally.check("batch pair-flow conservation", conserved(&run.stats));
    tally.check(
        "batch partition is reproducible",
        same_partition(&run.labels, reference, "batch run vs first batch run"),
    );
}

/// Check a daemon run: every query answered, the daemon's partition is
/// the batch partition, and the daemon's pair flow is conserved.
pub fn check_daemon(d: &DaemonRun, batch_labels: &[usize], tally: &mut Tally) {
    tally.ops(d.ingest_call_s.len() as u64, 0);
    tally.ops(d.queries, d.bad_replies);
    tally.check(
        "daemon partition equals the batch partition",
        same_partition(&d.labels, batch_labels, "daemon vs batch"),
    );
    tally.check("daemon pair-flow conservation", daemon_conserved(d));
}

/// Pair-flow conservation of the daemon's folds, from its counters: a
/// fold consumes its own generator, so nothing is left unconsumed.
fn daemon_conserved(d: &DaemonRun) -> Result<(), String> {
    stats::check_conservation(
        d.stats.pairs_generated,
        d.stats.pairs_processed,
        d.stats.pairs_skipped,
        0,
        0,
    )
}

/// One repetition on one library: the workload's batch runs, then one
/// daemon run, all checked. `reference` is the library's first batch
/// partition and is set on the library's first repetition.
fn rep(
    wl: Workload,
    inputs: &Inputs,
    dir: &Path,
    reference: &mut Option<Vec<usize>>,
    tally: &mut Tally,
) -> Option<(Vec<BatchRun>, DaemonRun)> {
    let mut batches = Vec::new();
    for _ in 0..wl.batch_runs_per_rep() {
        let batch = tally.record("batch clustering run", cluster_fasta(wl, &inputs.fasta))?;
        let reference = reference.get_or_insert_with(|| batch.labels.clone());
        check_batch(&batch, reference, tally);
        batches.push(batch);
    }
    let d = tally.record("daemon run", crate::daemon::run(wl, inputs, dir, None))?;
    check_daemon(&d, reference.as_deref().unwrap_or_default(), tally);
    Some((batches, d))
}

pub fn run(wl: Workload, seed: u64, seconds: f64, dir: &Path, tally: &mut Tally) -> Vec<Metric> {
    let (libs, setup_s) = setup(wl, seed, tally);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    let mut cluster_cpu = Vec::new();
    let mut references: Vec<Option<Vec<usize>>> = vec![None; libs.len()];
    let (mut ingested, mut ingest_cpu) = (0usize, 0.0f64);
    let mut query_us: Vec<f64> = Vec::new();
    let mut reps = 0;
    // The next library each repetition, until time is up and the
    // quality libraries are done.
    while reps < QUALITY_LIBRARIES || Instant::now() < deadline {
        let lib = reps % libs.len();
        reps += 1;
        let Some((batches, mut d)) = rep(wl, &libs[lib], dir, &mut references[lib], tally) else {
            return Vec::new();
        };
        let n = libs[lib].len() as f64;
        eprintln!(
            "  library {lib}: {} pairs; batch wall/cpu {:.3?}/{:.3?} s; ingest wall {:.1}, \
             cpu {:.1} ESTs/s",
            batches[0].stats.pairs_generated,
            batches.iter().map(|b| b.secs).collect::<Vec<_>>(),
            batches.iter().map(|b| b.cpu_s).collect::<Vec<_>>(),
            n / d.ingest_wall_s,
            n / d.ingest_cpu_s,
        );
        cluster_cpu.extend(batches.iter().map(|b| b.cpu_s));
        ingested += libs[lib].len();
        ingest_cpu += d.ingest_cpu_s;
        query_us.append(&mut d.query_us);
    }

    if wl.procs() > 1 {
        // Batch labels depend on the schedule; the partition may not.
        // (The daemon's one-batch fold of every library is a sequential
        // clustering too, already compared above.)
        let store = pace_seq::SequenceStore::from_ests(&libs[0].seqs).expect("generated DNA");
        let sequential = pace_cluster::cluster_sequential(&store, &wl.cluster_config());
        tally.check(
            "parallel partition equals the sequential partition",
            same_partition(
                references[0].as_deref().unwrap_or_default(),
                &sequential.labels,
                "p > 1 vs p = 1",
            ),
        );
    }
    let quality = pooled_quality(&libs[..QUALITY_LIBRARIES], &references);
    let peak_rss = tally
        .record("memory probe", child_peak_rss(wl, seed))
        .unwrap_or(f64::NAN);
    eprintln!("perfbench: {} seed {seed}: {reps} repetitions", wl.name());
    // Percentiles of every latency of the run, exact from the raw
    // samples.
    query_us.sort_by(f64::total_cmp);
    let pct = |q| stats::percentile_sorted(&query_us, q).unwrap_or(f64::NAN);
    vec![
        Metric::new("cluster_cpu_s", med(&cluster_cpu), "s"),
        Metric::new("quality_oq", quality.oq, "ratio"),
        Metric::new(
            "ingest_ests_per_cpu_s",
            ingested as f64 / ingest_cpu,
            "ESTs/s",
        ),
        Metric::new("query_p50_us", pct(0.50), "us"),
        Metric::new("query_p95_us", pct(0.95), "us"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

/// The memory probe's body: the workload's headline operation once on
/// its first library — the batch run, or on `serve_mixed` the daemon
/// run — checked, then this process's peak RSS.
pub fn memory_probe(wl: Workload, seed: u64, dir: &Path, tally: &mut Tally) -> Vec<Metric> {
    let inputs = wl.library(seed, 0);
    let ok = if wl == Workload::ServeMixed {
        tally
            .record("daemon run", crate::daemon::run(wl, &inputs, dir, None))
            .map(|d| {
                tally.ops(d.queries, d.bad_replies);
                tally.check("daemon pair-flow conservation", daemon_conserved(&d));
            })
    } else {
        tally
            .record("batch clustering run", cluster_fasta(wl, &inputs.fasta))
            .map(|b| tally.check("batch pair-flow conservation", conserved(&b.stats)))
    };
    if ok.is_none() {
        return Vec::new();
    }
    vec![Metric::new(
        "peak_rss_mb",
        crate::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    )]
}

/// Peak RSS of a child process that runs only the workload's headline
/// operation (see [`memory_probe`]). The child uses a single malloc arena, so the figure tracks
/// the program's live memory rather than which arenas its threads
/// happened to land in.
fn child_peak_rss(wl: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", wl.name(), "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--memory-probe", "1"])
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("running the memory probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("memory probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = pace_obs::json::parse(text.lines().last().unwrap_or_default())
        .map_err(|e| format!("memory probe output: {e}"))?;
    doc.get("metrics")
        .and_then(|m| m.get("peak_rss_mb"))
        .and_then(|m| m.get("value"))
        .and_then(pace_obs::Json::as_f64)
        .ok_or_else(|| "memory probe printed no peak_rss_mb".to_string())
}

/// Quality of the batch partitions against the simulator's truth, with
/// the pair counts of all libraries pooled.
fn pooled_quality(libs: &[Inputs], labels: &[Option<Vec<usize>>]) -> QualityMetrics {
    let mut total = PairCounts {
        tp: 0,
        fp: 0,
        fn_: 0,
        tn: 0,
    };
    for (inputs, labels) in libs.iter().zip(labels) {
        let c = pace_quality::pair_counts(labels.as_deref().unwrap_or_default(), &inputs.truth);
        total.tp += c.tp;
        total.fp += c.fp;
        total.fn_ += c.fn_;
        total.tn += c.tn;
    }
    QualityMetrics::from_counts(total)
}
