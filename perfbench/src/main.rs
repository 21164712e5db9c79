//! perfbench — the repository benchmark of PaCE-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_seq --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates the named workload's inputs from `--seed` (set-up, outside
//! every timed region), then repeats the workload for `--seconds`:
//!
//! * a batch run, FASTA text → `pace_core::Pace::cluster` → labels, at
//!   the workload's `p`;
//! * a daemon run: `pace_serve::Server` in-process with a checkpoint
//!   directory, one connection ingesting the library while a second
//!   sends member/cluster/stats queries in a closed loop.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` instead times
//! the calls into each crate's public functions from outside, records
//! them as spans with the `pace_obs` tracer, and prints the per-layer
//! metrics. Every run checks its outputs; a failed check counts as a
//! failed operation. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when every check passed.
//!
//! Scratch files (socket, checkpoints) live under `perfbench/out/` and
//! are removed at exit; a traced run leaves its Chrome trace there.

mod cpu;
mod daemon;
mod endtoend;
mod layers;
mod stats;
mod workload;

use pace_cluster::ClusterStats;
use pace_core::{Pace, PaceConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one correctness check as one operation.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {why}");
        }
    }

    /// Count a result as one operation, passing its value through.
    pub fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(why) => {
                self.check(what, Err(why));
                None
            }
        }
    }
}

/// One batch clustering run, FASTA text to labels.
pub struct BatchRun {
    pub secs: f64,
    /// CPU seconds of every thread of the process over the run.
    pub cpu_s: f64,
    pub labels: Vec<usize>,
    pub stats: ClusterStats,
}

/// Cluster the workload's FASTA text at its `p`, timing the whole call.
pub fn cluster_fasta(wl: Workload, fasta: &str) -> Result<BatchRun, String> {
    let mut config = PaceConfig {
        cluster: wl.cluster_config(),
        ..PaceConfig::default()
    };
    config.num_processors = wl.procs();
    let pace = Pace::new(config);
    let cpu0 = cpu::process_s();
    let t0 = Instant::now();
    let records = pace_seq::parse_fasta(fasta).map_err(|e| format!("parse: {e}"))?;
    let seqs: Vec<&[u8]> = records.iter().map(|r| r.sequence.as_slice()).collect();
    let mut outcome = pace.cluster(&seqs).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(BatchRun {
        secs,
        cpu_s: cpu::process_s() - cpu0,
        labels: std::mem::take(&mut outcome.result.labels),
        stats: outcome.result.stats,
    })
}

/// Pair-flow conservation of a batch run's statistics.
pub fn conserved(s: &ClusterStats) -> Result<(), String> {
    stats::check_conservation(
        s.pairs_generated,
        s.pairs_processed,
        s.pairs_skipped,
        s.pairs_unconsumed,
        s.faults.lost_pairs,
    )
}

/// Whether two labelings are the same partition.
pub fn same_partition<A: Copy + Ord, B: Copy + Ord>(
    a: &[A],
    b: &[B],
    what: &str,
) -> Result<(), String> {
    let (ca, cb) = (stats::canonical(a), stats::canonical(b));
    if ca.len() != cb.len() {
        return Err(format!("{what}: {} vs {} labels", ca.len(), cb.len()));
    }
    match ca.iter().zip(&cb).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: partitions first differ at EST {i}")),
    }
}

/// Median of a non-empty series of repetitions.
pub fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one repetition and report only its peak RSS (the
    /// end-to-end run measures memory in such a child process).
    memory_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut memory_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--memory-probe" => memory_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        memory_probe,
    })
}

/// `perfbench/out`, relative to the working directory when possible so
/// the daemon's socket path stays short.
fn out_dir() -> PathBuf {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| abs.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|rel| !rel.as_os_str().is_empty())
        .unwrap_or(abs)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; an unmeasured value is null (and the run
            // is reported incorrect).
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_seq|repeat_par|serve_mixed --seed N \
                 --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let out = out_dir();
    let dir = out.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut tally = Tally::default();
    let metrics = if args.memory_probe {
        endtoend::memory_probe(args.workload, args.seed, &dir, &mut tally)
    } else if args.trace {
        layers::run(
            args.workload,
            args.seed,
            args.seconds,
            &dir,
            &out,
            &mut tally,
        )
    } else {
        endtoend::run(args.workload, args.seed, args.seconds, &dir, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&dir);

    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: a metric could not be measured");
    }
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    for m in &metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, &tally, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}
