//! The daemon half of every workload: `pace_serve::Server` in-process
//! with a checkpoint directory, one connection ingesting the library
//! batch by batch, and a second connection sending the load generator's
//! member/cluster/stats mix in a closed loop (no think time) for as long
//! as the ingest lasts.

use crate::workload::{Inputs, Workload};
use pace_obs::{Obs, Tracer};
use pace_serve::{Client, Request, Response, ServeStats, Server, ServerConfig, ServerStats};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Replies kept for the wire-codec measurement of a probed run.
const KEPT_REPLIES: usize = 20_000;

/// What one daemon run observed.
pub struct DaemonRun {
    /// First ingest send to last ingest reply.
    pub ingest_wall_s: f64,
    /// CPU seconds the daemon's ingest handler used over the same span.
    pub ingest_cpu_s: f64,
    /// Client-observed duration of each ingest call.
    pub ingest_call_s: Vec<f64>,
    /// Client-observed latency of each answered query, send to reply, µs.
    pub query_us: Vec<f64>,
    /// Queries sent.
    pub queries: u64,
    /// Queries whose call failed or whose reply did not match the request.
    pub bad_replies: u64,
    /// Cluster label of every EST after the last fold, probed by id.
    pub labels: Vec<u64>,
    /// Service counters after the last fold.
    pub stats: ServeStats,
    /// The daemon's own statistics, returned when it stopped.
    pub server: ServerStats,
    /// A prefix of the query mix with the replies it got (probed runs).
    pub kept: Vec<(Request, Response)>,
}

/// The `q`-th request of the load generator's mix against an `n`-EST
/// library: 7 in 10 membership lookups (some for ids not ingested yet,
/// which the daemon answers with an error reply), 2 cluster listings,
/// 1 stats call.
pub fn query_for(q: u64, n: usize) -> Request {
    let n = n as u64;
    match (q * 7) % 10 {
        0 => Request::Stats,
        1 | 2 => Request::Cluster {
            label: (q * 13) % n,
        },
        _ => Request::Member {
            id: format!("est_{}", (q * 3) % n),
        },
    }
}

/// Whether `resp` is a well-formed answer to `req`.
pub fn reply_matches(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::Stats, Response::StatsReply(_))
            | (
                Request::Member { .. },
                Response::Membership { .. } | Response::Err { .. }
            )
            | (
                Request::Cluster { .. },
                Response::ClusterMembers { .. } | Response::Err { .. }
            )
    )
}

/// Split `0..n` into `k` contiguous batches as the load generator does.
pub fn batch_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let per = n.div_ceil(k.max(1)).max(1);
    (0..n)
        .step_by(per)
        .map(|lo| lo..(lo + per).min(n))
        .collect()
}

/// Run the daemon workload once in `dir`. With a tracer, each ingest
/// call is recorded as a span and a prefix of the query mix keeps its
/// replies. `Err` means the daemon could not be started or an ingest
/// failed.
pub fn run(
    wl: Workload,
    inputs: &Inputs,
    dir: &Path,
    tracer: Option<(&Tracer, Instant)>,
) -> Result<DaemonRun, String> {
    let ckpt = dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let sock = dir.join("d.sock");
    let mut cfg = ServerConfig::new(&sock, wl.cluster_config());
    cfg.checkpoint_dir = Some(ckpt);
    // Handlers of an earlier daemon run may still be winding down.
    let stale = placement::conn_threads()?;
    let handle = Server::start(cfg, Obs::noop()).map_err(|e| format!("daemon start: {e}"))?;

    let n = inputs.len();
    let done = AtomicBool::new(false);
    let keep = if tracer.is_some() { KEPT_REPLIES } else { 0 };
    let mut query_us = Vec::with_capacity(1 << 18);
    let mut kept = Vec::with_capacity(keep);
    let mut queries = 0u64;
    let mut bad_replies = 0u64;

    // The query connection first, so its handler is the daemon's first
    // connection thread; the ingest connection's handler runs the folds.
    let mut client = Client::connect(&sock).map_err(|e| format!("query connection: {e}"))?;
    let query_handler = placement::new_conn_threads(&stale)?;
    let saved_mask = placement::usable_mask();
    let (connected_tx, connected_rx) = mpsc::channel();
    let (placed_tx, placed_rx) = mpsc::channel();

    let writer = std::thread::scope(|s| {
        let (sock, done) = (&sock, &done);
        let writer = s.spawn(move || {
            let r = Client::connect(sock)
                .map_err(|e| format!("ingest connection: {e}"))
                .and_then(|client| {
                    let _ = connected_tx.send(());
                    let fold_handler: Vec<i32> = placed_rx
                        .recv()
                        .map_err(|_| "placement was abandoned".to_string())??;
                    if saved_mask.is_some() {
                        placement::set(0, 1 << placement::FOLD_CPU);
                    }
                    ingest_all(wl, inputs, client, &fold_handler, tracer)
                });
            done.store(true, Ordering::SeqCst);
            r
        });
        if connected_rx.recv().is_ok() {
            let known = [stale.as_slice(), &query_handler].concat();
            let fold_handler = placement::new_conn_threads(&known);
            if let (Some(_), Ok(fold_handler)) = (saved_mask, &fold_handler) {
                for &tid in fold_handler {
                    placement::set(tid, 1 << placement::FOLD_CPU);
                }
                for &tid in query_handler.iter().chain([&0]) {
                    placement::set(tid, 1 << placement::QUERY_CPU);
                }
            }
            let _ = placed_tx.send(fold_handler);
        }
        while !done.load(Ordering::SeqCst) {
            let req = query_for(queries, n);
            let t0 = Instant::now();
            let resp = client.call(&req);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            queries += 1;
            match resp {
                Ok(resp) if reply_matches(&req, &resp) => {
                    query_us.push(us);
                    if kept.len() < keep {
                        kept.push((req, resp));
                    }
                }
                _ => bad_replies += 1,
            }
        }
        if let Some(mask) = saved_mask {
            placement::set(0, mask);
        }
        writer.join().expect("ingest thread panicked")
    });
    drop(client);
    let (ingest_wall_s, ingest_cpu_s, ingest_call_s) = writer?;

    let mut probe = Client::connect(&sock).map_err(|e| format!("probe connection: {e}"))?;
    let labels = inputs
        .ids
        .iter()
        .map(|id| probe.member(id).map(|(_, label, _)| label))
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|e| format!("probing the partition: {e}"))?;
    let stats = probe.stats().map_err(|e| format!("stats: {e}"))?;
    drop(probe);
    let server = handle.stop().map_err(|e| format!("daemon stop: {e}"))?;
    Ok(DaemonRun {
        ingest_wall_s,
        ingest_cpu_s,
        ingest_call_s,
        query_us,
        queries,
        bad_replies,
        labels,
        stats,
        server,
        kept,
    })
}

/// The ingest connection: fold every batch, timing each call, the whole
/// sequence, and the CPU time of the daemon's handler for this
/// connection (read while the connection is still open). Returns (wall
/// seconds, handler CPU seconds, per-call seconds).
fn ingest_all(
    wl: Workload,
    inputs: &Inputs,
    mut client: Client,
    handler: &[i32],
    tracer: Option<(&Tracer, Instant)>,
) -> Result<(f64, f64, Vec<f64>), String> {
    let handler_cpu = || -> Result<f64, String> {
        handler
            .iter()
            .map(|&tid| crate::cpu::thread_s(tid).ok_or("ingest handler exited early"))
            .sum::<Result<f64, _>>()
            .map_err(str::to_string)
    };
    let mut calls = Vec::new();
    let cpu0 = handler_cpu()?;
    let start = Instant::now();
    for range in batch_ranges(inputs.len(), wl.ingest_batches()) {
        let ids = inputs.ids[range.clone()].to_vec();
        let seqs = inputs.seqs[range].to_vec();
        let t0 = Instant::now();
        client
            .ingest(ids, seqs)
            .map_err(|e| format!("ingest: {e}"))?;
        let d = t0.elapsed();
        if let Some((tracer, origin)) = tracer {
            tracer.span(
                1,
                "serve.ingest_call",
                (t0 - origin).as_micros() as u64,
                d.as_micros() as u64,
                calls.len() as u64,
                0,
            );
        }
        calls.push(d.as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64();
    Ok((wall, handler_cpu()? - cpu0, calls))
}

/// Thread placement for the daemon run, and discovery of the daemon's
/// connection handlers (whose CPU time the ingest figure uses). Left to
/// the scheduler, the fold
/// and the query ping-pong land on shared or separate CPUs from run to
/// run, which moved ingest throughput by 2× and query latency between
/// modes. On a host with at least two CPUs the fold (with its idle
/// client) gets one CPU and the query client with its handler the
/// other; with fewer, nothing is pinned.
mod placement {
    use std::time::{Duration, Instant};

    pub const FOLD_CPU: usize = 0;
    pub const QUERY_CPU: usize = 1;
    /// How long to wait for the daemon to spawn a connection handler.
    const HANDLER_WAIT: Duration = Duration::from_secs(5);

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    /// The calling thread's CPU set, if it fits one word and holds both
    /// CPUs placement uses; `None` disables placement.
    pub fn usable_mask() -> Option<u64> {
        let mut mask = 0u64;
        // SAFETY: `mask` is a live 8-byte buffer for the duration of the
        // call and the size passed is its size; the kernel writes at most
        // that many bytes and fails rather than truncate a larger set.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } == 0;
        let both = (1 << FOLD_CPU) | (1 << QUERY_CPU);
        (ok && mask & both == both).then_some(mask)
    }

    /// Restrict thread `tid` of this process (0: the calling thread) to
    /// the CPUs in `mask`.
    pub fn set(tid: i32, mask: u64) {
        // SAFETY: `mask` is a live, initialised 8-byte CPU set for the
        // duration of the call, and the size passed is its size; the
        // kernel only reads it. A failure (e.g. the thread has exited)
        // leaves the thread's affinity unchanged, which is harmless.
        unsafe {
            sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask);
        }
    }

    /// Ids of this process's daemon connection-handler threads.
    pub fn conn_threads() -> Result<Vec<i32>, String> {
        Ok(std::fs::read_dir("/proc/self/task")
            .map_err(|e| format!("listing threads: {e}"))?
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
            .filter(|tid| {
                std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                    .is_ok_and(|name| name.trim_end() == "paced-conn")
            })
            .collect())
    }

    /// Connection-handler threads not in `known`, waiting until the
    /// daemon has spawned at least one.
    pub fn new_conn_threads(known: &[i32]) -> Result<Vec<i32>, String> {
        let deadline = Instant::now() + HANDLER_WAIT;
        loop {
            let mut tids = conn_threads()?;
            tids.retain(|tid| !known.contains(tid));
            if !tids.is_empty() {
                return Ok(tids);
            }
            if Instant::now() >= deadline {
                return Err("the daemon spawned no connection handler".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_the_library_once() {
        let r = batch_ranges(600, 12);
        assert_eq!(r.len(), 12);
        assert_eq!(r[0], 0..50);
        assert_eq!(r[11], 550..600);
        assert_eq!(batch_ranges(800, 1), vec![0..800]);
        let odd = batch_ranges(10, 3);
        assert_eq!(odd, vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn the_query_mix_is_seven_two_one() {
        let mut counts = [0usize; 3];
        for q in 0..1000 {
            match query_for(q, 600) {
                Request::Member { .. } => counts[0] += 1,
                Request::Cluster { .. } => counts[1] += 1,
                Request::Stats => counts[2] += 1,
                other => panic!("unexpected request {other:?}"),
            }
        }
        assert_eq!(counts, [700, 200, 100]);
    }

    #[test]
    fn mismatched_replies_are_rejected() {
        assert!(reply_matches(
            &Request::Stats,
            &Response::StatsReply(ServeStats::default())
        ));
        assert!(!reply_matches(&Request::Stats, &Response::Ok));
        let member = query_for(3, 600);
        assert!(reply_matches(&member, &Response::Err { msg: "x".into() }));
        assert!(!reply_matches(&member, &Response::Ok));
    }
}
