//! Parallel driver: the master–slave protocol over `p` ranks, with the
//! master tier split into `K = cfg.shards` shard masters.
//!
//! Rank layout ([`ShardTopology`]): shard `s`'s master runs on rank
//! `s`, and ranks `K..p` are slaves. Rank 0 hosts shard 0 *and* the
//! reconciler, in one receive loop. `K = 1` is the paper's system: one
//! master at rank 0 over `p − 1` slaves. The phases mirror it: (1) each
//! slave counts its share of the suffixes per bucket and the counts are
//! combined with the parallel-summation collective (masters contribute
//! zeros); (2) buckets are assigned deterministically and each slave
//! builds the subtrees it owns; (3) the clustering protocol runs until
//! every master has shut its sessions down. Phase timers are per-rank
//! and reported as the cross-rank maxima (critical-path times, as in
//! Table 3).
//!
//! Each shard master owns a [`pace_dsu::ShardDsu`] view of `CLUSTERS`
//! over one EST id-range and runs the unchanged [`Master`] protocol
//! machine over every slave for the pairs it owns. A pair belongs to the
//! shard owning its smaller EST id, so every pair has exactly one
//! coordinator and the per-shard `WORKBUF`s partition the single
//! master's queue; with more than one shard, merge serialization and
//! per-master message load no longer funnel through rank 0.
//!
//! Unions whose endpoints straddle shard boundaries cannot be resolved
//! locally; they are logged as cross edges and flushed to rank 0 as
//! [`Msg::CrossMerge`] messages at epoch barriers (every `shard_epoch`
//! handled reports). Rank 0 folds them into a running global DSU for
//! observability, but the *final* partition is rebuilt by replaying
//! each shard's authoritative merge records ([`Msg::ShardDone`]; shard
//! 0's are local) in shard order through a fresh DSU, keeping only the
//! records whose union still merged something. That filtered replay is
//! what makes the output deterministic (independent of `CrossMerge`
//! arrival timing) and is why a lost `CrossMerge` is harmless: the
//! records subsume every edge.
//!
//! Correctness: a pair's accept decision is a pure function of the
//! pair, and a pair is only ever *skipped* when some DSU view proves its
//! ESTs already connected by performed merges. `ShardDsu::same` answers
//! `false` for any cross-shard pair — a sound under-approximation — so
//! no pair is skipped wrongly, and the final partition equals the
//! connected components of the accepted-pair graph regardless of `K`.
//! The differential harness (`tests/sharded_identity.rs`) pins this down
//! against the `K = 1` run seed by seed.
//!
//! Instrumentation mirrors the sequential driver: every phase is timed
//! with a `pace-obs` span (per-rank series in the registry, critical
//! path in the legacy `PhaseTimers`), communication counters are
//! absorbed from `pace-mpisim`, each master emits periodic heartbeats
//! (its busy fraction is the paper's "< 2%" claim), and the fold emits a
//! `merge` event for every merge of the final trace, in trace order.

use crate::config::{ClusterConfig, ShardRole, ShardTopology};
use crate::driver_seq::{cluster_sequential_obs, record_cluster_counters, record_gst_stats};
use crate::master::{FaultNote, Master};
use crate::messages::{Msg, ShardReport, WorkerSummary};
use crate::slave_sharded::run_slave_obs;
use crate::stats::{ClusterResult, ClusterStats, PhaseTimers};
use crate::trace::{MergeRecord, MergeTrace};
use pace_dsu::{DisjointSets, ShardSpec};
use pace_gst::{assign_buckets, build_forest_for_rank, count_buckets_stride, num_buckets};
use pace_mpisim::{run_world_obs, FaultPlan, FaultSnapshot, Rank, WorldStats};
use pace_obs::trace::{flow_id, T_DISPATCH, T_HANDLE_REPORT};
use pace_obs::{metric, Event, Obs, Timer, TraceKind};
use pace_seq::{PackedText, SequenceStore};
use std::time::{Duration, Instant};

/// Emit a master heartbeat every this many handled reports.
const HEARTBEAT_EVERY: u64 = 32;

/// Copies of each unacknowledged control message (`Shutdown`, `Abort`,
/// `ShardDone`, `Summary`) sent when a fault plan is active. Bounded
/// redundancy (distinct transport sequence numbers) is what carries
/// them past the bounded per-channel drop rules of seeded plans
/// (`pace_mpisim::MAX_SEEDED_DROPS_PER_CHANNEL`).
const CONTROL_REDUNDANCY: usize = 3;

/// What rank 0 (shard 0 + reconciler) hands to the fold.
struct RootOut {
    /// The shards' final reports (shard 0's built in place) and the
    /// reconciler's counters.
    recon: Reconciler,
    comm: WorldStats,
    injected: FaultSnapshot,
    partitioning: f64,
    /// Which slaves shard 0 declared dead — the summary-collection
    /// window must not wait on these.
    dead: Vec<bool>,
    /// Worker summaries that arrived during the protocol (socket
    /// backend; empty on the thread backend).
    early_summaries: Vec<(usize, WorkerSummary)>,
}

/// Per-rank output of the thread-backend world.
enum RankOut {
    Root(Box<RootOut>),
    /// Everything a shard master on rank ≥ 1 produces travels to rank 0
    /// as messages.
    SubMaster,
    Slave(WorkerSummary),
}

/// Cluster with `p` ranks: `K = cfg.shards` shard masters and `p − K`
/// slaves. `p ≤ 1` falls back to the sequential driver.
pub fn cluster_parallel(store: &SequenceStore, cfg: &ClusterConfig, p: usize) -> ClusterResult {
    cluster_parallel_obs(store, cfg, p, &Obs::noop()).0
}

/// Fully instrumented parallel run, additionally returning the
/// reconciled [`MergeTrace`] (replaying it reproduces the returned
/// labels). All ranks share `obs`: phase spans land in its per-rank
/// series, communication and pair counters in its registry, heartbeats
/// and merges in its event sink.
pub fn cluster_parallel_obs(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cluster_parallel_faults(store, cfg, p, &FaultPlan::none(), obs)
}

/// [`cluster_parallel_obs`] under a deterministic [`FaultPlan`]:
/// messages between ranks may be dropped, delayed, or silenced by an
/// injected crash. Each master's timeout/retry/reassignment machinery
/// recovers from slave faults; a shard master on rank ≥ 1 that goes
/// silent is written off at rank 0's progress deadline, the slaves are
/// released with [`Msg::Abort`], and the shard's pairs are accounted in
/// `faults.lost_pairs` — loud failure, never silent divergence. With an
/// empty plan this *is* `cluster_parallel_obs`.
///
/// # Panics
/// If `cfg` is invalid or `p` is too small for `cfg.shards`
/// ([`ShardTopology::new`]).
pub fn cluster_parallel_faults(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    p: usize,
    plan: &FaultPlan,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    if p <= 1 {
        return cluster_sequential_obs(store, cfg, obs);
    }
    let topo = ShardTopology::new(p, cfg.shards).expect("invalid world layout");
    let spec = ShardSpec::new(store.num_ests(), topo.shards);
    let total_span = obs.span(metric::PHASE_TOTAL);

    // Pack once, share read-only across every slave's alignment context.
    let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
    let packed_ref = packed.as_ref();

    let under_faults = !plan.is_empty();
    let outputs = run_world_obs(p, plan, obs, |rank| match topo.role_of(rank.rank()) {
        ShardRole::SubMaster(0) => RankOut::Root(Box::new(root_rank(
            &rank,
            store,
            cfg,
            topo,
            under_faults,
            obs,
        ))),
        ShardRole::SubMaster(_) => {
            submaster_rank(&rank, store, cfg, topo, under_faults, false, obs);
            RankOut::SubMaster
        }
        ShardRole::Slave(_) => {
            RankOut::Slave(slave_rank(&rank, store, packed_ref, cfg, topo, spec, obs))
        }
    });

    let mut root = None;
    let mut summaries = Vec::new();
    for out in outputs {
        match out {
            RankOut::Root(r) => root = Some(*r),
            RankOut::SubMaster => {}
            RankOut::Slave(summary) => summaries.push(summary),
        }
    }
    let root = root.expect("rank 0 always yields the root output");
    fold(
        store.num_ests(),
        topo,
        root,
        summaries,
        obs,
        total_span.finish(),
    )
}

/// Run rank 0 (shard 0 + reconciler) over a caller-supplied
/// transport-backed [`Rank`] — the multi-process entry point. The caller
/// (the launcher) builds the world: a [`pace_mpisim::UdsHub`] wrapped by
/// `rank`, with one [`cluster_worker_transport`] process per remaining
/// rank.
///
/// After the protocol completes, slave summaries are collected as
/// [`Msg::Summary`] messages within a bounded window (crashed workers
/// never send one, and slaves shard 0 declared dead are not waited for);
/// the fold tolerates missing summaries by crediting the absent
/// generator with exactly the pairs the masters received from it,
/// keeping flow conservation exact.
pub fn cluster_master_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> (ClusterResult, MergeTrace) {
    cfg.validate().expect("invalid cluster config");
    assert_eq!(rank.rank(), 0, "the root must run on rank 0");
    let topo = ShardTopology::new(rank.size(), cfg.shards).expect("invalid world layout");
    let total_span = obs.span(metric::PHASE_TOTAL);

    let mut root = root_rank(rank, store, cfg, topo, under_faults, obs);

    let num_slaves = topo.num_slaves();
    let mut summaries: Vec<Option<WorkerSummary>> = vec![None; num_slaves];
    let accept = |summaries: &mut [Option<WorkerSummary>], from: usize, s: WorkerSummary| {
        if let ShardRole::Slave(idx) = topo.role_of(from) {
            summaries[idx].get_or_insert(s);
        }
    };
    for (from, s) in root.early_summaries.drain(..) {
        accept(&mut summaries, from, s);
    }
    let expected = root.dead.iter().filter(|d| !**d).count();
    let window = (cfg.slave_timeout * (f64::from(cfg.max_retries) + 1.0)).clamp(1.0, 10.0);
    let deadline = Instant::now() + Duration::from_secs_f64(window);
    while summaries.iter().flatten().count() < expected {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let poll = (deadline - now).min(Duration::from_millis(50));
        match rank.recv_timeout(poll) {
            Ok(Some((from, Msg::Summary(s)))) => accept(&mut summaries, from, s),
            // Stray duplicates from resend redundancy: ignore.
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }

    fold(
        store.num_ests(),
        topo,
        root,
        summaries.into_iter().flatten().collect(),
        obs,
        total_span.finish(),
    )
}

/// Run one worker rank (shard master or slave, by position) over a
/// caller-supplied transport-backed [`Rank`]. A slave sends its final
/// [`Msg::Summary`] to rank 0 (skipped when an injected crash severed
/// the connection — the fold tolerates the gap). Returns whether this
/// rank crashed, which the worker process turns into its
/// [`pace_mpisim::INJECTED_CRASH_EXIT`] status.
pub fn cluster_worker_transport(
    store: &SequenceStore,
    cfg: &ClusterConfig,
    rank: &Rank<Msg>,
    under_faults: bool,
    obs: &Obs,
) -> bool {
    cfg.validate().expect("invalid cluster config");
    let topo = ShardTopology::new(rank.size(), cfg.shards).expect("invalid world layout");
    let spec = ShardSpec::new(store.num_ests(), topo.shards);
    match topo.role_of(rank.rank()) {
        ShardRole::SubMaster(0) => unreachable!("rank 0 is the launcher's in-process root"),
        ShardRole::SubMaster(_) => {
            submaster_rank(rank, store, cfg, topo, under_faults, true, obs);
        }
        ShardRole::Slave(_) => {
            let packed = cfg.packed_alignment.then(|| PackedText::from_store(store));
            let mut summary = slave_rank(rank, store, packed.as_ref(), cfg, topo, spec, obs);
            let injected = rank.fault_stats();
            summary.injected_drops = injected.dropped;
            summary.injected_delays = injected.delayed;
            summary.injected_stalls = injected.stalls;
            if !rank.crashed() {
                let copies = if under_faults { CONTROL_REDUNDANCY } else { 1 };
                for _ in 0..copies {
                    rank.send(0, Msg::Summary(summary.clone()));
                }
            }
        }
    }
    obs.flush();
    rank.crashed()
}

/// A master rank's share of the partitioning phase: join the bucket
/// count collective with a zero contribution (masters hold no input
/// share), then wait at the barrier while the slaves build their
/// forests. Returns the partitioning span's seconds.
fn master_collectives(rank: &Rank<Msg>, cfg: &ClusterConfig, obs: &Obs) -> f64 {
    let span = obs.span_on(metric::PHASE_PARTITIONING, rank.rank());
    let zeros = vec![0u64; num_buckets(cfg.window_w)];
    let _ = rank.allreduce_sum(&zeros);
    let partitioning = span.finish();
    rank.barrier();
    partitioning
}

/// Wake at a quarter of the slave timeout so overdue batches are
/// noticed promptly without busy-spinning.
fn poll_interval(cfg: &ClusterConfig) -> Duration {
    Duration::from_secs_f64((cfg.slave_timeout / 4.0).clamp(0.001, 0.05))
}

/// One shard master's protocol loop: the [`Master`] machine plus its
/// send path, fault-note and heartbeat instrumentation, and epoch
/// counter. Rank 0 steps shard 0's loop from inside the reconciler's
/// receive loop; ranks `1..K` step their own.
struct ShardLoop<'a> {
    rank: &'a Rank<Msg>,
    cfg: &'a ClusterConfig,
    topo: ShardTopology,
    shard: usize,
    under_faults: bool,
    obs: &'a Obs,
    master: Master,
    busy: Timer,
    loop_t0: f64,
    reports: u64,
    epoch: u64,
    hb_last_t: f64,
    hb_last_processed: u64,
}

impl<'a> ShardLoop<'a> {
    fn new(
        rank: &'a Rank<Msg>,
        store: &SequenceStore,
        cfg: &'a ClusterConfig,
        topo: ShardTopology,
        under_faults: bool,
        obs: &'a Obs,
    ) -> Self {
        let shard = rank.rank();
        let spec = ShardSpec::new(store.num_ests(), topo.shards);
        let mut master =
            Master::for_shard(spec, shard, topo.num_slaves(), cfg.clone()).check_anchors(store);
        master.begin(obs.now());
        let loop_t0 = obs.now();
        ShardLoop {
            rank,
            cfg,
            topo,
            shard,
            under_faults,
            obs,
            master,
            busy: Timer::new(),
            loop_t0,
            reports: 0,
            epoch: 0,
            hb_last_t: loop_t0,
            hb_last_processed: 0,
        }
    }

    /// Flow id of batch `seq` in the session with `slave`.
    fn flow(&self, slave: usize, seq: u64) -> u64 {
        flow_id(self.shard * self.topo.num_slaves() + slave, seq)
    }

    fn send(&self, replies: Vec<(usize, Msg)>) {
        let me = self.rank.rank();
        for (slave, reply) in replies {
            // A dispatched batch opens a causal flow keyed on (slave,
            // seq); the slave's report closes it. Resends re-open the
            // same id, so the arrow tracks the delivery that worked.
            if let Msg::Work { seq, pairs, .. } = &reply {
                self.obs.trace_with(|tracer| {
                    let t = self.obs.now_us();
                    let id = self.flow(slave, *seq);
                    tracer.flow(TraceKind::FlowStart, me, t, id);
                    tracer.instant(me, T_DISPATCH, t, id, pairs.len() as u64);
                });
            }
            // Shutdown has no ack; under a fault plan, bounded
            // redundancy carries it past the bounded drop rules.
            let copies = match (&reply, self.under_faults) {
                (Msg::Shutdown, true) => CONTROL_REDUNDANCY,
                _ => 1,
            };
            let to = self.topo.slave_rank(slave);
            for _ in 1..copies {
                self.rank.send(to, reply.clone());
            }
            self.rank.send(to, reply);
        }
    }

    /// Fold one report from rank `from` into the master and send the
    /// replies. Returns whether it came from a slave rank (a report
    /// claiming to come from a master rank is stray and ignored).
    fn on_report(
        &mut self,
        from: usize,
        seq: u64,
        results: Vec<crate::align_task::PairOutcome>,
        pairs: Vec<pace_pairgen::CandidatePair>,
        exhausted: bool,
    ) -> bool {
        let ShardRole::Slave(slave) = self.topo.role_of(from) else {
            return false;
        };
        self.busy.start();
        let t0_us = self.obs.trace_enabled().then(|| self.obs.now_us());
        let replies =
            self.master
                .handle_report(slave, seq, results, pairs, exhausted, self.obs.now());
        self.send(replies);
        if let Some(t0) = t0_us {
            let me = self.rank.rank();
            let id = self.flow(slave, seq);
            self.obs.trace_with(|tracer| {
                let end = self.obs.now_us();
                // The span covers both folding the report in and
                // dispatching its successor, so the flow end and the
                // next flow start land inside it.
                tracer.span(me, T_HANDLE_REPORT, t0, end.saturating_sub(t0), id, seq);
                tracer.flow(TraceKind::FlowEnd, me, t0, id);
            });
        }
        self.busy.stop();
        true
    }

    /// Per-poll housekeeping after a receive: the deadline sweep, fault
    /// notes, and heartbeats. Returns `true` at an epoch barrier (every
    /// `shard_epoch` handled reports), when a master on rank ≥ 1 flushes
    /// its pending cross edges.
    fn after_poll(&mut self, got_report: bool) -> bool {
        let obs = self.obs;
        if !self.master.is_done() {
            self.busy.start();
            let replies = self.master.tick(obs.now());
            self.send(replies);
            self.busy.stop();
        }
        if obs.events_enabled() || obs.trace_enabled() {
            let me = self.rank.rank();
            let shard = self.shard;
            for note in self.master.drain_fault_notes() {
                // Structural attribution: the slave the note is about
                // and, where it concerns a specific batch, its protocol
                // sequence number.
                let (kind, seq, detail) = match note {
                    FaultNote::Resend { slave, seq, retry } => (
                        "resend",
                        Some(seq),
                        format!("shard {shard} slave {slave} seq {seq} retry {retry}"),
                    ),
                    FaultNote::DeadSlave { slave, reassigned } => (
                        "dead_slave",
                        None,
                        format!("shard {shard} slave {slave}, {reassigned} pairs reassigned"),
                    ),
                    FaultNote::DuplicateReport { slave, seq } => (
                        "duplicate_report",
                        Some(seq),
                        format!("shard {shard} slave {slave} seq {seq}"),
                    ),
                    FaultNote::Rejected { slave, seq } => (
                        "rejected_report",
                        Some(seq),
                        format!(
                            "shard {shard} slave {slave} seq {seq}: foreign or out-of-range EST"
                        ),
                    ),
                    FaultNote::Abandoned { pairs } => (
                        "abandoned",
                        None,
                        format!("shard {shard}: {pairs} pairs, no live slaves"),
                    ),
                };
                obs.trace_with(|tracer| {
                    tracer.instant(me, tracer.intern(kind), obs.now_us(), seq.unwrap_or(0), 0);
                });
                obs.emit_with(|| Event::Fault {
                    t: obs.now(),
                    rank: me,
                    kind: kind.to_string(),
                    seq,
                    detail: detail.clone(),
                });
            }
        }
        if !got_report {
            return false;
        }
        self.reports += 1;
        if obs.events_enabled() && self.reports.is_multiple_of(HEARTBEAT_EVERY) {
            let now = obs.now();
            let elapsed = (now - self.loop_t0).max(f64::EPSILON);
            let processed = self.master.stats().pairs_processed;
            let dt = (now - self.hb_last_t).max(f64::EPSILON);
            obs.emit(Event::Heartbeat {
                rank: self.rank.rank(),
                t: now,
                busy_frac: self.busy.secs() / elapsed,
                pairs_per_sec: (processed - self.hb_last_processed) as f64 / dt,
                processed,
            });
            self.hb_last_t = now;
            self.hb_last_processed = processed;
        }
        if self.reports.is_multiple_of(self.cfg.shard_epoch as u64) {
            self.epoch += 1;
            return true;
        }
        false
    }

    /// The shard's authoritative end-of-run report, plus the cross edges
    /// still pending (the final flush).
    fn finish(mut self) -> (ShardReport, Vec<(u32, u32)>) {
        let loop_total = (self.obs.now() - self.loop_t0).max(f64::EPSILON);
        self.epoch += 1;
        let edges = self.master.drain_cross_edges();
        let stats = *self.master.stats();
        let report = ShardReport {
            records: self.master.trace().records().to_vec(),
            pairs_received: stats.pairs_generated,
            pairs_processed: stats.pairs_processed,
            pairs_accepted: stats.pairs_accepted,
            pairs_skipped: stats.pairs_skipped,
            merges: stats.merges,
            cross_edges: self.master.cross_edges_total(),
            epochs: self.epoch,
            retries: stats.faults.retries,
            duplicate_reports: stats.faults.duplicate_reports,
            dead_slaves: stats.faults.dead_slaves,
            reassigned_pairs: stats.faults.reassigned_pairs,
            abandoned_pairs: stats.faults.abandoned_pairs,
            busy_frac: self.busy.secs() / loop_total,
            ..ShardReport::default()
        };
        (report, edges)
    }
}

/// Rank 0's reconciler state: the running global DSU the `CrossMerge`
/// flushes fold into, and the shards' final reports.
struct Reconciler {
    incremental: DisjointSets,
    /// Final report per shard (`None` = the shard never delivered one:
    /// crashed, or written off at the progress deadline).
    shard_reports: Vec<Option<ShardReport>>,
    failed: Vec<bool>,
    /// Cross edges received via `CrossMerge` flushes.
    cross_received: u64,
    /// `CrossMerge` flushes received.
    cross_flushes: u64,
    /// `CrossMerge` edges and `ShardDone` records dropped for naming an
    /// EST outside the library.
    rejected: u64,
    /// Time spent folding cross edges.
    timer: Timer,
}

impl Reconciler {
    fn new(num_ests: usize, shards: usize) -> Self {
        Reconciler {
            incremental: DisjointSets::new(num_ests),
            shard_reports: vec![None; shards],
            failed: vec![false; shards],
            cross_received: 0,
            cross_flushes: 0,
            rejected: 0,
            timer: Timer::new(),
        }
    }

    /// Shards on ranks ≥ 1 neither reported nor written off yet.
    fn outstanding(&self) -> usize {
        (1..self.shard_reports.len())
            .filter(|&s| self.is_open(s))
            .count()
    }

    /// Shard `s` has neither reported nor been written off.
    fn is_open(&self, s: usize) -> bool {
        self.shard_reports[s].is_none() && !self.failed[s]
    }

    /// Fold one flush of cross edges, dropping any that name an EST
    /// outside the library.
    fn fold_edges(&mut self, edges: &[(u32, u32)]) {
        self.timer.start();
        let n = self.incremental.len();
        for &(a, b) in edges {
            let (a, b) = (a as usize, b as usize);
            if a < n && b < n {
                self.incremental.union(a, b);
                self.cross_received += 1;
            } else {
                self.rejected += 1;
            }
        }
        self.timer.stop();
    }

    /// Accept a remote shard's final report (the first copy wins),
    /// keeping only the merge records that name ESTs inside the library.
    /// Shard 0's report is built on rank 0 itself.
    fn accept(&mut self, shard: usize, mut report: ShardReport) {
        if shard == 0 || shard >= self.shard_reports.len() || !self.is_open(shard) {
            return;
        }
        let n = self.incremental.len();
        let before = report.records.len();
        report.records.retain(|r| r.est_a < n && r.est_b < n);
        self.rejected += (before - report.records.len()) as u64;
        self.shard_reports[shard] = Some(report);
    }

    /// Declare every shard on ranks ≥ 1 that has not delivered its
    /// report failed, emit a fault event per shard, and release the
    /// slaves with [`Msg::Abort`], which closes every session a dead
    /// shard master can no longer close itself.
    fn write_off_silent_shards(&mut self, rank: &Rank<Msg>, topo: ShardTopology, obs: &Obs) {
        let mut newly_failed = false;
        for s in 1..self.shard_reports.len() {
            if self.is_open(s) {
                self.failed[s] = true;
                newly_failed = true;
                obs.emit_with(|| Event::Fault {
                    t: obs.now(),
                    rank: 0,
                    kind: "shard_failed".into(),
                    seq: None,
                    detail: format!("shard {s} (rank {s}) silent past the progress window"),
                });
            }
        }
        if newly_failed {
            for idx in 0..topo.num_slaves() {
                for _ in 0..CONTROL_REDUNDANCY {
                    rank.send(topo.slave_rank(idx), Msg::Abort);
                }
            }
        }
    }
}

/// Rank 0: shard 0's master and the reconciler in one receive loop.
/// Slave reports drive shard 0; `CrossMerge` flushes fold into the
/// running global DSU; `ShardDone` reports are collected. Under faults a
/// progress deadline — reset by every received message — writes silent
/// shards off and aborts the run, so a crashed shard master can never
/// hang the world.
fn root_rank(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    cfg: &ClusterConfig,
    topo: ShardTopology,
    under_faults: bool,
    obs: &Obs,
) -> RootOut {
    let partitioning = master_collectives(rank, cfg, obs);
    let mut recon = Reconciler::new(store.num_ests(), topo.shards);
    let mut shard0 = ShardLoop::new(rank, store, cfg, topo, under_faults, obs);
    let mut early_summaries = Vec::new();
    let poll = poll_interval(cfg);
    // Progress window: generous enough that a live shard master always
    // gets a flush or a ShardDone out before it expires (flushes double
    // as heartbeats), tight enough that a crashed one is written off in
    // bounded time.
    let window = Duration::from_secs_f64(
        (cfg.slave_timeout * (f64::from(cfg.max_retries) + 2.0) * 2.0).clamp(1.0, 60.0),
    );
    let mut quiet_since = Instant::now();

    while !shard0.master.is_done() || recon.outstanding() > 0 {
        let mut got_report = false;
        match rank.recv_timeout(poll) {
            Ok(Some((from, msg))) => {
                quiet_since = Instant::now();
                match msg {
                    Msg::Report {
                        seq,
                        results,
                        pairs,
                        exhausted,
                    } => got_report = shard0.on_report(from, seq, results, pairs, exhausted),
                    Msg::CrossMerge { edges, .. } => {
                        recon.cross_flushes += 1;
                        recon.fold_edges(&edges);
                    }
                    Msg::ShardDone { shard, report } => recon.accept(shard as usize, report),
                    Msg::Summary(s) => early_summaries.push((from, s)),
                    // Nothing else is addressed to rank 0.
                    _ => {}
                }
            }
            Ok(None) => {
                if under_faults && recon.outstanding() > 0 && quiet_since.elapsed() >= window {
                    recon.write_off_silent_shards(rank, topo, obs);
                    // The abort released every slave: shard 0 settles
                    // its books the same way.
                    shard0.master.handle_world_down();
                }
            }
            Err(_) => {
                // The world is tearing down: whatever has not arrived
                // never will. Settle the books and stop.
                shard0.master.handle_world_down();
                for s in 1..topo.shards {
                    recon.failed[s] |= recon.shard_reports[s].is_none();
                }
            }
        }
        // Shard 0's cross edges fold at the end; no flush to itself.
        shard0.after_poll(got_report);
    }

    let dead = (0..topo.num_slaves())
        .map(|s| shard0.master.is_dead(s))
        .collect();
    let (report, edges) = shard0.finish();
    recon.fold_edges(&edges);
    recon.shard_reports[0] = Some(report);

    RootOut {
        recon,
        comm: rank.stats(),
        injected: rank.fault_stats(),
        partitioning,
        dead,
        early_summaries,
    }
}

/// Rank `s ≥ 1`: shard `s`'s master, plus the epoch-barrier cross-edge
/// flush and the final `ShardDone` report to rank 0. A worker process
/// (`per_process`) ships its own injected-fault counters in the report;
/// in a thread world rank 0's shared snapshot already covers them.
fn submaster_rank(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    cfg: &ClusterConfig,
    topo: ShardTopology,
    under_faults: bool,
    per_process: bool,
    obs: &Obs,
) {
    master_collectives(rank, cfg, obs);
    let mut sl = ShardLoop::new(rank, store, cfg, topo, under_faults, obs);
    let shard = sl.shard;
    let poll = poll_interval(cfg);
    let flush = |epoch: u64, edges: Vec<(u32, u32)>| {
        rank.send(
            0,
            Msg::CrossMerge {
                shard: shard as u32,
                epoch,
                edges,
            },
        );
    };
    while !sl.master.is_done() {
        let mut got_report = false;
        match rank.recv_timeout(poll) {
            Ok(Some((
                from,
                Msg::Report {
                    seq,
                    results,
                    pairs,
                    exhausted,
                },
            ))) => got_report = sl.on_report(from, seq, results, pairs, exhausted),
            // Nothing else is addressed to a shard master: ignore.
            Ok(_) => {}
            Err(_) => sl.master.handle_world_down(),
        }
        // Sent even when empty — under faults the flush doubles as a
        // liveness signal for rank 0's progress window.
        if sl.after_poll(got_report) {
            flush(sl.epoch, sl.master.drain_cross_edges());
        }
    }

    let (mut report, edges) = sl.finish();
    flush(report.epochs, edges);
    if per_process {
        let injected = rank.fault_stats();
        report.injected_drops = injected.dropped;
        report.injected_delays = injected.delayed;
        report.injected_stalls = injected.stalls;
    }
    let copies = if under_faults { CONTROL_REDUNDANCY } else { 1 };
    for _ in 0..copies {
        rank.send(
            0,
            Msg::ShardDone {
                shard: shard as u32,
                report: report.clone(),
            },
        );
    }
}

/// A slave rank: count my share of the buckets, combine, build my
/// buckets' subtrees, then run the K-session slave loop (node sorting
/// happens inside). Injected-fault counters stay zero in the summary: in
/// the thread world they are world-shared and rank 0's snapshot already
/// covers every rank.
fn slave_rank(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    cfg: &ClusterConfig,
    topo: ShardTopology,
    spec: ShardSpec,
    obs: &Obs,
) -> WorkerSummary {
    let ShardRole::Slave(slave_id) = topo.role_of(rank.rank()) else {
        unreachable!()
    };
    let num_slaves = topo.num_slaves();

    let span = obs.span_on(metric::PHASE_PARTITIONING, rank.rank());
    let local = count_buckets_stride(store, cfg.window_w, slave_id, num_slaves);
    let global = rank.allreduce_sum(&local);
    let partition = assign_buckets(&global, num_slaves);
    let partitioning = span.finish();

    let span = obs.span_on(metric::PHASE_GST_CONSTRUCTION, rank.rank());
    let forest = build_forest_for_rank(store, &partition, slave_id);
    let gst_construction = span.finish();
    record_gst_stats(obs, &partition, &forest);
    rank.barrier();

    let summary = run_slave_obs(rank, topo, spec, store, packed, &forest, cfg, obs);
    WorkerSummary {
        partitioning,
        gst_construction,
        ..summary
    }
}

/// Fold rank 0's collected state and the slave summaries into the final
/// result: replay each shard's merge records in shard order through a
/// fresh DSU, keeping only effective merges, so `trace.len() ==
/// stats.merges` and `trace.replay(n)` reproduces the labels exactly.
fn fold(
    num_ests: usize,
    topo: ShardTopology,
    root: RootOut,
    summaries: Vec<WorkerSummary>,
    obs: &Obs,
    total: f64,
) -> (ClusterResult, MergeTrace) {
    let reg = obs.registry();
    let mut replay_timer = Timer::new();
    replay_timer.start();
    let mut dsu = DisjointSets::new(num_ests);
    let mut kept: Vec<MergeRecord> = Vec::new();
    for rep in root.recon.shard_reports.iter().flatten() {
        for r in &rep.records {
            if dsu.union(r.est_a, r.est_b) {
                kept.push(*r);
                obs.emit_with(|| Event::Merge {
                    t: obs.now(),
                    est_a: r.est_a,
                    est_b: r.est_b,
                    mcs_len: r.mcs_len,
                    score_ratio: r.score_ratio,
                });
            }
        }
    }
    let reconcile_secs = root.recon.timer.secs() + replay_timer.stop();

    let mut stats = ClusterStats::default();
    stats.faults.duplicate_reports = root.recon.rejected;
    let mut failed_shards = 0u64;
    let mut worker_injected = FaultSnapshot::default();
    for (s, rep) in root.recon.shard_reports.iter().enumerate() {
        let Some(rep) = rep else {
            failed_shards += 1;
            continue;
        };
        worker_injected.dropped += rep.injected_drops;
        worker_injected.delayed += rep.injected_delays;
        worker_injected.stalls += rep.injected_stalls;
        stats.pairs_processed += rep.pairs_processed;
        stats.pairs_accepted += rep.pairs_accepted;
        stats.pairs_skipped += rep.pairs_skipped;
        stats.faults.retries += rep.retries;
        stats.faults.duplicate_reports += rep.duplicate_reports;
        stats.faults.dead_slaves += rep.dead_slaves;
        stats.faults.reassigned_pairs += rep.reassigned_pairs;
        stats.faults.abandoned_pairs += rep.abandoned_pairs;
        stats.master_busy_frac = stats.master_busy_frac.max(rep.busy_frac);
        for (field, v) in [
            ("received", rep.pairs_received),
            ("processed", rep.pairs_processed),
            ("skipped", rep.pairs_skipped),
            ("merges", rep.merges),
            ("cross_edges", rep.cross_edges),
        ] {
            reg.set_gauge(&metric::shard_gauge_name(s, field), v as f64);
        }
    }
    stats.merges = kept.len() as u64;
    stats.messages = root.comm.messages;

    reg.set_gauge(metric::SHARD_COUNT, topo.shards as f64);
    reg.set_gauge(metric::SHARD_RECONCILE_SECS, reconcile_secs);
    reg.add(metric::SHARD_CROSS_EDGES, root.recon.cross_received);
    reg.add(metric::SHARD_EPOCHS, root.recon.cross_flushes);
    reg.add(metric::SHARD_FAILED, failed_shards);
    reg.add(metric::COMM_MESSAGES, root.comm.messages);
    reg.add(metric::COMM_BYTES, root.comm.bytes);
    reg.add(metric::COMM_BARRIERS, root.comm.barriers);
    reg.add(metric::COMM_REDUCTIONS, root.comm.reductions);
    reg.add(metric::FAULTS_INJECTED_DROPS, root.injected.dropped);
    reg.add(metric::FAULTS_INJECTED_DELAYS, root.injected.delayed);
    reg.add(metric::FAULTS_INJECTED_CRASHES, root.injected.crashes);
    reg.add(metric::FAULTS_INJECTED_STALLS, root.injected.stalls);

    let mut timers = PhaseTimers {
        partitioning: root.partitioning,
        ..PhaseTimers::default()
    };
    let mut generated_total = 0u64;
    let mut unconsumed_total = 0u64;
    let mut prefiltered_total = 0u64;
    let mut ws_reuses_total = 0u64;
    let mut gen_by_owner = vec![0u64; topo.shards];
    let mut unconsumed_by_owner = vec![0u64; topo.shards];
    for summary in &summaries {
        generated_total += summary.gen_emitted;
        unconsumed_total += summary.unconsumed;
        prefiltered_total += summary.prefiltered;
        ws_reuses_total += summary.ws_reuses;
        for (total, v) in gen_by_owner.iter_mut().zip(&summary.gen_by_owner) {
            *total += v;
        }
        for (total, v) in unconsumed_by_owner
            .iter_mut()
            .zip(&summary.unconsumed_by_owner)
        {
            *total += v;
        }
        worker_injected.dropped += summary.injected_drops;
        worker_injected.delayed += summary.injected_delays;
        worker_injected.stalls += summary.injected_stalls;
        timers.max_with(&PhaseTimers {
            partitioning: summary.partitioning,
            gst_construction: summary.gst_construction,
            node_sorting: summary.node_sorting,
            alignment: summary.alignment,
            ..PhaseTimers::default()
        });
    }
    // Pairs the generators emitted that no master resolved (processed
    // or skipped) and no slave still buffers were lost to injected
    // faults: dropped in flight, held by a slave that died, or owned by
    // a written-off shard. Folding them into `pairs_unconsumed` keeps
    // `generated == processed + skipped + unconsumed` exact under every
    // schedule. Fault-free runs — and drop/delay-only plans, whose every
    // report is eventually delivered via resend — have `lost == 0`,
    // which the tests assert as the non-tautological form of
    // conservation.
    //
    // On the socket backend a crashed worker's summary never arrives,
    // so `generated_total` can undercount what the masters received;
    // the max() credits the missing generator with exactly that.
    let generated_total =
        generated_total.max(stats.pairs_processed + stats.pairs_skipped + unconsumed_total);
    let lost = generated_total
        .saturating_sub(stats.pairs_processed + stats.pairs_skipped + unconsumed_total);
    stats.faults.lost_pairs = lost;
    stats.pairs_generated = generated_total;
    stats.pairs_unconsumed = unconsumed_total + lost;
    stats.pairs_prefiltered = prefiltered_total;
    timers.total = total;
    stats.timers = timers;

    for (m, (gen, uncons)) in gen_by_owner.iter().zip(&unconsumed_by_owner).enumerate() {
        reg.set_gauge(&metric::shard_gauge_name(m, "generated"), *gen as f64);
        reg.set_gauge(&metric::shard_gauge_name(m, "unconsumed"), *uncons as f64);
    }
    // Per-process injector counters shipped by shard masters and worker
    // summaries (zero on the thread backend, whose counters are
    // world-shared).
    reg.add(metric::FAULTS_INJECTED_DROPS, worker_injected.dropped);
    reg.add(metric::FAULTS_INJECTED_DELAYS, worker_injected.delayed);
    reg.add(metric::FAULTS_INJECTED_STALLS, worker_injected.stalls);
    // Every result a master folded in came off a slave's long-lived
    // workspace, so this equals `pairs.processed` by construction.
    reg.add(metric::ALIGN_WS_REUSES, ws_reuses_total);
    record_cluster_counters(obs, &stats);
    obs.flush();

    let labels = dsu.labels();
    (
        ClusterResult {
            num_clusters: dsu.num_sets(),
            labels,
            stats,
        },
        MergeTrace::from_records(kept),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver_seq::cluster_sequential;
    use pace_simulate::{generate, SimConfig};

    fn small_cfg() -> ClusterConfig {
        let mut c = ClusterConfig::small();
        c.psi = 16;
        c.overlap.min_overlap_len = 40;
        c.batchsize = 8;
        c
    }

    fn dataset(n: usize, seed: u64) -> pace_simulate::EstDataset {
        generate(&SimConfig {
            num_genes: (n / 12).max(2),
            num_ests: n,
            est_len_mean: 220.0,
            est_len_sd: 25.0,
            est_len_min: 120,
            exon_len: (220, 400),
            exons_per_gene: (1, 2),
            seed,
            ..SimConfig::default()
        })
    }

    #[test]
    fn parallel_matches_sequential_partition_on_clean_data() {
        let ds = {
            let mut cfg = SimConfig {
                num_genes: 10,
                num_ests: 100,
                est_len_mean: 220.0,
                est_len_sd: 25.0,
                est_len_min: 120,
                exon_len: (220, 400),
                exons_per_gene: (1, 2),
                seed: 21,
                ..SimConfig::default()
            };
            cfg.error_rate = 0.0;
            generate(&cfg)
        };
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let seq = cluster_sequential(&store, &small_cfg());
        for p in [2, 3, 5] {
            let par = cluster_parallel(&store, &small_cfg(), p);
            let agreement = pace_quality::assess(&par.labels, &seq.labels);
            assert!(
                agreement.oq > 0.99,
                "p={p}: parallel partition diverged: {agreement}"
            );
            assert_eq!(par.labels.len(), ds.ests.len());
        }
    }

    #[test]
    fn parallel_quality_against_truth() {
        let ds = dataset(120, 22);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let par = cluster_parallel(&store, &small_cfg(), 4);
        let m = pace_quality::assess(&par.labels, &ds.truth);
        assert!(m.oq > 0.75, "parallel OQ too low: {m}");
        assert!(m.cc > 0.80, "parallel CC too low: {m}");
    }

    #[test]
    fn p1_falls_back_to_sequential() {
        let ds = dataset(40, 23);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let a = cluster_parallel(&store, &small_cfg(), 1);
        let b = cluster_sequential(&store, &small_cfg());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn two_ranks_single_slave_terminates() {
        let ds = dataset(60, 24);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let r = cluster_parallel(&store, &small_cfg(), 2);
        assert_eq!(r.labels.len(), 60);
        assert!(r.stats.pairs_processed > 0);
        assert!(r.stats.master_busy_frac >= 0.0 && r.stats.master_busy_frac <= 1.0);
        assert!(r.stats.messages > 0);
    }

    #[test]
    fn more_slaves_than_work_terminates() {
        // 6 ESTs, 7 ranks: most slaves own nothing and exhaust instantly.
        let ds = dataset(6, 25);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let r = cluster_parallel(&store, &small_cfg(), 7);
        assert_eq!(r.labels.len(), 6);
    }

    #[test]
    fn stats_aggregate_sensibly() {
        let ds = dataset(80, 26);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let r = cluster_parallel(&store, &small_cfg(), 3);
        let s = &r.stats;
        // Exact flow conservation: every generated pair is processed,
        // skipped, or still sitting in a slave's PAIRBUF at shutdown.
        assert_eq!(
            s.pairs_generated,
            s.pairs_processed + s.pairs_skipped + s.pairs_unconsumed
        );
        assert!(s.pairs_accepted <= s.pairs_processed);
        assert!(s.merges <= s.pairs_accepted);
        assert!(s.timers.total > 0.0);
        assert!(s.timers.gst_construction > 0.0);
    }

    #[test]
    fn trace_replay_matches_parallel_labels() {
        let ds = dataset(80, 27);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (r, trace) = cluster_parallel_obs(&store, &small_cfg(), 3, &Obs::noop());
        assert_eq!(trace.len() as u64, r.stats.merges);
        let replayed = trace.replay(80);
        let agreement = pace_quality::assess(&replayed, &r.labels);
        assert_eq!(
            agreement.counts.fp + agreement.counts.fn_,
            0,
            "trace replay diverges from the parallel partition"
        );
    }

    #[test]
    fn registry_absorbs_comm_and_phase_series() {
        let ds = dataset(60, 28);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::noop();
        let (r, _) = cluster_parallel_obs(&store, &small_cfg(), 4, &obs);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters[metric::COMM_MESSAGES], r.stats.messages);
        assert!(snap.counters[metric::COMM_BARRIERS] >= 1);
        assert!(snap.counters[metric::COMM_REDUCTIONS] >= 1);
        assert_eq!(
            snap.counters[metric::PAIRS_GENERATED],
            r.stats.pairs_generated
        );
        // Every rank recorded a partitioning span; the 3 slaves recorded
        // gst/sort/align spans.
        assert_eq!(snap.phases[metric::PHASE_PARTITIONING].count, 4);
        assert_eq!(snap.phases[metric::PHASE_GST_CONSTRUCTION].count, 3);
        assert_eq!(snap.phases[metric::PHASE_ALIGNMENT].count, 3);
        // The legacy critical-path timers equal the cross-rank maxima.
        assert!(
            (snap.phases[metric::PHASE_GST_CONSTRUCTION].max - r.stats.timers.gst_construction)
                .abs()
                < 1e-9
        );
        assert!((snap.phases[metric::PHASE_ALIGNMENT].max - r.stats.timers.alignment).abs() < 1e-9);
        assert_eq!(
            snap.gauges[metric::MASTER_BUSY_FRAC],
            r.stats.master_busy_frac
        );
        // The generators' MCS histogram covers every generated pair.
        assert_eq!(
            snap.histograms[metric::PAIRS_MCS_LEN].count(),
            r.stats.pairs_generated
        );
    }

    #[test]
    fn trace_records_flows_and_satisfies_invariants() {
        let ds = dataset(100, 30);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let obs = Obs::with_tracer();
        let (r, _) = cluster_parallel_obs(&store, &small_cfg(), 3, &obs);
        assert!(r.stats.pairs_processed > 0);
        let tracer = obs.tracer().unwrap();
        assert!(tracer.recorded() > 0);

        let doc = pace_obs::TraceDoc::from_tracer(tracer);
        let analysis = pace_obs::trace::analyze(&doc);
        let problems = analysis.check_invariants();
        assert!(
            problems.is_empty(),
            "trace invariants violated: {problems:?}"
        );

        // Fault-free: every dispatched batch's flow closes at the master
        // (the non-tautological trace form of pair-flow conservation).
        assert!(analysis.flows_total > 0, "no flows recorded");
        assert_eq!(
            analysis.flows_unresolved, 0,
            "unclosed flows without faults"
        );
        assert_eq!(analysis.flows_orphan_ends, 0);
        assert_eq!(analysis.ranks.len(), 3, "one breakdown per rank");
        assert!(analysis.critical_path_secs <= analysis.wall_secs + 1e-9);
        assert!(
            analysis
                .quantiles
                .contains_key(pace_obs::trace::T_HANDLE_REPORT),
            "master handle_report spans missing from quantiles"
        );
        assert!(analysis
            .quantiles
            .contains_key(pace_obs::trace::T_REPORT_SEND));

        // The Chrome export round-trips through our own parser.
        let json = tracer.to_chrome_json();
        let reparsed = pace_obs::TraceDoc::from_chrome_json(&json).expect("reparse");
        assert_eq!(reparsed.spans.len(), doc.spans.len());
        assert_eq!(reparsed.flows.len(), doc.flows.len());
    }

    #[test]
    fn events_stream_heartbeats_and_merges() {
        let ds = dataset(100, 29);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let sink = pace_obs::VecSink::shared();
        let obs = Obs::with_sink(Box::new(sink.clone()));
        let (r, trace) = cluster_parallel_obs(&store, &small_cfg(), 3, &obs);
        let events = sink.snapshot();
        let merges: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Merge { est_a, est_b, .. } => Some((*est_a, *est_b)),
                _ => None,
            })
            .collect();
        assert_eq!(merges.len() as u64, r.stats.merges);
        let traced: Vec<_> = trace.records().iter().map(|m| (m.est_a, m.est_b)).collect();
        assert_eq!(merges, traced, "merge events must mirror the trace order");
        // Phase spans from every rank are present and well-formed.
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::PhaseStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, Event::PhaseEnd { .. }))
            .count();
        assert_eq!(starts, ends);
        assert!(starts >= 4, "expected at least one span per rank");
        for e in &events {
            if let Event::Heartbeat { busy_frac, .. } = e {
                assert!((0.0..=1.0).contains(busy_frac));
            }
        }
    }

    fn sharded_cfg(shards: usize) -> ClusterConfig {
        let mut c = small_cfg();
        c.shards = shards;
        c.shard_epoch = 4;
        c
    }

    #[test]
    fn sharded_matches_single_master_partition() {
        // 80 ESTs over K = 3 shards: uneven id ranges (27/27/26). Labels
        // are smallest-member canonical, so equal labels mean equal
        // partitions.
        let ds = dataset(80, 41);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let (single, trace) = cluster_parallel_obs(&store, &sharded_cfg(1), 4, &Obs::noop());
        assert_eq!(trace.replay(80), single.labels);
        for k in [2usize, 3] {
            let (sharded, trace) =
                cluster_parallel_obs(&store, &sharded_cfg(k), 3 + k, &Obs::noop());
            assert_eq!(
                sharded.labels, single.labels,
                "K={k} diverged from the single master"
            );
            assert_eq!(trace.len() as u64, sharded.stats.merges);
            assert_eq!(trace.replay(80), sharded.labels);
        }
    }

    #[test]
    fn sharded_p1_falls_back_to_sequential() {
        let ds = dataset(30, 44);
        let store = SequenceStore::from_ests(&ds.ests).unwrap();
        let a = cluster_parallel(&store, &sharded_cfg(2), 1);
        let b = cluster_sequential(&store, &sharded_cfg(2));
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn reconciler_drops_edges_and_records_outside_the_library() {
        let mut recon = Reconciler::new(10, 2);
        recon.fold_edges(&[(1, 2), (3, 99)]);
        let record = |est_a, est_b| MergeRecord {
            est_a,
            est_b,
            mcs_len: 30,
            score_ratio: 0.9,
        };
        let report = ShardReport {
            records: vec![record(5, 6), record(7, 1_000)],
            ..ShardReport::default()
        };
        recon.accept(1, report);
        assert_eq!(recon.cross_received, 1);
        assert_eq!(recon.rejected, 2);
        assert_eq!(
            recon.shard_reports[1].as_ref().unwrap().records,
            vec![record(5, 6)]
        );
    }
}
