//! The slave processor loop: one slave, `K` shard masters.
//!
//! Each slave owns a portion of the suffix-tree forest (its buckets). It
//! interleaves three activities, overlapping communication with
//! computation exactly as the paper describes:
//!
//! 1. aligning the most recent work batch (`NEXTWORK`);
//! 2. generating promising pairs into `PAIRBUF` *while waiting* for the
//!    next master message;
//! 3. on each `Work { W, E }` message: topping `PAIRBUF` up to `E`,
//!    sending the held results `R` plus `P = min(E, |PAIRBUF|)` pairs,
//!    and adopting `W` as the next batch.
//!
//! Startup: three `batchsize` portions are generated; portion 1 is
//! aligned and sent with portion 3 as the unsolicited first report,
//! portion 2 becomes the first `NEXTWORK`.
//!
//! A slave talks to all `K` shard masters at once, one independent
//! protocol session per shard (with `K = 1`, the paper's single master
//! on rank 0). Everything the protocol guarantees holds *per session*:
//! sequence numbers, duplicate `Work` answered from a cached report, the
//! exhausted promise (once a session is told `exhausted`, that session
//! never sees another pair).
//!
//! Every generated pair and every alignment outcome is routed to the
//! shard owning the pair's smaller EST id ([`ShardSpec::owner_of_pair`]),
//! so each master sees exactly the pairs whose union it can decide (or
//! log as a cross edge). `PAIRBUF` is one queue per shard; alignment
//! results park in a per-shard pending list until that shard's next
//! `Work` flushes them.
//!
//! Termination: a `Shutdown` from a shard master closes that session;
//! the slave exits when all `K` sessions are closed. [`Msg::Abort`] from
//! rank 0 is the global abort — the release valve when a shard master
//! died and can never close its own session.

use crate::align_task::{AlignContext, PairOutcome};
use crate::config::{ClusterConfig, ShardTopology};
use crate::messages::{Msg, WorkerSummary};
use pace_dsu::ShardSpec;
use pace_gst::LocalForest;
use pace_mpisim::Rank;
use pace_obs::trace::{flow_id, T_REPORT_SEND};
use pace_obs::{metric, Obs, Timer, TraceKind};
use pace_pairgen::{CandidatePair, PairGenConfig, PairGenerator};
use pace_seq::{PackedText, SequenceStore};
use std::collections::VecDeque;

/// How many pairs to generate per idle poll while waiting for a master
/// (small, so the slave stays responsive).
const IDLE_GEN_CHUNK: usize = 16;

/// Run the slave protocol to completion with no instrumentation, in
/// the world layout `cfg.shards` and the rank's world size describe.
pub fn run_slave(
    rank: &Rank<Msg>,
    store: &SequenceStore,
    forest: &LocalForest,
    cfg: &ClusterConfig,
) -> WorkerSummary {
    let topo = ShardTopology::new(rank.size(), cfg.shards).expect("invalid world layout");
    let spec = ShardSpec::new(store.num_ests(), topo.shards);
    run_slave_obs(rank, topo, spec, store, None, forest, cfg, &Obs::noop())
}

/// Per-shard session state: the last sequence number answered and the
/// cached report that answers a duplicate `Work` for it.
struct Session {
    last_seq: u64,
    last_report: Msg,
    done: bool,
}

/// Run the slave protocol to completion, instrumented. `topo` fixes the
/// rank layout (who the shard masters are) and `spec` the
/// pair-ownership rule; both must match what the masters were built
/// with. `packed` is the shared 2-bit view the alignment kernel reads
/// when `cfg.packed_alignment` built one. Phase timings (pair generation
/// summed over every `next_batch`) land in `obs`'s per-rank series, the
/// time to the first batch in [`metric::PAIRGEN_FIRST_BATCH_SECS`], and
/// the generator's MCS-length distribution in the
/// [`metric::PAIRS_MCS_LEN`] histogram. The returned summary leaves the
/// partitioning, GST-construction and injected-fault fields zero: the
/// caller owns those.
#[allow(clippy::too_many_arguments)]
pub fn run_slave_obs(
    rank: &Rank<Msg>,
    topo: ShardTopology,
    spec: ShardSpec,
    store: &SequenceStore,
    packed: Option<&PackedText>,
    forest: &LocalForest,
    cfg: &ClusterConfig,
    obs: &Obs,
) -> WorkerSummary {
    let k = topo.shards;
    let num_slaves = topo.num_slaves();
    let slave_idx = rank.rank() - topo.shards;
    let mut alignment = 0.0;

    let mut sort_timer = Timer::new();
    sort_timer.start();
    let mut generator = PairGenerator::new(
        store,
        forest,
        PairGenConfig {
            psi: cfg.psi,
            order: cfg.order,
        },
    );
    let node_sorting = sort_timer.stop();

    // One alignment context for the whole rank: DP scratch is allocated
    // once here and only grows to the largest pair this slave ever sees.
    let mut ctx = AlignContext::new(store, packed);

    // One closure owns the shutdown bookkeeping so every exit path
    // reports identically (including the abnormal world-teardown ones).
    let finish = |generator: &PairGenerator,
                  gen_timer: &Timer,
                  alignment: f64,
                  pairbufs: &PairBufs,
                  ctx: &AlignContext|
     -> WorkerSummary {
        for (len, n) in generator.emitted_by_mcs_len() {
            obs.registry()
                .observe_n(metric::PAIRS_MCS_LEN, len as u64, n);
        }
        obs.registry()
            .record_phase(metric::PHASE_NODE_SORTING, rank.rank(), node_sorting);
        obs.registry()
            .record_phase(metric::PHASE_PAIR_GENERATION, rank.rank(), gen_timer.secs());
        obs.registry()
            .record_phase(metric::PHASE_ALIGNMENT, rank.rank(), alignment);
        let gen = generator.stats();
        WorkerSummary {
            gen_nodes_processed: gen.nodes_processed,
            gen_raw_pairs: gen.raw_pairs,
            gen_discarded_self: gen.discarded_self,
            gen_discarded_mirror: gen.discarded_mirror,
            gen_emitted: gen.emitted,
            node_sorting,
            alignment,
            unconsumed: pairbufs.buffered() as u64,
            prefiltered: ctx.pairs_prefiltered(),
            ws_reuses: ctx.pairs_handled(),
            gen_by_owner: pairbufs.gen_by_owner.clone(),
            unconsumed_by_owner: pairbufs.bufs.iter().map(|b| b.len() as u64).collect(),
            ..WorkerSummary::default()
        }
    };

    let mut pairbufs = PairBufs {
        spec,
        bufs: (0..k).map(|_| VecDeque::new()).collect(),
        gen_by_owner: vec![0; k],
    };
    // Alignment outcomes owed to each shard, flushed by its next Work.
    let mut pending: Vec<Vec<PairOutcome>> = (0..k).map(|_| Vec::new()).collect();

    // Startup: three portions, split by owner. Portion 1 is aligned and
    // its results routed; portion 3 ships as pairs in the per-shard
    // startup reports (sequence 0, cached so a duplicate `Work` is
    // answered without re-aligning anything); portion 2 is aligned
    // right after the reports go out — its results are flushed by each
    // master's first Work (they start owing us a flush).
    let mut gen_timer = Timer::new();
    let portion1 = gen_timer.time(|| generator.next_batch(cfg.batchsize));
    obs.registry().set_gauge_max(
        metric::PAIRGEN_FIRST_BATCH_SECS,
        node_sorting + gen_timer.secs(),
    );
    let portion2 = gen_timer.time(|| generator.next_batch(cfg.batchsize));
    let portion3 = gen_timer.time(|| generator.next_batch(cfg.batchsize));
    let exhausted_now = generator.is_exhausted();
    for p in portion1.iter().chain(&portion2) {
        pairbufs.tally(p);
    }

    let route_results = |results: Vec<PairOutcome>, pending: &mut Vec<Vec<PairOutcome>>| {
        for r in results {
            let (i, j) = r.pair.est_indices();
            pending[spec.owner_of_pair(i, j)].push(r);
        }
    };
    let first_results = align_batch(&mut ctx, &portion1, cfg, &mut alignment, obs, rank.rank());
    route_results(first_results, &mut pending);
    pairbufs.extend(portion3);

    let mut sessions: Vec<Session> = Vec::with_capacity(k);
    for (m, (results, buf)) in pending.iter_mut().zip(&mut pairbufs.bufs).enumerate() {
        let report = Msg::Report {
            seq: 0,
            results: std::mem::take(results),
            pairs: buf.drain(..).collect(),
            exhausted: exhausted_now,
        };
        send_report(rank, m, slave_idx, num_slaves, obs, &report);
        sessions.push(Session {
            last_seq: 0,
            last_report: report,
            done: false,
        });
    }
    let results2 = align_batch(&mut ctx, &portion2, cfg, &mut alignment, obs, rank.rank());
    route_results(results2, &mut pending);

    let mut done_count = 0usize;
    while done_count < k {
        // Wait for any master, generating pairs in the meantime.
        // Duplicate Work (a session's sequence we already answered) is
        // served from that session's cached report.
        let (from, msg) = 'wait: loop {
            let incoming = match rank.try_recv() {
                Ok(Some(fm)) => Some(fm),
                Err(_) => return finish(&generator, &gen_timer, alignment, &pairbufs, &ctx),
                Ok(None) => {
                    let buffered = pairbufs.buffered();
                    if !generator.is_exhausted() && buffered < cfg.pairbuf_cap {
                        let room = cfg.pairbuf_cap - buffered;
                        let chunk = IDLE_GEN_CHUNK.min(room);
                        pairbufs.extend(gen_timer.time(|| generator.next_batch(chunk)));
                        None
                    } else {
                        match rank.recv() {
                            Ok(fm) => Some(fm),
                            Err(_) => {
                                return finish(&generator, &gen_timer, alignment, &pairbufs, &ctx)
                            }
                        }
                    }
                }
            };
            match incoming {
                Some((m, Msg::Work { seq, .. })) if m < k && seq <= sessions[m].last_seq => {
                    // Clone out of the session to satisfy the borrow on
                    // `sessions`; duplicate answers are rare.
                    let cached = sessions[m].last_report.clone();
                    send_report(rank, m, slave_idx, num_slaves, obs, &cached);
                }
                Some(fm) => break 'wait fm,
                None => {}
            }
        };

        match msg {
            // Global abort: a shard master died; every session that
            // cannot be closed by its owner is closed here.
            Msg::Abort => return finish(&generator, &gen_timer, alignment, &pairbufs, &ctx),
            Msg::Shutdown if from < k => {
                if !sessions[from].done {
                    sessions[from].done = true;
                    done_count += 1;
                }
            }
            Msg::Work {
                seq,
                pairs,
                request,
            } if from < k && pairs.iter().all(|p| ctx.holds(p)) => {
                let m = from;
                debug_assert_eq!(
                    seq,
                    sessions[m].last_seq + 1,
                    "master {m} skipped a sequence number"
                );
                // Top this shard's PAIRBUF up to the requested E. The
                // generator feeds every shard, so satisfying one shard's
                // demand can buffer pairs for the others — they are not
                // lost, just waiting for their owner's next request.
                while pairbufs.bufs[m].len() < request && !generator.is_exhausted() {
                    let want = (request - pairbufs.bufs[m].len()).max(IDLE_GEN_CHUNK);
                    pairbufs.extend(gen_timer.time(|| generator.next_batch(want)));
                }
                let take = request.min(pairbufs.bufs[m].len());
                let outgoing: Vec<CandidatePair> = pairbufs.bufs[m].drain(..take).collect();
                let report = Msg::Report {
                    seq,
                    results: std::mem::take(&mut pending[m]),
                    pairs: outgoing,
                    exhausted: generator.is_exhausted() && pairbufs.bufs[m].is_empty(),
                };
                send_report(rank, m, slave_idx, num_slaves, obs, &report);
                sessions[m].last_report = report;
                sessions[m].last_seq = seq;
                // Align the received batch now; every outcome belongs to
                // the dispatching shard (it only dispatches pairs it
                // owns), so the routing is a no-op in disguise — kept
                // explicit so the invariant is checked, not assumed.
                let results = align_batch(&mut ctx, &pairs, cfg, &mut alignment, obs, rank.rank());
                route_results(results, &mut pending);
            }
            // The trust boundary: `Work` or `Shutdown` from a rank that
            // is no shard master, a `Work` naming a string or anchor the
            // store does not hold (refused whole, unanswered, like a
            // master refuses a bad report), and the kinds only masters
            // receive are dropped unread.
            Msg::Shutdown
            | Msg::Work { .. }
            | Msg::Report { .. }
            | Msg::Summary(_)
            | Msg::CrossMerge { .. }
            | Msg::ShardDone { .. } => {}
        }
    }
    finish(&generator, &gen_timer, alignment, &pairbufs, &ctx)
}

/// `PAIRBUF`, one queue per shard. Every pair the generator emits is
/// routed to its owner and tallied there at the moment of generation —
/// one side of the per-shard flow conservation law the identity harness
/// checks (`generated == processed + skipped + unconsumed`, per shard).
struct PairBufs {
    spec: ShardSpec,
    bufs: Vec<VecDeque<CandidatePair>>,
    gen_by_owner: Vec<u64>,
}

impl PairBufs {
    /// Count a generated pair against its owner; returns the owner.
    fn tally(&mut self, pair: &CandidatePair) -> usize {
        let (i, j) = pair.est_indices();
        let owner = self.spec.owner_of_pair(i, j);
        self.gen_by_owner[owner] += 1;
        owner
    }

    /// Tally and buffer freshly generated pairs.
    fn extend(&mut self, pairs: Vec<CandidatePair>) {
        for pair in pairs {
            let owner = self.tally(&pair);
            self.bufs[owner].push_back(pair);
        }
    }

    /// Pairs buffered across all shards.
    fn buffered(&self) -> usize {
        self.bufs.iter().map(VecDeque::len).sum()
    }
}

/// Send one report to shard master `m`, recording its trace footprint
/// when a tracer is attached: a `report_send` span on this rank plus the
/// flow point that ties the report to its batch's dispatch arrow. The
/// unsolicited startup report (sequence 0) *opens* its flow — there is
/// no master dispatch for it — while every later report (including
/// duplicate resends of the cached copy) is a step on the flow the
/// master opened. Flow ids live in the namespace
/// `flow_id(m * num_slaves + slave_idx, seq)` so the K concurrent
/// per-session sequence spaces never collide.
fn send_report(
    rank: &Rank<Msg>,
    m: usize,
    slave_idx: usize,
    num_slaves: usize,
    obs: &Obs,
    report: &Msg,
) {
    let t0_us = obs.trace_enabled().then(|| obs.now_us());
    rank.send(m, report.clone());
    if let (Some(t0), Msg::Report { seq, pairs, .. }) = (t0_us, report) {
        obs.trace_with(|tracer| {
            let end = obs.now_us();
            let r = rank.rank();
            let id = flow_id(m * num_slaves + slave_idx, *seq);
            tracer.span(
                r,
                T_REPORT_SEND,
                t0,
                end.saturating_sub(t0),
                id,
                pairs.len() as u64,
            );
            let kind = if *seq == 0 {
                TraceKind::FlowStart
            } else {
                TraceKind::FlowStep
            };
            tracer.flow(kind, r, t0, id);
        });
    }
}

/// Align one work batch through the rank's shared context. Each
/// non-empty batch is its own [`metric::PHASE_ALIGN_BATCH`] span (the
/// per-batch series behind batch-size tuning); the elapsed time also
/// accumulates into the rank's legacy alignment total, `alignment`.
fn align_batch(
    ctx: &mut AlignContext,
    batch: &[CandidatePair],
    cfg: &ClusterConfig,
    alignment: &mut f64,
    obs: &Obs,
    rank_id: usize,
) -> Vec<PairOutcome> {
    if batch.is_empty() {
        return Vec::new();
    }
    let span = obs.span_on(metric::PHASE_ALIGN_BATCH, rank_id);
    let out = batch.iter().map(|p| ctx.align(p, cfg)).collect();
    *alignment += span.finish();
    out
}
