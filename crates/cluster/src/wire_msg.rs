//! Wire encodings of pace-cluster's types.
//!
//! [`Msg`] implements [`Wire`] so a `Rank<Msg>` can run over
//! `UdsHub`/`UdsEndpoint`. [`MergeRecord`], [`PairOutcome`] and the
//! run counters get one impl each, which the socket messages and the
//! snapshot sections of `pace-store` share. `CandidatePair` lives in
//! another crate, so its codec is a free function pair here rather
//! than a trait impl (the orphan rule). Layouts follow the `pace-wire`
//! convention: little-endian, `u32` length prefixes, floats as
//! IEEE-754 bits.

use crate::align_task::PairOutcome;
use crate::messages::{Msg, ShardReport, WorkerSummary};
use crate::stats::{ClusterStats, FaultStats, PhaseTimers};
use crate::trace::MergeRecord;
use pace_pairgen::CandidatePair;
use pace_seq::StrId;
use pace_wire::{encode_seq, wire_struct, Wire, WireError, WireReader};

/// Bytes of one encoded [`CandidatePair`]: five `u32` fields.
const PAIR_BYTES: usize = 20;

const TAG_REPORT: u8 = 0;
const TAG_WORK: u8 = 1;
const TAG_SHUTDOWN: u8 = 2;
const TAG_SUMMARY: u8 = 3;
const TAG_CROSS_MERGE: u8 = 4;
const TAG_SHARD_DONE: u8 = 5;
const TAG_ABORT: u8 = 6;

fn encode_pair(p: &CandidatePair, out: &mut Vec<u8>) {
    p.s1.0.encode(out);
    p.s2.0.encode(out);
    p.off1.encode(out);
    p.off2.encode(out);
    p.mcs_len.encode(out);
}

fn decode_pair(r: &mut WireReader<'_>) -> Result<CandidatePair, WireError> {
    Ok(CandidatePair {
        s1: StrId(r.u32()?),
        s2: StrId(r.u32()?),
        off1: r.u32()?,
        off2: r.u32()?,
        mcs_len: r.u32()?,
    })
}

impl Wire for PairOutcome {
    /// Pair + bool + f64 bits.
    const MIN_BYTES: usize = PAIR_BYTES + 1 + 8;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_pair(&self.pair, out);
        self.accepted.encode(out);
        self.score_ratio.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PairOutcome {
            pair: decode_pair(r)?,
            accepted: bool::decode(r)?,
            score_ratio: f64::decode(r)?,
        })
    }
}

wire_struct!(MergeRecord {
    est_a: usize,
    est_b: usize,
    mcs_len: u32,
    score_ratio: f64,
});

wire_struct!(ShardReport {
    records: Vec<MergeRecord>,
    pairs_received: u64,
    pairs_processed: u64,
    pairs_accepted: u64,
    pairs_skipped: u64,
    merges: u64,
    cross_edges: u64,
    epochs: u64,
    retries: u64,
    duplicate_reports: u64,
    dead_slaves: u64,
    reassigned_pairs: u64,
    abandoned_pairs: u64,
    injected_drops: u64,
    injected_delays: u64,
    injected_stalls: u64,
    busy_frac: f64,
});

wire_struct!(WorkerSummary {
    gen_nodes_processed: u64,
    gen_raw_pairs: u64,
    gen_discarded_self: u64,
    gen_discarded_mirror: u64,
    gen_emitted: u64,
    node_sorting: f64,
    alignment: f64,
    partitioning: f64,
    gst_construction: f64,
    unconsumed: u64,
    prefiltered: u64,
    ws_reuses: u64,
    injected_drops: u64,
    injected_delays: u64,
    injected_stalls: u64,
    gen_by_owner: Vec<u64>,
    unconsumed_by_owner: Vec<u64>,
});

// The run counters a checkpoint snapshot stores (`pace-store`).
wire_struct!(ClusterStats {
    pairs_generated: u64,
    pairs_processed: u64,
    pairs_accepted: u64,
    merges: u64,
    pairs_skipped: u64,
    pairs_prefiltered: u64,
    pairs_unconsumed: u64,
    messages: u64,
    master_busy_frac: f64,
    faults: FaultStats,
    timers: PhaseTimers,
});

wire_struct!(FaultStats {
    retries: u64,
    duplicate_reports: u64,
    dead_slaves: u64,
    reassigned_pairs: u64,
    abandoned_pairs: u64,
    lost_pairs: u64,
});

wire_struct!(PhaseTimers {
    partitioning: f64,
    gst_construction: f64,
    node_sorting: f64,
    alignment: f64,
    total: f64,
});

impl Wire for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Report {
                seq,
                results,
                pairs,
                exhausted,
            } => {
                TAG_REPORT.encode(out);
                seq.encode(out);
                results.encode(out);
                encode_seq(pairs, out, encode_pair);
                exhausted.encode(out);
            }
            Msg::Work {
                seq,
                pairs,
                request,
            } => {
                TAG_WORK.encode(out);
                seq.encode(out);
                encode_seq(pairs, out, encode_pair);
                request.encode(out);
            }
            Msg::Shutdown => TAG_SHUTDOWN.encode(out),
            Msg::Abort => TAG_ABORT.encode(out),
            Msg::Summary(s) => {
                TAG_SUMMARY.encode(out);
                s.encode(out);
            }
            Msg::CrossMerge {
                shard,
                epoch,
                edges,
            } => {
                TAG_CROSS_MERGE.encode(out);
                shard.encode(out);
                epoch.encode(out);
                edges.encode(out);
            }
            Msg::ShardDone { shard, report } => {
                TAG_SHARD_DONE.encode(out);
                shard.encode(out);
                report.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_REPORT => Ok(Msg::Report {
                seq: u64::decode(r)?,
                results: Vec::decode(r)?,
                pairs: r.seq(PAIR_BYTES, decode_pair)?,
                exhausted: bool::decode(r)?,
            }),
            TAG_WORK => Ok(Msg::Work {
                seq: u64::decode(r)?,
                pairs: r.seq(PAIR_BYTES, decode_pair)?,
                request: usize::decode(r)?,
            }),
            TAG_SHUTDOWN => Ok(Msg::Shutdown),
            TAG_ABORT => Ok(Msg::Abort),
            TAG_SUMMARY => Ok(Msg::Summary(WorkerSummary::decode(r)?)),
            TAG_CROSS_MERGE => Ok(Msg::CrossMerge {
                shard: u32::decode(r)?,
                epoch: u64::decode(r)?,
                edges: Vec::decode(r)?,
            }),
            TAG_SHARD_DONE => Ok(Msg::ShardDone {
                shard: u32::decode(r)?,
                report: ShardReport::decode(r)?,
            }),
            t => Err(WireError(format!("unknown Msg tag {t:#04x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(i: u32) -> CandidatePair {
        CandidatePair {
            s1: StrId(2 * i),
            s2: StrId(2 * i + 3),
            off1: 7 * i,
            off2: 11 * i,
            mcs_len: 20 + i,
        }
    }

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Report {
                seq: 3,
                results: vec![
                    PairOutcome {
                        pair: pair(1),
                        accepted: true,
                        score_ratio: 0.91,
                    },
                    PairOutcome {
                        pair: pair(2),
                        accepted: false,
                        score_ratio: 0.11,
                    },
                ],
                pairs: vec![pair(3), pair(4), pair(5)],
                exhausted: false,
            },
            Msg::Report {
                seq: 0,
                results: vec![],
                pairs: vec![],
                exhausted: true,
            },
            Msg::Work {
                seq: 9,
                pairs: vec![pair(6)],
                request: 60,
            },
            Msg::Shutdown,
            Msg::Abort,
            Msg::Summary(WorkerSummary {
                gen_nodes_processed: 1,
                gen_raw_pairs: 2,
                gen_discarded_self: 3,
                gen_discarded_mirror: 4,
                gen_emitted: 5,
                node_sorting: 0.25,
                alignment: 1.5,
                partitioning: 0.125,
                gst_construction: 2.0,
                unconsumed: 6,
                prefiltered: 7,
                ws_reuses: 8,
                injected_drops: 9,
                injected_delays: 10,
                injected_stalls: 11,
                gen_by_owner: vec![12, 0, 13],
                unconsumed_by_owner: vec![1, 0, 2],
            }),
            Msg::CrossMerge {
                shard: 2,
                epoch: 7,
                edges: vec![(3, 41), (5, 38)],
            },
            Msg::CrossMerge {
                shard: 0,
                epoch: 0,
                edges: vec![],
            },
            Msg::ShardDone {
                shard: 1,
                report: ShardReport {
                    records: vec![
                        MergeRecord {
                            est_a: 4,
                            est_b: 17,
                            mcs_len: 23,
                            score_ratio: 0.97,
                        },
                        MergeRecord {
                            est_a: 9,
                            est_b: 40,
                            mcs_len: 31,
                            score_ratio: 1.0,
                        },
                    ],
                    pairs_received: 12,
                    pairs_processed: 11,
                    pairs_accepted: 5,
                    pairs_skipped: 1,
                    merges: 2,
                    cross_edges: 1,
                    epochs: 3,
                    retries: 1,
                    duplicate_reports: 2,
                    dead_slaves: 0,
                    reassigned_pairs: 0,
                    abandoned_pairs: 0,
                    injected_drops: 3,
                    injected_delays: 1,
                    injected_stalls: 0,
                    busy_frac: 0.5,
                },
            },
            Msg::ShardDone {
                shard: 0,
                report: ShardReport::default(),
            },
        ]
    }

    /// FNV-1a of an encoding.
    fn fnv<T: Wire>(v: &T) -> u64 {
        v.to_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The samples' bytes, captured before the codec was shared with the
    /// snapshot format: socket bytes must not move without a protocol
    /// version bump.
    #[test]
    fn sample_encodings_are_pinned() {
        assert_eq!(fnv(&sample_msgs()), 0xbd12dad4a7d4d2cf);
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        for msg in sample_msgs() {
            let bytes = msg.to_bytes();
            let back = Msg::from_bytes(&bytes).expect("decode");
            // Msg is not PartialEq (it carries f64 scores); compare the
            // re-encoding, which is canonical.
            assert_eq!(bytes, back.to_bytes(), "roundtrip changed {}", msg.kind());
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        for msg in sample_msgs() {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Msg::from_bytes(&bytes[..cut]).is_err(),
                    "{} decoded from a {cut}-byte prefix of {} bytes",
                    msg.kind(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in sample_msgs() {
            let mut bytes = msg.to_bytes();
            bytes.push(0);
            assert!(Msg::from_bytes(&bytes).is_err(), "{}", msg.kind());
        }
    }

    #[test]
    fn count_bounds_are_the_encoded_element_sizes() {
        // A list's count is checked against these before any allocation,
        // so each must equal (not undercut) its element's encoding.
        let Msg::Report { results, pairs, .. } = &sample_msgs()[0] else {
            unreachable!()
        };
        assert_eq!(results[0].to_bytes().len(), PairOutcome::MIN_BYTES);
        let mut bytes = Vec::new();
        encode_pair(&pairs[0], &mut bytes);
        assert_eq!(bytes.len(), PAIR_BYTES);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(Msg::from_bytes(&[9]).is_err());
    }
}
