//! The PaCE clustering engine (paper §3.3).
//!
//! Every EST starts as its own cluster; clusters merge when a promising
//! pair — one EST from each — shows a strong overlap alignment. The
//! structure is master–slave:
//!
//! * the **master** ([`master`]) owns `WORKBUF` (pairs awaiting alignment)
//!   and `CLUSTERS` (union–find). It discards pairs whose ESTs already
//!   share a cluster — the single most important work-saving rule, which
//!   the decreasing-MCS pair order makes effective — merges clusters on
//!   accepted alignments, and regulates pair flow with the paper's
//!   `E = min(α·δ·batchsize, nfree/p)` demand formula;
//! * **slaves** ([`slave_sharded`]) generate promising pairs from their
//!   local portion of the suffix-tree forest and run anchored banded
//!   alignments, overlapping communication with computation
//!   (three-portion startup, `NEXTWORK` double buffering, generation
//!   while waiting).
//!
//! Two drivers expose the engine: [`driver_seq`] runs master logic inline
//! with one in-process generator (the reference implementation), and
//! [`driver_sharded`] runs the full message protocol over `p` ranks of
//! the thread-backed MPI substitute. The parallel driver splits the
//! master tier into `K = ClusterConfig::shards` shard masters, each
//! owning one EST id-range: shard 0 runs on rank 0, which also
//! reconciles the shards' merges, shards `1..K` on ranks `1..K`, and
//! ranks `K..p` are slaves. `K = 1` (the default) is the paper's single
//! master. The same protocol also runs over any
//! [`pace_mpisim::Transport`]: [`cluster_master_transport`] /
//! [`cluster_worker_transport`] drive one rank each over a
//! caller-supplied `Rank<Msg>` (the multi-process socket path), with
//! [`wire_msg`] providing the `Msg` wire codec.

pub mod align_task;
pub mod config;
pub mod driver_seq;
pub mod driver_sharded;
pub mod master;
pub mod messages;
pub mod slave_sharded;
pub mod stats;
pub mod trace;
pub mod wire_msg;

pub use align_task::{align_pair, AlignContext, PairOutcome};
pub use config::{ClusterConfig, ShardRole, ShardTopology};
pub use driver_seq::{
    cluster_sequential, cluster_sequential_obs, cluster_sequential_traced, record_cluster_counters,
    record_gst_stats,
};
pub use driver_sharded::{
    cluster_master_transport, cluster_parallel, cluster_parallel_faults, cluster_parallel_obs,
    cluster_parallel_traced, cluster_worker_transport,
};
pub use master::FaultNote;
pub use messages::{Msg, ShardReport, WorkerSummary};
pub use stats::{ClusterResult, ClusterStats, FaultStats, PhaseTimers};
pub use trace::{MergeRecord, MergeTrace};
