//! The benchmark's workloads: how each one's inputs are generated from a
//! seed, and the clustering settings it runs under.

use pace_cluster::ClusterConfig;
use pace_seq::FastaRecord;
use pace_simulate::{Expression, SimConfig};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The harness's paper library, clustered at p = 1 (the CLI default
    /// and the paper's sequential reference).
    PaperSeq,
    /// A low-coverage, repeat-rich library at p = 2 (one master, one
    /// slave on the channel transport).
    RepeatPar,
    /// The daemon's load-generator library, ingested in many batches
    /// while a second connection queries.
    ServeMixed,
}

/// ESTs in each batch workload's library.
const BATCH_ESTS: usize = 800;
/// ESTs in the daemon workload's library.
const SERVE_ESTS: usize = 600;
/// Ingest batches of the daemon workload.
const SERVE_BATCHES: usize = 12;
/// Stride between the simulator seeds of two consecutive `--seed`s; at
/// least the largest library count.
const SEED_STRIDE: u64 = 64;
/// Libraries whose partitions are pooled into `quality_oq`. Every run
/// clusters at least these, so the figure is exact for a seed.
pub const QUALITY_LIBRARIES: usize = 4;

/// A workload's generated inputs: the FASTA text the timed runs start
/// from, the same records as id/sequence lists for daemon ingest, and
/// the simulator's ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub fasta: String,
    pub ids: Vec<String>,
    pub seqs: Vec<Vec<u8>>,
    pub truth: Vec<usize>,
}

impl Inputs {
    pub fn len(&self) -> usize {
        self.seqs.len()
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSeq,
        Workload::RepeatPar,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSeq => "paper_seq",
            Workload::RepeatPar => "repeat_par",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ranks of the batch clustering run.
    pub fn procs(self) -> usize {
        match self {
            Workload::RepeatPar => 2,
            Workload::PaperSeq | Workload::ServeMixed => 1,
        }
    }

    /// Ingest calls the daemon run splits the library into. The batch
    /// workloads hand the daemon their whole library in one call.
    pub fn ingest_batches(self) -> usize {
        match self {
            Workload::ServeMixed => SERVE_BATCHES,
            Workload::PaperSeq | Workload::RepeatPar => 1,
        }
    }

    /// Batch runs per repetition. A daemon run on the small `serve_mixed`
    /// library takes several batch runs' time; more batch samples per
    /// repetition steady `cluster_s` at no cost to the daemon figures.
    pub fn batch_runs_per_rep(self) -> usize {
        match self {
            Workload::ServeMixed => 3,
            Workload::PaperSeq | Workload::RepeatPar => 1,
        }
    }

    /// Clustering settings, shared by the batch run and the daemon.
    pub fn cluster_config(self) -> ClusterConfig {
        match self {
            Workload::PaperSeq | Workload::RepeatPar => ClusterConfig::default(),
            Workload::ServeMixed => {
                let mut c = ClusterConfig::small();
                c.psi = 16;
                c.overlap.min_overlap_len = 40;
                c
            }
        }
    }

    fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            // The harness's paper library (`pace_bench::dataset`).
            Workload::PaperSeq => SimConfig {
                chimera_prob: 0.002,
                expression: Expression::Zipf(0.6),
                ..SimConfig::sized(BATCH_ESTS, seed)
            },
            Workload::RepeatPar => SimConfig {
                num_genes: BATCH_ESTS / 3,
                expression: Expression::Uniform,
                repeat_motifs: 4,
                repeat_gene_prob: 0.7,
                repeat_divergence: 0.08,
                ..SimConfig::sized(BATCH_ESTS, seed)
            },
            // The daemon load generator's library.
            Workload::ServeMixed => SimConfig {
                num_genes: SERVE_ESTS / 12,
                num_ests: SERVE_ESTS,
                est_len_mean: 220.0,
                est_len_sd: 25.0,
                est_len_min: 120,
                exon_len: (220, 400),
                exons_per_gene: (1, 2),
                seed,
                ..SimConfig::default()
            }
            .error_free(),
        }
    }

    /// Independent libraries a run generates from its seed. Each
    /// repetition takes the next one, so a run's median describes the
    /// workload's kind of library rather than one draw of it; there are
    /// more than a run has time for.
    pub fn libraries(self) -> usize {
        match self {
            Workload::PaperSeq | Workload::RepeatPar => 10,
            Workload::ServeMixed => 12,
        }
    }

    /// Generate the run's libraries for `seed`. Deterministic.
    pub fn generate(self, seed: u64) -> Vec<Inputs> {
        (0..self.libraries())
            .map(|i| self.library(seed, i))
            .collect()
    }

    /// Library `i` of `seed`, simulated with seed `64·seed + i`, so runs
    /// with different seeds share no library.
    pub fn library(self, seed: u64, i: usize) -> Inputs {
        let sim_seed = seed.wrapping_mul(SEED_STRIDE).wrapping_add(i as u64);
        let ds = pace_simulate::generate(&self.sim_config(sim_seed));
        let ids: Vec<String> = (0..ds.ests.len()).map(|i| format!("est_{i}")).collect();
        let records: Vec<FastaRecord> = ids
            .iter()
            .zip(&ds.ests)
            .map(|(id, seq)| FastaRecord {
                id: id.clone(),
                description: String::new(),
                sequence: seq.clone(),
            })
            .collect();
        Inputs {
            fasta: pace_seq::fasta::to_fasta_string(&records, 80),
            ids,
            seqs: ds.ests,
            truth: ds.truth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_library_matches_the_harness_dataset() {
        let ours = pace_simulate::generate(&Workload::PaperSeq.sim_config(5));
        let harness = pace_bench::dataset(BATCH_ESTS, 5);
        assert_eq!(ours.ests, harness.ests);
    }

    #[test]
    fn libraries_are_distinct_and_reproducible() {
        let w = Workload::ServeMixed;
        assert!(w.libraries() as u64 <= SEED_STRIDE);
        assert!(QUALITY_LIBRARIES <= w.libraries());
        assert_eq!(w.library(3, 1), w.library(3, 1));
        assert_ne!(w.library(3, 1).seqs, w.library(3, 2).seqs);
        assert_ne!(w.library(3, 0).seqs, w.library(4, 0).seqs);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
