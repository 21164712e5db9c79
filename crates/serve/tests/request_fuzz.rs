//! The daemon's trust boundary: bytes read from a client socket.
//!
//! Arbitrary byte strings, and single-byte mutations of valid
//! `Ingest`/`Member`/`Cluster`/`Rep` frames, must decode to a request
//! or to a `WireError`, never a panic. Every request that decodes is
//! then sent to a live in-process daemon, which must answer it: a
//! handler that panics drops its connection, so the next call fails.

use pace_cluster::ClusterConfig;
use pace_obs::Obs;
use pace_serve::{Client, Request, Server, ServerConfig};
use pace_wire::Wire;
use proptest::prelude::*;
use proptest::test_runner::{run_cases, ProptestConfig};
use std::time::Duration;

fn est(seed: usize) -> Vec<u8> {
    (0..48)
        .map(|i| b"ACGT"[(i * 7 + seed * 13 + i / 5) % 4])
        .collect()
}

/// One valid frame of each request kind that carries data.
fn valid_frames() -> Vec<Vec<u8>> {
    [
        Request::Ingest {
            ids: vec!["f0".into(), "f1".into()],
            seqs: vec![est(3), est(4)],
        },
        Request::Member { id: "e1".into() },
        Request::Cluster { label: 0 },
        Request::Rep { label: 0 },
    ]
    .iter()
    .map(Wire::to_bytes)
    .collect()
}

#[test]
fn any_request_bytes_decode_or_error_and_the_daemon_answers() {
    let dir = std::env::temp_dir().join(format!("pace-serve-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("paced.sock");
    let mut cfg = ClusterConfig::small();
    cfg.psi = 16;
    let handle = Server::start(ServerConfig::new(&sock, cfg), Obs::noop()).expect("start");
    let mut client = Client::connect_with_retry(&sock, Duration::from_secs(5)).expect("connect");
    let seed = Request::Ingest {
        ids: (0..4).map(|i| format!("e{i}")).collect(),
        seqs: (0..4).map(est).collect(),
    };
    client.call(&seed).expect("seed ingest");

    let frames = valid_frames();
    let raw = proptest::collection::vec(0u8..=255, 0..48);
    run_cases("request_fuzz", ProptestConfig::with_cases(600), |rng| {
        let mut bytes = frames[(0..frames.len()).generate(rng)].clone();
        match (0u32..4).generate(rng) {
            0 => bytes = raw.generate(rng),
            // A known tag in front of garbage reaches the field decoders.
            1 => bytes = [vec![(0u8..7).generate(rng)], raw.generate(rng)].concat(),
            // Now and then the frame itself, so queries hit live clusters.
            2 if (0u32..4).generate(rng) == 0 => {}
            _ => {
                let at = (0..bytes.len()).generate(rng);
                bytes[at] ^= (1u8..=255).generate(rng);
            }
        }
        match Request::from_bytes(&bytes) {
            Err(_) => {}
            // Dispatching it would stop the daemon under test.
            Ok(Request::Shutdown) => {}
            Ok(req) => {
                let reply = client.call(&req);
                prop_assert!(reply.is_ok(), "{req:?} got no answer: {reply:?}");
            }
        }
        Ok(())
    });
    handle.stop().expect("stop");
    let _ = std::fs::remove_dir_all(&dir);
}
