//! Typed codecs: the pipeline's data structures ⇄ snapshot section bytes.
//!
//! Every section payload is a `pace-wire` encoding (little-endian,
//! `u32` length prefixes, floats as IEEE-754 bits), so a snapshot and a
//! socket message lay out a length, a float or a byte run the same
//! way. Decoding reads through `WireReader`: a short, overlong or
//! otherwise malformed payload is [`SnapshotError::Corrupt`] naming the
//! section, never a panic, and no length prefix can reserve more than
//! the payload could hold.
//!
//! Content integrity (bit flips) is the snapshot layer's CRC job; the
//! decoders here re-validate only the *structural* invariants whose
//! violation would make the reassembled value unsafe to use (see the
//! `from_raw_parts` constructors in the owning crates).

use crate::error::SnapshotError;
use pace_cluster::stats::ClusterStats;
use pace_cluster::trace::{MergeRecord, MergeTrace};
use pace_dsu::DisjointSets;
use pace_gst::tree::Node;
use pace_gst::{BucketPartition, Subtree, SuffixRef};
use pace_seq::SequenceStore;
use pace_wire::{encode_seq, Wire, WireError, WireReader};

fn corrupt(context: &str, msg: impl std::fmt::Display) -> SnapshotError {
    SnapshotError::Corrupt(format!("{context}: {msg}"))
}

/// Decode a whole section payload with `f`; trailing bytes are an error.
fn section<T>(
    bytes: &[u8],
    context: &str,
    f: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<T, SnapshotError> {
    let mut r = WireReader::new(bytes);
    f(&mut r)
        .and_then(|v| r.finish().map(|()| v))
        .map_err(|e| corrupt(context, e))
}

/// Encode a list of strings (the per-EST FASTA identifiers).
pub fn encode_string_list(items: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + items.iter().map(|s| s.len() + 4).sum::<usize>());
    String::encode_slice(items, &mut out);
    out
}

/// Decode a list of strings; non-UTF-8 content is [`SnapshotError::Corrupt`].
pub fn decode_string_list(bytes: &[u8]) -> Result<Vec<String>, SnapshotError> {
    section(bytes, "string list", Vec::decode)
}

/// Encode a [`SequenceStore`] (text + offset table).
pub fn encode_sequence_store(store: &SequenceStore) -> Vec<u8> {
    let (text, offsets) = store.as_raw_parts();
    let mut out = Vec::with_capacity(8 + text.len() + offsets.len() * 4);
    u8::encode_slice(text, &mut out);
    u32::encode_slice(offsets, &mut out);
    out
}

/// Decode a [`SequenceStore`], re-validating its structural invariants
/// and that the text is pure uppercase DNA.
pub fn decode_sequence_store(bytes: &[u8]) -> Result<SequenceStore, SnapshotError> {
    let (text, offsets) = section(bytes, "sequence store", <(Vec<u8>, Vec<u32>)>::decode)?;
    SequenceStore::from_raw_parts(text, offsets).map_err(|e| corrupt("sequence store", e))
}

/// Encode a [`BucketPartition`] (owner + count tables).
pub fn encode_bucket_partition(part: &BucketPartition) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + part.owner.len() * 2 + part.counts.len() * 8);
    (part.w as u32).encode(&mut out);
    (part.num_ranks as u32).encode(&mut out);
    part.owner.encode(&mut out);
    part.counts.encode(&mut out);
    out
}

/// Decode a [`BucketPartition`], checking table sizes and owner ranges.
pub fn decode_bucket_partition(bytes: &[u8]) -> Result<BucketPartition, SnapshotError> {
    const CTX: &str = "bucket partition";
    let (w, num_ranks, owner, counts) =
        section(bytes, CTX, <(u32, u32, Vec<u16>, Vec<u64>)>::decode)?;
    let (w, num_ranks) = (w as usize, num_ranks as usize);

    if !(1..=12).contains(&w) {
        return Err(corrupt(CTX, format!("window w = {w} out of 1..=12")));
    }
    let expect = 1usize << (2 * w);
    if owner.len() != expect || counts.len() != expect {
        return Err(corrupt(
            CTX,
            format!(
                "tables hold {} owners / {} counts, expected 4^{w} = {expect}",
                owner.len(),
                counts.len()
            ),
        ));
    }
    if num_ranks == 0 || num_ranks > u16::MAX as usize {
        return Err(corrupt(
            CTX,
            format!("num_ranks = {num_ranks} out of range"),
        ));
    }
    if let Some((b, &o)) = owner
        .iter()
        .enumerate()
        .find(|&(_, &o)| o as usize >= num_ranks)
    {
        return Err(corrupt(
            CTX,
            format!("bucket {b} owned by rank {o}, only {num_ranks} ranks"),
        ));
    }
    Ok(BucketPartition {
        w,
        num_ranks,
        owner,
        counts,
    })
}

fn put_subtree(tree: &Subtree, out: &mut Vec<u8>) {
    tree.bucket.encode(out);
    encode_seq(tree.nodes(), out, |n, out| {
        (n.rightmost, n.depth, n.suf_start, n.suf_end).encode(out)
    });
    encode_seq(tree.suffixes(), out, |s, out| (s.sid, s.off).encode(out));
}

fn take_subtree(r: &mut WireReader<'_>) -> Result<Subtree, WireError> {
    let bucket = r.u32()?;
    let nodes = r.seq(16, |r| {
        let (rightmost, depth, suf_start, suf_end) = Wire::decode(r)?;
        Ok(Node {
            rightmost,
            depth,
            suf_start,
            suf_end,
        })
    })?;
    let suffixes = r.seq(8, |r| Ok(SuffixRef::new(r.u32()?, r.u32()?)))?;
    // Leaf ranges must stay inside the arena; everything subtler is the
    // builder's concern (Subtree::validate exists for tests).
    for (i, n) in nodes.iter().enumerate() {
        if n.rightmost as usize >= nodes.len() {
            return Err(WireError(format!(
                "subtree node {i}: rightmost {} out of {} nodes",
                n.rightmost,
                nodes.len()
            )));
        }
        if n.rightmost as usize == i
            && (n.suf_start > n.suf_end || n.suf_end as usize > suffixes.len())
        {
            return Err(WireError(format!(
                "subtree leaf {i}: suffix range {}..{} outside arena of {}",
                n.suf_start,
                n.suf_end,
                suffixes.len()
            )));
        }
    }
    Ok(Subtree::from_parts(bucket, nodes, suffixes))
}

/// Encode a batch of subtrees as one section payload.
pub fn encode_subtrees(trees: &[Subtree]) -> Vec<u8> {
    let cap: usize = trees
        .iter()
        .map(|t| 12 + t.nodes().len() * 16 + t.suffixes().len() * 8)
        .sum();
    let mut out = Vec::with_capacity(cap + 4);
    encode_seq(trees, &mut out, put_subtree);
    out
}

/// Decode a batch of subtrees.
pub fn decode_subtrees(bytes: &[u8]) -> Result<Vec<Subtree>, SnapshotError> {
    // A subtree is at least its bucket id and two empty list prefixes.
    section(bytes, "subtrees", |r| r.seq(12, take_subtree))
}

/// Encode the union–find state.
pub fn encode_dsu(dsu: &DisjointSets) -> Vec<u8> {
    let (parent, rank, size, num_sets) = dsu.as_raw_parts();
    let mut out = Vec::with_capacity(parent.len() * 9 + 20);
    u32::encode_slice(parent, &mut out);
    u8::encode_slice(rank, &mut out);
    u32::encode_slice(size, &mut out);
    num_sets.encode(&mut out);
    out
}

/// Decode the union–find state, re-validating pointer sanity (range,
/// acyclicity, root count) via [`DisjointSets::from_raw_parts`].
pub fn decode_dsu(bytes: &[u8]) -> Result<DisjointSets, SnapshotError> {
    let (parent, rank, size, num_sets) = section(bytes, "union-find", Wire::decode)?;
    DisjointSets::from_raw_parts(parent, rank, size, num_sets).map_err(|e| corrupt("union-find", e))
}

/// Encode the full counter/timer block of a run.
pub fn encode_cluster_stats(stats: &ClusterStats) -> Vec<u8> {
    stats.to_bytes()
}

/// Decode a [`ClusterStats`] block.
pub fn decode_cluster_stats(bytes: &[u8]) -> Result<ClusterStats, SnapshotError> {
    section(bytes, "cluster stats", ClusterStats::decode)
}

/// Encode the merge audit log: the `Vec<MergeRecord>` layout a shard
/// master's report carries on the socket.
pub fn encode_merge_trace(trace: &MergeTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + trace.len() * MergeRecord::MIN_BYTES);
    MergeRecord::encode_slice(trace.records(), &mut out);
    out
}

/// Decode the merge audit log.
pub fn decode_merge_trace(bytes: &[u8]) -> Result<MergeTrace, SnapshotError> {
    section(bytes, "merge trace", Vec::decode).map(MergeTrace::from_records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_list_roundtrip() {
        let ids = vec!["est_0".to_string(), String::new(), "αβγ".to_string()];
        let bytes = encode_string_list(&ids);
        assert_eq!(decode_string_list(&bytes).unwrap(), ids);
        assert!(decode_string_list(&encode_string_list(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn string_list_rejects_bad_utf8() {
        let mut bytes = 1u32.to_bytes();
        vec![0xffu8, 0xfe].encode(&mut bytes);
        assert!(matches!(
            decode_string_list(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn sequence_store_roundtrip() {
        let store = SequenceStore::from_ests(&[b"ACGGT".as_slice(), b"TTACG"]).unwrap();
        let bytes = encode_sequence_store(&store);
        assert_eq!(decode_sequence_store(&bytes).unwrap(), store);
    }

    #[test]
    fn short_buffers_are_corrupt_errors() {
        let store = SequenceStore::from_ests(&[b"ACGGT".as_slice()]).unwrap();
        let bytes = encode_sequence_store(&store);
        for cut in 0..bytes.len() {
            let err = decode_sequence_store(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt_errors() {
        let store = SequenceStore::from_ests(&[b"ACGT".as_slice()]).unwrap();
        let mut bytes = encode_sequence_store(&store);
        bytes.push(0);
        assert!(matches!(
            decode_sequence_store(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn huge_declared_count_is_rejected_without_allocation() {
        // A corrupt length prefix claiming 2^32 - 1 elements must error
        // out instead of attempting the reservation.
        let bytes = u32::MAX.to_bytes();
        assert!(decode_sequence_store(&bytes).is_err());
        assert!(decode_merge_trace(&bytes).is_err());
        assert!(decode_subtrees(&bytes).is_err());
    }
}
