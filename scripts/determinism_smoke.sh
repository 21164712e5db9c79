#!/usr/bin/env bash
# Label determinism smoke check (CI: the tier-1 job).
#
# Labels name each cluster by its smallest EST index, so the label file
# a run writes is a pure function of its input — not of message timing,
# the processor count, the shard count, or the transport. This drill
# clusters one simulated 800-EST library sequentially (p = 1), at p = 2,
# at p = 3 twice over the in-process channel backend and once as real
# worker processes over the Unix-socket backend, and with two shard
# masters at p = 4, and requires every label file to be byte-identical.
#
# Usage: scripts/determinism_smoke.sh [pace-binary] [outdir]
set -euo pipefail

PACE=${1:-target/release/pace}
OUT=${2:-bench_out/determinism}

if [[ ! -x "$PACE" ]]; then
    echo "determinism_smoke: binary '$PACE' not found (cargo build --release)" >&2
    exit 2
fi
rm -rf "$OUT"
mkdir -p "$OUT"

"$PACE" simulate --ests 800 --seed 7 --out "$OUT/reads.fasta" 2> /dev/null
run() {
    local name=$1
    shift
    "$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/$name.tsv" --quiet "$@"
}
run p1 --procs 1
run p2 --procs 2
run p3a --procs 3
run p3b --procs 3
run p3uds --procs 3 --transport uds
run k2p4 --shards 2 --procs 4

runs=(p1 p2 p3a p3b p3uds k2p4)
for name in "${runs[@]:1}"; do
    cmp "$OUT/p1.tsv" "$OUT/$name.tsv"
done
echo "determinism_smoke: $(wc -l < "$OUT/p1.tsv") labels identical across ${#runs[@]} runs" \
    "(p = 1, 2, 3 channel x2, 3 uds; K = 2 at p = 4)"
