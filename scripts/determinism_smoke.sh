#!/usr/bin/env bash
# Label determinism smoke check (CI: the tier-1 job).
#
# Labels name each cluster by its smallest EST index, so the label file
# a parallel run writes is a pure function of its input — not of
# message timing, and not of the transport. This drill clusters one
# simulated 800-EST library at p = 3 twice over the in-process channel
# backend and once as real worker processes over the Unix-socket
# backend, and requires the three label files to be byte-identical.
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
for run in a b; do
    "$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/$run.tsv" --procs 3 --quiet
done
"$PACE" cluster --in "$OUT/reads.fasta" --out "$OUT/uds.tsv" --procs 3 \
    --transport uds --quiet

cmp "$OUT/a.tsv" "$OUT/b.tsv"
cmp "$OUT/a.tsv" "$OUT/uds.tsv"
echo "determinism_smoke: $(wc -l < "$OUT/a.tsv") labels identical across 3 runs (channel x2, uds)"
