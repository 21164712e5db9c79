#!/usr/bin/env bash
# Print the Rust line count the ROADMAP tracks: every `.rs` file under
# crates/, src/, tests/ and examples/ (the offline shims under shims/
# are not counted). Run from anywhere inside the repository:
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates src tests examples -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 cat | wc -l | tr -d ' '
