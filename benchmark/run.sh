#!/bin/sh
# The one command: every workload, every output check, every metric by name.
#   ./run.sh                 untraced set (the end-to-end numbers)
#   ./run.sh --trace         plus the traced set (per-layer numbers, overhead)
#   ./run.sh --seed 7        another seed
# `agree` instead of `run`:  cargo run --release --offline -- agree
set -eu
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet -- run "$@"
