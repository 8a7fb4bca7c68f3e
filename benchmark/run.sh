#!/usr/bin/env bash
# Build the benchmark offline and run it. Arguments go to the harness:
#   benchmark/run.sh [--workload W]... [--seed S] [--slices N] [--traced] [--quick]
#                    [--selfcheck | --calibrate K]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   (the driver's form)
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
# Build output goes to stderr: the last line of stdout is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/hcq-benchmark" "$@"
