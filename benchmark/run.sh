#!/usr/bin/env bash
# The benchmark's one command: build benchmark/ from source (offline,
# release), then run it with the arguments given.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh                 every workload, both altitudes
#   bash benchmark/run.sh --repeat 10     spreads against the bounds
#
# Run from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR if set, else to benchmark/target.
set -euo pipefail

target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"

# The traced binary reaches into crate internals and may stop compiling
# after an internal change. Build it only when per-layer numbers are
# asked for, so that the gated end-to-end run never depends on it.
bins=(--bin kvd-benchmark)
args=" $* "
per_layer=yes # a run of every workload reports both altitudes
if [[ $args == *" --workload "* || $args == *" --repeat "* ]]; then
    per_layer=no
fi
if [[ $args == *" --trace 1 "* ]]; then
    per_layer=yes
fi
if [[ $per_layer == yes ]]; then
    bins+=(--bin kvd-benchmark-trace)
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml "${bins[@]}" >&2
exec "$target/release/kvd-benchmark" "$@"
