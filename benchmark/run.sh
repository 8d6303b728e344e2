#!/usr/bin/env bash
# Build the benchmark once and run workloads, one process per run: each
# workload untraced (end-to-end metrics), then traced (per-layer metrics).
#
#   benchmark/run.sh [--smoke] [--seed N] [--seconds S] [workload ...]
#
# Every run checks its answers against the reference evaluators and its
# metric names and units against BENCHMARK.json, and prints one JSON line.
# The full results (with per-cycle values, host description and the `noisy`
# mark) are collected in benchmark/out/results.jsonl, the input of
#   nsql-benchmark compare <a.jsonl> <b.jsonl>
# --smoke runs one cycle of each (--seconds 1, about half a minute in all): a
# check, not a measurement.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"

args=()
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) args+=(--seconds 1); shift ;;
        --seed | --seconds) args+=("$1" "$2"); shift 2 ;;
        -*) echo "unknown option $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(kim-unnest kim-refused big-unnest kim-readwrite-file)
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/nsql-benchmark"
results=benchmark/out/results.jsonl
mkdir -p benchmark/out
: > "$results"
for workload in "${workloads[@]}"; do
    for trace in 0 1; do
        echo "== $workload --trace $trace" >&2
        line=$("$bin" --workload "$workload" --trace "$trace" "${args[@]}" | tail -n 1)
        echo "$line"
        case "$line" in
            '{"correct":true,'*) ;;
            *) echo "$workload --trace $trace: wrong answers or no result" >&2; exit 1 ;;
        esac
        cat "benchmark/out/$workload.trace$trace.json" >> "$results"
    done
done
