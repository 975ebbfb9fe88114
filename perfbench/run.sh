#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given flags:
#   bash perfbench/run.sh --workload serve_small --seed 1 --seconds 10 --trace 0
# Run from the repository root. Honours CARGO_TARGET_DIR.
#
# The wire workloads run on one CPU: their server threads and load generator
# hand every request from thread to thread, and spread over two CPUs of a
# shared host their throughput differed several-fold between identical runs.
# The fit workloads keep the process's CPUs.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/perfbench"
case " $* " in
*" --workload serve_"*)
    cpu="$(awk '/^Cpus_allowed_list:/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status)"
    exec taskset -c "$cpu" "$bin" "$@"
    ;;
esac
exec "$bin" "$@"
