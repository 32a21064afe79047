#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build the shipped
# `forkbase` binary and the load generator from source, then hand every
# argument to the load generator.
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/e2e/run.sh all --seed N --out FILE
#   bash bench/e2e/run.sh compare A.json B.json
#
# Builds go to $CARGO_TARGET_DIR (default: target/ at the repository root);
# data directories, child logs and trace files go to its loadgen/
# subdirectory. Nothing is read or written outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The harness measures the product crates of this checkout: without them
# (a directory holding only the benchmark's own files) there is nothing to
# build or run.
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "run.sh: $(pwd) is not a checkout of the repository (no Cargo.toml, no crates/cli)" >&2
    exit 2
fi

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline -p forkbase_cli --bin forkbase >&2
cargo build --release --offline --manifest-path bench/e2e/Cargo.toml >&2

export FORKBASE_BIN="$CARGO_TARGET_DIR/release/forkbase"
exec "$CARGO_TARGET_DIR/release/forkbase-loadgen" "$@"
