#!/usr/bin/env sh
# Full local gate, mirroring CI. Network-free by design: the workspace
# has no third-party dependencies, so no step ever touches a registry.
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run --release -p voyager-analyze

# Machine-readable analyzer report: the binary validates the JSON
# against the voyager_obs schema before printing, so a malformed
# report fails here, not downstream.
echo "==> cargo run --release -p voyager-analyze -- --json"
mkdir -p target
cargo run --release -p voyager-analyze -- --json > target/analyze.json
echo "    wrote target/analyze.json"

run cargo build --release
# Every workspace crate: `default-members` in Cargo.toml makes the
# plain command cover all of them.
run cargo test -q

# The numeric suite again with the SIMD tiers compiled out: the scalar
# fallback must stand on its own (CI runs the same job).
run cargo test -q -p voyager-tensor -p voyager-nn -p voyager-runtime -p voyager \
    --features voyager-tensor/force-scalar
# The micro-benchmark in smoke mode: small sizes, and the gate that
# `par_gemm` keeps up with the single-thread kernel.
run cargo bench -p voyager-bench --bench overheads -- --smoke

# Observability smoke: the metrics dump must stay schema-valid JSON
# (voyagerctl validates its own output and fails otherwise).
echo "==> cargo run --release -p voyager-bench --bin voyagerctl -- metrics --smoke"
mkdir -p target
cargo run --release -p voyager-bench --bin voyagerctl -- metrics --smoke \
    > target/metrics.smoke.json
echo "    wrote target/metrics.smoke.json"
# The dump must name the f32 and the int8 kernel tier that ran.
for gauge in tensor.gemm.dispatch tensor.gemm.int8_dispatch; do
    grep -q "\"$gauge\": [0-9]" target/metrics.smoke.json || {
        echo "metrics dump lacks the $gauge gauge" >&2
        exit 1
    }
done

echo "==> all checks passed"
