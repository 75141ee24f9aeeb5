#!/usr/bin/env bash
# Tier-1 verification gate. Hermetic by construction: the workspace has
# zero registry dependencies, so every step runs with --offline and
# must succeed from a clean checkout with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: panic audit (library code vs allowlist) =="
python3 scripts/panic_audit.py

echo "== tier-1: release build (offline) =="
cargo build --workspace --release --offline

echo "== tier-1: test suite (offline), serial and parallel =="
for t in 1 4; do
    echo "-- SECFLOW_THREADS=$t --"
    SECFLOW_THREADS=$t cargo test -q --workspace --offline
done

echo "== tier-1: experiment smoke (Fig. 6 MTD pipeline, 150 traces, with observability) =="
cargo run --release --offline -p secflow-bench --bin exp_fig6_mtd -- --smoke \
    --obs results/OBS_fig6_smoke.json
python3 scripts/obs_schema_check.py results/OBS_fig6_smoke.json --require-stages

echo "== tier-1: observability stdout byte-identity (Fig. 3 decompose) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --release --offline -p secflow-bench --bin exp_fig3_decompose > "$tmp/plain.out"
cargo run --release --offline -p secflow-bench --bin exp_fig3_decompose -- \
    --obs "$tmp/obs.json" > "$tmp/obs.out"
python3 scripts/obs_schema_check.py --compare "$tmp/plain.out" "$tmp/obs.out"
python3 scripts/obs_schema_check.py "$tmp/obs.json"

echo "== tier-1: sim-backend stdout byte-identity (Fig. 6 smoke, event vs bitslice) =="
cargo run --release --offline -p secflow-bench --bin exp_fig6_mtd -- --smoke \
    --sim-backend event > "$tmp/event.out"
cargo run --release --offline -p secflow-bench --bin exp_fig6_mtd -- --smoke \
    --sim-backend bitslice > "$tmp/bitslice.out"
cmp "$tmp/event.out" "$tmp/bitslice.out"

echo "== tier-1: Fig. 6 smoke stdout matches the committed golden =="
cmp tests/golden/fig6_smoke.txt "$tmp/event.out"

echo "== tier-1: sim-backend stdout byte-identity (glitch ablation, 150 traces, event vs bitslice) =="
cargo run --release --offline -p secflow-bench --bin exp_glitch_ablation -- 150 \
    --sim-backend event > "$tmp/glitch_event.out"
cargo run --release --offline -p secflow-bench --bin exp_glitch_ablation -- 150 \
    --sim-backend bitslice > "$tmp/glitch_bitslice.out"
cmp "$tmp/glitch_event.out" "$tmp/glitch_bitslice.out"

echo "== tier-1: compiled-kernel bench smoke (baseline bit-equality self-check) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- sim_kernel --smoke

echo "== tier-1: bit-sliced kernel bench smoke (event-kernel bit-equality self-check) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- sim_bitslice --smoke

echo "== tier-1: observability overhead smoke (noop bound < 1%) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- obs_overhead --smoke

echo "== tier-1: serve cache bench smoke (warm-vs-cold byte-identity self-check) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- serve_cache --smoke

echo "== tier-1: million-trace MTD smoke (fused streaming + trace-store replay) =="
cargo run --release --offline -p secflow-bench --bin exp_mtd_1m -- --smoke \
    --trace-store "$tmp/mtd1m_store" > /dev/null

echo "== tier-1: streaming pipeline bench smoke (stream-vs-batch byte-identity self-check) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- stream_1m --smoke

echo "== tier-1: job-server smoke (daemon, warm cache hit, byte-identical payload) =="
cargo run --release --offline -p secflow -- serve --socket "$tmp/serve.sock" \
    --cache-bytes $((64 * 1024 * 1024)) &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$tmp/serve.sock" ] && break
    sleep 0.1
done
req='{"job":"campaign","attack":"dpa","n":150,"seed":1,"key":46}'
cargo run --release --offline -p secflow -- submit --socket "$tmp/serve.sock" \
    --json "$req" > "$tmp/cold.out" 2> "$tmp/cold.env"
cargo run --release --offline -p secflow -- submit --socket "$tmp/serve.sock" \
    --json "$req" > "$tmp/warm.out" 2> "$tmp/warm.env"
cmp "$tmp/cold.out" "$tmp/warm.out"
grep -q '"cached":false' "$tmp/cold.env"
grep -q '"cached":true' "$tmp/warm.env"
cargo run --release --offline -p secflow -- submit --socket "$tmp/serve.sock" --shutdown \
    > /dev/null
wait "$serve_pid"

echo "== tier-1: benchmark build and smoke (secbench: every workload, untraced and traced) =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "tier-1 gate: OK"
