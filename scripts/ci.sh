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

echo "== tier-1: CLI answers a gate with the wrong pin count with a typed parse error =="
printf '%s\n' 'module bad (a, b, c, y);' '  input a;' '  input b;' '  input c;' '  output y;' \
    '  AND2 g0 (.A(a), .B(b), .C(c), .Y(y));' 'endmodule' > "$tmp/bad_pins.v"
for flow in --regular --secure; do
    rc=0
    cargo run --release --offline -q -p secflow -- "$tmp/bad_pins.v" "$flow" \
        --out "$tmp/bad_pins_out" > /dev/null 2> "$tmp/bad_pins.err" || rc=$?
    errors=$(grep -c '^{"error":{"stage":"parse",' "$tmp/bad_pins.err" || true)
    if [ "$rc" -ne 10 ] || [ "$errors" -ne 1 ] || grep -q panicked "$tmp/bad_pins.err"; then
        echo "bad pin count $flow: exit $rc, $errors parse error lines (want 10 and 1, no panic)"
        cat "$tmp/bad_pins.err"
        exit 1
    fi
done

echo "== tier-1: Fig. 6 smoke stdout matches the committed golden =="
cargo run --release --offline -p secflow-bench --bin exp_fig6_mtd -- --smoke > "$tmp/fig6.out"
cmp tests/golden/fig6_smoke.txt "$tmp/fig6.out"

echo "== tier-1: CPA smoke stdout (400 traces, HW and HD models) matches the committed golden =="
cargo run --release --offline -p secflow-bench --bin exp_cpa -- 400 > "$tmp/cpa.out"
cmp tests/golden/cpa_smoke.txt "$tmp/cpa.out"

echo "== tier-1: DES round (2 175 gates: random LEC and rail checks) stdout matches the committed golden =="
cargo run --release --offline --example des_round > "$tmp/des_round.out"
cmp tests/golden/des_round.txt "$tmp/des_round.out"

echo "== tier-1: glitch ablation smoke (150 traces, glitchy and glitch-free campaigns) =="
cargo run --release --offline -p secflow-bench --bin exp_glitch_ablation -- 150 > /dev/null

echo "== tier-1: experiment binaries refuse an unknown flag, a malformed number and an extra argument =="
for args in "exp_cpa --sim-backend bitslice" "exp_cpa abc" "exp_ema_probe 5"; do
    read -r -a argv <<< "$args"
    rc=0
    cargo run --release --offline -q -p secflow-bench --bin "${argv[0]}" -- "${argv[@]:1}" \
        > "$tmp/usage.out" 2> "$tmp/usage.err" || rc=$?
    lines=$(wc -l < "$tmp/usage.err")
    if [ "$rc" -ne 2 ] || [ "$lines" -ne 1 ] || grep -q '^{"exp":' "$tmp/usage.err"; then
        echo "$args: exit $rc, $lines stderr lines (want 2 and 1, no run-info line)"
        cat "$tmp/usage.err"
        exit 1
    fi
done

echo "== tier-1: observability overhead smoke (noop bound < 1%) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- obs_overhead --smoke

echo "== tier-1: serve cache bench smoke (warm-vs-cold byte-identity self-check) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- serve_cache --smoke

echo "== tier-1: million-trace MTD smoke (fused streaming + trace-store replay) matches the committed golden =="
cargo run --release --offline -p secflow-bench --bin exp_mtd_1m -- --smoke \
    --trace-store "$tmp/mtd1m_store" > "$tmp/mtd1m.out"
cmp tests/golden/mtd_1m_smoke.txt "$tmp/mtd1m.out"

echo "== tier-1: streaming pipeline bench smoke (stream-vs-batch byte-identity self-check) =="
cargo bench --offline -p secflow-bench --bench flow_stages -- stream_1m --smoke

echo "== tier-1: job-server smoke (daemon survives hostile frames and a failing campaign, warm cache hit, payloads match the committed golden) =="
cargo run --release --offline -p secflow -- serve --socket "$tmp/serve.sock" \
    --cache-bytes $((64 * 1024 * 1024)) &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -S "$tmp/serve.sock" ] && break
    sleep 0.1
done
# Hostile frames are refused as bad requests (exit 2) and the daemon
# survives them: the cold, warm and golden checks below run on it.
head -c 100000 /dev/zero | tr '\0' '[' > "$tmp/deep.json"
printf '%s' '{"job":"campaign","n":6,"sim":{"noise_sigma":1e999}}' > "$tmp/inf.json"
printf '%s' '{"job":"campaign","n":6,"sim":{"period_ps":0}}' > "$tmp/period0.json"
for hostile in deep inf period0; do
    rc=0
    cargo run --release --offline -q -p secflow -- submit --socket "$tmp/serve.sock" \
        --file "$tmp/$hostile.json" > /dev/null 2> "$tmp/$hostile.env" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q '"kind":"BadRequest"' "$tmp/$hostile.env"; then
        echo "hostile frame $hostile.json: exit $rc (want 2 and a BadRequest envelope)"
        cat "$tmp/$hostile.env"
        exit 1
    fi
done
# A legal campaign whose implementation cannot meet its timing (the
# precharge phase leaves 5 % of the cycle to evaluate) fails with a
# typed sim error (exit 19) and the daemon keeps answering.
timing_req='{"job":"attack","n":6,"sim":{"precharge_fraction":0.95,"samples_per_cycle":40},"options":{"anneal_moves_per_gate":4,"verify":false}}'
rc=0
cargo run --release --offline -q -p secflow -- submit --socket "$tmp/serve.sock" \
    --json "$timing_req" > /dev/null 2> "$tmp/timing.env" || rc=$?
if [ "$rc" -ne 19 ] || ! grep -q '"stage":"sim"' "$tmp/timing.env"; then
    echo "failing-timing campaign: exit $rc (want 19 and a sim-stage envelope)"
    cat "$tmp/timing.env"
    exit 1
fi
req='{"job":"campaign","attack":"dpa","n":150,"seed":1,"key":46}'
cargo run --release --offline -p secflow -- submit --socket "$tmp/serve.sock" \
    --json "$req" > "$tmp/cold.out" 2> "$tmp/cold.env"
cargo run --release --offline -p secflow -- submit --socket "$tmp/serve.sock" \
    --json "$req" > "$tmp/warm.out" 2> "$tmp/warm.env"
cmp "$tmp/cold.out" "$tmp/warm.out"
cmp tests/golden/serve_campaign_smoke.json "$tmp/cold.out"
grep -q '"cached":false' "$tmp/cold.env"
grep -q '"cached":true' "$tmp/warm.env"
# `trace_path` selects nothing: the streaming request is a new job
# with the same payload.
stream_req='{"job":"campaign","attack":"dpa","n":150,"seed":1,"key":46,"trace_path":"streaming"}'
cargo run --release --offline -p secflow -- submit --socket "$tmp/serve.sock" \
    --json "$stream_req" > "$tmp/stream.out" 2> "$tmp/stream.env"
cmp tests/golden/serve_campaign_smoke.json "$tmp/stream.out"
grep -q '"cached":false' "$tmp/stream.env"
cargo run --release --offline -p secflow -- submit --socket "$tmp/serve.sock" --shutdown \
    > /dev/null
wait "$serve_pid"

echo "== tier-1: benchmark build and smoke (secbench: every workload, untraced and traced) =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "tier-1 gate: OK"
