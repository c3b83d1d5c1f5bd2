#!/usr/bin/env bash
# Repo gate: formatting, static analysis, hermetic build, tests.
# Mirrors what CI should run; every step works with an empty cargo registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> tscheck static analysis (token analyzer: panic/nan/index + lock discipline + determinism)"
cargo run -q --offline -p xtask -- check --timing

echo "==> tscheck strict mode (hot paths: tdaub executor + ensemble selection, linalg work queue, window kernels, stat-model fit recursions, registries, service front end, interval/conformal layer, probabilistic metrics, chaos layer)"
cargo run -q --offline -p xtask -- check --strict

echo "==> tscheck wall-time budget (full strict pass must stay under ${TSCHECK_BUDGET_MS:=5000} ms)"
start_ms=$(date +%s%3N)
cargo run -q --offline -p xtask -- check --strict --json > /dev/null
elapsed_ms=$(( $(date +%s%3N) - start_ms ))
echo "    tscheck strict+json pass: ${elapsed_ms} ms (budget ${TSCHECK_BUDGET_MS} ms)"
if [ "${elapsed_ms}" -gt "${TSCHECK_BUDGET_MS}" ]; then
    echo "check.sh: tscheck exceeded its wall-time budget" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> chaos gauntlet in debug (lock-order sanitizer active under debug_assertions)"
cargo test -q --offline --test chaos_gauntlet

echo "==> isolation tests under --release (timing-sensitive paths)"
cargo test -q --offline --release --test tdaub_isolation

echo "==> chaos gauntlet under --release (seeded fault plans, watchdog, degradation ladder, runtime lock-order tracking, 160-plan mid-observe/mid-reselect sweep)"
cargo test -q --offline --release --test chaos_gauntlet

echo "==> online drift property suite (stationary never re-selects, shifts always trigger, serial==parallel monitor state)"
cargo test -q --offline --release --test online_drift

echo "==> tdaub bench smoke (warm starts >= 2x cold fits, fits avoided, ranking parity, warm re-selection <= 0.6x cold)"
cargo bench -q --offline -p autoai-bench --bench tdaub -- --smoke

echo "==> kernels bench smoke (vectorized kernels >= 2x naive, batched Nelder-Mead bitwise parity)"
cargo bench -q --offline -p autoai-bench --bench kernels -- --smoke

echo "check.sh: all gates passed"
