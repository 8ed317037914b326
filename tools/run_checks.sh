#!/usr/bin/env bash
# Full local verification: build + test the Release config, the
# Debug + ASan/UBSan config (PHOEBE_SANITIZE=ON), and a TSan config
# (PHOEBE_SANITIZE=thread) running the parallel fleet tests. Mirrors
# .github/workflows/ci.yml.
#
# Usage: tools/run_checks.sh [extra ctest args...]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1" name="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "=== [$name] build ==="
  cmake --build "$ROOT/$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS" "${EXTRA_CTEST_ARGS[@]}")
}

EXTRA_CTEST_ARGS=("$@")

run_config build-release "release" -DCMAKE_BUILD_TYPE=Release

# Fail fast on any sanitizer report instead of continuing.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
run_config build-asan "asan+ubsan" -DCMAKE_BUILD_TYPE=Debug -DPHOEBE_SANITIZE=ON

# TSan over the concurrent paths: the thread-pool tests, the parallel
# fleet driver (which exercises the const-after-Train pipeline invariant
# across worker threads), the metrics registry (concurrent lock-free
# updates), the metrics-on fleet byte-neutrality suite, and the serve
# daemon's client/reload races (readers, workers, and hot bundle swaps on
# live traffic), the lifecycle determinism suite (full retrain/promote
# loops at 4 decision threads), and the per-worker decide-scratch arenas
# (FleetScratch: warm-arena reuse across threads must stay byte-neutral),
# and the A/B harness (FleetAb: one fleet driver per arm over the same day
# must stay byte-identical across thread counts), and the scenario
# determinism matrix (ScenarioDeterminism: every hostile-workload preset's
# fleet reports across threads x cache x shards).
# The full suite under TSan is too slow for a local gate, and the
# serial-only tests cannot race by construction.
export TSAN_OPTIONS="halt_on_error=1"
EXTRA_CTEST_ARGS=(-R "ThreadPool|FleetParallel|FleetFixture|ObsRegistry|FleetMetrics|ServeConcurrency|LifecycleDeterminism|FleetScratch|FleetAb|ScenarioDeterminism" "$@")
run_config build-tsan "tsan" -DCMAKE_BUILD_TYPE=Debug -DPHOEBE_SANITIZE=thread

echo "All checks passed (release + asan/ubsan + tsan fleet tests)."
