#!/bin/bash
# Regenerates every figure of the paper plus the ablations.
# Scales are chosen to finish on a 2-core laptop in ~20 minutes; raise
# PQSDA_USERS / PQSDA_TESTS toward the paper's sizes on bigger machines.
set -u
cd "$(dirname "$0")"
B=build/bench
run() { echo "===== $* ====="; env "${@:2}" timeout 1200 "$B/$1"; echo; }

# Verify step: race-check the concurrent layers — the observability layer
# (atomic counters, thread-local stage accumulators, the request record), the
# serving layer (ThreadPool, SuggestBatch, the sharded result cache), the
# live telemetry surface (sliding windows, the HTTP exporter, the request
# log), the overload-hardening path (CancelToken, FaultInjector, the
# degradation ladder under a mid-flight cancellation storm), the
# live-ingestion path (snapshot publication/reclaim racing in-flight
# requests), the stage profiler (thread-local accumulators folding into the
# shared epoch ring), the explain layer (thread-local sinks, the /explainz
# ring, replay racing rebuilds), the delta-aware cache (validation
# partition, the LRU shards and the staleness oracle under concurrent churn),
# the engine's stats path (integration_test) and the SIMD kernel dispatch
# (kernel_equivalence_test). The suites are the ctests labelled `sanitize`
# (tests/CMakeLists.txt), run under ThreadSanitizer before spending 20
# minutes on figures. Skip with PQSDA_TSAN_VERIFY=0.
if [ "${PQSDA_TSAN_VERIFY:-1}" = "1" ]; then
  echo "===== verify: ctest -L sanitize under ThreadSanitizer ====="
  cmake -B build-tsan -S . -DPQSDA_ENABLE_TSAN=ON >/dev/null &&
    cmake --build build-tsan --target sanitize_tests -j >/dev/null &&
    (cd build-tsan && ctest -L sanitize --output-on-failure --timeout 600) || {
      echo "TSAN verify failed" >&2
      exit 1
    }
  echo
fi

# Lifetime half of the verify: AddressSanitizer (+UBSan) over the same
# `sanitize` suites — a request serving out of generation g while g+1 swaps
# in must never touch freed memory. Skip with PQSDA_ASAN_VERIFY=0.
if [ "${PQSDA_ASAN_VERIFY:-1}" = "1" ]; then
  echo "===== verify: ctest -L sanitize under AddressSanitizer ====="
  cmake -B build-asan -S . -DPQSDA_ENABLE_ASAN=ON >/dev/null &&
    cmake --build build-asan --target sanitize_tests -j >/dev/null &&
    (cd build-asan && ctest -L sanitize --output-on-failure --timeout 600) || {
      echo "ASan verify failed" >&2
      exit 1
    }
  echo
fi

run fig3_diversity_relevance PQSDA_USERS=200 PQSDA_TESTS=120
run fig4_perplexity PQSDA_USERS=250 PQSDA_TOPICS=16 PQSDA_GIBBS=80
run fig5_personalized PQSDA_USERS=200 PQSDA_MAX_EVAL=300 PQSDA_TOPICS=32 PQSDA_GIBBS=60
run fig6_hpr PQSDA_USERS=200 PQSDA_MAX_EVAL=300 PQSDA_TOPICS=32 PQSDA_GIBBS=60
run fig7_efficiency PQSDA_TESTS=25
run ablation_representation PQSDA_USERS=150 PQSDA_TESTS=100
run ablation_context_decay PQSDA_USERS=150 PQSDA_TESTS=120
run ablation_rank_aggregation PQSDA_USERS=150 PQSDA_MAX_EVAL=250 PQSDA_TOPICS=32 PQSDA_GIBBS=60
run ablation_upm PQSDA_USERS=150 PQSDA_GIBBS=50
run bench_serving PQSDA_USERS=150 PQSDA_TESTS=150
# The stage profiler must be free on the request path: bench_serving just
# measured p95 with the profiler off vs on in interleaved pairs and wrote the
# verdict to BENCH_profile.json. The run fails when the bootstrap 95% lower
# bound of the median paired overhead is above 2% (plus a 50us floor).
if ! grep -q '"gate_pass": true' BENCH_profile.json 2>/dev/null; then
  echo "profiling-overhead gate FAILED (see BENCH_profile.json)" >&2
  exit 1
fi
# Same contract for the explain layer: bench_serving measured the storm p95
# with explain disabled right after a placebo burst vs right after a burst
# that armed the subsystem, in interleaved pairs, and wrote the verdict to
# BENCH_explain.json. The same rule fails the run above 1% (plus 50us and
# the host's measured noise floor).
if ! grep -q '"gate_pass": true' BENCH_explain.json 2>/dev/null; then
  echo "explain-overhead gate FAILED (see BENCH_explain.json)" >&2
  exit 1
fi
# Delta-aware cache retention: per-component validation must retain >= 1.3x
# the hits of whole-generation keying across the same swap-churn schedule.
if ! grep -q '"gate_pass": true' BENCH_cache.json 2>/dev/null; then
  echo "delta-aware cache retention gate FAILED (see BENCH_cache.json)" >&2
  exit 1
fi
# The kernel numbers below are only worth publishing if the vectorized
# kernels actually compute what the scalar references compute — run the
# equivalence suite unconditionally (it is cheap) before timing anything.
echo "===== verify: kernel equivalence (vectorized vs scalar reference) ====="
timeout 600 build/tests/kernel_equivalence_test || {
  echo "kernel equivalence FAILED — not running kernel benchmarks" >&2
  exit 1
}
echo
echo "===== micro_kernels ====="
PQSDA_USERS=120 timeout 900 "$B/micro_kernels" --benchmark_min_time=0.2
# The tentpole's promise, enforced: the packed-operator Jacobi row sweep
# must be at least 2x the legacy CSR sweep, and the SIMD serving pass must
# return bitwise-identical suggestion lists to the scalar pass.
if ! grep -q '"jacobi_gate_pass": true' BENCH_kernels.json 2>/dev/null; then
  echo "jacobi row-sweep speedup gate FAILED (see BENCH_kernels.json)" >&2
  exit 1
fi
if ! grep -q '"results_bitwise_equal": true' BENCH_kernels.json 2>/dev/null; then
  echo "SIMD-vs-scalar result equality gate FAILED (see BENCH_kernels.json)" >&2
  exit 1
fi
