#!/usr/bin/env bash
# Tier-1 verification entrypoint: configure + build + ctest.
#
# Usage:
#   scripts/check.sh                 # plain RelWithDebInfo build + all tests
#   scripts/check.sh --sanitize      # additional ASan/UBSan build + all tests
#   scripts/check.sh --tsan          # additional ThreadSanitizer build of the
#                                    # suites that run code on several threads
#                                    # (harness, determinism, depgraph,
#                                    # workloads)
#   scripts/check.sh --label unit    # run only suites with the given CTest label
#   scripts/check.sh --bench         # additionally smoke-run every bench binary
#                                    # (quick traces) and regenerate the
#                                    # BENCH_*.json trajectory records
#   scripts/check.sh --diff          # --bench, then nexus-perfdiff each
#                                    # regenerated BENCH_*.json against the
#                                    # pre-run copy (nonzero on regression)
#   scripts/check.sh --trace         # additionally export a fig9 Chrome
#                                    # trace and validate it with
#                                    # scripts/validate_trace.py
#   scripts/check.sh --prof          # additionally run nexus-prof on the
#                                    # fig9 workload, validate the profile
#                                    # with scripts/validate_profile.py, and
#                                    # smoke the attached-overhead bound
#
# Exit code is nonzero if any configure, build, test, smoke, or diff step
# fails.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=0
TSAN=0
BENCH=0
DIFF=0
TRACE=0
PROF=0
LABEL=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --bench) BENCH=1 ;;
    --diff) BENCH=1; DIFF=1 ;;
    --trace) TRACE=1 ;;
    --prof) PROF=1 ;;
    --label) LABEL="${2:?--label needs an argument (unit|integration)}"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

BENCH_RECORDS=(BENCH_table2.json BENCH_fig7.json BENCH_fig8.json BENCH_fig9.json
               BENCH_topology.json BENCH_placement.json BENCH_simspeed.json
               BENCH_serving.json BENCH_tenancy.json)

JOBS="$(nproc 2>/dev/null || echo 2)"
CTEST_ARGS=(--output-on-failure --no-tests=error -j "${JOBS}")
if [[ -n "${LABEL}" ]]; then
  CTEST_ARGS+=(-L "${LABEL}")
fi

run_pass() {
  local dir="$1"; shift
  echo "==> configure: ${dir} ($*)"
  cmake -B "${dir}" -S . "$@"
  echo "==> build: ${dir}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> ctest: ${dir}"
  ctest --test-dir "${dir}" "${CTEST_ARGS[@]}"
}

# Pin the canonical options so a developer's cached -D overrides (e.g.
# NEXUS_WERROR=OFF while iterating) can't silently weaken the tier-1 gate.
run_pass build -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNEXUS_SANITIZE=OFF -DNEXUS_WERROR=ON

echo "==> docs link check"
scripts/docs_link_check.sh

if [[ "${SANITIZE}" -eq 1 ]]; then
  run_pass build-asan -DNEXUS_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug
fi

if [[ "${TSAN}" -eq 1 ]]; then
  # harness::sweep runs its points on worker threads, and workload
  # generators may be called from several threads. ThreadSanitizer needs
  # every linked TU instrumented, so the flag goes through CMAKE_CXX_FLAGS
  # into a build dir of its own; only the multi-threaded suites run.
  TSAN_DIR=build-tsan
  TSAN_SUITES=(harness_test determinism_test depgraph_test workloads_test)
  echo "==> configure: ${TSAN_DIR} (-fsanitize=thread)"
  cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNEXUS_SANITIZE=OFF -DNEXUS_WERROR=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  echo "==> build: ${TSAN_DIR}"
  cmake --build "${TSAN_DIR}" -j "${JOBS}" --target "${TSAN_SUITES[@]}"
  for t in "${TSAN_SUITES[@]}"; do
    echo "==> tsan: ${t}"
    TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" "${TSAN_DIR}/tests/${t}" --gtest_brief=1
  done
fi

if [[ "${BENCH}" -eq 1 ]]; then
  # With --diff, stash the pre-run (normally: committed) record files so the
  # regenerated ones can be compared against them afterwards.
  BASE_DIR=build/perfdiff-baseline
  if [[ "${DIFF}" -eq 1 ]]; then
    rm -rf "${BASE_DIR}"
    mkdir -p "${BASE_DIR}"
    for f in "${BENCH_RECORDS[@]}"; do
      # Plain `[[ -f ]] &&` would fail the errexit shell when the *last*
      # record is a brand-new file with no committed baseline yet.
      if [[ -f "${f}" ]]; then cp "${f}" "${BASE_DIR}/${f}"; fi
    done
  fi

  # Smoke-run every bench/example binary on its quickest configuration so
  # bench bit-rot fails here instead of lingering until someone reproduces a
  # paper figure. Output is discarded; a nonzero exit fails the check.
  echo "==> bench smoke (quick traces)"
  B=build/bench
  E=build/examples
  smoke() { echo "--> $*"; "$@" >/dev/null; }
  smoke "${B}/micro_5tasks"
  smoke "${B}/table1_utilization"
  smoke "${B}/table3_gaussian" --skip-3000
  smoke "${B}/table4_max_speedup" --quick
  smoke "${B}/fig7_h264_tg_scaling" --quick
  smoke "${B}/fig8_starbench" --quick
  smoke "${B}/fig9_gaussian_speedup" --quick
  smoke "${B}/ablation_arbiter" --quick
  smoke "${B}/ablation_distribution" --quick
  smoke "${B}/ablation_placement" --quick
  smoke "${B}/ablation_pool_window" --quick
  smoke "${B}/ablation_serving" --quick
  smoke "${B}/ablation_tenancy" --quick
  smoke "${B}/ablation_topology" --quick
  smoke "${B}/multiapp" --quick
  smoke "${B}/power_energy"
  smoke "${E}/metrics_report" --workload gaussian-250 --cores 8
  # The machine-readable trajectory records: Table II plus the fig7/8/9
  # speedup benches with sampled sim-time timelines attached.
  smoke "${B}/table2_workloads" --json BENCH_table2.json
  smoke "${B}/fig7_h264_tg_scaling" --quick --json BENCH_fig7.json --timeline
  smoke "${B}/fig8_starbench" --quick --json BENCH_fig8.json --timeline
  smoke "${B}/fig9_gaussian_speedup" --quick --json BENCH_fig9.json --timeline
  smoke "${B}/ablation_topology" --quick --json BENCH_topology.json --timeline
  smoke "${B}/ablation_placement" --quick --json BENCH_placement.json --timeline
  smoke "${B}/simspeed" --prof --json BENCH_simspeed.json
  smoke "${B}/ablation_serving" --quick --json BENCH_serving.json
  smoke "${B}/ablation_tenancy" --quick --json BENCH_tenancy.json
  echo "==> wrote ${BENCH_RECORDS[*]}"

  if [[ "${DIFF}" -eq 1 ]]; then
    echo "==> perfdiff vs pre-run baselines"
    for f in "${BENCH_RECORDS[@]}"; do
      if [[ -f "${BASE_DIR}/${f}" ]]; then
        echo "--> nexus-perfdiff ${f}"
        build/tools/nexus-perfdiff --quiet "${BASE_DIR}/${f}" "${f}"
      else
        echo "--> ${f}: no baseline to diff against (new record file)"
      fi
    done
  fi
fi

if [[ "${TRACE}" -eq 1 ]]; then
  # Export one representative lifecycle trace and validate it: JSON
  # well-formed, events sorted, async phases balanced, and the embedded
  # critical-path attribution tiling [0, makespan] exactly.
  echo "==> trace smoke (fig9 Chrome trace export + validation)"
  build/bench/fig9_gaussian_speedup --trace build/trace_fig9.json
  python3 scripts/validate_trace.py build/trace_fig9.json
fi

if [[ "${PROF}" -eq 1 ]]; then
  # Profile the fig9 workload (the finest-grained run the paper has) and
  # validate the frozen tree's reconciliation invariants: self >= 0
  # everywhere, total == self + children exactly, and the root total within
  # tolerance of the independently measured wall time.
  echo "==> profile smoke (nexus-prof on fig9 + validation)"
  build/tools/nexus-prof --workloads=gaussian-250 --managers='nexus#-2TG' \
    --topologies=ideal --cores=8 --json build/profile_fig9.json \
    --collapsed build/profile_fig9.collapsed >/dev/null
  python3 scripts/validate_profile.py build/profile_fig9.json
  # Attached-overhead smoke. Per-scope instrumentation costs two clock
  # reads (~30 ns here) against ~50 ns/event of simulated work, so an
  # attached run lands near 2x wall on this finest-grained workload; the
  # generous bound is there to catch pathological regressions (a syscall or
  # allocation sneaking onto the hot path), not to pretend attribution is
  # free. Detached overhead is the contract that must stay at zero, and
  # that one is gated bit-exactly by profiler_test.
  echo "==> profiler attached-overhead smoke (simspeed --prof)"
  build/bench/simspeed --events=200000 --inflight=100000 --workloads=none \
    --prof --max-overhead-pct=400 >/dev/null
fi

echo "==> all checks passed"
