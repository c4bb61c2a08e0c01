#!/usr/bin/env bash
# Tier-1 verification: the full test suite, a build of the head-node
# benchmark (headbench/) with its selftest, the concurrency suite again
# under ThreadSanitizer (catches data races the plain run cannot), the
# fault/chaos and dispatch-plane suites again under both TSan and
# ASan+UBSan (catches the races and memory bugs torn snapshots, worker
# churn, and degradation paths are most likely to hide), the
# metrics gate: a short instrumented sim whose Prometheus snapshot must
# parse and reconcile exactly with the decision-layer counters, and the
# decision-index gate: the index-vs-scan equivalence oracle under ASan
# plus the bench_decision.sh perf regression check, and the CAS gate:
# bench_cas.sh's delta-vs-full merge-I/O regression check.
#
#   $ scripts/tier1.sh [jobs]
#
# Exit status is non-zero if any stage fails.
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== stage 1: release build + full ctest =="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# Every spec is decided exactly once, however submits interleave with
# evictions; repeat the parallel-clients count check so a double count
# cannot come back as a rare flake.
ctest --test-dir build -R ServeConcurrency --repeat until-fail:20 --output-on-failure

echo "== stage 1b: SIMD fallback path — simd/perf suites with LANDLORD_NO_SIMD=1 =="
# Every DynamicBitset kernel dispatches between the AVX2 path and the
# portable scalar fallback at first use; stage 1 exercised whichever the
# CPU selected. Re-run the differential suite and the index-vs-scan
# equivalence oracle with the fallback pinned, so BOTH code paths prove
# bit-identical placements on every tier-1 run.
LANDLORD_NO_SIMD=1 ctest --test-dir build -L 'simd|perf' --output-on-failure -j "$JOBS"

echo "== stage 1c: benchmark build + selftest =="
# headbench/ is its own CMake project over src/ and calls library APIs
# (Landlord::counters(), the core::Cache alias, ...). Build it from this
# checkout and run its selftest, so a src/ change that would break the
# benchmark fails here rather than in the benchmark run.
cmake -S headbench -B build/headbench -DCMAKE_BUILD_TYPE=Release
cmake --build build/headbench --target headbench headbench_selftest -j "$JOBS"
build/headbench/headbench_selftest

echo "== stage 2: ThreadSanitizer build + concurrency-labelled tests =="
cmake -B build-tsan -S . -DLANDLORD_SANITIZE=thread \
  -DLANDLORD_BUILD_BENCH=OFF -DLANDLORD_BUILD_EXAMPLES=OFF
cmake --build build-tsan --target concurrency_tests -j "$JOBS"
ctest --test-dir build-tsan -L concurrency --output-on-failure -j "$JOBS"

echo "== stage 2b: TSan build + fault/dispatch/serve/servefault/cas chaos suites =="
# The dispatch plane locks WorkerPool::dispatch and the parallel driver
# hammers it from several threads; replaying the chaos suites under
# ThreadSanitizer catches races between churn, transfer retries, and
# the head-node decision layer that the plain run cannot. The serve
# suite adds the TCP service plane: concurrent clients, mid-storm
# graceful drain, and bounded-queue admission under saturation. The
# servefault suite adds the network-fault battery: the seeded socket
# chaos proxy, reconnecting retry clients racing the dedup window, and
# the slow-client timeout paths — all heavy cross-thread teardown. The
# cas suite adds the delta image store, whose eviction listener fires
# from the sharded cache's locked regions.
cmake --build build-tsan --target fault_tests dispatch_tests serve_tests \
  servefault_tests cas_tests -j "$JOBS"
ctest --test-dir build-tsan -L 'fault|dispatch|serve|servefault|cas' --output-on-failure -j "$JOBS"
# Re-run the serve suite with a tiny non-default pipeline depth so the
# read-side backpressure path (reader parked in acquire_pipeline while
# workers drain) is exercised under TSan, not just the wide-open default.
LANDLORD_SERVE_PIPELINE_DEPTH=3 \
  ctest --test-dir build-tsan -L serve --output-on-failure -j "$JOBS"

echo "== stage 3: ASan+UBSan build + fault/dispatch/serve/servefault/cas tests =="
# Under ASan+UBSan the serve suite doubles as the codec fuzz gate: the
# malformed-frame corpus and byte-mutation tests must draw typed decode
# errors with no over-read (including the hostile-allocation shapes: a
# huge count or payload_size must be refused before any reserve). The
# servefault suite replays the socket-chaos battery so fragmented frames
# and mid-teardown buffers cannot hide over-reads. The cas suite does
# the same for the chunk manifest codec (truncation/mutation sweeps,
# random garbage). UBSan is built with -fno-sanitize-recover=undefined
# (CMakeLists.txt), so any undefined behaviour fails the test that hit it.
cmake -B build-asan -S . -DLANDLORD_SANITIZE=address,undefined \
  -DLANDLORD_BUILD_BENCH=OFF -DLANDLORD_BUILD_EXAMPLES=OFF
cmake --build build-asan --target fault_tests dispatch_tests serve_tests \
  servefault_tests cas_tests -j "$JOBS"
ctest --test-dir build-asan -L 'fault|dispatch|serve|servefault|cas' --output-on-failure -j "$JOBS"

echo "== stage 4: metrics snapshot parse + counter/ladder reconciliation =="
# Runs an instrumented sim + crash replay, writes the exposition, then
# re-parses it and reconciles every counter family against the
# CacheCounters/DegradedCounters structs (exit != 0 on a malformed line
# or any mismatch). The obs-labelled ctest suite covers the same
# invariants in-process; this exercises the on-disk artifact end to end.
./build/examples/metrics_snapshot --jobs 80 \
  --metrics-out build/metrics_snapshot.prom \
  --trace-out build/metrics_snapshot_trace.jsonl \
  --check
test -s build/metrics_snapshot.prom
grep -q '^landlord_cache_requests_total{kind="hit"} ' build/metrics_snapshot.prom
ctest --test-dir build -L obs --output-on-failure -j "$JOBS"

echo "== stage 5: decision-index equivalence under ASan + perf gate =="
# The perf-labelled suite replays identical workloads with the sublinear
# decision path (CacheConfig::decision_index) on and off and requires
# bit-identical placements, counters, images, and snapshots — run under
# ASan+UBSan so postings/eviction-index bookkeeping bugs surface as
# memory errors, not just divergences. Then the benchmark gate times the
# indexed path against the scans and fails if it is slower at >= 1k
# images (writes BENCH_decision.json).
cmake --build build-asan --target perf_tests simd_tests -j "$JOBS"
ctest --test-dir build-asan -L 'perf|simd' --output-on-failure -j "$JOBS"
# The SIMD differential suite again under ASan with the fallback pinned:
# the portable kernels are the oracle, so they too must be clean.
LANDLORD_NO_SIMD=1 ctest --test-dir build-asan -L simd --output-on-failure -j "$JOBS"
cmake --build build --target micro_ops fig5_single_run -j "$JOBS"
# Smoke-run the hit-path micro-benchmarks (submit codec, spec rebuild,
# the server's memo-resolved decode on repeats and on all-distinct
# lists, requested-bytes sum, memo hit) so they keep building and
# running, and the id-list memo's miss cost stays a printed number.
build/bench/micro_ops \
  --benchmark_filter='EncodeBatchSubmit|DecodeBatchSubmit|ToSpecification|ServeDecode|SpecBytes|MemoHit' \
  --benchmark_min_time=0.05
scripts/bench_decision.sh build

echo "== stage 6: CAS delta-merge gate =="
# The cas-labelled suite already ran under both sanitizers (stages 2b/3);
# here the bench gate proves the headline number still holds: with
# placements pinned bit-identical by the delta oracle, delta accounting
# must write strictly fewer bytes than the full-rewrite counterfactual
# at every alpha and every store size (writes BENCH_cas.json).
cmake --build build --target ext_cas -j "$JOBS"
scripts/bench_cas.sh build

echo "tier-1: all stages passed"
