#!/usr/bin/env bash
# Decision-path benchmark gate: times the sublinear decision path
# (CacheConfig::decision_index — inverted postings, ordered eviction
# index, spec memo) against the naive O(images) scans it replaces and
# records the result in BENCH_decision.json at the repo root.
#
#   $ scripts/bench_decision.sh [build-dir]
#
# Two measurements:
#   1. micro_ops BM_FindSuperset_{Index,Scan,Adaptive},
#      BM_EvictVictim_{Index,Scan}, BM_MemoHit and BM_SubsetWordEarlyExit
#      at 10 / 100 / 1k / 10k images, plus BM_MemoHit_ServeCatalog (the
#      head node's hot shape: 1500 packages, ~173 ids per spec)
#      (google-benchmark JSON);
#   2. fig5_single_run wall clock with LANDLORD_DECISION_INDEX=1 vs =0
#      (same seed: placements are bit-identical, only the clock moves).
#
# Every micro runs 5 repetitions in randomly interleaved order and the
# gates compare medians. Single samples were too noisy to gate on: at
# >= 1k images Adaptive and Index run the same probe code, yet one
# sample each failed the 1.15x bound about 3 runs in 8.
#
# Exit status is non-zero if
#   * the pure indexed path is slower than the scan at >= 1000 images, or
#   * the adaptive path (stock CacheConfig: scan below scan_cutover,
#     postings probe above) loses to the better pure path at ANY size by
#     more than the small-N noise tolerance — this is the regime where
#     the raw index loses to the scan (0.63x at 100 images before the
#     cutover existed), so the small sizes are gated too.
# tier1.sh stage 5 runs this on every change.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

MICRO="$BUILD/bench/micro_ops"
FIG5="$BUILD/bench/fig5_single_run"
for bin in "$MICRO" "$FIG5"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_decision: missing $bin (build the bench targets first)" >&2
    exit 1
  fi
done

MICRO_JSON="$BUILD/bench_decision_micro.json"
"$MICRO" \
  --benchmark_filter='BM_(FindSuperset|EvictVictim|MemoHit|SubsetWordEarlyExit|Kernel_|FusedOrCount|JaccardDistance|SubsetCheck)' \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json >"$MICRO_JSON"

# Which set-operation backend the kernels dispatched to on this machine
# (recorded in the JSON so numbers are comparable across hosts).
SIMD_BACKEND="avx2"
if [[ "${LANDLORD_NO_SIMD:-0}" == "1" ]] || ! grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  SIMD_BACKEND="portable"
fi

# fig5 end-to-end wall clock, index on vs off (seconds; small jobs count
# keeps the gate quick — the micros carry the scaling story).
FIG5_JOBS="${LANDLORD_JOBS:-300}"
fig5_seconds() {
  local knob="$1"
  local start end
  start=$(date +%s.%N)
  LANDLORD_DECISION_INDEX="$knob" LANDLORD_JOBS="$FIG5_JOBS" \
    "$FIG5" >/dev/null
  end=$(date +%s.%N)
  echo "$start $end" | awk '{printf "%.3f", $2 - $1}'
}
FIG5_ON=$(fig5_seconds 1)
FIG5_OFF=$(fig5_seconds 0)

# Memo-hit latency ceiling (ns): the steady-state "same job
# resubmitted" fast path must stay flat. Overridable for slow hosts.
MEMO_HIT_MAX_NS="${LANDLORD_MEMO_HIT_MAX_NS:-1200}"

MICRO_JSON="$MICRO_JSON" FIG5_ON="$FIG5_ON" FIG5_OFF="$FIG5_OFF" \
FIG5_JOBS="$FIG5_JOBS" SIMD_BACKEND="$SIMD_BACKEND" \
MEMO_HIT_MAX_NS="$MEMO_HIT_MAX_NS" python3 - <<'EOF'
import json, os, sys

with open(os.environ["MICRO_JSON"]) as f:
    micro = json.load(f)

times = {}  # (name, images) -> median ns over the repetitions
for bench in micro["benchmarks"]:
    if bench.get("aggregate_name") != "median":
        continue
    name, _, arg = bench["run_name"].partition("/")
    times[(name, int(arg) if arg else 0)] = bench["real_time"]

sizes = [10, 100, 1000, 10000]
memo_sizes = [100, 1000, 10000]
pairs = [("find_superset", "BM_FindSuperset"), ("evict_victim", "BM_EvictVictim")]
# The adaptive path is two scans racing at small N: allow scheduler noise
# there, be strict once the index should have taken over.
SMALL_N_TOLERANCE = 1.5
out = {
    "bench": "decision_index",
    "gate": ("indexed must beat scan at >= 1000 images; adaptive (stock "
             "scan_cutover) must not lose to min(index, scan) at any size"),
    "fig5": {
        "jobs": int(os.environ["FIG5_JOBS"]),
        "indexed_seconds": float(os.environ["FIG5_ON"]),
        "scan_seconds": float(os.environ["FIG5_OFF"]),
    },
    "memo_hit_ns": {
        **{str(n): times[("BM_MemoHit", n)] for n in memo_sizes},
        "serve_catalog": times[("BM_MemoHit_ServeCatalog", 0)],
    },
    "subset_word_early_exit_ns": {
        str(arg): t for (name, arg), t in times.items()
        if name == "BM_SubsetWordEarlyExit"
    },
    # Raw word-loop cost over the full 9,660-package universe, per
    # backend (portable is the retained scalar oracle; active is what
    # DynamicBitset dispatched to on this host).
    "simd_backend": os.environ["SIMD_BACKEND"],
    "kernel_ns": {
        kernel: {
            "portable": times[("BM_Kernel_Portable", arg)],
            "active": times[("BM_Kernel_Active", arg)],
        }
        for arg, kernel in enumerate(
            ["intersection_count", "union_count", "subset_of", "popcount"])
    },
    "fused_or_count_ns": {
        "two_pass": times[("BM_FusedOrCount", 0)],
        "fused": times[("BM_FusedOrCount", 1)],
    },
    "jaccard_distance_ns": {
        str(n): times[("BM_JaccardDistance", n)] for n in (10, 100, 1000)
    },
    "subset_check_ns": {
        str(n): times[("BM_SubsetCheck", n)] for n in (100, 1000)
    },
}

failures = []

# Memo-hit latency ceiling: the flat fast path must stay flat. The
# ceiling is loose (machine variance, 1-core CI hosts) and overridable
# via LANDLORD_MEMO_HIT_MAX_NS; the point is catching a path that
# regressed to re-deciding, not a few nanoseconds of drift.
memo_hit_max = float(os.environ["MEMO_HIT_MAX_NS"])
out["memo_hit_max_ns"] = memo_hit_max
for case, got in out["memo_hit_ns"].items():
    if got > memo_hit_max:
        failures.append(
            f"BM_MemoHit at {case}: {got:.0f} ns > ceiling "
            f"{memo_hit_max:.0f} ns (LANDLORD_MEMO_HIT_MAX_NS to override)")

for key, prefix in pairs:
    section = {}
    for n in sizes:
        indexed = times[(f"{prefix}_Index", n)]
        scan = times[(f"{prefix}_Scan", n)]
        section[str(n)] = {
            "indexed_ns": indexed,
            "scan_ns": scan,
            "speedup": round(scan / indexed, 2) if indexed > 0 else None,
        }
        if key == "find_superset":
            adaptive = times[(f"{prefix}_Adaptive", n)]
            best = min(indexed, scan)
            section[str(n)]["adaptive_ns"] = adaptive
            section[str(n)]["adaptive_vs_best"] = (
                round(adaptive / best, 2) if best > 0 else None)
            tolerance = SMALL_N_TOLERANCE if n < 1000 else 1.15
            if adaptive > best * tolerance:
                failures.append(
                    f"{prefix}_Adaptive at {n} images: {adaptive:.0f} ns > "
                    f"{tolerance}x best pure path {best:.0f} ns "
                    "(scan_cutover is mis-tuned)")
        if n >= 1000 and indexed > scan:
            failures.append(
                f"{prefix} at {n} images: indexed {indexed:.0f} ns > "
                f"scan {scan:.0f} ns")
    out[key] = section

with open("BENCH_decision.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for key, _ in pairs:
    for n in sizes:
        row = out[key][str(n)]
        adaptive = (f"  adaptive {row['adaptive_ns']:>10.1f} ns"
                    if "adaptive_ns" in row else "")
        print(f"{key:>14} @{n:>6}: indexed {row['indexed_ns']:>10.1f} ns  "
              f"scan {row['scan_ns']:>12.1f} ns  speedup {row['speedup']}x"
              f"{adaptive}")
print(f"          fig5 @{out['fig5']['jobs']} jobs: "
      f"indexed {out['fig5']['indexed_seconds']}s  "
      f"scan {out['fig5']['scan_seconds']}s")
print(f"          simd backend: {out['simd_backend']}")
for kernel, row in out["kernel_ns"].items():
    speedup = row["portable"] / row["active"] if row["active"] > 0 else 0
    print(f"{kernel:>20}: portable {row['portable']:>7.1f} ns  "
          f"active {row['active']:>7.1f} ns  ({speedup:.2f}x)")
for case, got in out["memo_hit_ns"].items():
    print(f"   memo_hit @{case:>6}: {got:>7.1f} ns  "
          f"(ceiling {memo_hit_max:.0f} ns)")

if failures:
    print("bench_decision: PERF REGRESSION", file=sys.stderr)
    for failure in failures:
        print("  " + failure, file=sys.stderr)
    sys.exit(1)
print("bench_decision: gate passed (BENCH_decision.json written)")
EOF
