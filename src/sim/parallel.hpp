// Multi-threaded replay driver: one workload stream, K worker threads,
// one ShardedCache.
//
// A distributed HTC head node takes submissions from many schedulers at
// once (§V: LANDLORD sits in the submission path of a batch or pilot-job
// system). This driver models that: the deterministic workload stream is
// dealt round-robin across K threads (thread t replays indices t, t+K,
// t+2K, ...) which start together behind a barrier and hammer a shared
// core::ShardedCache. With threads = 1 the replay order is exactly the
// sequential stream, so run_parallel(threads=1) is the bit-for-bit
// equivalence twin of run_simulation for any shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "landlord/sharded.hpp"
#include "pkg/repository.hpp"
#include "sim/workers.hpp"
#include "sim/workload.hpp"

namespace landlord::sim {

struct ParallelConfig {
  core::CacheConfig cache;  ///< cache.shards sets the shard count
  WorkloadConfig workload;
  std::uint64_t seed = 1;
  std::uint32_t threads = 1;  ///< worker threads replaying the stream
  /// Optional observability bundle attached to the run's ShardedCache
  /// (non-owning); per-shard gauges are published before returning.
  obs::Observability* obs = nullptr;
  /// Ship every placed image to a shared WorkerPool (dispatch() is
  /// mutex-guarded, so the replay threads hammer one pool the way one
  /// cluster's jobs hammer one transfer plane).
  bool dispatch = false;
  WorkerPoolConfig workers;
  /// Worker-churn / transfer-cut schedule for the pool (empty = fault
  /// free). Verdicts are per-occurrence, so a threads==1 run replays a
  /// plan bit-for-bit; multi-threaded runs stay invariant-preserving.
  fault::FaultPlan faults;
  fault::BackoffPolicy backoff;
};

/// Everything the concurrency figures need from one run.
struct ParallelResult {
  core::CacheCounters counters;
  util::Bytes final_total_bytes = 0;
  util::Bytes final_unique_bytes = 0;
  double cache_efficiency = 1.0;      ///< unique/total at end of run
  double container_efficiency = 1.0;  ///< mean requested/used over requests
  std::uint64_t final_image_count = 0;
  double wall_seconds = 0.0;          ///< barrier release -> last join
  double requests_per_second = 0.0;
  std::vector<core::ShardStats> shards;  ///< per-shard occupancy/contention
  /// Dispatch-plane tallies (zero unless ParallelConfig::dispatch).
  /// `dispatches` can trail `counters.requests`: a concurrently evicted
  /// image makes the post-decision find() miss, and that job is not
  /// shipped.
  util::Bytes transferred_bytes = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t transfers = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t stale_refetches = 0;
  DispatchCounters dispatch;
};

/// Generates the workload from (seed) — identical to run_simulation's for
/// the same config — and replays it through a fresh ShardedCache from
/// `threads` workers. Deterministic in `config` when threads == 1;
/// schedule-dependent (but invariant-preserving) otherwise.
[[nodiscard]] ParallelResult run_parallel(const pkg::Repository& repo,
                                          const ParallelConfig& config);

}  // namespace landlord::sim
