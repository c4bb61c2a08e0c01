// Worker-node transfer model.
//
// The paper's setting (§V): the head node keeps the image cache; "each
// compute node has scratch space available for storing container images
// locally, but ... the collection of all container images may be too
// large to store on every worker node". Every job therefore ships its
// image to the worker it lands on — unless that worker already holds an
// identical *version* of the image (merging rewrites an image, so stale
// worker copies must be re-transferred).
//
// This model quantifies the cost container bloat imposes downstream:
// high α produces fat, frequently rewritten images, so workers pull more
// bytes per job — the transfer-side face of container efficiency.
//
// The pool is also the fault-tolerant half of the dispatch plane: an
// attached fault::FaultInjector can crash the scheduled worker
// (FaultOp::kWorkerCrash — scratch copies lost, rejoins cold after
// WorkerPoolConfig::crash_downtime dispatches) or cut a transfer
// mid-stream (kWorkerTransfer — retried under BackoffPolicy with
// byte-granular resume). Every verdict is a pure function of the plan
// and the per-class occurrence index, so a churn schedule replays
// bit-for-bit (tests/sim/dispatch_fault_test.cpp). A job always
// completes: no healthy worker, or a transfer whose retry budget is
// exhausted, degrades to a direct head-node stream (counted in
// DispatchCounters::direct_transfers), never an error or a hang.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "landlord/cache.hpp"
#include "landlord/image.hpp"
#include "landlord/stats.hpp"
#include "obs/obs.hpp"
#include "pkg/repository.hpp"
#include "spec/specification.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace landlord::sim {

enum class Scheduling : std::uint8_t {
  kRoundRobin,  ///< jobs cycle across workers
  kRandom,      ///< uniform random worker per job
};

[[nodiscard]] constexpr const char* to_string(Scheduling scheduling) noexcept {
  switch (scheduling) {
    case Scheduling::kRoundRobin: return "round-robin";
    case Scheduling::kRandom: return "random";
  }
  return "?";
}

struct WorkerPoolConfig {
  std::uint32_t workers = 16;
  util::Bytes scratch_per_worker = 50ULL * 1000 * 1000 * 1000;  // 50 GB
  Scheduling scheduling = Scheduling::kRoundRobin;
  /// Dispatches a crashed worker stays down before rejoining (cold — its
  /// scratch copies were lost at the crash).
  std::uint64_t crash_downtime = 8;
  /// Byte-granular transfer resume: a retried transfer re-sends only the
  /// bytes the cut lost. Off, every retry re-ships the image from zero.
  bool resume_transfers = true;
  /// Victim selection through the ordered (last_used, id) index. Off
  /// falls back to the O(n) scan per evicted copy — kept as the oracle
  /// for the index-vs-scan equivalence test; results are bit-identical.
  bool ordered_eviction = true;
};

/// Dispatch-plane fault telemetry, the worker-side analogue of
/// fault::DegradedCounters. Monotone over the pool's lifetime.
struct DispatchCounters {
  std::uint64_t worker_crashes = 0;   ///< kWorkerCrash faults taken
  std::uint64_t redispatches = 0;     ///< jobs moved off an unhealthy worker
  std::uint64_t cold_rejoins = 0;     ///< crashed workers back after downtime
  std::uint64_t direct_transfers = 0; ///< head-node streams (no scratch copy)
  std::uint64_t transfer_faults = 0;  ///< transfers cut mid-stream
  std::uint64_t transfer_retries = 0; ///< re-attempts after a cut
  std::uint64_t failed_transfers = 0; ///< retry budget exhausted
  util::Bytes resumed_bytes = 0;      ///< partial bytes kept across a retry
  util::Bytes reshipped_bytes = 0;    ///< partial bytes thrown away (no resume)
  double backoff_seconds = 0.0;       ///< modelled waits before retries
};

/// Tracks per-worker local image caches (LRU by bytes) and counts the
/// bytes shipped from the head-node cache to workers. dispatch() is
/// mutex-guarded so run_parallel's threads can share one pool; counter
/// accessors are safe after the dispatching threads have joined.
class WorkerPool {
 public:
  WorkerPool(WorkerPoolConfig config, util::Rng rng)
      : config_(config), rng_(rng), workers_(config.workers) {}

  /// Places one job that the head-node cache decided to serve with
  /// `image` (post-request snapshot). Returns the bytes that crossed the
  /// wire for this job (0 when the chosen worker holds the current
  /// version; more than image.bytes when faults forced re-shipping).
  util::Bytes dispatch(const core::Image& image);

  /// Attaches (or detaches, with nullptr) the fault oracle consulted for
  /// kWorkerCrash / kWorkerTransfer. The backoff jitter stream reseeds
  /// from the plan's seed, so scheduling (rng_) is untouched and a
  /// zero-fault plan stays bit-identical to no injector at all.
  void set_fault_injector(fault::FaultInjector* injector);
  void set_backoff_policy(fault::BackoffPolicy policy);

  /// Attaches (or detaches, with nullptr) an observability bundle:
  /// landlord_dispatch_* counter families plus worker-crash /
  /// transfer-fault trace events. Never changes behaviour. Non-owning.
  void set_observability(obs::Observability* observability);

  [[nodiscard]] util::Bytes transferred_bytes() const noexcept {
    return transferred_;
  }
  [[nodiscard]] std::uint64_t transfers() const noexcept { return transfers_; }
  [[nodiscard]] std::uint64_t local_hits() const noexcept { return local_hits_; }
  [[nodiscard]] std::uint64_t stale_refetches() const noexcept {
    return stale_refetches_;
  }
  [[nodiscard]] std::uint64_t dispatches() const noexcept { return clock_; }
  [[nodiscard]] const DispatchCounters& dispatch_counters() const noexcept {
    return dispatch_;
  }
  /// Workers currently up (crashed workers whose downtime has elapsed
  /// count as healthy — they rejoin at their next dispatch).
  [[nodiscard]] std::uint32_t healthy_workers() const noexcept;

 private:
  struct LocalCopy {
    std::uint32_t version = 0;
    util::Bytes bytes = 0;
    std::uint64_t last_used = 0;
  };
  struct Worker {
    std::unordered_map<std::uint64_t, LocalCopy> copies;  // image id -> copy
    /// LRU order over copies: (last_used, image id), begin() == victim.
    /// last_used values are unique per worker (the pool clock ticks once
    /// per dispatch and touches at most one copy), so the id tie-break
    /// never actually fires — it keeps the order total regardless.
    std::set<std::pair<std::uint64_t, std::uint64_t>> order;
    util::Bytes used = 0;
    /// Clock tick at which a crashed worker rejoins; 0 == healthy. The
    /// worker is down while clock_ < down_until.
    std::uint64_t down_until = 0;
  };

  [[nodiscard]] bool worker_up(const Worker& worker) const noexcept {
    return worker.down_until == 0 || clock_ >= worker.down_until;
  }
  void crash_worker(std::uint32_t index);
  /// Ships `total` bytes through the kWorkerTransfer fault gauntlet.
  /// Returns wire bytes; `completed` is false when the retry budget ran
  /// out (the partial bytes were wasted and the job needs a fallback).
  util::Bytes ship(util::Bytes total, bool& completed);
  void evict_worker(Worker& worker, util::Bytes needed);

  WorkerPoolConfig config_;
  util::Rng rng_;
  std::vector<Worker> workers_;
  std::uint32_t next_worker_ = 0;
  std::uint64_t clock_ = 0;
  util::Bytes transferred_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t local_hits_ = 0;
  std::uint64_t stale_refetches_ = 0;
  DispatchCounters dispatch_;

  std::mutex mutex_;
  fault::FaultInjector* injector_ = nullptr;
  fault::BackoffPolicy backoff_;
  util::Rng backoff_rng_{0};

  /// Metric handles resolved at set_observability; null ⇒ no-op.
  struct Hooks {
    obs::Counter* transfers = nullptr;
    obs::Counter* transferred_bytes = nullptr;
    obs::Counter* local_hits = nullptr;
    obs::Counter* stale_refetches = nullptr;
    obs::Counter* worker_crashes = nullptr;
    obs::Counter* redispatches = nullptr;
    obs::Counter* cold_rejoins = nullptr;
    obs::Counter* direct_transfers = nullptr;
    obs::Counter* transfer_faults = nullptr;
    obs::Counter* transfer_retries = nullptr;
    obs::Counter* failed_transfers = nullptr;
    obs::Counter* resumed_bytes = nullptr;
    obs::Counter* reshipped_bytes = nullptr;
    obs::Gauge* backoff_seconds = nullptr;
    obs::EventTrace* trace = nullptr;
  };
  Hooks hooks_;
};

/// Fault wiring for a run_with_workers replay: the plan drives one
/// injector shared by the pool (kWorkerCrash/kWorkerTransfer streams).
struct DispatchFaultConfig {
  fault::FaultPlan plan;
  fault::BackoffPolicy backoff;
};

/// One end-to-end run: head-node LANDLORD cache + worker pool over a
/// request stream.
struct TransferResult {
  core::CacheCounters head_counters;
  util::Bytes transferred_bytes = 0;
  std::uint64_t transfers = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t stale_refetches = 0;
  util::Bytes requested_bytes = 0;
  std::uint64_t dispatches = 0;
  DispatchCounters dispatch;
};

[[nodiscard]] TransferResult run_with_workers(
    const pkg::Repository& repo, const core::CacheConfig& cache_config,
    const WorkerPoolConfig& pool_config,
    const std::vector<spec::Specification>& specs,
    const std::vector<std::uint32_t>& stream, std::uint64_t seed);

/// Fault-wired variant: replays the same stream with worker churn and
/// transfer cuts from `faults`. The replay is single-threaded, so every
/// cache_config.shards makes the same decisions (the dispatch-counter
/// equivalence test relies on this). An empty plan makes this
/// bit-identical to the overload above.
[[nodiscard]] TransferResult run_with_workers(
    const pkg::Repository& repo, const core::CacheConfig& cache_config,
    const WorkerPoolConfig& pool_config,
    const std::vector<spec::Specification>& specs,
    const std::vector<std::uint32_t>& stream, std::uint64_t seed,
    const DispatchFaultConfig& faults, obs::Observability* obs = nullptr);

}  // namespace landlord::sim
