// Deterministic fault injection for the LANDLORD service paths.
//
// The paper deploys LANDLORD as a long-lived head-node service whose
// cache must survive restarts ("persistent image stores", §II/§V), yet a
// simulated run is only as trustworthy as its failure story: WAN fetches
// time out, merge rewrites die mid-write, snapshots get torn by a crash.
// This module makes failure a *modelled input*: a seeded FaultInjector,
// driven by a FaultPlan, decides — deterministically, per operation
// class — whether the k-th download / merge rewrite / snapshot write /
// snapshot read fails. Because every verdict is a pure function of
// (plan, op class, occurrence index), a fault schedule replays
// bit-for-bit, which is what the chaos test suite relies on
// (tests/landlord/fault_test.cpp).
//
// Consumers: shrinkwrap::ImageBuilder::try_build, core::Landlord::submit
// (bounded retry + degradation ladder, see docs/fault_model.md),
// core persistence (torn snapshot writes, failed reads), and the
// sim::run_crash_replay crash-restart driver.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace landlord::fault {

/// Operation classes that can fail independently.
enum class FaultOp : std::uint8_t {
  kBuilderDownload = 0,  ///< WAN fetch while materialising an image
  kMergeRewrite,         ///< full rewrite of a merged/split image
  kSnapshotWrite,        ///< persisting the cache snapshot (torn write)
  kSnapshotRead,         ///< loading the cache snapshot at restart
  // Dispatch-plane classes. Appended (never reordered) so the per-class
  // Bernoulli streams of the original four stay bit-identical under old
  // plans — split(op + 1) keys the stream by enum position.
  kWorkerCrash,     ///< the scheduled worker dies under this dispatch
  kWorkerTransfer,  ///< head-node -> worker-scratch transfer interrupted
  kSiteOutage,      ///< a site rejects this placement attempt
  // Serve-plane network classes (the socket chaos shim, serve/chaos.hpp).
  // Appended, same reason as above.
  kConnReset,        ///< connection torn down with an RST (SO_LINGER 0)
  kConnStall,        ///< delivery pauses long enough to trip timeouts
  kPartialDelivery,  ///< a fragment is delivered, then an abrupt FIN
  kAcceptFail,       ///< the connection is closed at accept time
};
inline constexpr std::size_t kFaultOpCount = 11;

[[nodiscard]] constexpr const char* to_string(FaultOp op) noexcept {
  switch (op) {
    case FaultOp::kBuilderDownload: return "builder-download";
    case FaultOp::kMergeRewrite: return "merge-rewrite";
    case FaultOp::kSnapshotWrite: return "snapshot-write";
    case FaultOp::kSnapshotRead: return "snapshot-read";
    case FaultOp::kWorkerCrash: return "worker-crash";
    case FaultOp::kWorkerTransfer: return "worker-transfer";
    case FaultOp::kSiteOutage: return "site-outage";
    case FaultOp::kConnReset: return "conn-reset";
    case FaultOp::kConnStall: return "conn-stall";
    case FaultOp::kPartialDelivery: return "partial-delivery";
    case FaultOp::kAcceptFail: return "accept-fail";
  }
  return "?";
}

/// One explicitly scheduled failure: the `occurrence`-th operation of
/// class `op` (0-based, counted per class) fails regardless of the
/// class's probability.
struct ScheduledFault {
  FaultOp op = FaultOp::kBuilderDownload;
  std::uint64_t occurrence = 0;
};

/// What should fail and how often. An empty plan (all probabilities 0,
/// no schedule) makes the injector a no-op: every fault-wired path is
/// then bit-identical to the un-wired code (the zero-fault equivalence
/// guard in tests/landlord/fault_test.cpp asserts this).
struct FaultPlan {
  /// Per-class failure probability in [0, 1], indexed by FaultOp.
  std::array<double, kFaultOpCount> probability{};
  /// Explicit failures on top of the probabilities.
  std::vector<ScheduledFault> schedule;
  /// Seeds the per-class Bernoulli streams (and downstream jitter).
  std::uint64_t seed = 0x5eedfa171757ULL;

  [[nodiscard]] bool empty() const noexcept;

  /// Fluent helpers for test/bench construction.
  FaultPlan& fail(FaultOp op, double p) {
    probability[static_cast<std::size_t>(op)] = p;
    return *this;
  }
  FaultPlan& at(FaultOp op, std::uint64_t occurrence) {
    schedule.push_back({op, occurrence});
    return *this;
  }
};

/// Seeded, thread-safe fault oracle. The verdict for the k-th operation
/// of a class depends only on (plan, class, k): interleaving with other
/// classes or threads cannot perturb it, so a multi-threaded chaos run
/// still injects the same faults into the same operations.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Should the next operation of class `op` fail? Advances that class's
  /// occurrence counter.
  [[nodiscard]] bool should_fail(FaultOp op);

  /// Operations of this class seen so far.
  [[nodiscard]] std::uint64_t occurrences(FaultOp op) const;
  /// Failures injected into this class so far.
  [[nodiscard]] std::uint64_t injected(FaultOp op) const;
  [[nodiscard]] std::uint64_t total_injected() const;
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Rewinds every occurrence stream to the beginning (replay).
  void reset();

  /// Attaches (or detaches, with nullptr) an observability bundle:
  /// per-class operation/injection counters plus a trace event per
  /// injected fault. Never changes verdicts. Non-owning.
  void set_observability(obs::Observability* observability);

 private:
  struct Stream {
    util::Rng rng;
    std::uint64_t calls = 0;
    std::uint64_t injected = 0;
  };

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::array<Stream, kFaultOpCount> streams_;
  /// Sorted occurrence indices per class, from plan_.schedule.
  std::array<std::vector<std::uint64_t>, kFaultOpCount> scheduled_;

  /// Metric handles resolved at set_observability; null ⇒ no-op.
  struct Hooks {
    std::array<obs::Counter*, kFaultOpCount> ops{};       ///< should_fail calls
    std::array<obs::Counter*, kFaultOpCount> injected{};  ///< failures injected
    obs::EventTrace* trace = nullptr;
  };
  Hooks hooks_;
};

/// Retry pacing for failed builds: exponential backoff with jitter.
/// Delays are *modelled* seconds (charged to prep time), not wall time.
struct BackoffPolicy {
  std::uint32_t max_retries = 3;  ///< extra attempts after the first failure
  double base_delay_s = 0.5;      ///< wait before the first retry
  double multiplier = 2.0;        ///< per-retry growth
  double max_delay_s = 8.0;       ///< cap on a single wait
  double jitter = 0.1;            ///< uniform ±fraction on each wait

  /// Modelled wait before retry number `attempt` (0-based). Draws the
  /// jitter from `rng`, so the sequence is deterministic per seed.
  [[nodiscard]] double delay_for(std::uint32_t attempt, util::Rng& rng) const;
};

/// Degraded-mode telemetry, the fault-path analogue of
/// core::CacheCounters. Monotone; aggregated across an entire service
/// lifetime (crash-restart replays included).
struct DegradedCounters {
  std::uint64_t build_failures = 0;        ///< injected try_build failures seen
  std::uint64_t retries = 0;               ///< re-attempted builds
  std::uint64_t backoffs = 0;              ///< modelled waits taken
  double backoff_seconds = 0.0;            ///< total modelled waiting
  std::uint64_t fallback_exact_builds = 0; ///< merge rewrite -> exact image
  std::uint64_t fallback_unsplit_hits = 0; ///< split rebuild -> unsplit image
  std::uint64_t error_placements = 0;      ///< degradation ladder exhausted
  std::uint64_t snapshot_write_failures = 0;  ///< torn/failed checkpoint writes
  std::uint64_t snapshot_read_failures = 0;   ///< failed restores at restart
  std::uint64_t recovered_images = 0;      ///< images re-admitted from snapshots
  std::uint64_t lost_records = 0;          ///< snapshot records dropped as bad
};

}  // namespace landlord::fault
