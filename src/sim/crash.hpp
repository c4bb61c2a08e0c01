// Crash-restart replay driver.
//
// A head node running LANDLORD is a long-lived service: it periodically
// checkpoints its cache snapshot and, after a crash, restores the last
// checkpoint and keeps serving ("persistent image stores", §II/§V).
// This driver simulates that lifecycle deterministically: replay a
// workload through a core::Landlord, snapshot every `checkpoint_every`
// requests through core::checkpoint (torn, like save_cache_file, by an
// injected kSnapshotWrite fault), kill and restore every `crash_every`
// requests, and keep going. Because the workload, the fault schedule,
// and the tear points are all seeded, two runs with the same config
// produce identical counters — the property
// tests/integration/crash_recovery_test.cpp leans on.
#pragma once

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "landlord/landlord.hpp"
#include "sim/workload.hpp"

namespace landlord::sim {

/// When to checkpoint and when to die.
struct CrashPlan {
  std::uint64_t checkpoint_every = 64;  ///< requests between snapshots (0 = never)
  std::uint64_t crash_every = 0;        ///< requests between kill+restore (0 = never)
};

struct CrashReplayConfig {
  core::CacheConfig cache;
  WorkloadConfig workload;
  std::uint64_t seed = 1;
  CrashPlan crash;
  fault::FaultPlan faults;  ///< builder + snapshot I/O fault plan
  fault::BackoffPolicy backoff;
  /// Delta-merge storage plan for the builder's image store. Never
  /// changes placements or decision counters — only the byte ledgers
  /// and prep-time stats (tests/sim/delta_oracle_test.cpp pins this,
  /// including across the kill+restore cycles below).
  shrinkwrap::DeltaBuildConfig delta;
  /// Optional observability bundle attached to the Landlord, the fault
  /// injector, and the driver's own checkpoint/crash counters for the
  /// whole service lifetime (non-owning). Never perturbs the replay.
  obs::Observability* obs = nullptr;
};

/// Everything a chaos study needs from one crash-replay run.
struct CrashReplayResult {
  /// Decision counters summed across every service incarnation (a crash
  /// loses the live cache, not the history of what it already served).
  core::CacheCounters counters;
  fault::DegradedCounters degraded;  ///< from the Landlord, lifetime-wide

  std::uint64_t requests = 0;
  std::uint64_t crashes = 0;
  std::uint64_t checkpoints = 0;        ///< snapshots attempted
  std::uint64_t torn_checkpoints = 0;   ///< of those, torn by a write fault
  std::uint64_t degraded_placements = 0;
  std::uint64_t failed_placements = 0;
  std::uint64_t images_recovered = 0;   ///< re-admitted across all restores
  std::uint64_t records_lost = 0;       ///< snapshot records lost to tears
  double total_prep_seconds = 0.0;

  /// Restores after which the decision index failed to reconcile against
  /// a from-scratch rebuild (core::ShardedCache::check_decision_index).
  /// Always 0: the restore path rebuilds postings/eviction order from
  /// the adopted images, and the chaos suites assert on it.
  std::uint64_t index_divergences = 0;
  std::string first_index_divergence;   ///< what diverged, empty if none

  std::uint64_t final_image_count = 0;
  util::Bytes final_total_bytes = 0;
  util::Bytes final_unique_bytes = 0;
};

/// Replays the seeded workload through a Landlord under the crash plan.
/// Deterministic in `config`. With an empty fault plan and no crashes,
/// the decision counters equal run_simulation()'s for the same workload.
[[nodiscard]] CrashReplayResult run_crash_replay(const pkg::Repository& repo,
                                                 const CrashReplayConfig& config);

}  // namespace landlord::sim
