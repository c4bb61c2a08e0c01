// Single-simulation driver: one workload stream through one cache.
#pragma once

#include <cstdint>

#include "landlord/cache.hpp"
#include "landlord/stats.hpp"
#include "obs/obs.hpp"
#include "pkg/repository.hpp"
#include "sim/workload.hpp"

namespace landlord::sim {

struct SimulationConfig {
  core::CacheConfig cache;
  WorkloadConfig workload;
  std::uint64_t seed = 1;
  /// Optional observability bundle attached to the run's cache for the
  /// whole replay (non-owning). Metrics/tracing never perturb decisions.
  obs::Observability* obs = nullptr;
};

/// Everything the figures need from one run.
struct SimulationResult {
  core::CacheCounters counters;
  util::Bytes final_total_bytes = 0;
  util::Bytes final_unique_bytes = 0;
  double cache_efficiency = 1.0;      ///< unique/total at end of run
  double container_efficiency = 1.0;  ///< mean requested/used over requests
  std::uint64_t final_image_count = 0;
  core::TimeSeries series;  ///< populated iff cache.record_time_series
};

/// Generates the workload from (seed), runs every request through a fresh
/// cache, and summarises. Deterministic in `config`.
[[nodiscard]] SimulationResult run_simulation(const pkg::Repository& repo,
                                              const SimulationConfig& config);

}  // namespace landlord::sim
