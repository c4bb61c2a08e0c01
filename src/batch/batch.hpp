// Discrete-event batch-system simulation.
//
// The paper deploys LANDLORD "as an automated step during job
// submission" and envisions it "adapted into a plugin for a site's batch
// system" (§V); the HTC objective is "to maximize the throughput of jobs
// that can be run using some fixed amount of cache space" (§III). This
// module closes that loop: jobs arrive over time, wait for one of a
// fixed number of worker slots, pay LANDLORD's image-preparation latency
// (zero on a cache hit, the Shrinkwrap build model otherwise), execute,
// and free the slot. Throughput, waiting time and slot utilisation can
// then be read directly against α.
//
// The event loop is strictly deterministic: events at equal timestamps
// are ordered by (time, sequence number).
#pragma once

#include <cstdint>
#include <vector>

#include "landlord/landlord.hpp"
#include "pkg/repository.hpp"
#include "spec/specification.hpp"
#include "util/rng.hpp"

namespace landlord::batch {

/// One job to run: which specification it needs, when it arrives, and
/// how long it executes once its container is ready.
struct Job {
  std::uint32_t spec_index = 0;
  double arrival_s = 0.0;
  double run_s = 0.0;
};

struct BatchConfig {
  std::uint32_t slots = 16;  ///< concurrently running jobs
  core::CacheConfig cache;
  shrinkwrap::BuildTimeModel time_model;
};

/// Per-job record in completion order.
struct JobRecord {
  std::uint32_t spec_index = 0;
  double arrival_s = 0.0;
  double start_s = 0.0;   ///< when a slot was acquired
  double ready_s = 0.0;   ///< when the container was prepared
  double finish_s = 0.0;  ///< when execution completed
  core::RequestKind placement = core::RequestKind::kHit;

  [[nodiscard]] double wait_s() const noexcept { return start_s - arrival_s; }
  [[nodiscard]] double prep_s() const noexcept { return ready_s - start_s; }
};

struct BatchResult {
  std::vector<JobRecord> jobs;  ///< completion order
  double makespan_s = 0.0;      ///< last finish time
  double mean_wait_s = 0.0;
  double mean_prep_s = 0.0;
  double total_prep_s = 0.0;
  double throughput_jobs_per_hour = 0.0;
  double slot_utilization = 0.0;  ///< busy slot-seconds / (slots * makespan)
  core::CacheCounters cache_counters;
};

/// Runs the jobs (must be sorted by arrival time) through a FIFO queue
/// over `config.slots` workers, preparing each container via LANDLORD.
[[nodiscard]] BatchResult run_batch(const pkg::Repository& repo,
                                    const std::vector<spec::Specification>& specs,
                                    const std::vector<Job>& jobs,
                                    const BatchConfig& config);

/// Convenience workload: Poisson arrivals at `jobs_per_hour`, run times
/// log-normal around `mean_run_s`, spec indices cycling through a
/// shuffled schedule with `repetitions` visits per spec.
[[nodiscard]] std::vector<Job> poisson_schedule(std::size_t spec_count,
                                                std::uint32_t repetitions,
                                                double jobs_per_hour,
                                                double mean_run_s,
                                                util::Rng rng);

}  // namespace landlord::batch
