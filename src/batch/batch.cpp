#include "batch/batch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <queue>

namespace landlord::batch {

namespace {

/// Completion event in the simulator's priority queue.
struct Completion {
  double time = 0.0;
  std::uint64_t sequence = 0;  // tie-break for determinism

  [[nodiscard]] bool operator>(const Completion& other) const noexcept {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

}  // namespace

BatchResult run_batch(const pkg::Repository& repo,
                      const std::vector<spec::Specification>& specs,
                      const std::vector<Job>& jobs, const BatchConfig& config) {
  assert(config.slots > 0);
  assert(std::is_sorted(jobs.begin(), jobs.end(),
                        [](const Job& a, const Job& b) {
                          return a.arrival_s < b.arrival_s;
                        }));

  core::Landlord landlord(repo, config.cache, {}, config.time_model);

  BatchResult result;
  result.jobs.reserve(jobs.size());

  // Min-heap of running-job completion times; its size is the number of
  // busy slots.
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> running;
  std::uint64_t sequence = 0;
  double busy_slot_seconds = 0.0;

  std::size_t next_arrival = 0;
  std::deque<std::size_t> queue;  // FIFO of job indices waiting for a slot
  double now = 0.0;

  auto start_job = [&](std::size_t job_index) {
    const Job& job = jobs[job_index];
    JobRecord record;
    record.spec_index = job.spec_index;
    record.arrival_s = job.arrival_s;
    record.start_s = now;

    const auto placement = landlord.submit(specs[job.spec_index]);
    record.placement = placement.kind;
    const double prep = placement.prep_seconds;
    record.ready_s = now + prep;
    record.finish_s = record.ready_s + job.run_s;

    result.total_prep_s += prep;
    // Image preparation occupies the job's slot (worker-side staging):
    // the slot is held from start to finish, when the completion event
    // frees it.
    busy_slot_seconds += record.finish_s - record.start_s;
    running.push({record.finish_s, sequence++});
    result.jobs.push_back(record);
  };

  while (next_arrival < jobs.size() || !queue.empty() || !running.empty()) {
    // Advance time to the next event: an arrival or a completion.
    const double arrival_time = next_arrival < jobs.size()
                                    ? jobs[next_arrival].arrival_s
                                    : std::numeric_limits<double>::infinity();
    const double completion_time = !running.empty()
                                       ? running.top().time
                                       : std::numeric_limits<double>::infinity();

    if (arrival_time <= completion_time) {
      now = arrival_time;
      queue.push_back(next_arrival++);
    } else {
      now = completion_time;
      running.pop();
    }

    // Fill free slots from the FIFO queue.
    while (!queue.empty() && running.size() < config.slots) {
      const std::size_t job_index = queue.front();
      queue.pop_front();
      start_job(job_index);
    }
  }

  result.cache_counters = landlord.counters();
  if (!result.jobs.empty()) {
    double wait = 0.0, prep = 0.0;
    for (const auto& record : result.jobs) {
      result.makespan_s = std::max(result.makespan_s, record.finish_s);
      wait += record.wait_s();
      prep += record.prep_s();
    }
    result.mean_wait_s = wait / static_cast<double>(result.jobs.size());
    result.mean_prep_s = prep / static_cast<double>(result.jobs.size());
    if (result.makespan_s > 0) {
      result.throughput_jobs_per_hour =
          3600.0 * static_cast<double>(result.jobs.size()) / result.makespan_s;
      result.slot_utilization =
          busy_slot_seconds /
          (static_cast<double>(config.slots) * result.makespan_s);
    }
  }
  return result;
}

std::vector<Job> poisson_schedule(std::size_t spec_count,
                                  std::uint32_t repetitions,
                                  double jobs_per_hour, double mean_run_s,
                                  util::Rng rng) {
  assert(spec_count > 0 && repetitions > 0 && jobs_per_hour > 0);
  std::vector<std::uint32_t> order;
  order.reserve(spec_count * repetitions);
  for (std::uint32_t rep = 0; rep < repetitions; ++rep) {
    for (std::size_t s = 0; s < spec_count; ++s) {
      order.push_back(static_cast<std::uint32_t>(s));
    }
  }
  rng.shuffle(std::span<std::uint32_t>(order));

  std::vector<Job> jobs;
  jobs.reserve(order.size());
  const double mean_gap_s = 3600.0 / jobs_per_hour;
  double clock = 0.0;
  for (std::uint32_t spec_index : order) {
    clock += rng.exponential(mean_gap_s);
    Job job;
    job.spec_index = spec_index;
    job.arrival_s = clock;
    // Log-normal run time with sigma 0.5 around the requested mean.
    const double sigma = 0.5;
    const double mu = std::log(mean_run_s) - sigma * sigma / 2;
    job.run_s = rng.lognormal(mu, sigma);
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace landlord::batch
