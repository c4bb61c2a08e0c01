// Concurrent decision throughput: requests/s vs thread count and shard
// count.
//
// The paper deploys LANDLORD on a head node that serves a whole cluster's
// submissions (§V); once image materialisation is offloaded, Algorithm 1
// itself becomes the submission-path bottleneck. This bench replays the
// standard synthetic workload from K threads through core::ShardedCache
// at several shard counts, and reports throughput, speedup over one
// thread at one shard (the sequential configuration), and the
// contention/retry telemetry that explains the scaling (or, on a
// single-core machine, the lack of it — speedups need real cores).
//
// Scale knobs: LANDLORD_JOBS / LANDLORD_REPEATS / LANDLORD_SEED and
// LANDLORD_THREADS_MAX (default 8) / LANDLORD_SHARDS (default "1,4,8").
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace landlord;

struct Throughput {
  double requests_per_second = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t contentions = 0;
};

sim::ParallelConfig base_config(const bench::BenchEnv& env) {
  sim::ParallelConfig config;
  config.cache.capacity = 1400ULL * 1000 * 1000 * 1000;  // paper's 1.4 TB
  config.workload.unique_jobs = env.unique_jobs;
  config.workload.repetitions = env.repetitions;
  config.seed = env.seed;
  return config;
}

Throughput run_sharded(const pkg::Repository& repo, sim::ParallelConfig config,
                       std::uint32_t threads, std::uint32_t shards) {
  config.threads = threads;
  config.cache.shards = shards;
  const auto result = sim::run_parallel(repo, config);
  Throughput out;
  out.requests_per_second = result.requests_per_second;
  out.retries = result.counters.optimistic_retries;
  for (const auto& shard : result.shards) out.contentions += shard.lock_contentions;
  return out;
}

std::vector<std::uint32_t> parse_shards() {
  std::vector<std::uint32_t> shards;
  std::string csv = "1,4,8";
  if (const char* env = std::getenv("LANDLORD_SHARDS")) csv = env;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string token =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos : comma - pos);
    if (!token.empty()) {
      shards.push_back(static_cast<std::uint32_t>(std::stoul(token)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (shards.empty()) shards.push_back(1);
  return shards;
}

}  // namespace

int main() {
  const auto env = bench::BenchEnv::from_environment();
  bench::print_header("micro_concurrent: decision throughput vs threads x shards", env);
  std::cout << "hardware threads available: "
            << std::thread::hardware_concurrency() << "\n\n";

  const auto& repo = bench::shared_repository(env.seed);
  const auto config = base_config(env);
  const auto shard_counts = parse_shards();
  const auto max_threads = static_cast<std::uint32_t>(
      bench::env_u64("LANDLORD_THREADS_MAX", 8));

  util::Table table({"shards", "threads", "req/s", "speedup", "retries",
                     "contentions"});

  // Sequential reference: one thread through one shard.
  const double base_rate = run_sharded(repo, config, 1, 1).requests_per_second;
  auto speedup = [base_rate](double rate) {
    return base_rate > 0.0 ? rate / base_rate : 0.0;
  };

  for (std::uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    for (const auto shards : shard_counts) {
      const auto run = run_sharded(repo, config, threads, shards);
      table.add_row({std::to_string(shards), std::to_string(threads),
                     util::fmt(run.requests_per_second, 0),
                     util::fmt(speedup(run.requests_per_second)),
                     util::fmt(run.retries), util::fmt(run.contentions)});
    }
  }

  bench::emit(table, env, "micro_concurrent");
  std::cout << "speedup is relative to one thread at one shard; scaling "
               "requires as many real cores as threads.\n";
  return 0;
}
