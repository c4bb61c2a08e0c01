#include "sim/driver.hpp"

#include "landlord/sharded.hpp"

namespace landlord::sim {

SimulationResult run_simulation(const pkg::Repository& repo,
                                const SimulationConfig& config) {
  // Independent RNG streams for spec generation and stream shuffling so
  // changing repetitions does not perturb the specs themselves.
  util::Rng root(config.seed);
  WorkloadGenerator generator(repo, config.workload, root.split(1));

  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();

  core::ShardedCache cache(repo, config.cache);
  if (config.obs != nullptr) cache.set_observability(config.obs);
  for (std::uint32_t index : stream) {
    cache.request(specs[index]);
  }

  SimulationResult result;
  result.counters = cache.counters();
  result.final_total_bytes = cache.total_bytes();
  result.final_unique_bytes = cache.unique_bytes();
  result.cache_efficiency = cache.cache_efficiency();
  result.container_efficiency = result.counters.container_efficiency();
  result.final_image_count = cache.image_count();
  result.series = cache.time_series();
  return result;
}

}  // namespace landlord::sim
