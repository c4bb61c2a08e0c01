// Extension — workload drift across release generations.
//
// "Over time, containers multiply: as a user's work evolves, different
// jobs need different software, and new containers are generated" (§I).
// This study replays the workload over several release generations; each
// generation upgrades a fraction of every spec's packages to newer
// versions. Because adjacent versions share most of their closure, the
// drifted specs stay Jaccard-close to the cached images — LANDLORD's
// merging absorbs the churn, while the naive (alpha = 0) cache rebuilds
// almost everything every generation.
#include "bench/common.hpp"

#include "landlord/sharded.hpp"
#include "sim/workload.hpp"

int main() {
  using namespace landlord;
  const auto env = bench::BenchEnv::from_environment();
  const auto& repo = bench::shared_repository(env.seed);
  bench::print_header("Extension: workload drift across release generations", env);

  const double upgrade_probability =
      0.01 * static_cast<double>(bench::env_u64("LANDLORD_DRIFT_PCT", 15));
  const auto generations =
      static_cast<std::uint32_t>(bench::env_u64("LANDLORD_GENERATIONS", 6));

  util::Table table({"alpha", "generation", "hits", "merges", "inserts",
                     "written(TB)", "container eff(%)"});

  for (double alpha : {0.0, 0.60, 0.80, 0.95}) {
    sim::WorkloadConfig workload;
    workload.unique_jobs = std::min<std::uint32_t>(env.unique_jobs, 200);
    workload.max_initial_selection = 50;
    sim::WorkloadGenerator generator(repo, workload, util::Rng(env.seed));
    auto specs = generator.unique_specifications();

    core::CacheConfig config;
    config.alpha = alpha;
    config.capacity = 1400ULL * 1000 * 1000 * 1000;
    core::ShardedCache cache(repo, config);

    core::CacheCounters previous;
    for (std::uint32_t generation = 0; generation < generations; ++generation) {
      for (const auto& spec : specs) (void)cache.request(spec);
      const auto& counters = cache.counters();
      table.add_row(
          {util::fmt(alpha, 2), util::fmt(std::uint64_t{generation}),
           util::fmt(counters.hits - previous.hits),
           util::fmt(counters.merges - previous.merges),
           util::fmt(counters.inserts - previous.inserts),
           util::fmt(static_cast<double>(counters.written_bytes) / 1e12, 2),
           util::fmt(100 * counters.container_efficiency(), 1)});
      previous = counters;
      for (auto& spec : specs) {
        spec = generator.evolved_specification(spec, upgrade_probability);
      }
    }
  }
  bench::emit(table, env, "ext_drift");
  std::cout << "(per-generation operation deltas; drift "
            << util::fmt(100 * upgrade_probability, 0) << "% upgrades per "
            << "generation)\n";
  return 0;
}
