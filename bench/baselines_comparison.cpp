// Baselines — the paper's §III "imperfect solutions" vs. LANDLORD.
//
// The same paper workload (500 unique jobs x5) flows through:
//   full-repo    one all-purpose image holding the whole repository
//   naive        one image per distinct specification, stored verbatim
//   block-dedup  per-spec images over content-addressed storage
//   layered      Docker-style additive layer chains
//   landlord     Algorithm 1 at alpha = 0.8 (1.4 TB budget)
//
// Reported: physical storage, logical image bytes, per-job shipped
// bytes, and materialisation I/O — quantifying each critique: full-repo
// ships everything; naive explodes storage; dedup fixes storage but not
// transfer; layering cannot share across chains; LANDLORD balances all
// four under a fixed budget.
#include "bench/common.hpp"

#include "baseline/baselines.hpp"
#include "landlord/sharded.hpp"
#include "sim/workload.hpp"

int main() {
  using namespace landlord;
  const auto env = bench::BenchEnv::from_environment();
  const auto& repo = bench::shared_repository(env.seed);
  bench::print_header("Baselines: imperfect solutions vs. LANDLORD", env);

  sim::WorkloadConfig workload;
  workload.unique_jobs = env.unique_jobs;
  workload.repetitions = env.repetitions;
  sim::WorkloadGenerator generator(repo, workload, util::Rng(env.seed));
  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();

  baseline::FullRepoBaseline full(repo);
  baseline::NaivePerJobStore naive(repo);
  baseline::BlockDedupStore dedup(repo);
  baseline::LayeredStore layered(repo);

  core::CacheConfig cache_config;
  cache_config.alpha = 0.8;
  cache_config.capacity = 1400ULL * 1000 * 1000 * 1000;
  core::ShardedCache landlord_cache(repo, cache_config);
  util::Bytes landlord_shipped = 0;

  for (auto index : stream) {
    const auto& spec = specs[index];
    (void)full.submit(spec);
    (void)naive.submit(spec);
    (void)dedup.submit(spec);
    (void)layered.submit(spec);
    const auto outcome = landlord_cache.request(spec);
    landlord_shipped += outcome.image_bytes;
  }

  util::Table table({"strategy", "physical(TB)", "logical(TB)", "shipped(TB)",
                     "shipped/job(GB)", "written(TB)", "artifacts"});
  auto add = [&](const char* name, const baseline::Totals& t) {
    table.add_row({name,
                   util::fmt(static_cast<double>(t.physical_bytes) / 1e12, 3),
                   util::fmt(static_cast<double>(t.logical_bytes) / 1e12, 3),
                   util::fmt(static_cast<double>(t.shipped_bytes) / 1e12, 2),
                   util::fmt(static_cast<double>(t.shipped_bytes) / 1e9 /
                                 static_cast<double>(stream.size()),
                             1),
                   util::fmt(static_cast<double>(t.written_bytes) / 1e12, 2),
                   util::fmt(t.artifacts)});
  };
  add("full-repo", full.totals());
  add("naive", naive.totals());
  add("block-dedup", dedup.totals());
  add("layered", layered.totals());

  const auto& c = landlord_cache.counters();
  baseline::Totals landlord_totals;
  landlord_totals.physical_bytes = landlord_cache.total_bytes();
  landlord_totals.logical_bytes = landlord_cache.total_bytes();
  landlord_totals.shipped_bytes = landlord_shipped;
  landlord_totals.written_bytes = c.written_bytes;
  landlord_totals.artifacts = landlord_cache.image_count();
  add("landlord a=0.8 (1.4TB cap)", landlord_totals);

  bench::emit(table, env, "baselines_comparison");

  std::cout << "note: full-repo/naive/dedup/layered stores are unbounded; "
               "LANDLORD operates under its byte budget (deletes="
            << c.deletes << ").\n";
  return 0;
}
