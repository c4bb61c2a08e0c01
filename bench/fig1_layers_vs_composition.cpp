// Fig. 1 — "Refining via layers vs. Composition".
//
// The paper's illustrative figure: three jobs, where job 2 adds item C
// and job 3 needs exactly what job 1 needed. Under Docker-style layer
// refinement the third job's image still carries C ("although item C is
// hidden in the lower layer, it still exists in a previous layer and
// must be transferred and stored"); under composition the equivalence of
// jobs 1 and 3 is "immediately clear" and the image is reused as-is.
//
// We reproduce the scenario literally on a toy three-package repository,
// then replay the same contrast at workload scale.
#include "bench/common.hpp"

#include "baseline/baselines.hpp"
#include "landlord/sharded.hpp"
#include "pkg/manifest.hpp"
#include "sim/workload.hpp"

namespace {

using namespace landlord;

void literal_scenario() {
  auto parsed = pkg::parse_manifest_text(R"(
package A 1 100 core
package B 1 100 core
package C 1 100 core
)");
  if (!parsed.ok()) return;
  const pkg::Repository repo = std::move(parsed).value();
  auto spec_of = [&](std::initializer_list<const char*> keys) {
    std::vector<pkg::PackageId> request;
    for (const char* key : keys) request.push_back(*repo.find(key));
    return spec::Specification::from_request(repo, request);
  };
  const auto j1 = spec_of({"A/1", "B/1"});
  const auto j2 = spec_of({"A/1", "B/1", "C/1"});
  const auto j3 = spec_of({"A/1", "B/1"});  // identical to job 1

  baseline::LayeredStore layered(repo, baseline::LayeredStore::Strategy::kRefineTip);
  core::CacheConfig config;
  config.alpha = 0.0;  // composition: exact reuse via subset hits
  config.capacity = 10'000;
  core::ShardedCache composed(repo, config);

  util::Table table({"job", "needs", "layered ships", "composed ships"});
  const spec::Specification* jobs[] = {&j1, &j2, &j3};
  const char* needs[] = {"A,B", "A,B,C", "A,B"};
  for (int i = 0; i < 3; ++i) {
    const auto lp = layered.submit(*jobs[i]);
    const auto cp = composed.request(*jobs[i]);
    table.add_row({"job " + std::to_string(i + 1), needs[i],
                   util::fmt(std::uint64_t{lp.shipped_bytes}) + " B",
                   util::fmt(std::uint64_t{cp.image_bytes}) + " B"});
  }
  table.print(std::cout);
  std::cout << "\njob 3 needs only A,B (200 B): layering ships the masked C "
               "anyway; composition reuses job 1's image exactly.\n"
            << "layered store: " << layered.layer_count() << " layers, "
            << util::fmt(std::uint64_t{layered.totals().physical_bytes})
            << " B stored; composed cache: " << composed.image_count()
            << " image(s), "
            << util::fmt(std::uint64_t{composed.total_bytes()}) << " B stored\n\n";
}

}  // namespace

int main() {
  const auto env = bench::BenchEnv::from_environment();
  bench::print_header("Fig. 1: refining via layers vs. composition", env);

  std::cout << "--- the paper's literal three-job scenario ---\n";
  literal_scenario();

  std::cout << "--- the same contrast at workload scale ---\n";
  const auto& repo = bench::shared_repository(env.seed);
  sim::WorkloadConfig workload;
  workload.unique_jobs = std::min<std::uint32_t>(env.unique_jobs, 200);
  workload.repetitions = env.repetitions;
  sim::WorkloadGenerator generator(repo, workload, util::Rng(env.seed));
  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();

  baseline::LayeredStore refine(repo, baseline::LayeredStore::Strategy::kRefineTip);
  baseline::LayeredStore best_base(repo, baseline::LayeredStore::Strategy::kBestBase);
  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = 1400ULL * 1000 * 1000 * 1000;
  core::ShardedCache composed(repo, config);
  util::Bytes composed_shipped = 0;
  for (auto index : stream) {
    (void)refine.submit(specs[index]);
    (void)best_base.submit(specs[index]);
    composed_shipped += composed.request(specs[index]).image_bytes;
  }

  util::Table table({"strategy", "stored(TB)", "shipped(TB)", "shipped/job(GB)"});
  auto add = [&](const char* name, util::Bytes stored, util::Bytes shipped) {
    table.add_row({name, util::fmt(static_cast<double>(stored) / 1e12, 3),
                   util::fmt(static_cast<double>(shipped) / 1e12, 2),
                   util::fmt(static_cast<double>(shipped) / 1e9 /
                                 static_cast<double>(stream.size()),
                             1)});
  };
  add("layers: refine tip", refine.totals().physical_bytes,
      refine.totals().shipped_bytes);
  add("layers: best base", best_base.totals().physical_bytes,
      best_base.totals().shipped_bytes);
  add("composition (landlord a=0.8)", composed.total_bytes(), composed_shipped);
  bench::emit(table, env, "fig1_layers_vs_composition");
  return 0;
}
