// Integration: the full pipeline — repository generation, specification
// inference from job artefacts, LANDLORD placement, Shrinkwrap
// materialisation — wired together the way the examples and benches use it.
#include <gtest/gtest.h>

#include <sstream>

#include "hep/profiles.hpp"
#include "landlord/landlord.hpp"
#include "pkg/manifest.hpp"
#include "pkg/synthetic.hpp"
#include "spec/inference.hpp"

namespace landlord {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = pkg::default_repository(42);
  return r;
}

TEST(EndToEnd, HepPipelineThroughLandlord) {
  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = 1400ULL * 1000 * 1000 * 1000;  // paper's 1.4 TB
  core::Landlord landlord(repo(), config);

  // Submit every benchmark app twice: second pass must be all hits.
  std::vector<spec::Specification> specs;
  for (const auto& app : hep::benchmark_apps()) {
    specs.push_back(hep::app_specification(repo(), app, 7));
  }
  for (const auto& spec : specs) {
    const auto placement = landlord.submit(spec);
    EXPECT_NE(placement.kind, core::RequestKind::kHit);
  }
  for (const auto& spec : specs) {
    const auto placement = landlord.submit(spec);
    EXPECT_EQ(placement.kind, core::RequestKind::kHit);
    EXPECT_DOUBLE_EQ(placement.prep_seconds, 0.0);
  }
  EXPECT_EQ(landlord.cache().counters().hits, 7u);
}

TEST(EndToEnd, InferredSpecsFromAllThreeSources) {
  // Build one job's requirements from a python script, a shell script
  // with module loads, and a previous job log — all referencing real
  // packages of the synthetic repository.
  const auto& r = repo();
  const auto& lib = r[pkg::package_id(200)];
  const auto& tool = r[pkg::package_id(400)];

  std::istringstream python_src("import numpy\nfrom ROOT import TFile\n");
  auto reqs = spec::scan_python_imports(python_src);

  std::istringstream shell_src("module load " + lib.name + "/" + lib.version + "\n");
  for (auto& req : spec::scan_module_loads(shell_src)) reqs.push_back(req);

  std::istringstream log_src("open /cvmfs/sft/" + tool.name + "/" + tool.version +
                             "/bin/tool\n");
  for (auto& req : spec::scan_job_log(log_src)) reqs.push_back(req);

  std::vector<std::string> unresolved;
  const auto spec = spec::infer_specification(r, reqs, "mixed", &unresolved);
  // numpy/ROOT are not in the synthetic repo -> unresolved; the module
  // load and the log path resolve exactly.
  EXPECT_EQ(unresolved.size(), 2u);
  EXPECT_GE(spec.size(), 2u);
  EXPECT_TRUE(spec.packages().contains(pkg::package_id(200)));
  EXPECT_TRUE(spec.packages().contains(pkg::package_id(400)));

  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = r.total_bytes();
  core::Landlord landlord(r, config);
  const auto placement = landlord.submit(spec);
  EXPECT_GT(placement.image_bytes, util::Bytes{0});
}

TEST(EndToEnd, ManifestRoundTripPreservesSimulationBehaviour) {
  // Serialise a synthetic repo to a manifest, re-load it, and check the
  // reloaded repository produces identical placements.
  pkg::SyntheticRepoParams params;
  params.total_packages = 400;
  auto original = pkg::generate_repository(params, 3);
  ASSERT_TRUE(original.ok());

  std::ostringstream out;
  pkg::write_manifest(original.value(), out);
  auto reloaded = pkg::parse_manifest_text(out.str());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;

  auto run = [](const pkg::Repository& r) {
    core::CacheConfig config;
    config.alpha = 0.75;
    config.capacity = r.total_bytes() / 2;
    core::ShardedCache cache(r, config);
    for (std::uint32_t i = 0; i < 50; ++i) {
      std::vector<pkg::PackageId> request = {
          pkg::package_id((i * 13) % static_cast<std::uint32_t>(r.size())),
          pkg::package_id((i * 29) % static_cast<std::uint32_t>(r.size()))};
      (void)cache.request(spec::Specification::from_request(r, request));
    }
    return cache.counters();
  };

  const auto a = run(original.value());
  const auto b = run(reloaded.value());
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.written_bytes, b.written_bytes);
}

TEST(EndToEnd, BuilderAccountsForCrossImageDedup) {
  // Two overlapping HEP apps: building the second fetches less than its
  // full size because shared chunks are already in the local CAS.
  core::CacheConfig config;
  config.alpha = 0.0;  // separate images
  config.capacity = repo().total_bytes();
  core::Landlord landlord(repo(), config);

  const auto gen = hep::app_specification(repo(), hep::benchmark_apps()[1], 7);
  const auto sim = hep::app_specification(repo(), hep::benchmark_apps()[2], 7);
  (void)landlord.submit(gen);
  const auto& cas = landlord.builder().chunk_cache();
  const auto unique_after_first = cas.unique_bytes();
  (void)landlord.submit(sim);
  // CAS grew, but by less than sim's full footprint (shared base).
  EXPECT_GT(cas.unique_bytes(), unique_after_first);
  EXPECT_LT(cas.unique_bytes() - unique_after_first, sim.bytes(repo()));
}

}  // namespace
}  // namespace landlord
