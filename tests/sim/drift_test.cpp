// Workload drift: evolved specifications (version upgrades) stay valid
// and stay *close* in Jaccard terms — which is exactly why LANDLORD's
// merging absorbs gradual software evolution.
#include <gtest/gtest.h>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/driver.hpp"
#include "sim/workload.hpp"
#include "spec/jaccard.hpp"

namespace landlord::sim {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 1000;
    auto result = pkg::generate_repository(params, 121);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

WorkloadGenerator generator(std::uint64_t seed = 3) {
  WorkloadConfig config;
  config.unique_jobs = 10;
  config.max_initial_selection = 15;
  return WorkloadGenerator(repo(), config, util::Rng(seed));
}

TEST(Drift, ZeroProbabilityIsIdentityUpToReclosure) {
  auto gen = generator();
  const auto spec = gen.next_specification();
  const auto evolved = gen.evolved_specification(spec, 0.0);
  EXPECT_TRUE(evolved.packages() == spec.packages());
}

TEST(Drift, EvolvedSpecsAreDependencyClosed) {
  auto gen = generator();
  for (int i = 0; i < 5; ++i) {
    const auto spec = gen.next_specification();
    const auto evolved = gen.evolved_specification(spec, 0.5);
    bool closed = true;
    evolved.packages().for_each([&](pkg::PackageId id) {
      for (pkg::PackageId dep : repo()[id].deps) {
        closed &= evolved.packages().contains(dep);
      }
    });
    EXPECT_TRUE(closed);
    EXPECT_FALSE(evolved.empty());
  }
}

TEST(Drift, ModerateDriftKeepsSpecsClose) {
  // A 20% upgrade pass should leave the evolved spec within moderate
  // Jaccard distance — the regime where merging still works.
  auto gen = generator();
  double total_distance = 0.0;
  int samples = 0;
  for (int i = 0; i < 10; ++i) {
    const auto spec = gen.next_specification();
    const auto evolved = gen.evolved_specification(spec, 0.2);
    total_distance += spec::jaccard_distance(spec.packages(), evolved.packages());
    ++samples;
  }
  EXPECT_LT(total_distance / samples, 0.6);
  EXPECT_GT(total_distance / samples, 0.0);  // something moved
}

TEST(Drift, FullUpgradeChangesMostVersionedPackages) {
  auto gen = generator();
  const auto spec = gen.next_specification();
  const auto evolved = gen.evolved_specification(spec, 1.0);
  // The evolved set must differ unless every member was already newest.
  const pkg::VersionChains chains(repo());
  bool any_upgradable = false;
  spec.packages().for_each([&](pkg::PackageId id) {
    any_upgradable |= chains.successor(id).has_value();
  });
  if (any_upgradable) {
    EXPECT_FALSE(evolved.packages() == spec.packages());
  }
}

TEST(Drift, ProvenanceMarksEvolution) {
  auto gen = generator();
  const auto spec = gen.next_specification();
  const auto evolved = gen.evolved_specification(spec, 0.3);
  EXPECT_NE(evolved.provenance().find(":evolved"), std::string::npos);
}

TEST(Drift, DriftedStreamStillMergesUnderModerateAlpha) {
  // Simulate generational drift: each "release cycle" evolves every spec
  // and replays it. Merging keeps absorbing the upgraded variants.
  auto gen = generator(9);
  WorkloadConfig config;
  config.unique_jobs = 20;
  config.max_initial_selection = 10;
  WorkloadGenerator base(repo(), config, util::Rng(9));
  auto specs = base.unique_specifications();

  core::CacheConfig cache_config;
  cache_config.alpha = 0.8;
  cache_config.capacity = repo().total_bytes();
  core::ShardedCache cache(repo(), cache_config);

  for (int generation = 0; generation < 4; ++generation) {
    for (auto& spec : specs) {
      (void)cache.request(spec);
    }
    for (auto& spec : specs) {
      spec = base.evolved_specification(spec, 0.15);
    }
  }
  // Drifted generations merge rather than insert from scratch.
  EXPECT_GT(cache.counters().merges, cache.counters().inserts);
}

}  // namespace
}  // namespace landlord::sim
