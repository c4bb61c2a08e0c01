#include "sim/multisite.hpp"

#include <gtest/gtest.h>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::sim {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 800;
    auto result = pkg::generate_repository(params, 91);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

struct Workload {
  std::vector<spec::Specification> specs;
  std::vector<std::uint32_t> stream;
};

Workload make_workload(std::uint32_t jobs, std::uint32_t reps) {
  WorkloadConfig config;
  config.unique_jobs = jobs;
  config.repetitions = reps;
  config.max_initial_selection = 10;
  WorkloadGenerator generator(repo(), config, util::Rng(5));
  Workload w;
  w.specs = generator.unique_specifications();
  w.stream = generator.request_stream();
  return w;
}

MultiSiteConfig site_config(Routing routing, std::uint32_t sites = 4) {
  MultiSiteConfig config;
  config.sites = sites;
  config.routing = routing;
  config.cache.alpha = 0.8;
  config.cache.capacity = repo().total_bytes();
  return config;
}

TEST(MultiSite, EveryRequestLandsSomewhere) {
  const auto workload = make_workload(40, 3);
  const auto result = run_multisite(repo(), site_config(Routing::kRoundRobin),
                                    workload.specs, workload.stream, 1);
  ASSERT_EQ(result.per_site.size(), 4u);
  std::uint64_t total_requests = 0;
  for (const auto& counters : result.per_site) total_requests += counters.requests;
  EXPECT_EQ(total_requests, workload.stream.size());
}

TEST(MultiSite, RoundRobinBalancesLoad) {
  const auto workload = make_workload(40, 3);
  const auto result = run_multisite(repo(), site_config(Routing::kRoundRobin),
                                    workload.specs, workload.stream, 1);
  const auto expected = workload.stream.size() / 4;
  for (const auto& counters : result.per_site) {
    EXPECT_NEAR(static_cast<double>(counters.requests),
                static_cast<double>(expected), 1.0);
  }
}

TEST(MultiSite, AffinityRoutesIdenticalSpecsTogether) {
  // With affinity routing every repetition of a job goes to one site, so
  // system-wide hits match the single-site case and no image is built at
  // two sites.
  const auto workload = make_workload(40, 4);
  const auto affinity = run_multisite(repo(), site_config(Routing::kAffinity),
                                      workload.specs, workload.stream, 1);
  const auto round_robin =
      run_multisite(repo(), site_config(Routing::kRoundRobin), workload.specs,
                    workload.stream, 1);
  EXPECT_GT(affinity.total_hits, round_robin.total_hits);
  // Content-blind routing duplicates images across sites: worse global
  // cache efficiency.
  EXPECT_GT(affinity.global_cache_efficiency(),
            round_robin.global_cache_efficiency());
}

TEST(MultiSite, SingleSiteMatchesPlainCache) {
  const auto workload = make_workload(30, 3);
  auto config = site_config(Routing::kRoundRobin, 1);
  const auto multi = run_multisite(repo(), config, workload.specs,
                                   workload.stream, 1);

  core::ShardedCache cache(repo(), config.cache);
  for (auto index : workload.stream) (void)cache.request(workload.specs[index]);

  ASSERT_EQ(multi.per_site.size(), 1u);
  EXPECT_EQ(multi.per_site[0].hits, cache.counters().hits);
  EXPECT_EQ(multi.per_site[0].merges, cache.counters().merges);
  EXPECT_EQ(multi.total_cached_bytes, cache.total_bytes());
  EXPECT_EQ(multi.global_unique_bytes, cache.unique_bytes());
}

TEST(MultiSite, GlobalUniqueNeverExceedsTotal) {
  const auto workload = make_workload(40, 3);
  for (auto routing : {Routing::kRoundRobin, Routing::kRandom, Routing::kAffinity}) {
    const auto result = run_multisite(repo(), site_config(routing),
                                      workload.specs, workload.stream, 2);
    EXPECT_LE(result.global_unique_bytes, result.total_cached_bytes)
        << to_string(routing);
  }
}

TEST(MultiSite, DeterministicInSeed) {
  const auto workload = make_workload(30, 3);
  const auto a = run_multisite(repo(), site_config(Routing::kRandom),
                               workload.specs, workload.stream, 7);
  const auto b = run_multisite(repo(), site_config(Routing::kRandom),
                               workload.specs, workload.stream, 7);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.total_cached_bytes, b.total_cached_bytes);
}

TEST(MultiSite, AffinityIsSeedIndependent) {
  // Affinity routing is a pure function of spec contents.
  const auto workload = make_workload(30, 3);
  const auto a = run_multisite(repo(), site_config(Routing::kAffinity),
                               workload.specs, workload.stream, 1);
  const auto b = run_multisite(repo(), site_config(Routing::kAffinity),
                               workload.specs, workload.stream, 999);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.total_written_bytes, b.total_written_bytes);
}

TEST(MultiSite, RoutingNames) {
  EXPECT_STREQ(to_string(Routing::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(Routing::kRandom), "random");
  EXPECT_STREQ(to_string(Routing::kAffinity), "affinity");
}

}  // namespace
}  // namespace landlord::sim
