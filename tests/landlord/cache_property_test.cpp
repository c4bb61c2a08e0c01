// Property-based checks: invariants of Algorithm 1 under random request
// streams over the synthetic repository, across the alpha range.
#include <gtest/gtest.h>

#include <tuple>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace landlord::core {
namespace {

const pkg::Repository& shared_repo() {
  static const pkg::Repository repo = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 1200;
    auto result = pkg::generate_repository(params, 77);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return repo;
}

class CacheInvariantTest
    : public testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(CacheInvariantTest, InvariantsHoldThroughoutStream) {
  const auto [alpha, seed] = GetParam();
  const auto& repo = shared_repo();

  CacheConfig config;
  config.alpha = alpha;
  config.capacity = repo.total_bytes() / 4;
  ShardedCache cache(repo, config);

  sim::WorkloadConfig workload;
  workload.unique_jobs = 60;
  workload.repetitions = 3;
  workload.max_initial_selection = 20;
  sim::WorkloadGenerator generator(repo, workload,
                                   util::Rng(static_cast<std::uint64_t>(seed)));
  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();

  for (std::uint32_t index : stream) {
    const auto& spec = specs[index];
    const auto outcome = cache.request(spec);

    // The returned image exists and satisfies the request.
    const auto image = cache.find(outcome.image);
    ASSERT_TRUE(image.has_value());
    EXPECT_TRUE(spec.satisfied_by(image->contents));
    EXPECT_EQ(image->bytes, outcome.image_bytes);
    EXPECT_EQ(image->bytes, repo.bytes_of(image->contents.bits()));

    // Accounting identities.
    const auto& c = cache.counters();
    EXPECT_EQ(c.requests, c.hits + c.merges + c.inserts);
    EXPECT_LE(cache.unique_bytes(), cache.total_bytes());

    // total_bytes equals the sum over images (recomputed).
    util::Bytes sum = 0;
    std::size_t images = 0;
    cache.for_each_image([&](const Image& img) {
      sum += img.bytes;
      ++images;
    });
    EXPECT_EQ(sum, cache.total_bytes());
    EXPECT_EQ(images, cache.image_count());

    // Capacity respected unless a single image exceeds it.
    if (cache.image_count() > 1) {
      EXPECT_LE(cache.total_bytes(),
                config.capacity + repo.total_bytes());  // loose sanity
    }
  }

  // Post-stream: capacity holds (single-image exception aside).
  if (cache.image_count() > 1) {
    EXPECT_LE(cache.total_bytes(), config.capacity);
  }
  // Hits never write; written >= inserted data.
  EXPECT_GE(cache.counters().written_bytes, util::Bytes{0});
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBySeed, CacheInvariantTest,
    testing::Combine(testing::Values(0.0, 0.3, 0.6, 0.8, 0.95, 1.0),
                     testing::Values(1, 2)));

TEST(CacheProperty, AlphaZeroImageCountEqualsDistinctSpecsUntilEviction) {
  const auto& repo = shared_repo();
  CacheConfig config;
  config.alpha = 0.0;
  config.capacity = repo.total_bytes() * 10;  // no eviction
  ShardedCache cache(repo, config);

  sim::WorkloadConfig workload;
  workload.unique_jobs = 40;
  workload.repetitions = 2;
  workload.max_initial_selection = 10;
  sim::WorkloadGenerator generator(repo, workload, util::Rng(3));
  const auto specs = generator.unique_specifications();

  for (int round = 0; round < 2; ++round) {
    for (const auto& spec : specs) (void)cache.request(spec);
  }
  // Second round is all hits; image count <= unique specs (subset specs
  // may share images).
  EXPECT_LE(cache.image_count(), specs.size());
  EXPECT_EQ(cache.counters().merges, 0u);
  EXPECT_GE(cache.counters().hits, specs.size());
}

TEST(CacheProperty, MonotoneAlphaReducesInsertsOnSameStream) {
  const auto& repo = shared_repo();
  sim::WorkloadConfig workload;
  workload.unique_jobs = 50;
  workload.repetitions = 3;
  workload.max_initial_selection = 15;

  auto inserts_at = [&](double alpha) {
    CacheConfig config;
    config.alpha = alpha;
    config.capacity = repo.total_bytes() / 4;
    ShardedCache cache(repo, config);
    sim::WorkloadGenerator generator(repo, workload, util::Rng(11));
    const auto specs = generator.unique_specifications();
    const auto stream = generator.request_stream();
    for (auto index : stream) (void)cache.request(specs[index]);
    return cache.counters().inserts;
  };

  // Not strictly monotone in theory, but over this stream the trend must
  // hold between far-apart alphas.
  EXPECT_GT(inserts_at(0.0), inserts_at(0.9));
  EXPECT_GE(inserts_at(0.9), inserts_at(1.0));
}

TEST(CacheProperty, AlphaOneConvergesToSingleImage) {
  const auto& repo = shared_repo();
  CacheConfig config;
  config.alpha = 1.0;
  config.capacity = repo.total_bytes() * 10;
  ShardedCache cache(repo, config);
  sim::WorkloadConfig workload;
  workload.unique_jobs = 30;
  workload.repetitions = 1;
  sim::WorkloadGenerator generator(repo, workload, util::Rng(13));
  for (const auto& spec : generator.unique_specifications()) {
    (void)cache.request(spec);
  }
  EXPECT_EQ(cache.image_count(), 1u);
  EXPECT_DOUBLE_EQ(cache.cache_efficiency(), 1.0);
}

TEST(CacheProperty, EfficiencyBoundsHoldUnderRandomConfigs) {
  // unique_bytes <= total_bytes and cache_efficiency in (0, 1] must hold
  // for every (alpha, capacity, policy) draw, on both the sequential and
  // the sharded cache (which shares the atomic ledger arithmetic).
  const auto& repo = shared_repo();
  util::Rng rng(2024);
  constexpr MergePolicy kPolicies[] = {MergePolicy::kBestFit, MergePolicy::kFirstFit,
                                       MergePolicy::kMinHashLsh};

  for (std::uint64_t draw = 0; draw < 6; ++draw) {
    CacheConfig config;
    config.alpha = rng.uniform_double();
    config.policy = kPolicies[rng.uniform(3)];
    // Capacity between 10% and 110% of the repository footprint.
    config.capacity = repo.total_bytes() / 10 +
                      static_cast<util::Bytes>(rng.uniform_double() *
                                               static_cast<double>(repo.total_bytes()));
    config.shards = static_cast<std::uint32_t>(rng.uniform(1, 8));

    sim::WorkloadConfig workload;
    workload.unique_jobs = 40;
    workload.repetitions = 2;
    workload.max_initial_selection = 15;
    sim::WorkloadGenerator generator(repo, workload, rng.split(100 + draw));
    const auto specs = generator.unique_specifications();
    const auto stream = generator.request_stream();

    ShardedCache sequential(repo, config);
    ShardedCache sharded(repo, config);
    for (std::uint32_t index : stream) {
      (void)sequential.request(specs[index]);
      (void)sharded.request(specs[index]);

      EXPECT_LE(sequential.unique_bytes(), sequential.total_bytes());
      EXPECT_LE(sharded.unique_bytes(), sharded.total_bytes());
      for (const double efficiency :
           {sequential.cache_efficiency(), sharded.cache_efficiency()}) {
        EXPECT_GT(efficiency, 0.0) << "alpha=" << config.alpha;
        EXPECT_LE(efficiency, 1.0) << "alpha=" << config.alpha;
      }
    }
    // Single-threaded replay: the two caches must agree on the bounds'
    // inputs exactly, whatever the shard count drawn.
    EXPECT_EQ(sequential.total_bytes(), sharded.total_bytes());
    EXPECT_EQ(sequential.unique_bytes(), sharded.unique_bytes());
  }
}

TEST(CacheProperty, PoliciesAgreeOnHitOutcomes) {
  // Hits are policy-independent (the superset scan ignores policy); run
  // the same stream under the three policies and compare hit counts of
  // the pure-LRU regime (alpha = 0, merging disabled) — they must agree
  // exactly.
  const auto& repo = shared_repo();
  sim::WorkloadConfig workload;
  workload.unique_jobs = 40;
  workload.repetitions = 3;
  workload.max_initial_selection = 12;

  auto hits_with = [&](MergePolicy policy) {
    CacheConfig config;
    config.alpha = 0.0;
    config.policy = policy;
    config.capacity = repo.total_bytes() / 3;
    ShardedCache cache(repo, config);
    sim::WorkloadGenerator generator(repo, workload, util::Rng(17));
    const auto specs = generator.unique_specifications();
    for (auto index : generator.request_stream()) (void)cache.request(specs[index]);
    return cache.counters().hits;
  };

  const auto best = hits_with(MergePolicy::kBestFit);
  EXPECT_EQ(best, hits_with(MergePolicy::kFirstFit));
  EXPECT_EQ(best, hits_with(MergePolicy::kMinHashLsh));
}

}  // namespace
}  // namespace landlord::core
