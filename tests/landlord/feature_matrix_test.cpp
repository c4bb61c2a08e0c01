// Cross-feature property matrix: Algorithm 1's invariants must hold for
// every combination of merge policy x eviction policy x splitting on a
// realistic workload — features may change *which* image serves a job
// and what gets evicted, never correctness or accounting.
#include <gtest/gtest.h>

#include <tuple>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::core {
namespace {

const pkg::Repository& shared_repo() {
  static const pkg::Repository repo = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 900;
    auto result = pkg::generate_repository(params, 111);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return repo;
}

using MatrixParam = std::tuple<MergePolicy, EvictionPolicy, bool /*split*/,
                               double /*alpha*/>;

class FeatureMatrixTest : public testing::TestWithParam<MatrixParam> {};

TEST_P(FeatureMatrixTest, InvariantsHoldEndToEnd) {
  const auto [merge_policy, eviction, split, alpha] = GetParam();
  const auto& repo = shared_repo();

  CacheConfig config;
  config.alpha = alpha;
  config.policy = merge_policy;
  config.eviction = eviction;
  config.enable_split = split;
  config.split_utilization = 0.3;
  config.capacity = repo.total_bytes() / 3;
  ShardedCache cache(repo, config);

  sim::WorkloadConfig workload;
  workload.unique_jobs = 50;
  workload.repetitions = 3;
  workload.max_initial_selection = 15;
  sim::WorkloadGenerator generator(repo, workload, util::Rng(7));
  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();

  for (std::uint32_t index : stream) {
    const auto& spec = specs[index];
    const auto outcome = cache.request(spec);

    // Served image exists and satisfies the spec.
    const auto image = cache.find(outcome.image);
    ASSERT_TRUE(image.has_value());
    EXPECT_TRUE(spec.satisfied_by(image->contents));
    EXPECT_EQ(image->bytes, repo.bytes_of(image->contents.bits()));

    // Counter identities.
    const auto& counters = cache.counters();
    EXPECT_EQ(counters.requests,
              counters.hits + counters.merges + counters.inserts);

    // Byte accounting matches a recount.
    util::Bytes sum = 0;
    std::size_t count = 0;
    cache.for_each_image([&](const Image& img) {
      sum += img.bytes;
      ++count;
      // Lineage entries are always subsets of the image contents.
      for (const auto& entry : img.lineage) {
        EXPECT_TRUE(entry.is_subset_of(img.contents));
      }
      EXPECT_LE(img.lineage.size(), config.max_lineage + 1);
    });
    EXPECT_EQ(sum, cache.total_bytes());
    EXPECT_EQ(count, cache.image_count());
    EXPECT_LE(cache.unique_bytes(), cache.total_bytes());
  }

  // Budget respected at rest (modulo the single-oversized-image case).
  if (cache.image_count() > 1) {
    EXPECT_LE(cache.total_bytes(), config.capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, FeatureMatrixTest,
    testing::Combine(
        testing::Values(MergePolicy::kFirstFit, MergePolicy::kBestFit,
                        MergePolicy::kMinHashLsh),
        testing::Values(EvictionPolicy::kLru, EvictionPolicy::kLfu,
                        EvictionPolicy::kLargestFirst,
                        EvictionPolicy::kHitDensity),
        testing::Bool(),
        testing::Values(0.6, 0.9)));

}  // namespace
}  // namespace landlord::core
