// Image splitting (extension): a hit on a badly bloated image carves it
// along its merge lineage into a tight part for the request plus a
// remainder carrying the other constituents.
#include <gtest/gtest.h>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::core {
namespace {

using pkg::package_id;

pkg::Repository flat_repo(std::uint32_t n, util::Bytes each = 10) {
  pkg::RepositoryBuilder b;
  for (std::uint32_t i = 0; i < n; ++i) {
    b.add({"p" + std::to_string(i), "1", each, pkg::PackageTier::kLeaf, {}});
  }
  auto result = std::move(b).build();
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

spec::Specification make_spec(const pkg::Repository& repo,
                              std::initializer_list<std::uint32_t> ids) {
  spec::PackageSet set(repo.size());
  for (auto i : ids) set.insert(package_id(i));
  return spec::Specification(std::move(set));
}

CacheConfig split_config(double utilization = 0.5) {
  CacheConfig c;
  c.alpha = 1.0;  // merge aggressively to create bloat
  c.capacity = 1'000'000;
  c.enable_split = true;
  c.split_utilization = utilization;
  return c;
}

TEST(Split, BloatedHitSplitsImage) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, split_config(0.5));
  (void)cache.request(make_spec(repo, {1, 2}));            // A
  (void)cache.request(make_spec(repo, {50, 51, 52, 53}));  // merged: 6 pkgs
  // Requesting {1,2} now hits a 60-byte image with 20 bytes requested
  // (utilization 0.33 < 0.5) -> split.
  const auto outcome = cache.request(make_spec(repo, {1, 2}));
  EXPECT_EQ(outcome.kind, RequestKind::kHit);
  EXPECT_EQ(cache.counters().splits, 1u);
  EXPECT_EQ(outcome.image_bytes, util::Bytes{20});  // tight part
  EXPECT_EQ(cache.image_count(), 2u);
}

TEST(Split, RemainderStillServesOtherConstituent) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, split_config(0.5));
  (void)cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {50, 51, 52, 53}));
  (void)cache.request(make_spec(repo, {1, 2}));  // split
  const auto other = cache.request(make_spec(repo, {50, 51, 52, 53}));
  EXPECT_EQ(other.kind, RequestKind::kHit);
  EXPECT_EQ(other.image_bytes, util::Bytes{40});
}

TEST(Split, DisabledByDefault) {
  const auto repo = flat_repo(100);
  CacheConfig c;
  c.alpha = 1.0;
  c.capacity = 1'000'000;
  ShardedCache cache(repo, c);
  (void)cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {50, 51, 52, 53}));
  const auto outcome = cache.request(make_spec(repo, {1, 2}));
  EXPECT_EQ(cache.counters().splits, 0u);
  EXPECT_EQ(outcome.image_bytes, util::Bytes{60});  // full bloated image
}

TEST(Split, HighUtilizationHitDoesNotSplit) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, split_config(0.25));
  (void)cache.request(make_spec(repo, {1, 2, 3}));
  (void)cache.request(make_spec(repo, {1, 2, 4}));  // merged: 4 pkgs
  // {1,2,3} uses 30 of 40 bytes = 0.75 utilization > 0.25: no split.
  const auto outcome = cache.request(make_spec(repo, {1, 2, 3}));
  EXPECT_EQ(outcome.kind, RequestKind::kHit);
  EXPECT_EQ(cache.counters().splits, 0u);
}

TEST(Split, NeverSplitsUnmergedImages) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, split_config(0.99));
  (void)cache.request(make_spec(repo, {1, 2, 3, 4, 5, 6, 7, 8}));
  // Subset hit with tiny utilization, but the image was never merged —
  // splitting a pristine insert would serve no one.
  const auto outcome = cache.request(make_spec(repo, {1}));
  EXPECT_EQ(outcome.kind, RequestKind::kHit);
  EXPECT_EQ(cache.counters().splits, 0u);
}

TEST(Split, SplitChargesWrites) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, split_config(0.5));
  (void)cache.request(make_spec(repo, {1, 2}));            // write 20
  (void)cache.request(make_spec(repo, {50, 51, 52, 53}));  // write 60 (merge)
  const auto before = cache.counters().written_bytes;
  (void)cache.request(make_spec(repo, {1, 2}));  // split: writes 20 + 40
  EXPECT_EQ(cache.counters().written_bytes, before + 60);
}

TEST(Split, TotalBytesConsistentAfterSplit) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, split_config(0.5));
  (void)cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {50, 51, 52, 53}));
  (void)cache.request(make_spec(repo, {1, 2}));
  util::Bytes sum = 0;
  cache.for_each_image([&](const Image& image) { sum += image.bytes; });
  EXPECT_EQ(sum, cache.total_bytes());
  EXPECT_EQ(cache.total_bytes(), util::Bytes{60});  // 20 + 40, no overlap
}

TEST(Split, RemainderVersionBumpsForWorkerInvalidation) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, split_config(0.5));
  const auto first = cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {50, 51, 52, 53}));
  const auto merged_version = cache.find(first.image)->version;
  (void)cache.request(make_spec(repo, {1, 2}));  // split
  const auto remainder = cache.find(first.image);
  ASSERT_TRUE(remainder.has_value());
  EXPECT_GT(remainder->version, merged_version);
}

TEST(Split, EndToEndOnSyntheticWorkload) {
  // Splitting enabled on a realistic stream: every request is still
  // satisfied and accounting stays consistent.
  pkg::SyntheticRepoParams params;
  params.total_packages = 1000;
  auto repo = pkg::generate_repository(params, 13);
  ASSERT_TRUE(repo.ok());

  CacheConfig c;
  c.alpha = 0.9;
  c.capacity = repo.value().total_bytes() / 2;
  c.enable_split = true;
  c.split_utilization = 0.3;
  ShardedCache cache(repo.value(), c);

  sim::WorkloadConfig workload;
  workload.unique_jobs = 80;
  workload.repetitions = 4;
  workload.max_initial_selection = 20;
  sim::WorkloadGenerator generator(repo.value(), workload, util::Rng(5));
  const auto specs = generator.unique_specifications();
  for (auto index : generator.request_stream()) {
    const auto outcome = cache.request(specs[index]);
    const auto image = cache.find(outcome.image);
    ASSERT_TRUE(image.has_value());
    EXPECT_TRUE(specs[index].satisfied_by(image->contents));
  }
  EXPECT_GT(cache.counters().splits, 0u);

  util::Bytes sum = 0;
  cache.for_each_image([&](const Image& image) { sum += image.bytes; });
  EXPECT_EQ(sum, cache.total_bytes());
}

}  // namespace
}  // namespace landlord::core
