// Idle (TTL) eviction extension: images untouched for N requests age out
// even under budget — the "bloated image eventually evicted" mechanism.
#include <gtest/gtest.h>

#include "landlord/sharded.hpp"

namespace landlord::core {
namespace {

using pkg::package_id;

pkg::Repository flat_repo(std::uint32_t n) {
  pkg::RepositoryBuilder b;
  for (std::uint32_t i = 0; i < n; ++i) {
    b.add({"p" + std::to_string(i), "1", 10, pkg::PackageTier::kLeaf, {}});
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

TEST(IdleEviction, DisabledByDefault) {
  const auto repo = flat_repo(100);
  CacheConfig config;
  config.alpha = 0.0;
  config.capacity = 1'000'000;
  ShardedCache cache(repo, config);
  (void)cache.request(make_spec(repo, {1}));
  for (std::uint32_t i = 10; i < 60; ++i) {
    (void)cache.request(make_spec(repo, {i}));
  }
  // 50 requests later the first image is still resident.
  EXPECT_EQ(cache.request(make_spec(repo, {1})).kind, RequestKind::kHit);
}

TEST(IdleEviction, IdleImageAgesOut) {
  const auto repo = flat_repo(100);
  CacheConfig config;
  config.alpha = 0.0;
  config.capacity = 1'000'000;
  config.max_idle_requests = 5;
  ShardedCache cache(repo, config);
  (void)cache.request(make_spec(repo, {1}));
  for (std::uint32_t i = 10; i < 20; ++i) {
    (void)cache.request(make_spec(repo, {i}));
  }
  EXPECT_EQ(cache.request(make_spec(repo, {1})).kind, RequestKind::kInsert);
  EXPECT_GT(cache.counters().deletes, 0u);
}

TEST(IdleEviction, ActiveImageSurvives) {
  const auto repo = flat_repo(100);
  CacheConfig config;
  config.alpha = 0.0;
  config.capacity = 1'000'000;
  config.max_idle_requests = 4;
  ShardedCache cache(repo, config);
  (void)cache.request(make_spec(repo, {1}));
  for (std::uint32_t round = 0; round < 10; ++round) {
    (void)cache.request(make_spec(repo, {50 + round}));
    (void)cache.request(make_spec(repo, {1}));  // keep hot
  }
  EXPECT_EQ(cache.request(make_spec(repo, {1})).kind, RequestKind::kHit);
}

TEST(IdleEviction, ExactBoundaryIsKept) {
  const auto repo = flat_repo(100);
  CacheConfig config;
  config.alpha = 0.0;
  config.capacity = 1'000'000;
  config.max_idle_requests = 3;
  ShardedCache cache(repo, config);
  (void)cache.request(make_spec(repo, {1}));  // clock 1
  (void)cache.request(make_spec(repo, {2}));  // clock 2: idle 1
  (void)cache.request(make_spec(repo, {3}));  // clock 3: idle 2
  (void)cache.request(make_spec(repo, {4}));  // clock 4: idle 3 == limit, kept
  EXPECT_EQ(cache.request(make_spec(repo, {1})).kind, RequestKind::kHit);
}

TEST(IdleEviction, CountsTowardDeletesAndBytes) {
  const auto repo = flat_repo(100);
  CacheConfig config;
  config.alpha = 0.0;
  config.capacity = 1'000'000;
  config.max_idle_requests = 2;
  ShardedCache cache(repo, config);
  (void)cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {10}));
  (void)cache.request(make_spec(repo, {11}));
  (void)cache.request(make_spec(repo, {12}));  // first image now idle 3 > 2
  EXPECT_EQ(cache.counters().deletes, 1u);
  util::Bytes sum = 0;
  cache.for_each_image([&](const Image& image) { sum += image.bytes; });
  EXPECT_EQ(sum, cache.total_bytes());
}

}  // namespace
}  // namespace landlord::core
