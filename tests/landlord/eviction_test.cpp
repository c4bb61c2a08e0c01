#include <gtest/gtest.h>

#include "landlord/sharded.hpp"

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

CacheConfig config(EvictionPolicy eviction, util::Bytes capacity) {
  CacheConfig c;
  c.alpha = 0.0;  // isolate eviction behaviour from merging
  c.capacity = capacity;
  c.eviction = eviction;
  return c;
}

TEST(Eviction, PolicyNames) {
  EXPECT_STREQ(to_string(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(to_string(EvictionPolicy::kLfu), "lfu");
  EXPECT_STREQ(to_string(EvictionPolicy::kLargestFirst), "largest-first");
  EXPECT_STREQ(to_string(EvictionPolicy::kHitDensity), "hit-density");
}

TEST(Eviction, LruEvictsStalest) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(EvictionPolicy::kLru, 60));
  (void)cache.request(make_spec(repo, {1, 2}));    // A
  (void)cache.request(make_spec(repo, {10, 11}));  // B
  (void)cache.request(make_spec(repo, {1, 2}));    // touch A
  (void)cache.request(make_spec(repo, {20, 21, 22}));  // C: evicts B
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2})).kind, RequestKind::kHit);
  EXPECT_EQ(cache.request(make_spec(repo, {10, 11})).kind, RequestKind::kInsert);
}

TEST(Eviction, LfuEvictsFewestHits) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(EvictionPolicy::kLfu, 60));
  (void)cache.request(make_spec(repo, {1, 2}));    // A
  (void)cache.request(make_spec(repo, {1, 2}));    // A: 1 hit
  (void)cache.request(make_spec(repo, {10, 11}));  // B: 0 hits
  (void)cache.request(make_spec(repo, {10, 11}));  // B: 1 hit
  (void)cache.request(make_spec(repo, {10, 11}));  // B: 2 hits — A now least
  (void)cache.request(make_spec(repo, {20, 21, 22}));  // C: evicts A (LFU)
  EXPECT_EQ(cache.request(make_spec(repo, {10, 11})).kind, RequestKind::kHit);
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2})).kind, RequestKind::kInsert);
}

TEST(Eviction, LargestFirstEvictsBiggest) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(EvictionPolicy::kLargestFirst, 80));
  (void)cache.request(make_spec(repo, {1, 2, 3, 4, 5}));  // big: 50 bytes
  (void)cache.request(make_spec(repo, {10, 11}));         // small: 20 bytes
  (void)cache.request(make_spec(repo, {20, 21}));  // 90 > 80: evicts big
  EXPECT_EQ(cache.request(make_spec(repo, {10, 11})).kind, RequestKind::kHit);
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2, 3, 4, 5})).kind,
            RequestKind::kInsert);
}

TEST(Eviction, HitDensityKeepsHotSmallImages) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(EvictionPolicy::kHitDensity, 80));
  (void)cache.request(make_spec(repo, {1, 2, 3, 4, 5}));  // big, cold
  (void)cache.request(make_spec(repo, {10, 11}));         // small
  (void)cache.request(make_spec(repo, {10, 11}));         // small now hot
  (void)cache.request(make_spec(repo, {20, 21}));  // evicts the cold big one
  EXPECT_EQ(cache.request(make_spec(repo, {10, 11})).kind, RequestKind::kHit);
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2, 3, 4, 5})).kind,
            RequestKind::kInsert);
}

TEST(Eviction, JustServedImageNeverEvicted) {
  const auto repo = flat_repo(100);
  for (auto policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                      EvictionPolicy::kLargestFirst, EvictionPolicy::kHitDensity}) {
    ShardedCache cache(repo, config(policy, 30));
    (void)cache.request(make_spec(repo, {1, 2}));
    // 50-byte image exceeds a 30-byte budget on its own, but it must
    // survive its own request even though other images get evicted.
    const auto outcome = cache.request(make_spec(repo, {10, 11, 12, 13, 14}));
    EXPECT_TRUE(cache.find(outcome.image).has_value()) << to_string(policy);
  }
}

TEST(Eviction, AllPoliciesRespectBudgetEventually) {
  const auto repo = flat_repo(200);
  for (auto policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu,
                      EvictionPolicy::kLargestFirst, EvictionPolicy::kHitDensity}) {
    ShardedCache cache(repo, config(policy, 100));
    for (std::uint32_t i = 0; i + 3 < 200; i += 3) {
      (void)cache.request(make_spec(repo, {i, i + 1, i + 2}));
    }
    EXPECT_LE(cache.total_bytes(), util::Bytes{100}) << to_string(policy);
    EXPECT_GT(cache.counters().deletes, 0u) << to_string(policy);
  }
}

}  // namespace
}  // namespace landlord::core
