#include "landlord/sharded.hpp"

#include <gtest/gtest.h>

#include "pkg/synthetic.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace landlord::core {
namespace {

using pkg::package_id;

/// Flat repository: N independent 1-byte... rather, fixed-size packages
/// with no dependencies, so spec contents are exactly what tests insert.
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

CacheConfig config(double alpha, util::Bytes capacity = 1'000'000) {
  CacheConfig c;
  c.alpha = alpha;
  c.capacity = capacity;
  return c;
}

TEST(Cache, FirstRequestInserts) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.5));
  const auto outcome = cache.request(make_spec(repo, {1, 2, 3}));
  EXPECT_EQ(outcome.kind, RequestKind::kInsert);
  EXPECT_EQ(cache.image_count(), 1u);
  EXPECT_EQ(cache.total_bytes(), util::Bytes{30});
  EXPECT_EQ(cache.counters().inserts, 1u);
}

TEST(Cache, IdenticalRequestHits) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));  // alpha 0: no merging ever
  (void)cache.request(make_spec(repo, {1, 2, 3}));
  const auto outcome = cache.request(make_spec(repo, {1, 2, 3}));
  EXPECT_EQ(outcome.kind, RequestKind::kHit);
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.image_count(), 1u);
}

TEST(Cache, SubsetRequestHitsExistingImage) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1, 2, 3, 4}));
  const auto outcome = cache.request(make_spec(repo, {2, 3}));
  EXPECT_EQ(outcome.kind, RequestKind::kHit);
  EXPECT_EQ(outcome.image_bytes, util::Bytes{40});  // serves the big image
}

TEST(Cache, SupersetRequestDoesNotHit) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1, 2}));
  const auto outcome = cache.request(make_spec(repo, {1, 2, 3}));
  EXPECT_NE(outcome.kind, RequestKind::kHit);
}

TEST(Cache, HitPrefersSmallestSatisfyingImage) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1, 2, 3, 4, 5, 6}));  // 60 bytes
  (void)cache.request(make_spec(repo, {1, 2, 3}));           // hits big image
  // Insert a smaller superset of {1,2}: the set {1,2,9} is not a superset
  // of {1,2,3}, so it inserts.
  (void)cache.request(make_spec(repo, {1, 2, 9}));
  const auto outcome = cache.request(make_spec(repo, {1, 2}));
  EXPECT_EQ(outcome.kind, RequestKind::kHit);
  EXPECT_EQ(outcome.image_bytes, util::Bytes{30});  // the smaller one
}

TEST(Cache, AlphaZeroNeverMerges) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1, 2, 3}));
  const auto outcome = cache.request(make_spec(repo, {1, 2, 4}));
  EXPECT_EQ(outcome.kind, RequestKind::kInsert);
  EXPECT_EQ(cache.counters().merges, 0u);
  EXPECT_EQ(cache.image_count(), 2u);
}

TEST(Cache, CloseSpecsMergeUnderHighAlpha) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  (void)cache.request(make_spec(repo, {1, 2, 3}));
  // d({1,2,3},{1,2,4}) = 1 - 2/4 = 0.5 < 0.9 -> merge.
  const auto outcome = cache.request(make_spec(repo, {1, 2, 4}));
  EXPECT_EQ(outcome.kind, RequestKind::kMerge);
  EXPECT_EQ(cache.image_count(), 1u);
  EXPECT_EQ(outcome.image_bytes, util::Bytes{40});  // {1,2,3,4}
  EXPECT_EQ(cache.counters().merges, 1u);
}

TEST(Cache, DistanceAtAlphaDoesNotMerge) {
  const auto repo = flat_repo(100);
  // d({1,2},{1,3}) = 1 - 1/3 = 0.6667. alpha exactly there: strict <.
  ShardedCache cache(repo, config(2.0 / 3.0));
  (void)cache.request(make_spec(repo, {1, 2}));
  const auto outcome = cache.request(make_spec(repo, {1, 3}));
  EXPECT_EQ(outcome.kind, RequestKind::kInsert);
}

TEST(Cache, MergedImageServesBothSpecs) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  (void)cache.request(make_spec(repo, {1, 2, 3}));
  (void)cache.request(make_spec(repo, {1, 2, 4}));
  // Both originals now hit the merged image.
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2, 3})).kind, RequestKind::kHit);
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2, 4})).kind, RequestKind::kHit);
}

TEST(Cache, BestFitMergesIntoClosestImage) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.95));
  (void)cache.request(make_spec(repo, {1, 2, 3, 4}));      // A
  (void)cache.request(make_spec(repo, {50, 51, 52, 53}));  // B (disjoint from A)
  // Closest to A (d = 1 - 3/5 = 0.4); to B d = 1.0 but 1.0 < 0.95 false.
  const auto outcome = cache.request(make_spec(repo, {1, 2, 3, 5}));
  EXPECT_EQ(outcome.kind, RequestKind::kMerge);
  // Merged image is A ∪ {5} (5 packages, 50 bytes).
  EXPECT_EQ(outcome.image_bytes, util::Bytes{50});
}

TEST(Cache, AlphaOneMergesEverythingMergeable) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(1.0));
  (void)cache.request(make_spec(repo, {1}));
  (void)cache.request(make_spec(repo, {50}));
  (void)cache.request(make_spec(repo, {99}));
  EXPECT_EQ(cache.image_count(), 1u);
  EXPECT_EQ(cache.counters().merges, 2u);
}

TEST(Cache, LruEvictionWhenOverCapacity) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0, 50));  // capacity 5 packages
  (void)cache.request(make_spec(repo, {1, 2, 3}));    // 30 bytes
  (void)cache.request(make_spec(repo, {10, 11, 12})); // 30 bytes -> evict first
  EXPECT_EQ(cache.counters().deletes, 1u);
  EXPECT_EQ(cache.image_count(), 1u);
  // The first image is gone: requesting it again re-inserts.
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2, 3})).kind, RequestKind::kInsert);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0, 70));
  (void)cache.request(make_spec(repo, {1, 2, 3}));     // A
  (void)cache.request(make_spec(repo, {10, 11, 12}));  // B
  (void)cache.request(make_spec(repo, {1, 2, 3}));     // touch A
  (void)cache.request(make_spec(repo, {20, 21, 22}));  // C -> evicts B
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2, 3})).kind, RequestKind::kHit);
  EXPECT_EQ(cache.request(make_spec(repo, {10, 11, 12})).kind,
            RequestKind::kInsert);
}

TEST(Cache, SingleOversizedImageIsKept) {
  // An image bigger than capacity must not evict itself (alpha = 1
  // all-purpose image semantics).
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(1.0, 25));
  (void)cache.request(make_spec(repo, {1, 2, 3}));  // 30 > 25
  EXPECT_EQ(cache.image_count(), 1u);
  EXPECT_EQ(cache.counters().deletes, 0u);
}

TEST(Cache, WrittenBytesChargedOnInsertAndMergeNotHit) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  (void)cache.request(make_spec(repo, {1, 2, 3}));  // +30
  EXPECT_EQ(cache.counters().written_bytes, util::Bytes{30});
  (void)cache.request(make_spec(repo, {1, 2, 3}));  // hit: +0
  EXPECT_EQ(cache.counters().written_bytes, util::Bytes{30});
  (void)cache.request(make_spec(repo, {1, 2, 4}));  // merge: whole image +40
  EXPECT_EQ(cache.counters().written_bytes, util::Bytes{70});
}

TEST(Cache, RequestedBytesAccumulatePerRequest) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {1, 2}));
  EXPECT_EQ(cache.counters().requested_bytes, util::Bytes{40});
}

TEST(Cache, ContainerEfficiencyPerfectWithoutMerging) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {3, 4, 5}));
  EXPECT_DOUBLE_EQ(cache.counters().container_efficiency(), 1.0);
}

TEST(Cache, ContainerEfficiencyDegradesWithMerging) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  (void)cache.request(make_spec(repo, {1, 2, 3}));  // exact: 1.0
  (void)cache.request(make_spec(repo, {1, 2, 4}));  // merged into 4 pkgs: 0.75
  EXPECT_NEAR(cache.counters().container_efficiency(), (1.0 + 0.75) / 2, 1e-12);
}

TEST(Cache, UniqueVsTotalBytes) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1, 2, 3}));
  (void)cache.request(make_spec(repo, {2, 3, 4}));
  EXPECT_EQ(cache.total_bytes(), util::Bytes{60});
  EXPECT_EQ(cache.unique_bytes(), util::Bytes{40});  // {1,2,3,4}
  EXPECT_NEAR(cache.cache_efficiency(), 40.0 / 60.0, 1e-12);
}

TEST(Cache, EmptyCacheEfficiencyIsOne) {
  const auto repo = flat_repo(10);
  ShardedCache cache(repo, config(0.5));
  EXPECT_DOUBLE_EQ(cache.cache_efficiency(), 1.0);
  EXPECT_EQ(cache.unique_bytes(), util::Bytes{0});
}

TEST(Cache, ConflictingConstraintsBlockMergeAndInsert) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  auto a = make_spec(repo, {1, 2, 3});
  a.add_constraint({"python", spec::ConstraintOp::kEq, "3.8"});
  auto b = make_spec(repo, {1, 2, 4});
  b.add_constraint({"python", spec::ConstraintOp::kEq, "3.9"});
  (void)cache.request(a);
  const auto outcome = cache.request(b);
  EXPECT_EQ(outcome.kind, RequestKind::kInsert);
  EXPECT_EQ(cache.counters().conflict_rejections, 1u);
  EXPECT_EQ(cache.image_count(), 2u);
}

TEST(Cache, CompatibleConstraintsStillMerge) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  auto a = make_spec(repo, {1, 2, 3});
  a.add_constraint({"python", spec::ConstraintOp::kGe, "3.0"});
  auto b = make_spec(repo, {1, 2, 4});
  b.add_constraint({"python", spec::ConstraintOp::kEq, "3.8"});
  (void)cache.request(a);
  EXPECT_EQ(cache.request(b).kind, RequestKind::kMerge);
}

TEST(Cache, MergedImageAccumulatesConstraints) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  auto a = make_spec(repo, {1, 2, 3});
  a.add_constraint({"gcc", spec::ConstraintOp::kGe, "9"});
  auto b = make_spec(repo, {1, 2, 4});
  b.add_constraint({"gcc", spec::ConstraintOp::kLt, "10"});
  (void)cache.request(a);
  (void)cache.request(b);
  // Now a spec needing gcc==11 conflicts with the accumulated [9,10).
  auto c = make_spec(repo, {1, 2, 5});
  c.add_constraint({"gcc", spec::ConstraintOp::kEq, "11"});
  EXPECT_EQ(cache.request(c).kind, RequestKind::kInsert);
}

TEST(Cache, TimeSeriesRecordsWhenEnabled) {
  const auto repo = flat_repo(100);
  auto cfg = config(0.9);
  cfg.record_time_series = true;
  ShardedCache cache(repo, cfg);
  (void)cache.request(make_spec(repo, {1, 2}));
  (void)cache.request(make_spec(repo, {1, 2}));
  const auto series = cache.time_series();
  const auto& samples = series.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].kind, RequestKind::kInsert);
  EXPECT_EQ(samples[1].kind, RequestKind::kHit);
  EXPECT_EQ(samples[1].hits, 1u);
  EXPECT_EQ(samples[1].cached_bytes, util::Bytes{20});
  EXPECT_EQ(samples[1].image_count, 1u);
}

TEST(Cache, TimeSeriesEmptyWhenDisabled) {
  const auto repo = flat_repo(10);
  ShardedCache cache(repo, config(0.5));
  (void)cache.request(make_spec(repo, {1}));
  EXPECT_TRUE(cache.time_series().empty());
}

TEST(Cache, FindReturnsImageAndNulloptForEvicted) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0, 30));
  const auto first = cache.request(make_spec(repo, {1, 2, 3}));
  ASSERT_TRUE(cache.find(first.image).has_value());
  EXPECT_EQ(cache.find(first.image)->bytes, util::Bytes{30});
  (void)cache.request(make_spec(repo, {4, 5, 6}));  // evicts first
  EXPECT_FALSE(cache.find(first.image).has_value());
}

TEST(Cache, MergeKeepsImageIdStable) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.9));
  const auto first = cache.request(make_spec(repo, {1, 2, 3}));
  const auto merged = cache.request(make_spec(repo, {1, 2, 4}));
  EXPECT_EQ(merged.image, first.image);
  EXPECT_EQ(cache.find(first.image)->merge_count, 1u);
}

TEST(Cache, MinHashPolicyAgreesWithExactOnClearCases) {
  const auto repo = flat_repo(200);
  auto cfg = config(0.9);
  cfg.policy = MergePolicy::kMinHashLsh;
  ShardedCache cache(repo, cfg);
  // Nearly identical specs (63/64 overlap): LSH must surface the
  // candidate and merge.
  spec::PackageSet a(repo.size()), b(repo.size());
  for (std::uint32_t i = 0; i < 64; ++i) a.insert(package_id(i));
  for (std::uint32_t i = 1; i < 65; ++i) b.insert(package_id(i));
  (void)cache.request(spec::Specification(a));
  EXPECT_EQ(cache.request(spec::Specification(b)).kind, RequestKind::kMerge);
}

TEST(Cache, FirstFitPolicyStillMerges) {
  const auto repo = flat_repo(100);
  auto cfg = config(0.9);
  cfg.policy = MergePolicy::kFirstFit;
  ShardedCache cache(repo, cfg);
  (void)cache.request(make_spec(repo, {1, 2, 3}));
  EXPECT_EQ(cache.request(make_spec(repo, {1, 2, 4})).kind, RequestKind::kMerge);
}

TEST(Cache, ForEachImageVisitsAll) {
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.0));
  (void)cache.request(make_spec(repo, {1}));
  (void)cache.request(make_spec(repo, {2}));
  std::size_t count = 0;
  util::Bytes bytes = 0;
  cache.for_each_image([&](const Image& image) {
    ++count;
    bytes += image.bytes;
  });
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(bytes, cache.total_bytes());
}

TEST(Cache, EmptySpecHitsAnyExistingImage) {
  const auto repo = flat_repo(10);
  ShardedCache cache(repo, config(0.5));
  (void)cache.request(make_spec(repo, {1}));
  EXPECT_EQ(cache.request(make_spec(repo, {})).kind, RequestKind::kHit);
}

TEST(Cache, MergedImageConstraintsStayBoundedUnderRepeatedMerges) {
  // Regression: the merge path used to append every folded-in spec's
  // constraints verbatim, so a hot image merging N specs that all carry
  // {python == 3.8} accumulated N copies — linear bloat that slowed
  // every later compatibility check. Dedup keeps it at the distinct set.
  const auto repo = flat_repo(100);
  ShardedCache cache(repo, config(0.95));

  const spec::VersionConstraint python{"python", spec::ConstraintOp::kEq, "3.8"};
  const spec::VersionConstraint gcc{"gcc", spec::ConstraintOp::kGe, "12"};

  auto first = make_spec(repo, {1, 2, 3});
  first.add_constraint(python);
  const auto inserted = cache.request(first);
  ASSERT_EQ(inserted.kind, RequestKind::kInsert);

  std::uint64_t merges = 0;
  for (std::uint32_t k = 4; k < 24; ++k) {
    auto next = make_spec(repo, {1, 2, k});
    next.add_constraint(python);  // same constraint every time
    if (k % 2 == 0) next.add_constraint(gcc);
    const auto outcome = cache.request(next);
    if (outcome.kind != RequestKind::kMerge) continue;
    ++merges;
    const auto image = cache.find(outcome.image);
    ASSERT_TRUE(image.has_value());
    // Bounded by the distinct constraints seen, never by merge count.
    EXPECT_LE(image->constraints.size(), 2u);
  }
  ASSERT_GT(merges, 5u);  // the loop actually exercised the merge arm
  const auto image = cache.find(inserted.image);
  ASSERT_TRUE(image.has_value());
  ASSERT_EQ(image->constraints.size(), 2u);
  EXPECT_EQ(image->constraints[0], python);  // first-occurrence order kept
  EXPECT_EQ(image->constraints[1], gcc);
}

TEST(Cache, IncrementalUniqueBytesLedgerMatchesRecomputeOracle) {
  // unique_bytes() with time-series recording on is served from the
  // incremental union ledger (O(1)); it must equal the brute-force union
  // recompute after every mutation kind — insert, merge, split, and
  // budget eviction.
  const auto repo = flat_repo(120);
  auto cfg = config(0.9, 400);  // small budget: forces evictions
  cfg.record_time_series = true;
  cfg.enable_split = true;
  cfg.split_utilization = 0.4;
  ShardedCache cache(repo, cfg);

  const auto oracle = [&] {
    util::DynamicBitset all(repo.size());
    cache.for_each_image(
        [&](const Image& image) { all |= image.contents.bits(); });
    return repo.bytes_of(all);
  };

  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    spec::PackageSet set(repo.size());
    const auto picks = rng.sample_without_replacement(
        120, static_cast<std::uint32_t>(1 + i % 8));
    for (auto p : picks) set.insert(package_id(p));
    (void)cache.request(spec::Specification(std::move(set)));
    ASSERT_EQ(cache.unique_bytes(), oracle()) << "after request " << i;
  }
  EXPECT_GT(cache.counters().deletes, 0u);  // evictions were exercised
}

}  // namespace
}  // namespace landlord::core
