#include "landlord/landlord.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "pkg/synthetic.hpp"
#include "spec/inference.hpp"

namespace landlord::core {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 600;
    auto result = pkg::generate_repository(params, 5);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

spec::Specification spec_for(std::initializer_list<std::uint32_t> ids) {
  std::vector<pkg::PackageId> request;
  for (auto i : ids) request.push_back(pkg::package_id(i));
  return spec::Specification::from_request(repo(), request);
}

CacheConfig cache_config(double alpha) {
  CacheConfig c;
  c.alpha = alpha;
  c.capacity = repo().total_bytes();
  return c;
}

TEST(Landlord, FirstSubmitInsertsAndCharsPrepTime) {
  Landlord landlord(repo(), cache_config(0.8));
  const auto placement = landlord.submit(spec_for({500, 501}));
  EXPECT_EQ(placement.kind, RequestKind::kInsert);
  EXPECT_GT(placement.prep_seconds, 0.0);
  EXPECT_GT(placement.image_bytes, util::Bytes{0});
  EXPECT_EQ(placement.image_bytes, placement.requested_bytes);
  EXPECT_DOUBLE_EQ(landlord.total_prep_seconds(), placement.prep_seconds);
}

TEST(Landlord, RepeatSubmitHitsWithZeroPrep) {
  Landlord landlord(repo(), cache_config(0.8));
  (void)landlord.submit(spec_for({500, 501}));
  const double after_first = landlord.total_prep_seconds();
  const auto placement = landlord.submit(spec_for({500, 501}));
  EXPECT_EQ(placement.kind, RequestKind::kHit);
  EXPECT_DOUBLE_EQ(placement.prep_seconds, 0.0);
  EXPECT_DOUBLE_EQ(landlord.total_prep_seconds(), after_first);
}

TEST(Landlord, MergeRebuildCostsLessThanColdBuild) {
  // The builder's chunk cache persists, so a merge re-build downloads
  // only new content: its prep time must be below a cold build of the
  // same merged image.
  Landlord landlord(repo(), cache_config(0.95));
  const auto first = landlord.submit(spec_for({500, 501, 502}));
  const auto merged = landlord.submit(spec_for({500, 501, 503}));
  ASSERT_EQ(merged.kind, RequestKind::kMerge);

  // Cold reference build of the merged contents.
  Landlord cold(repo(), cache_config(0.95));
  const auto cold_spec = spec_for({500, 501, 502, 503});
  const auto cold_build = cold.submit(cold_spec);
  EXPECT_LT(merged.prep_seconds, cold_build.prep_seconds);
  EXPECT_GT(first.prep_seconds, 0.0);
}

TEST(Landlord, SplitHitChargesRebuildTime) {
  // A hit that triggers a lineage split rewrites two images; the
  // placement must carry that preparation cost instead of reporting a
  // free hit.
  auto config = cache_config(1.0);
  config.enable_split = true;
  config.split_utilization = 0.6;
  Landlord landlord(repo(), config);
  const auto small = spec_for({500});
  (void)landlord.submit(small);
  (void)landlord.submit(spec_for({300, 301, 302, 303}));  // merged: bloat
  const auto placement = landlord.submit(small);          // hit via split
  EXPECT_EQ(placement.kind, RequestKind::kHit);
  EXPECT_GT(landlord.cache().counters().splits, 0u);
  EXPECT_GT(placement.prep_seconds, 0.0);
}

TEST(Landlord, PlacementImageSatisfiesSpec) {
  Landlord landlord(repo(), cache_config(0.9));
  const auto spec = spec_for({100, 200, 300});
  const auto placement = landlord.submit(spec);
  const auto image = landlord.cache().find(placement.image);
  ASSERT_TRUE(image.has_value());
  EXPECT_TRUE(spec.satisfied_by(image->contents));
}

TEST(Landlord, PlacementNamesAResidentImageAtItsCachedSize) {
  // The residency-and-size rule: with one submitting thread, a placement
  // served without degrading names an image that is resident in the
  // cache at exactly the size the placement reports — across inserts,
  // merges, hits and evictions.
  auto config = cache_config(0.9);
  config.capacity = repo().total_bytes() / 8;  // force evictions
  Landlord landlord(repo(), config);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const std::uint32_t a = (i * 37) % 50 * 11;
    const auto placement = landlord.submit(spec_for({a, a + 1, (a + i % 3) % 600}));
    ASSERT_FALSE(placement.failed || placement.degraded) << i;
    const auto image = landlord.cache().find(placement.image);
    ASSERT_TRUE(image.has_value()) << "request " << i << ": image "
                                   << to_value(placement.image) << " not resident";
    EXPECT_EQ(image->bytes, placement.image_bytes) << "request " << i;
  }
  const auto counters = landlord.counters();
  EXPECT_GT(counters.hits, 0u);
  EXPECT_GT(counters.merges, 0u);
  EXPECT_GT(counters.inserts, 0u);
  EXPECT_GT(counters.deletes, 0u);
}

TEST(Landlord, RequestedBytesNeverExceedImageBytes) {
  Landlord landlord(repo(), cache_config(0.9));
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto placement = landlord.submit(spec_for({i * 7 % 600, i * 13 % 600}));
    EXPECT_LE(placement.requested_bytes, placement.image_bytes);
  }
}

TEST(Landlord, WorksWithInferredSpecs) {
  // End-to-end: infer a spec from a synthetic job log referencing real
  // repo packages, then submit it.
  const auto& r = repo();
  const auto& info = r[pkg::package_id(42)];
  std::string log_line =
      "open /cvmfs/sft.cern.ch/" + info.name + "/" + info.version + "/lib/x.so\n";
  std::istringstream log(log_line);
  const auto requirements = spec::scan_job_log(log);
  ASSERT_EQ(requirements.size(), 1u);
  const auto spec = spec::infer_specification(r, requirements, "job-log");
  EXPECT_GE(spec.size(), 1u);

  Landlord landlord(r, cache_config(0.8));
  const auto placement = landlord.submit(spec);
  EXPECT_EQ(placement.kind, RequestKind::kInsert);
}

TEST(Landlord, DecisionViolationChecksThePlacementAgainstItsOutcome) {
  ShardedCache::Outcome merge;
  merge.kind = RequestKind::kMerge;
  merge.image = ImageId{7};
  merge.image_bytes = 500;
  merge.requested_bytes = 120;

  JobPlacement sound;
  sound.kind = RequestKind::kMerge;
  sound.image = ImageId{7};
  sound.image_bytes = 500;
  sound.requested_bytes = 120;
  EXPECT_EQ(decision_violation(merge, sound), std::nullopt);

  JobPlacement wrong_size = sound;
  wrong_size.image_bytes = 499;
  EXPECT_NE(decision_violation(merge, wrong_size), std::nullopt);
  JobPlacement wrong_image = sound;
  wrong_image.image = ImageId{8};
  EXPECT_NE(decision_violation(merge, wrong_image), std::nullopt);

  // Rung 2: the uncached sentinel at exactly the requested size.
  JobPlacement exact = sound;
  exact.kind = RequestKind::kInsert;
  exact.degraded = true;
  exact.image = kUncachedImage;
  exact.image_bytes = 120;
  EXPECT_EQ(decision_violation(merge, exact), std::nullopt);
  exact.image_bytes = 500;
  EXPECT_NE(decision_violation(merge, exact), std::nullopt);
  JobPlacement degraded_insert = sound;
  degraded_insert.kind = RequestKind::kInsert;
  degraded_insert.degraded = true;
  EXPECT_NE(decision_violation(merge, degraded_insert), std::nullopt);

  // Rung 3: the unsplit image the split was carved from, pre-split size.
  ShardedCache::Outcome split;
  split.kind = RequestKind::kHit;
  split.split = true;
  split.image = ImageId{9};
  split.image_bytes = 100;
  split.split_from = ImageId{3};
  split.split_from_bytes = 900;
  JobPlacement unsplit;
  unsplit.kind = RequestKind::kHit;
  unsplit.degraded = true;
  unsplit.image = ImageId{3};
  unsplit.image_bytes = 900;
  EXPECT_EQ(decision_violation(split, unsplit), std::nullopt);
  unsplit.image = ImageId{9};
  EXPECT_NE(decision_violation(split, unsplit), std::nullopt);

  JobPlacement failed;
  failed.failed = true;
  EXPECT_NE(decision_violation(merge, failed), std::nullopt);
  failed.error = "ladder exhausted";
  EXPECT_EQ(decision_violation(merge, failed), std::nullopt);
}

}  // namespace
}  // namespace landlord::core
