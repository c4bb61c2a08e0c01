#include "landlord/persist.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::core {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 700;
    auto result = pkg::generate_repository(params, 131);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

CacheConfig config(double alpha = 0.8) {
  CacheConfig c;
  c.alpha = alpha;
  c.capacity = repo().total_bytes();
  return c;
}

std::unique_ptr<ShardedCache> populated_cache() {
  auto cache = std::make_unique<ShardedCache>(repo(), config());
  sim::WorkloadConfig workload;
  workload.unique_jobs = 25;
  workload.repetitions = 2;
  workload.max_initial_selection = 10;
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(3));
  const auto specs = generator.unique_specifications();
  for (auto index : generator.request_stream()) (void)cache->request(specs[index]);
  return cache;
}

TEST(Persist, RoundTripPreservesImages) {
  const auto original = populated_cache();
  std::stringstream snapshot;
  save_cache(snapshot, *original, repo());

  auto restored = restore_cache(snapshot, repo(), config());
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored.value()->image_count(), original->image_count());
  EXPECT_EQ(restored.value()->total_bytes(), original->total_bytes());
  EXPECT_EQ(restored.value()->unique_bytes(), original->unique_bytes());
}

TEST(Persist, RestoreChargesNoWrites) {
  const auto original = populated_cache();
  std::stringstream snapshot;
  save_cache(snapshot, *original, repo());
  auto restored = restore_cache(snapshot, repo(), config());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->counters().written_bytes, util::Bytes{0});
  EXPECT_EQ(restored.value()->counters().inserts, 0u);
  EXPECT_EQ(restored.value()->counters().requests, 0u);
}

TEST(Persist, RestoredCacheServesSameRequests) {
  auto original = std::make_unique<ShardedCache>(repo(), config());
  sim::WorkloadConfig workload;
  workload.unique_jobs = 15;
  workload.max_initial_selection = 8;
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(5));
  const auto specs = generator.unique_specifications();
  for (const auto& spec : specs) (void)original->request(spec);

  std::stringstream snapshot;
  save_cache(snapshot, *original, repo());
  auto restored = restore_cache(snapshot, repo(), config());
  ASSERT_TRUE(restored.ok());

  // Every spec the original could serve hits in the restored cache too.
  for (const auto& spec : specs) {
    EXPECT_EQ(restored.value()->request(spec).kind, RequestKind::kHit);
  }
}

TEST(Persist, HitAndMergeHistorySurvive) {
  auto original = std::make_unique<ShardedCache>(repo(), config(0.9));
  sim::WorkloadConfig workload;
  workload.unique_jobs = 10;
  workload.repetitions = 3;
  workload.max_initial_selection = 8;
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(7));
  const auto specs = generator.unique_specifications();
  for (auto index : generator.request_stream()) (void)original->request(specs[index]);

  std::uint64_t original_hits = 0;
  std::uint32_t original_merges = 0;
  original->for_each_image([&](const Image& image) {
    original_hits += image.hits;
    original_merges += image.merge_count;
  });

  std::stringstream snapshot;
  save_cache(snapshot, *original, repo());
  auto restored = restore_cache(snapshot, repo(), config(0.9));
  ASSERT_TRUE(restored.ok());

  std::uint64_t restored_hits = 0;
  std::uint32_t restored_merges = 0;
  restored.value()->for_each_image([&](const Image& image) {
    restored_hits += image.hits;
    restored_merges += image.merge_count;
  });
  EXPECT_EQ(restored_hits, original_hits);
  EXPECT_EQ(restored_merges, original_merges);
}

TEST(Persist, ConstraintsSurviveRoundTrip) {
  auto original = std::make_unique<ShardedCache>(repo(), config());
  spec::PackageSet set(repo().size());
  set.insert(pkg::package_id(5));
  spec::Specification spec(std::move(set));
  spec.add_constraint({"python", spec::ConstraintOp::kEq, "3.8"});
  (void)original->request(spec);

  std::stringstream snapshot;
  save_cache(snapshot, *original, repo());
  auto restored = restore_cache(snapshot, repo(), config());
  ASSERT_TRUE(restored.ok());

  bool found = false;
  restored.value()->for_each_image([&](const Image& image) {
    for (const auto& constraint : image.constraints) {
      found |= constraint.package == "python" && constraint.version == "3.8" &&
               constraint.op == spec::ConstraintOp::kEq;
    }
  });
  EXPECT_TRUE(found);
}

TEST(Persist, SmallerBudgetEvictsOldestOnRestore) {
  const auto original = populated_cache();
  std::stringstream snapshot;
  save_cache(snapshot, *original, repo());

  auto small = config();
  small.capacity = original->total_bytes() / 3;
  auto restored = restore_cache(snapshot, repo(), small);
  ASSERT_TRUE(restored.ok());
  EXPECT_LT(restored.value()->image_count(), original->image_count());
  EXPECT_LE(restored.value()->total_bytes(), small.capacity);
  EXPECT_GT(restored.value()->counters().deletes, 0u);
}

TEST(Persist, EmptyCacheRoundTrips) {
  ShardedCache empty(repo(), config());
  std::stringstream snapshot;
  save_cache(snapshot, empty, repo());
  auto restored = restore_cache(snapshot, repo(), config());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->image_count(), 0u);
}

TEST(Persist, RejectsBadMagicAndGarbage) {
  {
    std::istringstream in("not a snapshot\n");
    EXPECT_FALSE(restore_cache(in, repo(), config()).ok());
  }
  {
    std::istringstream in("landlord-cache v1\nfrobnicate\n");
    EXPECT_FALSE(restore_cache(in, repo(), config()).ok());
  }
  {
    std::istringstream in("landlord-cache v1\nimage 0 0 0 ghost/1\n");
    EXPECT_FALSE(restore_cache(in, repo(), config()).ok());
  }
  {
    std::istringstream in("landlord-cache v1\nconstraint 0 x==1\n");
    EXPECT_FALSE(restore_cache(in, repo(), config()).ok());
  }
}

TEST(Persist, FileRoundTrip) {
  const auto original = populated_cache();
  const std::string path = testing::TempDir() + "/landlord_cache_snapshot.txt";
  ASSERT_TRUE(save_cache_file(path, *original, repo()));
  auto restored = restore_cache_file(path, repo(), config());
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored.value()->image_count(), original->image_count());
  std::remove(path.c_str());
  EXPECT_FALSE(restore_cache_file(path, repo(), config()).ok());
}

}  // namespace
}  // namespace landlord::core
