#include "spec/package_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace landlord::spec {
namespace {

using pkg::package_id;

TEST(PackageSet, StartsEmpty) {
  PackageSet s(100);
  EXPECT_EQ(s.universe(), 100u);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(PackageSet, InsertEraseContains) {
  PackageSet s(50);
  s.insert(package_id(7));
  EXPECT_TRUE(s.contains(package_id(7)));
  EXPECT_EQ(s.size(), 1u);
  s.insert(package_id(7));  // idempotent
  EXPECT_EQ(s.size(), 1u);
  s.erase(package_id(7));
  EXPECT_FALSE(s.contains(package_id(7)));
  EXPECT_EQ(s.size(), 0u);
  s.erase(package_id(7));  // idempotent
  EXPECT_EQ(s.size(), 0u);
}

TEST(PackageSet, FromIds) {
  const std::vector<pkg::PackageId> ids = {package_id(1), package_id(3),
                                           package_id(3)};
  const auto s = PackageSet::from_ids(10, ids);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(package_id(1)));
  EXPECT_TRUE(s.contains(package_id(3)));
}

/// The per-id oracle the bulk build must match.
PackageSet insert_each(std::size_t universe, const std::vector<pkg::PackageId>& ids) {
  PackageSet set(universe);
  for (const pkg::PackageId id : ids) set.insert(id);
  return set;
}

// from_ids (and the wire path's DynamicBitset::set_all over raw u32
// ids) ORs from four interleaved quarters and counts once, so it must
// equal per-id insert for every list shape: sorted, unsorted, repeated,
// shorter than four, touching universe-1, and universes that leave a
// partial last word.
TEST(PackageSet, BulkFromIdsMatchesPerIdInsert) {
  util::Rng rng(29);
  const std::size_t universes[] = {1, 3, 63, 64, 65, 130, 1500, 9660};
  for (const std::size_t universe : universes) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t length =
          trial < 5 ? static_cast<std::size_t>(trial)
                    : static_cast<std::size_t>(rng.uniform(1, 3 * universe));
      std::vector<pkg::PackageId> ids;
      for (std::size_t k = 0; k < length; ++k) {
        ids.push_back(package_id(static_cast<std::uint32_t>(rng.uniform(universe))));
      }
      if (trial % 4 == 1) ids.push_back(package_id(static_cast<std::uint32_t>(universe - 1)));
      if (trial % 4 == 2) {
        std::sort(ids.begin(), ids.end());
      } else if (trial % 4 == 3) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      }
      SCOPED_TRACE("universe=" + std::to_string(universe) +
                   " ids=" + std::to_string(ids.size()));
      const PackageSet want = insert_each(universe, ids);
      const PackageSet got = PackageSet::from_ids(universe, ids);
      EXPECT_EQ(got, want);
      EXPECT_EQ(got.size(), want.size());

      std::vector<std::uint32_t> raw;
      for (const pkg::PackageId id : ids) raw.push_back(pkg::to_index(id));
      util::DynamicBitset bits(universe);
      bits.set_all(std::span<const std::uint32_t>(raw));
      EXPECT_EQ(PackageSet(std::move(bits)), want);
    }
  }
}

TEST(PackageSet, MergeIsUnion) {
  PackageSet a(20), b(20);
  a.insert(package_id(1));
  a.insert(package_id(2));
  b.insert(package_id(2));
  b.insert(package_id(3));
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.contains(package_id(3)));
}

TEST(PackageSet, SubtractIsDifference) {
  PackageSet a(20), b(20);
  a.insert(package_id(1));
  a.insert(package_id(2));
  b.insert(package_id(2));
  a.subtract(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(a.contains(package_id(1)));
}

TEST(PackageSet, SubsetChecks) {
  PackageSet small(30), big(30);
  small.insert(package_id(5));
  big.insert(package_id(5));
  big.insert(package_id(6));
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
  EXPECT_TRUE(PackageSet(30).is_subset_of(small));
}

TEST(PackageSet, SubsetCardinalityPreReject) {
  // bigger set can never be a subset of a smaller one.
  PackageSet a(10), b(10);
  a.insert(package_id(0));
  a.insert(package_id(1));
  b.insert(package_id(0));
  EXPECT_FALSE(a.is_subset_of(b));
}

TEST(PackageSet, IntersectionAndUnionSizes) {
  PackageSet a(100), b(100);
  for (std::uint32_t i = 0; i < 60; ++i) a.insert(package_id(i));
  for (std::uint32_t i = 40; i < 100; ++i) b.insert(package_id(i));
  EXPECT_EQ(a.intersection_size(b), 20u);
  EXPECT_EQ(a.union_size(b), 100u);
}

TEST(PackageSet, UnionedWithLeavesOperandsUntouched) {
  PackageSet a(10), b(10);
  a.insert(package_id(1));
  b.insert(package_id(2));
  const auto u = a.unioned_with(b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(PackageSet, Equality) {
  PackageSet a(10), b(10);
  EXPECT_EQ(a, b);
  a.insert(package_id(4));
  EXPECT_FALSE(a == b);
  b.insert(package_id(4));
  EXPECT_EQ(a, b);
}

TEST(PackageSet, ToIdsSortedAscending) {
  PackageSet s(100);
  s.insert(package_id(42));
  s.insert(package_id(3));
  s.insert(package_id(99));
  const auto ids = s.to_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(pkg::to_index(ids[0]), 3u);
  EXPECT_EQ(pkg::to_index(ids[1]), 42u);
  EXPECT_EQ(pkg::to_index(ids[2]), 99u);
}

TEST(PackageSet, ForEachVisitsAllMembers) {
  PackageSet s(64);
  s.insert(package_id(0));
  s.insert(package_id(63));
  std::size_t visits = 0;
  s.for_each([&](pkg::PackageId) { ++visits; });
  EXPECT_EQ(visits, 2u);
}

TEST(PackageSet, AdoptBitset) {
  util::DynamicBitset bits(40);
  bits.set(10);
  bits.set(20);
  PackageSet s(std::move(bits));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(package_id(10)));
}

// Cached-count consistency under random operation sequences.
class PackageSetFuzzTest : public testing::TestWithParam<int> {};

TEST_P(PackageSetFuzzTest, CachedCountAlwaysMatchesBits) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  PackageSet s(257);
  PackageSet other(257);
  for (int step = 0; step < 500; ++step) {
    const auto op = rng.uniform(6);
    const auto id = package_id(static_cast<std::uint32_t>(rng.uniform(257)));
    switch (op) {
      case 0: s.insert(id); break;
      case 1: s.erase(id); break;
      case 2: other.insert(id); break;
      case 3: other.erase(id); break;
      case 4: s.merge(other); break;
      case 5: s.subtract(other); break;
    }
    // The fused kernels maintain the cached cardinality in the same
    // pass as the word op — it must always equal a fresh popcount.
    ASSERT_EQ(s.size(), s.bits().count());
    ASSERT_EQ(other.size(), other.bits().count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackageSetFuzzTest, testing::Range(1, 6));

}  // namespace
}  // namespace landlord::spec
