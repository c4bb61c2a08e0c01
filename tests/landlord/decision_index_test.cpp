// Index-vs-scan equivalence oracle for the sublinear decision path.
//
// CacheConfig::decision_index promises that the inverted postings index,
// the ordered eviction index, and the spec memo (src/landlord/index.hpp)
// are *bit-identical* to the naive O(images) scans they replace. This
// suite replays identical seeded workloads through an indexed and a scan
// cache and compares every per-request outcome, every counter, every
// final image, and — via peek_victim — every eviction tie-break, across
// all four EvictionPolicy variants. It also regression-tests the index
// structures directly: stale postings tombstones after erasure, bounded
// postings growth below the scan cutover, memo epoch invalidation, and
// reconciliation after restore.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "landlord/index.hpp"
#include "landlord/persist.hpp"
#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::core {
namespace {

const pkg::Repository& shared_repo() {
  static const pkg::Repository repo = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 900;
    auto result = pkg::generate_repository(params, 1234);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return repo;
}

struct Replay {
  std::vector<spec::Specification> specs;
  std::vector<std::uint32_t> stream;
};

Replay make_replay(std::uint64_t seed) {
  sim::WorkloadConfig workload;
  workload.unique_jobs = 50;
  workload.repetitions = 3;
  workload.max_initial_selection = 16;
  sim::WorkloadGenerator generator(shared_repo(), workload, util::Rng(seed));
  return {generator.unique_specifications(), generator.request_stream()};
}

std::vector<Image> sorted_images(const ShardedCache& cache) {
  std::vector<Image> images;
  cache.for_each_image([&](const Image& image) { images.push_back(image); });
  std::sort(images.begin(), images.end(), [](const Image& a, const Image& b) {
    return to_value(a.id) < to_value(b.id);
  });
  return images;
}

void expect_equal_states(const ShardedCache& scan, const ShardedCache& indexed) {
  const auto& a = scan.counters();
  const auto& b = indexed.counters();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.splits, b.splits);
  EXPECT_EQ(a.conflict_rejections, b.conflict_rejections);
  EXPECT_EQ(a.requested_bytes, b.requested_bytes);
  EXPECT_EQ(a.written_bytes, b.written_bytes);
  EXPECT_DOUBLE_EQ(a.container_efficiency_sum, b.container_efficiency_sum);

  const auto lhs = sorted_images(scan);
  const auto rhs = sorted_images(indexed);
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(to_value(lhs[i].id), to_value(rhs[i].id));
    EXPECT_TRUE(lhs[i].contents == rhs[i].contents)
        << "image " << to_value(lhs[i].id) << " contents differ";
    EXPECT_EQ(lhs[i].bytes, rhs[i].bytes);
    EXPECT_EQ(lhs[i].last_used, rhs[i].last_used);
    EXPECT_EQ(lhs[i].hits, rhs[i].hits);
    EXPECT_EQ(lhs[i].version, rhs[i].version);
  }
  EXPECT_EQ(scan.total_bytes(), indexed.total_bytes());
  EXPECT_EQ(scan.unique_bytes(), indexed.unique_bytes());
}

/// Replays the same stream through a scan cache (the oracle) and an
/// indexed cache in lockstep, comparing outcomes and — when asked — the
/// next eviction victim after every single request.
void run_index_oracle(CacheConfig config, std::uint64_t seed,
                      bool compare_victims) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(seed);

  config.decision_index = false;
  ShardedCache scan(repo, config);
  config.decision_index = true;
  // Force the postings probe even at small N — this oracle exists to
  // prove the *index* path matches the scan; the adaptive cutover is
  // covered by AdaptiveCutoverMatchesScanAtSmallN.
  config.scan_cutover = 0;
  ShardedCache indexed(repo, config);

  for (std::uint32_t index : replay.stream) {
    const auto expected = scan.request(replay.specs[index]);
    const auto actual = indexed.request(replay.specs[index]);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
    ASSERT_EQ(static_cast<int>(expected.kind), static_cast<int>(actual.kind));
    ASSERT_EQ(expected.image_bytes, actual.image_bytes);
    ASSERT_EQ(expected.split, actual.split);
    if (compare_victims) {
      const auto vs = scan.peek_victim();
      const auto vi = indexed.peek_victim();
      ASSERT_EQ(vs.has_value(), vi.has_value());
      if (vs) {
        ASSERT_EQ(to_value(*vs), to_value(*vi)) << "victim tie-break diverged";
      }
    }
  }
  expect_equal_states(scan, indexed);
  EXPECT_EQ(indexed.check_decision_index(), std::nullopt);
  EXPECT_GT(indexed.index_stats().postings_probes, 0u);

  // Persisted snapshots must be byte-identical with the knob on or off.
  std::ostringstream ss, si;
  save_cache(ss, scan, repo);
  save_cache(si, indexed, repo);
  EXPECT_EQ(ss.str(), si.str());
}

class DecisionIndexOracleTest
    : public testing::TestWithParam<std::tuple<double, MergePolicy, EvictionPolicy>> {};

TEST_P(DecisionIndexOracleTest, MatchesScanUnderEvictionPressure) {
  const auto [alpha, policy, eviction] = GetParam();
  CacheConfig config;
  config.alpha = alpha;
  config.policy = policy;
  config.eviction = eviction;
  config.capacity = shared_repo().total_bytes() / 4;  // forces evictions
  run_index_oracle(config, /*seed=*/11, /*compare_victims=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaByPolicyByEviction, DecisionIndexOracleTest,
    testing::Combine(
        testing::Values(0.0, 0.8, 1.0),
        testing::Values(MergePolicy::kBestFit, MergePolicy::kFirstFit,
                        MergePolicy::kMinHashLsh),
        testing::Values(EvictionPolicy::kLru, EvictionPolicy::kLfu,
                        EvictionPolicy::kLargestFirst,
                        EvictionPolicy::kHitDensity)));

// Property: across randomized seeded workloads, the ordered eviction
// index picks the identical victim as the full scan after *every*
// request, for every EvictionPolicy — including tie-breaks (last_used,
// then id) that only bite when keys collide.
TEST(EvictionIndexProperty, VictimMatchesScanEveryStep) {
  for (const auto eviction :
       {EvictionPolicy::kLru, EvictionPolicy::kLfu,
        EvictionPolicy::kLargestFirst, EvictionPolicy::kHitDensity}) {
    for (const std::uint64_t seed : {3ull, 17ull, 29ull}) {
      CacheConfig config;
      config.alpha = 0.7;
      config.eviction = eviction;
      config.capacity = shared_repo().total_bytes() / 5;
      SCOPED_TRACE(testing::Message()
                   << "eviction=" << to_string(eviction) << " seed=" << seed);
      run_index_oracle(config, seed, /*compare_victims=*/true);
    }
  }
}

TEST(DecisionIndexOracle, SplitHeavyWorkloadStaysReconciled) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(71);

  CacheConfig config;
  config.alpha = 0.9;
  config.enable_split = true;
  config.split_utilization = 0.5;  // aggressive: plenty of splits
  config.capacity = repo.total_bytes() / 3;
  config.decision_index = false;
  ShardedCache scan(repo, config);
  config.decision_index = true;
  ShardedCache indexed(repo, config);

  for (std::uint32_t index : replay.stream) {
    const auto expected = scan.request(replay.specs[index]);
    const auto actual = indexed.request(replay.specs[index]);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
    ASSERT_EQ(expected.split, actual.split);
    // A split rewrites (or erases) the bloated image: the postings and
    // eviction order must stay exact after every such mutation.
    ASSERT_EQ(indexed.check_decision_index(), std::nullopt);
  }
  EXPECT_GT(indexed.counters().splits, 0u) << "workload exercised no splits";
  expect_equal_states(scan, indexed);
}

// Regression: erasing an image must not leave its postings entries
// reachable. Before tombstone accounting, an image erased while its
// contents had been rewritten (the split empty-remainder path erases by
// *pre-split* bits) left a stale entry that a later probe could return.
TEST(DecisionIndexUnit, ErasedImageIsNeverReturnedByProbe) {
  const std::size_t universe = 64;
  DecisionIndex index(universe, EvictionPolicy::kLru);
  DecisionIndex::ImageMap images;

  auto make_image = [&](std::uint64_t id, std::initializer_list<std::uint32_t> pkgs,
                        util::Bytes bytes) {
    Image image;
    image.id = ImageId{id};
    spec::PackageSet contents(universe);
    for (const std::uint32_t p : pkgs) contents.insert(pkg::PackageId{p});
    image.contents = std::move(contents);
    image.bytes = bytes;
    return image;
  };

  // Two images share package 1; package 1 is the rarest probe for both.
  Image a = make_image(0, {1, 2}, 100);
  Image b = make_image(1, {1, 3}, 200);
  images.emplace(0, a);
  images.emplace(1, b);
  index.insert(a);
  index.insert(b);

  spec::PackageSet probe(universe);
  probe.insert(pkg::PackageId{1});

  ASSERT_EQ(index.find_superset(probe, images), std::optional<ImageId>(ImageId{0}));

  // Erase A the way split's empty-remainder branch does: by explicit
  // pre-mutation bits/key, then drop it from the map.
  index.erase(a.contents.bits(), eviction_key(a));
  images.erase(0);

  // The tombstoned postings entry for A must not resurface; the probe
  // must fall through to B and the index must reconcile exactly.
  EXPECT_EQ(index.find_superset(probe, images), std::optional<ImageId>(ImageId{1}));
  EXPECT_EQ(index.victim(/*now=*/99).value().id, 1u);
  EXPECT_EQ(index.reconcile(images), std::nullopt);

  // Erase the survivor too: probes now find nothing, reconcile stays clean.
  index.erase(b);
  images.erase(1);
  EXPECT_EQ(index.find_superset(probe, images), std::nullopt);
  EXPECT_EQ(index.victim(/*now=*/99), std::nullopt);
  EXPECT_EQ(index.reconcile(images), std::nullopt);
}

TEST(SpecMemo, RepeatedSpecShortCircuitsThroughMemo) {
  const auto& repo = shared_repo();
  CacheConfig config;
  config.alpha = 0.0;  // no merging: decisions are pure hit/insert
  config.capacity = repo.total_bytes();
  ShardedCache cache(repo, config);

  spec::PackageSet set(repo.size());
  for (const std::uint32_t p : {5u, 6u, 7u}) set.insert(pkg::PackageId{p});
  const spec::Specification spec(set);

  // Request 1 inserts; request 2 hits via the postings probe and stores
  // the decision; request 3+ must be served from the memo.
  const auto first = cache.request(spec);
  ASSERT_EQ(static_cast<int>(first.kind), static_cast<int>(RequestKind::kInsert));
  const auto second = cache.request(spec);
  ASSERT_EQ(static_cast<int>(second.kind), static_cast<int>(RequestKind::kHit));
  const auto before = cache.memo_stats();
  const auto third = cache.request(spec);
  ASSERT_EQ(static_cast<int>(third.kind), static_cast<int>(RequestKind::kHit));
  EXPECT_EQ(to_value(third.image), to_value(second.image));
  const auto after = cache.memo_stats();
  EXPECT_GT(after.hits, before.hits) << "third identical request missed the memo";
}

// A structural mutation can change the right answer for a memoized spec:
// inserting a *smaller* superset must invalidate the memo (epoch bump)
// so the next lookup picks the new smallest-bytes image, exactly like
// the scan would.
TEST(SpecMemo, EpochInvalidationTracksSmallerSuperset) {
  const auto& repo = shared_repo();
  CacheConfig config;
  config.alpha = 0.0;
  config.capacity = repo.total_bytes();
  config.decision_index = false;
  ShardedCache scan(repo, config);
  config.decision_index = true;
  ShardedCache indexed(repo, config);

  auto spec_of = [&](std::initializer_list<std::uint32_t> pkgs) {
    spec::PackageSet set(repo.size());
    for (const std::uint32_t p : pkgs) set.insert(pkg::PackageId{p});
    return spec::Specification(std::move(set));
  };

  const auto big = spec_of({10, 11, 12, 13, 14, 15});
  const auto small = spec_of({10, 11});
  const auto exact = spec_of({10, 11, 12});

  const std::vector<spec::Specification> trace = {
      big,    // insert the only superset of `small`
      small,  // hit on big; memoized
      small,  // memo hit
      exact,  // insert a smaller superset of `small` — bumps the epoch
      small,  // must now hit `exact`, not the stale memo entry
      small,
  };
  for (const auto& spec : trace) {
    const auto expected = scan.request(spec);
    const auto actual = indexed.request(spec);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
    ASSERT_EQ(static_cast<int>(expected.kind), static_cast<int>(actual.kind));
    ASSERT_EQ(expected.image_bytes, actual.image_bytes);
  }
  EXPECT_GT(indexed.memo_stats().hits, 0u);
  EXPECT_EQ(indexed.check_decision_index(), std::nullopt);
}

// The restore path rebuilds the index from adopted images; it must come
// back exact and the restored cache must keep matching the scan twin.
TEST(DecisionIndexOracle, RestoredCacheReconcilesAndMatchesScan) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(55);

  CacheConfig config;
  config.alpha = 0.7;
  config.capacity = repo.total_bytes() / 4;
  config.decision_index = true;
  ShardedCache original(repo, config);
  for (std::uint32_t index : replay.stream) {
    (void)original.request(replay.specs[index]);
  }

  std::ostringstream out;
  save_cache(out, original, repo);
  std::istringstream in_indexed(out.str()), in_scan(out.str());

  auto indexed = restore_cache(in_indexed, repo, config);
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed.value()->check_decision_index(), std::nullopt);

  config.decision_index = false;
  auto scan = restore_cache(in_scan, repo, config);
  ASSERT_TRUE(scan.ok());

  for (std::uint32_t index : replay.stream) {
    const auto expected = scan.value()->request(replay.specs[index]);
    const auto actual = indexed.value()->request(replay.specs[index]);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
    ASSERT_EQ(static_cast<int>(expected.kind), static_cast<int>(actual.kind));
  }
  expect_equal_states(*scan.value(), *indexed.value());
  EXPECT_EQ(indexed.value()->check_decision_index(), std::nullopt);
}

// The default config is adaptive: below CacheConfig::scan_cutover the
// superset lookup takes the linear scan (which BENCH_decision.json shows
// beats the postings probe at small N) while the index is still
// maintained for eviction and reconciliation. Decisions must match the
// scan oracle exactly, and with the cache staying under the cutover the
// postings index must never have been probed.
TEST(DecisionIndexOracle, AdaptiveCutoverMatchesScanAtSmallN) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(23);

  CacheConfig config;
  config.alpha = 0.7;
  config.capacity = repo.total_bytes() / 4;
  config.decision_index = false;
  ShardedCache scan(repo, config);
  config.decision_index = true;
  ASSERT_GT(config.scan_cutover, 0u) << "default config must be adaptive";
  ShardedCache indexed(repo, config);

  bool stayed_small = true;
  for (std::uint32_t index : replay.stream) {
    const auto expected = scan.request(replay.specs[index]);
    const auto actual = indexed.request(replay.specs[index]);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
    ASSERT_EQ(static_cast<int>(expected.kind), static_cast<int>(actual.kind));
    ASSERT_EQ(expected.image_bytes, actual.image_bytes);
    stayed_small = stayed_small && indexed.image_count() < config.scan_cutover;
  }
  expect_equal_states(scan, indexed);
  EXPECT_EQ(indexed.check_decision_index(), std::nullopt);
  if (stayed_small) {
    EXPECT_EQ(indexed.index_stats().postings_probes, 0u)
        << "a small cache must serve superset lookups from the scan";
  }
}

// Sharded sanity for the cache-wide memo: repeated identical specs
// through a multi-shard cache still match the sequential scan cache and
// actually exercise the memo fast path.
TEST(SpecMemo, ShardedMemoMatchesSequentialScan) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(91);

  CacheConfig config;
  config.alpha = 0.6;
  config.capacity = repo.total_bytes() / 4;
  config.decision_index = false;
  ShardedCache scan(repo, config);
  config.decision_index = true;
  config.shards = 4;
  ShardedCache sharded(repo, config);

  for (std::uint32_t index : replay.stream) {
    const auto expected = scan.request(replay.specs[index]);
    const auto actual = sharded.request(replay.specs[index]);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
    ASSERT_EQ(static_cast<int>(expected.kind), static_cast<int>(actual.kind));
  }
  // Back-to-back identical requests with no structural mutation in
  // between must ride the memo fast path: the first repeat settles the
  // spec into the cache, the second stores the hit, the third serves it
  // from the memo.
  const auto before = sharded.memo_stats().hits;
  for (int i = 0; i < 3; ++i) {
    const auto expected = scan.request(replay.specs[0]);
    const auto actual = sharded.request(replay.specs[0]);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
    ASSERT_EQ(static_cast<int>(expected.kind), static_cast<int>(actual.kind));
  }
  EXPECT_GT(sharded.memo_stats().hits, before);
  EXPECT_EQ(sharded.check_decision_index(), std::nullopt);
  EXPECT_EQ(scan.counters().hits, sharded.counters().hits);
}

// ---- Postings growth below the scan cutover --------------------------
// Below scan_cutover no superset probe runs, so a probe-time sweep never
// fires. The mutation path must sweep instead, or every insert, eviction
// and merge diff leaves its postings tombstones behind for good.

/// Seeded churn: fresh random specs against a budget of a few images, so
/// almost every request inserts (or merges) and evicts.
std::vector<spec::Specification> churn_specs(std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<spec::Specification> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<pkg::PackageId> request;
    for (auto index : rng.sample_without_replacement(
             static_cast<std::uint32_t>(shared_repo().size()),
             1 + static_cast<std::uint32_t>(rng.uniform(8)))) {
      request.push_back(pkg::package_id(index));
    }
    out.push_back(spec::Specification::from_request(shared_repo(), request));
  }
  return out;
}

CacheConfig churn_config(double alpha, std::uint32_t shards) {
  CacheConfig config;
  config.alpha = alpha;
  config.shards = shards;
  config.capacity = shared_repo().total_bytes() / 10;
  return config;
}

TEST(PostingsGrowth, CacheStaysBoundedBelowCutover) {
  const auto specs = churn_specs(4000, 0x5EED);
  for (const double alpha : {0.0, 0.8}) {
    const CacheConfig config = churn_config(alpha, 1);
    ShardedCache cache(shared_repo(), config);
    for (const auto& spec : specs) {
      (void)cache.request(spec);
      ASSERT_LT(cache.image_count(), config.scan_cutover);
      const auto stats = cache.index_stats();
      ASSERT_LE(stats.postings_stale, stats.postings_live + 1024)
          << "alpha " << alpha;
    }
    const auto stats = cache.index_stats();
    EXPECT_EQ(stats.postings_probes, 0u);  // every lookup was a scan
    EXPECT_GT(stats.postings_compactions, 0u);
    EXPECT_GT(cache.counters().deletes, 500u);
    EXPECT_EQ(cache.check_decision_index(), std::nullopt);
  }
}

TEST(PostingsGrowth, ShardedCacheStaysBoundedBelowCutover) {
  const auto specs = churn_specs(4000, 0x5EED + 1);
  for (const double alpha : {0.0, 0.8}) {
    const CacheConfig config = churn_config(alpha, 4);
    ShardedCache cache(shared_repo(), config);
    for (const auto& spec : specs) {
      (void)cache.request(spec);
      ASSERT_LT(cache.image_count(), config.scan_cutover);
      // The bound holds per shard; index_stats() sums the shards.
      const auto stats = cache.index_stats();
      ASSERT_LE(stats.postings_stale,
                stats.postings_live + 1024 * cache.shard_count())
          << "alpha " << alpha;
    }
    const auto stats = cache.index_stats();
    EXPECT_EQ(stats.postings_probes, 0u);
    EXPECT_GT(stats.postings_compactions, 0u);
    EXPECT_GT(cache.counters().deletes, 500u);
    EXPECT_EQ(cache.check_decision_index(), std::nullopt);
  }
}

// touch() re-keys the eviction node in place (extract + end()-hinted
// insert). Its oracle is the erase + insert it replaced: after every
// touch the victim must match, and draining both indexes victim by
// victim must visit images in the same order — for every policy, and
// for touches that do (LRU) and do not (hits-first policies) land last.
TEST(DecisionIndexUnit, TouchMatchesEraseInsertOrderForEveryPolicy) {
  const std::size_t universe = 70;
  for (const EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kLfu,
        EvictionPolicy::kLargestFirst, EvictionPolicy::kHitDensity}) {
    SCOPED_TRACE(to_string(policy));
    util::Rng rng(static_cast<std::uint64_t>(policy) + 41);
    DecisionIndex touched(universe, policy);
    DecisionIndex oracle(universe, policy);
    DecisionIndex::ImageMap images;
    std::uint64_t clock = 0;
    for (std::uint64_t id = 0; id < 40; ++id) {
      Image image;
      image.id = ImageId{id};
      spec::PackageSet contents(universe);
      contents.insert(pkg::package_id(static_cast<std::uint32_t>(rng.uniform(universe))));
      image.contents = std::move(contents);
      image.bytes = 1 + rng.uniform(8);  // few sizes: many ties to break
      image.hits = rng.uniform(4);
      image.last_used = ++clock;
      touched.insert(image);
      oracle.insert(image);
      images.emplace(id, std::move(image));
    }
    for (int step = 0; step < 400; ++step) {
      Image& image = images.at(rng.uniform(images.size()));
      const EvictionKey old_key = eviction_key(image);
      image.last_used = ++clock;
      image.hits += 1;
      touched.touch(old_key, eviction_key(image));
      oracle.erase(image.contents.bits(), old_key);
      oracle.insert(image);
      ASSERT_EQ(touched.victim(clock).value().id, oracle.victim(clock).value().id);
      ASSERT_EQ(touched.victim(0).value().id, oracle.victim(0).value().id);
    }
    EXPECT_EQ(touched.reconcile(images), std::nullopt);
    while (!images.empty()) {
      const auto want = oracle.victim(0);
      ASSERT_TRUE(want.has_value());
      const auto got = touched.victim(0);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->id, want->id);
      const Image& image = images.at(want->id);
      touched.erase(image);
      oracle.erase(image);
      images.erase(want->id);
    }
    EXPECT_EQ(touched.victim(0), std::nullopt);
  }
}

// The flat SpecMemo against a model of the map-backed memo it replaced:
// one entry per key, served only at its stored epoch; a store at a
// stale epoch is dropped; a store of a new key into a full table clears
// it first. Hit/miss/store counts and every answer must match, at a
// tiny capacity (many clears) and at the stock 1024.
TEST(SpecMemo, FlatTableMatchesMapSemantics) {
  struct Model {
    struct Entry {
      std::uint64_t epoch;
      SpecMemo::Decision decision;
    };
    std::size_t capacity;
    std::map<std::vector<std::uint64_t>, Entry> entries;
    SpecMemoStats stats;
  };
  const std::size_t universe = 1500;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7}, std::size_t{1024}}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    util::Rng rng(capacity);
    std::vector<spec::PackageSet> pool;
    for (std::size_t k = 0; k < capacity + 300; ++k) {
      spec::PackageSet key(universe);
      const std::uint64_t n = 1 + rng.uniform(40);
      for (std::uint64_t j = 0; j < n; ++j) {
        key.insert(pkg::package_id(static_cast<std::uint32_t>(rng.uniform(universe))));
      }
      pool.push_back(std::move(key));
    }
    pool.push_back(pool.front());  // an equal key under a second name
    SpecMemo memo(capacity);
    Model model{capacity, {}, {}};
    for (int step = 0; step < 6000; ++step) {
      const spec::PackageSet& key = pool[rng.uniform(pool.size())];
      const auto& words = key.bits().words();
      const std::uint64_t roll = rng.uniform(100);
      if (roll < 3) {
        memo.bump();
        ++model.stats.epoch;
      } else if (roll < 50) {
        const std::uint64_t at = roll < 8 && model.stats.epoch > 0
                                     ? model.stats.epoch - 1
                                     : model.stats.epoch;
        const ImageId image{rng.uniform(1000)};
        const std::size_t shard = rng.uniform(4);
        const util::Bytes bytes = rng.uniform(1u << 30);
        memo.store(key, image, shard, bytes, at);
        if (at != model.stats.epoch) continue;
        const std::vector<std::uint64_t> k(words.begin(), words.end());
        if (model.entries.size() >= model.capacity && !model.entries.contains(k)) {
          model.entries.clear();
        }
        model.entries[k] = {at, SpecMemo::Decision{image, shard, bytes}};
        ++model.stats.stores;
      } else {
        const auto got = memo.lookup(key);
        const auto it = model.entries.find({words.begin(), words.end()});
        const bool want = it != model.entries.end() && it->second.epoch == model.stats.epoch;
        ASSERT_EQ(got.has_value(), want) << "step " << step;
        if (want) {
          ++model.stats.hits;
          EXPECT_EQ(to_value(got->image), to_value(it->second.decision.image));
          EXPECT_EQ(got->shard, it->second.decision.shard);
          EXPECT_EQ(got->requested_bytes, it->second.decision.requested_bytes);
        } else {
          ++model.stats.misses;
        }
      }
      const SpecMemoStats stats = memo.stats();
      ASSERT_EQ(stats.hits, model.stats.hits);
      ASSERT_EQ(stats.misses, model.stats.misses);
      ASSERT_EQ(stats.stores, model.stats.stores);
      ASSERT_EQ(stats.epoch, model.stats.epoch);
    }
    EXPECT_GT(model.stats.hits, 0u);
  }
}

// The memo hands back the requested bytes it was given, and a store
// made at an epoch that has since moved on is dropped with its bytes.
TEST(SpecMemo, StoredRequestedBytesComeBackAndStaleStoresStayDropped) {
  const auto& repo = shared_repo();
  spec::PackageSet key(repo.size());
  for (const std::uint32_t p : {3u, 64u, 700u}) key.insert(pkg::PackageId{p});
  const util::Bytes bytes = repo.bytes_of(key.bits());

  SpecMemo memo;
  memo.store(key, ImageId{7}, /*shard=*/2, bytes, memo.epoch());
  const auto hit = memo.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(to_value(hit->image), 7u);
  EXPECT_EQ(hit->shard, 2u);
  EXPECT_EQ(hit->requested_bytes, bytes);

  const std::uint64_t stale = memo.epoch();
  memo.bump();
  EXPECT_FALSE(memo.lookup(key).has_value()) << "a bump must retire the entry";
  memo.store(key, ImageId{9}, /*shard=*/1, bytes + 1, stale);
  EXPECT_FALSE(memo.lookup(key).has_value()) << "a stale-epoch store was kept";
  EXPECT_EQ(memo.stats().stores, 1u);

  memo.store(key, ImageId{9}, /*shard=*/1, bytes, memo.epoch());
  const auto fresh = memo.lookup(key);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(to_value(fresh->image), 9u);
  EXPECT_EQ(fresh->requested_bytes, bytes);
}

// A replay heavy in repeats: whether a request is answered by the memo
// or decided afresh, its Outcome::requested_bytes is the spec's own sum,
// and the counters' requested-byte total is the sum over the trace.
TEST(SpecMemo, MemoHitsReportExactRequestedBytes) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(17);
  for (const std::uint32_t shards : {1u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CacheConfig config;
    config.alpha = 0.6;
    config.capacity = repo.total_bytes() / 4;
    config.shards = shards;
    ShardedCache cache(repo, config);
    util::Bytes expected_total = 0;
    std::uint64_t requests = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::uint32_t index : replay.stream) {
        const auto& spec = replay.specs[index];
        // Back to back: the second of each pair rides the memo once the
        // first settled the spec without a structural change.
        for (int twice = 0; twice < 2; ++twice) {
          const auto outcome = cache.request(spec);
          ASSERT_EQ(outcome.requested_bytes, spec.bytes(repo));
          expected_total += outcome.requested_bytes;
          ++requests;
        }
      }
    }
    EXPECT_GT(cache.memo_stats().hits, 0u);
    const CacheCounters counters = cache.counters();
    EXPECT_EQ(counters.requests, requests);
    EXPECT_EQ(counters.requested_bytes, expected_total);
    EXPECT_EQ(counters.requests, counters.hits + counters.merges + counters.inserts);
  }
}

}  // namespace
}  // namespace landlord::core
