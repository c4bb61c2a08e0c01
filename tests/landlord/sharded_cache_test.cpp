// Shard-count equivalence oracle for the decision engine.
//
// With a single replay thread the engine promises bit-identical
// decisions for ANY shard count (sharded.hpp, "Determinism"). This suite
// replays the same seeded workload through the single-shard scan path —
// the reference, which golden_corpus_test.cpp in turn pins to the
// frozen sequential corpus — and through 1..8 shards with the decision
// index on and off, and compares every per-request outcome, counter,
// time-series sample, persisted snapshot and the full final image set —
// ids, contents, sizes, usage history — across merge policies, eviction
// policies, alphas, eviction pressure, delta accounting, splitting and
// idle eviction. Any divergence in decision order, tie-breaking or
// ledger arithmetic fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "landlord/persist.hpp"
#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

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

struct Replay {
  std::vector<spec::Specification> specs;
  std::vector<std::uint32_t> stream;
};

Replay make_replay(std::uint64_t seed, std::uint32_t max_selection = 20) {
  sim::WorkloadConfig workload;
  workload.unique_jobs = 60;
  workload.repetitions = 3;
  workload.max_initial_selection = max_selection;
  sim::WorkloadGenerator generator(shared_repo(), workload, util::Rng(seed));
  return {generator.unique_specifications(), generator.request_stream()};
}

std::vector<Image> sorted_images(std::vector<Image> images) {
  std::sort(images.begin(), images.end(), [](const Image& a, const Image& b) {
    return to_value(a.id) < to_value(b.id);
  });
  return images;
}

void expect_equal_counters(const CacheCounters& seq, const CacheCounters& shd) {
  EXPECT_EQ(seq.requests, shd.requests);
  EXPECT_EQ(seq.hits, shd.hits);
  EXPECT_EQ(seq.merges, shd.merges);
  EXPECT_EQ(seq.inserts, shd.inserts);
  EXPECT_EQ(seq.deletes, shd.deletes);
  EXPECT_EQ(seq.splits, shd.splits);
  EXPECT_EQ(seq.conflict_rejections, shd.conflict_rejections);
  EXPECT_EQ(seq.requested_bytes, shd.requested_bytes);
  EXPECT_EQ(seq.written_bytes, shd.written_bytes);
  EXPECT_EQ(seq.delta_merges, shd.delta_merges);
  EXPECT_EQ(seq.repacks, shd.repacks);
  EXPECT_EQ(seq.delta_written_bytes, shd.delta_written_bytes);
  EXPECT_EQ(seq.repack_written_bytes, shd.repack_written_bytes);
  EXPECT_EQ(seq.full_rewrite_bytes, shd.full_rewrite_bytes);
  EXPECT_DOUBLE_EQ(seq.container_efficiency_sum, shd.container_efficiency_sum);
  // Single-threaded replay never races: no retries, no contention.
  EXPECT_EQ(shd.shard_lock_contentions, 0u);
  EXPECT_EQ(shd.optimistic_retries, 0u);
}

void expect_equal_images(const ShardedCache& seq, const ShardedCache& shd) {
  std::vector<Image> sequential;
  seq.for_each_image([&](const Image& image) { sequential.push_back(image); });
  sequential = sorted_images(std::move(sequential));
  const auto sharded = sorted_images(shd.snapshot_images());

  ASSERT_EQ(sequential.size(), sharded.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const Image& a = sequential[i];
    const Image& b = sharded[i];
    EXPECT_EQ(to_value(a.id), to_value(b.id));
    EXPECT_TRUE(a.contents == b.contents)
        << "image " << to_value(a.id) << " contents differ";
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.last_used, b.last_used);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.merge_count, b.merge_count);
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.constraints, b.constraints);
  }
  EXPECT_EQ(seq.total_bytes(), shd.total_bytes());
  EXPECT_EQ(seq.unique_bytes(), shd.unique_bytes());
  EXPECT_EQ(seq.image_count(), shd.image_count());
  EXPECT_DOUBLE_EQ(seq.cache_efficiency(), shd.cache_efficiency());
}

void expect_equal_series(const TimeSeries& seq, const TimeSeries& shd) {
  ASSERT_EQ(seq.samples().size(), shd.samples().size());
  for (std::size_t i = 0; i < seq.samples().size(); ++i) {
    const RequestSample& a = seq.samples()[i];
    const RequestSample& b = shd.samples()[i];
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << "sample " << i;
    ASSERT_EQ(a.hits, b.hits) << "sample " << i;
    ASSERT_EQ(a.inserts, b.inserts) << "sample " << i;
    ASSERT_EQ(a.deletes, b.deletes) << "sample " << i;
    ASSERT_EQ(a.merges, b.merges) << "sample " << i;
    ASSERT_EQ(a.cached_bytes, b.cached_bytes) << "sample " << i;
    ASSERT_EQ(a.unique_bytes, b.unique_bytes) << "sample " << i;
    ASSERT_EQ(a.cumulative_written, b.cumulative_written) << "sample " << i;
    ASSERT_EQ(a.cumulative_requested, b.cumulative_requested) << "sample " << i;
    ASSERT_EQ(a.image_count, b.image_count) << "sample " << i;
  }
}

/// Replays the same stream through four caches — one shard and `shards`
/// shards, each with the sublinear decision index on and off — and
/// compares every per-request outcome, the counters, the time series,
/// the final image sets, and the persisted snapshots. The single-shard
/// scan path is the reference the others must reproduce bit for bit.
void run_oracle(CacheConfig config, std::uint32_t shards, std::uint64_t seed,
                std::uint32_t max_selection = 20) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(seed, max_selection);

  config.decision_index = false;
  ShardedCache seq_scan(repo, config);
  config.decision_index = true;
  ShardedCache seq_indexed(repo, config);
  config.shards = shards;
  config.decision_index = false;
  ShardedCache shd_scan(repo, config);
  config.decision_index = true;
  ShardedCache shd_indexed(repo, config);

  for (std::uint32_t index : replay.stream) {
    const auto expected = seq_scan.request(replay.specs[index]);
    const ShardedCache::Outcome outcomes[] = {
        seq_indexed.request(replay.specs[index]),
        shd_scan.request(replay.specs[index]),
        shd_indexed.request(replay.specs[index])};
    // Every outcome kind carries the spec's own size, whichever layer
    // decided it.
    ASSERT_EQ(expected.requested_bytes, replay.specs[index].bytes(repo));
    for (const auto& actual : outcomes) {
      ASSERT_EQ(to_value(expected.image), to_value(actual.image))
          << "decision diverged at stream position";
      ASSERT_EQ(static_cast<int>(expected.kind), static_cast<int>(actual.kind));
      ASSERT_EQ(expected.image_bytes, actual.image_bytes);
      ASSERT_EQ(expected.split, actual.split);
      ASSERT_EQ(expected.requested_bytes, actual.requested_bytes);
    }
  }
  expect_equal_counters(seq_scan.counters(), shd_scan.counters());
  expect_equal_counters(seq_scan.counters(), shd_indexed.counters());
  expect_equal_counters(seq_indexed.counters(), shd_indexed.counters());
  expect_equal_images(seq_scan, shd_scan);
  expect_equal_images(seq_indexed, shd_indexed);
  expect_equal_images(seq_scan, shd_indexed);
  if (config.record_time_series) {
    const auto reference = seq_scan.time_series();
    EXPECT_EQ(reference.samples().size(), replay.stream.size());
    expect_equal_series(reference, seq_indexed.time_series());
    expect_equal_series(reference, shd_scan.time_series());
    expect_equal_series(reference, shd_indexed.time_series());
  }

  // The index structures themselves must still reconcile with a
  // from-scratch rebuild after the whole replay.
  EXPECT_EQ(seq_indexed.check_decision_index(), std::nullopt);
  EXPECT_EQ(shd_indexed.check_decision_index(), std::nullopt);

  // Persisted snapshots must be byte-identical across shard counts and
  // with the knob on or off.
  const auto snapshot_of = [&repo](const auto& cache) {
    std::ostringstream out;
    save_cache(out, cache, repo, SnapshotFormat::kV2);
    return out.str();
  };
  const std::string reference = snapshot_of(seq_scan);
  EXPECT_EQ(reference, snapshot_of(seq_indexed));
  EXPECT_EQ(reference, snapshot_of(shd_scan));
  EXPECT_EQ(reference, snapshot_of(shd_indexed));
}

class ShardedEquivalenceTest
    : public testing::TestWithParam<std::tuple<std::uint32_t, double, MergePolicy>> {};

TEST_P(ShardedEquivalenceTest, MatchesSequentialUnderEvictionPressure) {
  const auto [shards, alpha, policy] = GetParam();
  CacheConfig config;
  config.alpha = alpha;
  config.policy = policy;
  config.capacity = shared_repo().total_bytes() / 4;  // forces evictions
  config.record_time_series = true;
  run_oracle(config, shards, /*seed=*/5);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByAlphaByPolicy, ShardedEquivalenceTest,
    testing::Combine(testing::Values(1u, 2u, 4u, 8u),
                     testing::Values(0.0, 0.6, 0.95, 1.0),
                     testing::Values(MergePolicy::kBestFit, MergePolicy::kFirstFit,
                                     MergePolicy::kMinHashLsh)));

// Every eviction policy, with and without delta-merge accounting: the
// victim order and the write ledgers (delta, repack and the full-rewrite
// counterfactual) must match the single-shard scan reference exactly.
class ShardedEvictionDeltaTest
    : public testing::TestWithParam<
          std::tuple<std::uint32_t, EvictionPolicy, std::uint32_t>> {};

TEST_P(ShardedEvictionDeltaTest, MatchesSequential) {
  const auto [shards, eviction, delta_cap] = GetParam();
  CacheConfig config;
  config.alpha = 0.6;
  config.eviction = eviction;
  config.delta_chain_cap = delta_cap;
  config.enable_split = true;
  config.split_utilization = 0.5;
  config.max_idle_requests = 40;
  config.record_time_series = true;
  // Small specs and half the repository: a handful of images stay
  // resident, so every policy has real victims to order.
  config.capacity = shared_repo().total_bytes() / 2;
  run_oracle(config, shards, /*seed=*/17, /*max_selection=*/4);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByEvictionByDelta, ShardedEvictionDeltaTest,
    testing::Combine(testing::Values(1u, 4u),
                     testing::Values(EvictionPolicy::kLru, EvictionPolicy::kLfu,
                                     EvictionPolicy::kLargestFirst,
                                     EvictionPolicy::kHitDensity),
                     testing::Values(0u, 2u)));

TEST(ShardedEquivalence, SplitConfigMatchesSequential) {
  CacheConfig config;
  config.alpha = 0.9;
  config.enable_split = true;
  config.split_utilization = 0.5;  // aggressive: plenty of splits
  config.capacity = shared_repo().total_bytes();
  config.record_time_series = true;
  for (const std::uint32_t shards : {1u, 4u, 8u}) {
    run_oracle(config, shards, /*seed=*/9);
  }
}

TEST(ShardedEquivalence, IdleEvictionMatchesSequential) {
  CacheConfig config;
  config.alpha = 0.5;
  config.max_idle_requests = 25;
  config.capacity = shared_repo().total_bytes();
  config.record_time_series = true;
  for (const std::uint32_t shards : {1u, 4u, 8u}) {
    run_oracle(config, shards, /*seed=*/13);
  }
}

TEST(ShardedEquivalence, AdoptMatchesSequential) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(21);

  CacheConfig config;
  config.alpha = 0.7;
  config.capacity = repo.total_bytes() / 4;
  ShardedCache sequential(repo, config);
  config.shards = 4;
  ShardedCache sharded(repo, config);

  // Seed both caches through adopt() (the restore path), then keep
  // requesting — adopted state must not perturb equivalence.
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& spec = replay.specs[i];
    const auto a = sequential.adopt(spec.packages(), {}, /*hits=*/i, /*merge_count=*/1,
                                    /*version=*/2);
    const auto b = sharded.adopt(spec.packages(), {}, /*hits=*/i, /*merge_count=*/1,
                                 /*version=*/2);
    ASSERT_EQ(to_value(a), to_value(b));
  }
  for (std::uint32_t index : replay.stream) {
    const auto expected = sequential.request(replay.specs[index]);
    const auto actual = sharded.request(replay.specs[index]);
    ASSERT_EQ(to_value(expected.image), to_value(actual.image));
  }
  expect_equal_images(sequential, sharded);
}

TEST(ShardedEquivalence, ShardStatsAreConsistentWithTotals) {
  const auto& repo = shared_repo();
  const auto replay = make_replay(33);

  CacheConfig config;
  config.alpha = 0.6;
  config.capacity = repo.total_bytes() / 4;
  config.shards = 8;
  ShardedCache cache(repo, config);
  for (std::uint32_t index : replay.stream) (void)cache.request(replay.specs[index]);

  const auto stats = cache.shard_stats();
  ASSERT_EQ(stats.size(), 8u);
  std::uint64_t images = 0;
  util::Bytes bytes = 0;
  std::uint64_t inserts = 0;
  for (const auto& shard : stats) {
    images += shard.images;
    bytes += shard.bytes;
    inserts += shard.homed_inserts;
    EXPECT_GE(shard.lock_acquisitions, shard.lock_contentions);
  }
  EXPECT_EQ(images, cache.image_count());
  EXPECT_EQ(bytes, cache.total_bytes());
  // Every insert (and adopted image) was homed to exactly one shard.
  EXPECT_GE(inserts, cache.counters().inserts);

  // find() agrees with the snapshot for every live image.
  for (const auto& image : cache.snapshot_images()) {
    const auto found = cache.find(image.id);
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(found->contents == image.contents);
  }
}

}  // namespace
}  // namespace landlord::core
