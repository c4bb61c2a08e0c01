// Deterministic multi-threaded stress test for the sharded cache.
//
// Eight workers replay seeded per-thread traces (the inputs are fully
// deterministic; only the interleaving is scheduler-chosen) against one
// ShardedCache, starting together behind a barrier, while a reader
// thread hammers the introspection paths. After the storm the cache must
// satisfy every structural invariant regardless of interleaving:
// counters balance, the atomic byte ledger equals the sum over live
// images, no ImageId appears twice, and the byte budget is enforced.
// Run under -DLANDLORD_SANITIZE=thread to turn scheduler nondeterminism
// into data-race detection (ctest label: concurrency).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <set>
#include <thread>
#include <vector>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::core {
namespace {

constexpr std::uint32_t kThreads = 8;

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

/// One worker's deterministic trace: seed => specs => replay order.
std::vector<spec::Specification> thread_trace(std::uint64_t seed) {
  sim::WorkloadConfig workload;
  workload.unique_jobs = 40;
  workload.repetitions = 3;
  workload.max_initial_selection = 16;
  sim::WorkloadGenerator generator(shared_repo(), workload, util::Rng(seed));
  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();
  std::vector<spec::Specification> trace;
  trace.reserve(stream.size());
  for (std::uint32_t index : stream) trace.push_back(specs[index]);
  return trace;
}

/// Runs the storm and checks every post-quiescence invariant. With
/// `prewarm`, every trace is first replayed on one thread, so a config
/// that neither merges nor evicts sees no structural change in the storm
/// and every repeat there is a memo hit.
void run_storm(CacheConfig config, bool prewarm = false) {
  const auto& repo = shared_repo();
  ShardedCache cache(repo, config);

  // Traces are generated before the storm so workers only touch the cache.
  std::vector<std::vector<spec::Specification>> traces;
  std::uint64_t expected_requests = 0;
  util::Bytes expected_requested_bytes = 0;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    traces.push_back(thread_trace(/*seed=*/100 + t));
    const std::uint64_t passes = prewarm ? 2 : 1;
    expected_requests += passes * traces.back().size();
    for (const auto& spec : traces.back()) {
      expected_requested_bytes += passes * spec.bytes(repo);
      if (prewarm) (void)cache.request(spec);
    }
  }
  const std::uint64_t memo_hits_before = cache.memo_stats().hits;

  std::barrier start(kThreads + 1);
  std::atomic<bool> storm_over{false};
  std::vector<std::jthread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const auto& spec : traces[t]) {
        const auto outcome = cache.request(spec);
        // A racing eviction can remove the image (or a racing merge can
        // regrow it) before we find() it, so only structural sanity is
        // checkable here: a resident image's size matches its contents.
        if (const auto image = cache.find(outcome.image)) {
          EXPECT_EQ(image->bytes, repo.bytes_of(image->contents.bits()));
        }
      }
    });
  }
  // Reader thread: introspection must be race-free mid-storm. Counter
  // reads are individually consistent, so the only sound cross-field
  // check is against a *later* read of the monotone request counter
  // (every op was counted after its request started).
  std::jthread reader([&] {
    start.arrive_and_wait();
    while (!storm_over.load(std::memory_order_acquire)) {
      const auto counters = cache.counters();
      const auto requests_after = cache.counters().requests;
      EXPECT_LE(counters.hits + counters.merges + counters.inserts, requests_after);
      util::Bytes sum = 0;
      for (const auto& image : cache.snapshot_images()) sum += image.bytes;
      (void)sum;  // ledger vs. sum is only exact at quiescence
      (void)cache.unique_bytes();
      (void)cache.shard_stats();
      std::this_thread::yield();
    }
  });
  workers.clear();  // join the storm
  storm_over.store(true, std::memory_order_release);
  reader.join();

  // ---- Post-quiescence invariants ----
  const auto counters = cache.counters();
  EXPECT_EQ(counters.requests, expected_requests);
  EXPECT_EQ(counters.requests, counters.hits + counters.merges + counters.inserts);
  // Memo hits tally their requests and bytes per shard, everything else
  // globally; the two halves must add up to the traces exactly.
  EXPECT_EQ(counters.requested_bytes, expected_requested_bytes);
  if (prewarm) {
    EXPECT_GT(cache.memo_stats().hits, memo_hits_before);
  }

  const auto snapshot = cache.snapshot_images();
  EXPECT_EQ(snapshot.size(), cache.image_count());
  EXPECT_EQ(cache.image_count(),
            counters.inserts + counters.splits - counters.deletes);

  // The atomic ledger equals the recomputed sum over live images, and
  // every image's size matches its contents.
  util::Bytes sum = 0;
  std::set<std::uint64_t> ids;
  for (const auto& image : snapshot) {
    sum += image.bytes;
    EXPECT_EQ(image.bytes, repo.bytes_of(image.contents.bits()));
    EXPECT_TRUE(ids.insert(to_value(image.id)).second)
        << "duplicate ImageId " << to_value(image.id);
  }
  EXPECT_EQ(sum, cache.total_bytes());
  EXPECT_LE(cache.unique_bytes(), cache.total_bytes());
  const double efficiency = cache.cache_efficiency();
  EXPECT_GT(efficiency, 0.0);
  EXPECT_LE(efficiency, 1.0);

  // Budget respected once quiescent (the single-image exception aside).
  if (cache.image_count() > 1) {
    EXPECT_LE(cache.total_bytes(), config.capacity);
  }

  // Per-shard occupancy sums to the ledger.
  std::uint64_t shard_images = 0;
  util::Bytes shard_bytes = 0;
  for (const auto& shard : cache.shard_stats()) {
    shard_images += shard.images;
    shard_bytes += shard.bytes;
  }
  EXPECT_EQ(shard_images, cache.image_count());
  EXPECT_EQ(shard_bytes, cache.total_bytes());
}

TEST(ShardedStress, EightThreadsEightShardsUnderEvictionPressure) {
  CacheConfig config;
  config.alpha = 0.8;
  config.shards = 8;
  config.capacity = shared_repo().total_bytes() / 4;
  run_storm(config);
}

TEST(ShardedStress, LshPolicyWithSplitsAndFewShards) {
  CacheConfig config;
  config.alpha = 0.6;
  config.policy = MergePolicy::kMinHashLsh;
  config.shards = 4;
  config.enable_split = true;
  config.split_utilization = 0.4;
  config.capacity = shared_repo().total_bytes() / 2;
  run_storm(config);
}

TEST(ShardedStress, RepeatsRideTheMemoOnEveryShard) {
  CacheConfig config;
  config.alpha = 0.0;  // no merges; the capacity below rules out evictions
  config.shards = 8;
  config.capacity = shared_repo().total_bytes() * 1000;
  run_storm(config, /*prewarm=*/true);
}

TEST(ShardedStress, IdleEvictionAndMoreThreadsThanShards) {
  CacheConfig config;
  config.alpha = 0.9;
  config.shards = 2;  // heavy contention: 8 threads on 2 shards
  config.max_idle_requests = 40;
  config.capacity = shared_repo().total_bytes() / 3;
  run_storm(config);
}

}  // namespace
}  // namespace landlord::core
