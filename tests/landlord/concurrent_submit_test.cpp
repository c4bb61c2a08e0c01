// Concurrent submits through the one decision engine, including its
// single-shard (sequential) configuration.
//
// serve::Server calls Landlord::submit from every worker thread without
// serialising anything, whatever CacheConfig::shards says, so shards = 1
// must be as thread-safe as any sharded layout. These tests storm one
// Landlord (and one bare cache) from several threads while snapshots are
// taken mid-storm, then check the accounting identities and that every
// snapshot restores. Run under -DLANDLORD_SANITIZE=thread (ctest label:
// concurrency) they double as the data-race gate for that path.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <sstream>
#include <thread>
#include <vector>

#include "landlord/landlord.hpp"
#include "landlord/persist.hpp"
#include "obs/obs.hpp"
#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::core {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 600;
    auto result = pkg::generate_repository(params, 141);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

CacheConfig config(double alpha, std::uint32_t shards) {
  CacheConfig c;
  c.alpha = alpha;
  c.capacity = repo().total_bytes() / 2;
  c.shards = shards;
  return c;
}

std::vector<spec::Specification> specs(std::uint64_t seed) {
  sim::WorkloadConfig workload;
  workload.unique_jobs = 40;
  workload.max_initial_selection = 10;
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(seed));
  return generator.unique_specifications();
}

/// Restores `snapshot` into a fresh cache and checks its ledgers.
void expect_restores(std::stringstream& snapshot, const CacheConfig& cfg) {
  RestoreReport report;
  auto restored = restore_cache(snapshot, repo(), cfg, &report);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_TRUE(report.clean()) << report.error;
  const ShardedCache& cache = *restored.value();
  // A mid-storm snapshot can be transiently over budget; the restore
  // trims it, so adopted >= resident.
  EXPECT_GE(report.images_restored, cache.image_count());
  util::Bytes sum = 0;
  for (const auto& image : cache.snapshot_images()) sum += image.bytes;
  EXPECT_EQ(sum, cache.total_bytes());
  EXPECT_LE(cache.unique_bytes(), cache.total_bytes());
  EXPECT_EQ(cache.check_decision_index(), std::nullopt);
}

TEST(ConcurrentSubmit, FourThreadsOneShardConserveAccounting) {
  // A head node checkpoints while submissions keep arriving. The single
  // shard is the sequential configuration; save_cache holds its lock for
  // the whole copy, so every mid-storm snapshot must parse and restore.
  const CacheConfig cfg = config(0.6, 1);
  Landlord landlord(repo(), cfg);
  // Attached observability turns on submit()'s own placement self-check,
  // which must stay silent however the submits interleave.
  obs::Observability obs;
  landlord.set_observability(&obs);
  const auto workload = specs(19);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 60;
  std::atomic<int> built{0};
  std::atomic<int> unsound{0};
  std::atomic<int> resident{0};
  std::atomic<int> resident_unsatisfying{0};
  std::barrier start(kThreads + 1);
  std::vector<std::jthread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 500);
      start.arrive_and_wait();
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const auto& spec = workload[rng.uniform(workload.size())];
        const auto placement = landlord.submit(spec);
        if (placement.failed || placement.degraded ||
            placement.requested_bytes != spec.bytes(repo()) ||
            placement.image_bytes < placement.requested_bytes) {
          ++unsound;
        }
        if (placement.kind != RequestKind::kHit) ++built;
        // Another thread can evict the image between submit and find;
        // when it is still resident it must satisfy the spec (without
        // splits an id's contents only grow, and ids are never reused).
        if (const auto image = landlord.cache().find(placement.image)) {
          ++resident;
          if (!spec.satisfied_by(image->contents)) ++resident_unsatisfying;
        }
      }
    });
  }

  start.arrive_and_wait();
  for (int round = 0; round < 20; ++round) {
    std::stringstream snapshot;
    save_cache(snapshot, landlord.cache(), repo());
    expect_restores(snapshot, cfg);
    std::this_thread::yield();
  }
  submitters.clear();

  const auto counters = landlord.counters();
  EXPECT_EQ(unsound.load(), 0);
  EXPECT_GT(resident.load(), 0);
  EXPECT_EQ(resident_unsatisfying.load(), 0);
  EXPECT_EQ(obs.registry.snapshot().at("landlord_placement_invariant_violations_total"),
            0.0);
  EXPECT_EQ(counters.requests,
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(counters.requests, counters.hits + counters.merges + counters.inserts);
  EXPECT_EQ(static_cast<std::uint64_t>(built.load()),
            counters.merges + counters.inserts);
  util::Bytes sum = 0;
  for (const auto& image : landlord.cache().snapshot_images()) sum += image.bytes;
  EXPECT_EQ(sum, landlord.total_bytes());
  EXPECT_LE(landlord.total_bytes(), cfg.capacity);
  EXPECT_LE(landlord.unique_bytes(), landlord.total_bytes());
  EXPECT_EQ(landlord.cache().check_decision_index(), std::nullopt);

  // Quiesced: the final state round-trips exactly.
  std::stringstream final_snapshot;
  save_cache(final_snapshot, landlord.cache(), repo());
  auto restored = restore_cache(final_snapshot, repo(), cfg);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->image_count(), landlord.cache().image_count());
  EXPECT_EQ(restored.value()->total_bytes(), landlord.total_bytes());
}

TEST(ShardedCachePersist, SnapshotMidStormRestoresConsistently) {
  // snapshot_images() takes every shard lock, so a save during a
  // multi-threaded storm is a true point-in-time state.
  const CacheConfig cfg = config(0.7, 4);
  ShardedCache cache(repo(), cfg);
  const auto workload = specs(23);

  constexpr int kThreads = 4;
  std::barrier start(kThreads + 1);
  std::vector<std::jthread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 900);
      start.arrive_and_wait();
      for (int i = 0; i < 60; ++i) {
        (void)cache.request(workload[rng.uniform(workload.size())]);
      }
    });
  }

  start.arrive_and_wait();
  for (int round = 0; round < 20; ++round) {
    std::stringstream snapshot;
    save_cache(snapshot, cache, repo());
    expect_restores(snapshot, cfg);
    std::this_thread::yield();
  }
  submitters.clear();
}

TEST(ConcurrentSubmit, TimeSeriesLedgerStaysExactUnderConcurrency) {
  // The union ledger behind record_time_series is updated from every
  // shard's mutations; after a storm it must equal a from-scratch union
  // and the series must hold one sample per request.
  for (const std::uint32_t shards : {1u, 4u}) {
    CacheConfig cfg = config(0.6, shards);
    cfg.record_time_series = true;
    cfg.enable_split = true;
    ShardedCache cache(repo(), cfg);
    const auto workload = specs(29);

    constexpr int kThreads = 4;
    constexpr int kRequestsPerThread = 50;
    {
      std::vector<std::jthread> submitters;
      for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
          util::Rng rng(static_cast<std::uint64_t>(t) + 1300);
          for (int i = 0; i < kRequestsPerThread; ++i) {
            (void)cache.request(workload[rng.uniform(workload.size())]);
          }
        });
      }
    }

    util::DynamicBitset all(repo().size());
    for (const auto& image : cache.snapshot_images()) all |= image.contents.bits();
    EXPECT_EQ(cache.unique_bytes(), repo().bytes_of(all)) << "shards=" << shards;
    const auto series = cache.time_series();
    EXPECT_EQ(series.samples().size(),
              static_cast<std::size_t>(kThreads) * kRequestsPerThread);
  }
}

}  // namespace
}  // namespace landlord::core
