// Delta-vs-full equivalence oracle.
//
// The delta store is pure accounting: switching it on must not move a
// single placement. This suite replays identical workloads through two
// Landlords — full-rewrite accounting (the paper's model) and delta
// accounting — across an alpha x merge-policy x chain-depth sweep and
// asserts, request by request, that decisions, image ids, sizes, and
// content digests are bit-identical; that the decision counters agree;
// and that the delta run's full_rewrite_bytes counterfactual equals the
// full run's written_bytes exactly. The same property is pinned across
// sim::run_crash_replay's kill+restore cycles (the image store is
// cleared on restore; decisions still must not move).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "landlord/landlord.hpp"
#include "pkg/synthetic.hpp"
#include "sim/crash.hpp"
#include "sim/workload.hpp"

namespace landlord::sim {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 400;
    auto result = pkg::generate_repository(params, 77);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

struct Workload {
  std::vector<spec::Specification> specs;
  std::vector<std::uint32_t> stream;
};

Workload small_workload(std::uint64_t seed) {
  WorkloadConfig config;
  config.unique_jobs = 60;
  config.repetitions = 4;
  config.max_initial_selection = 30;
  util::Rng root(seed);
  WorkloadGenerator generator(repo(), config, root.split(1));
  Workload out;
  out.specs = generator.unique_specifications();
  out.stream = generator.request_stream();
  return out;
}

core::CacheConfig cache_config(double alpha, core::MergePolicy policy) {
  core::CacheConfig config;
  config.capacity = 60 * util::kGiB;  // small budget => evictions + splits
  config.alpha = alpha;
  config.policy = policy;
  config.enable_split = true;
  return config;
}

shrinkwrap::DeltaBuildConfig delta_build(std::uint32_t chain_cap) {
  shrinkwrap::DeltaBuildConfig delta;
  delta.enabled = true;
  delta.store.chain_cap = chain_cap;
  return delta;
}

void expect_identical_decisions(const core::JobPlacement& full,
                                const core::JobPlacement& delta,
                                std::size_t request) {
  ASSERT_EQ(full.kind, delta.kind) << "request " << request;
  ASSERT_EQ(core::to_value(full.image), core::to_value(delta.image))
      << "request " << request;
  ASSERT_EQ(full.image_bytes, delta.image_bytes) << "request " << request;
  ASSERT_EQ(full.requested_bytes, delta.requested_bytes) << "request " << request;
  ASSERT_EQ(full.content_digest, delta.content_digest) << "request " << request;
  ASSERT_EQ(full.degraded, delta.degraded) << "request " << request;
  ASSERT_EQ(full.failed, delta.failed) << "request " << request;
}

void expect_identical_counters(const core::CacheCounters& full,
                               const core::CacheCounters& delta) {
  EXPECT_EQ(full.requests, delta.requests);
  EXPECT_EQ(full.hits, delta.hits);
  EXPECT_EQ(full.merges, delta.merges);
  EXPECT_EQ(full.inserts, delta.inserts);
  EXPECT_EQ(full.deletes, delta.deletes);
  EXPECT_EQ(full.splits, delta.splits);
  EXPECT_EQ(full.conflict_rejections, delta.conflict_rejections);
  EXPECT_EQ(full.requested_bytes, delta.requested_bytes);
  // The one sanctioned difference: what a write *costs*. The
  // counterfactual ledger must reproduce the paper's accounting exactly.
  EXPECT_EQ(delta.full_rewrite_bytes, full.written_bytes);
  EXPECT_EQ(full.delta_merges, 0u);
  // The counterfactual ledger is always on: with the cap at 0 it simply
  // mirrors written_bytes.
  EXPECT_EQ(full.full_rewrite_bytes, full.written_bytes);
}

TEST(DeltaOracle, PlacementsBitIdenticalAcrossAlphaPolicyAndDepth) {
  const Workload workload = small_workload(11);
  const double alphas[] = {0.6, 0.9};
  const core::MergePolicy policies[] = {core::MergePolicy::kFirstFit,
                                        core::MergePolicy::kBestFit};
  const std::uint32_t depths[] = {1, 4};
  for (const double alpha : alphas) {
    for (const core::MergePolicy policy : policies) {
      for (const std::uint32_t depth : depths) {
        SCOPED_TRACE(testing::Message()
                     << "alpha=" << alpha << " policy=" << to_string(policy)
                     << " depth=" << depth);
        auto full_config = cache_config(alpha, policy);
        auto delta_config = cache_config(alpha, policy);
        delta_config.delta_chain_cap = depth;
        core::Landlord full(repo(), full_config);
        core::Landlord delta(repo(), delta_config, {}, {}, {},
                             delta_build(depth));
        for (std::size_t i = 0; i < workload.stream.size(); ++i) {
          const auto& spec = workload.specs[workload.stream[i]];
          expect_identical_decisions(full.submit(spec), delta.submit(spec), i);
        }
        expect_identical_counters(full.counters(), delta.counters());
        EXPECT_EQ(full.cache().image_count(), delta.cache().image_count());
        EXPECT_EQ(full.total_bytes(), delta.total_bytes());
        EXPECT_EQ(full.unique_bytes(), delta.unique_bytes());
      }
    }
  }
}

TEST(DeltaOracle, DeltaMergesHappenAndCostLessThanFullRewrites) {
  const Workload workload = small_workload(12);
  auto config = cache_config(0.8, core::MergePolicy::kBestFit);
  config.delta_chain_cap = 4;
  core::Landlord landlord(repo(), config, {}, {}, {}, delta_build(4));
  for (const std::uint32_t index : workload.stream) {
    (void)landlord.submit(workload.specs[index]);
  }
  const auto counters = landlord.counters();
  ASSERT_GT(counters.merges, 0u);
  EXPECT_GT(counters.delta_merges, 0u);
  EXPECT_EQ(counters.delta_merges + counters.repacks, counters.merges);
  // The headline claim committed in BENCH_cas.json: merge bytes shrink.
  EXPECT_LT(counters.written_bytes, counters.full_rewrite_bytes);
  EXPECT_GT(counters.delta_written_bytes, util::Bytes{0});
}

TEST(DeltaOracle, BuilderStoreTracksResidentImagesAndReconciles) {
  const Workload workload = small_workload(13);
  auto config = cache_config(0.8, core::MergePolicy::kBestFit);
  config.delta_chain_cap = 3;
  core::Landlord landlord(repo(), config, {}, {}, {}, delta_build(3));
  for (const std::uint32_t index : workload.stream) {
    (void)landlord.submit(workload.specs[index]);
  }
  const auto& store = landlord.builder().image_store();
  // Evictions fire the listener, so the store holds at most the resident
  // set (images served purely as hits since the store last saw them may
  // have no chain; never the other way around).
  EXPECT_LE(store.image_count(), landlord.cache().image_count());
  EXPECT_GT(store.image_count(), 0u);
  EXPECT_EQ(store.reconcile(), std::nullopt);
  EXPECT_GT(store.stats().delta_writes, 0u);
}

TEST(DeltaOracle, CrashReplayDecisionsUnmovedByDeltaAccounting) {
  CrashReplayConfig base;
  base.cache = cache_config(0.8, core::MergePolicy::kBestFit);
  base.workload.unique_jobs = 50;
  base.workload.repetitions = 4;
  base.workload.max_initial_selection = 25;
  base.seed = 21;
  base.crash.checkpoint_every = 40;
  base.crash.crash_every = 100;

  CrashReplayConfig with_delta = base;
  with_delta.cache.delta_chain_cap = 4;
  with_delta.delta = delta_build(4);

  const auto full = run_crash_replay(repo(), base);
  const auto delta = run_crash_replay(repo(), with_delta);

  EXPECT_EQ(full.requests, delta.requests);
  EXPECT_EQ(full.crashes, delta.crashes);
  EXPECT_EQ(full.checkpoints, delta.checkpoints);
  EXPECT_EQ(full.images_recovered, delta.images_recovered);
  EXPECT_EQ(full.records_lost, delta.records_lost);
  EXPECT_EQ(full.degraded_placements, delta.degraded_placements);
  EXPECT_EQ(full.failed_placements, delta.failed_placements);
  EXPECT_EQ(full.index_divergences, 0u);
  EXPECT_EQ(delta.index_divergences, 0u);
  expect_identical_counters(full.counters, delta.counters);
  EXPECT_EQ(full.final_image_count, delta.final_image_count);
  EXPECT_EQ(full.final_total_bytes, delta.final_total_bytes);
  EXPECT_EQ(full.final_unique_bytes, delta.final_unique_bytes);
}

TEST(DeltaOracle, RestoreClearsTheStoreAndKeepsReconciling) {
  const Workload workload = small_workload(14);
  auto config = cache_config(0.8, core::MergePolicy::kBestFit);
  config.delta_chain_cap = 2;
  core::Landlord landlord(repo(), config, {}, {}, {}, delta_build(2));
  std::size_t half = workload.stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    (void)landlord.submit(workload.specs[workload.stream[i]]);
  }
  std::ostringstream snapshot;
  core::save_cache(snapshot, landlord.cache(), repo());
  std::istringstream in(snapshot.str());
  ASSERT_TRUE(landlord.restore(in).ok());
  // Restore clears the chains (decision ids restart; stale chains must
  // not collide with reborn ids) and re-wires the eviction listener.
  EXPECT_EQ(landlord.builder().image_store().image_count(), 0u);
  for (std::size_t i = half; i < workload.stream.size(); ++i) {
    (void)landlord.submit(workload.specs[workload.stream[i]]);
  }
  EXPECT_EQ(landlord.builder().image_store().reconcile(), std::nullopt);
  EXPECT_LE(landlord.builder().image_store().image_count(),
            landlord.cache().image_count());
}

}  // namespace
}  // namespace landlord::sim
