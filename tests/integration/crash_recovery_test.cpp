// Crash-restart lifecycle: checkpoint, kill, restore, continue.
//
// Exercises sim::run_crash_replay end to end: a zero-fault, no-crash
// replay matches the plain simulation driver request-for-request;
// intact checkpoints restore losslessly; torn checkpoints recover their
// checked prefix; and every configuration replays bit-identically from
// its seed.
#include "sim/crash.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "landlord/persist.hpp"
#include "pkg/synthetic.hpp"
#include "sim/driver.hpp"

namespace landlord {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 600;
    auto result = pkg::generate_repository(params, 29);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

sim::CrashReplayConfig base_config(std::uint32_t shards = 1) {
  sim::CrashReplayConfig config;
  config.cache.alpha = 0.8;
  config.cache.capacity = repo().total_bytes() / 4;
  config.cache.shards = shards;
  config.workload.unique_jobs = 60;
  config.workload.repetitions = 3;
  config.workload.max_initial_selection = 15;
  config.seed = 7;
  config.crash.checkpoint_every = 0;
  config.crash.crash_every = 0;
  return config;
}

void expect_equal_counters(const core::CacheCounters& a,
                           const core::CacheCounters& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.splits, b.splits);
  EXPECT_EQ(a.requested_bytes, b.requested_bytes);
  EXPECT_EQ(a.written_bytes, b.written_bytes);
}

TEST(CrashReplay, ZeroFaultNoCrashMatchesPlainSimulation) {
  const auto config = base_config();
  const auto replay = sim::run_crash_replay(repo(), config);

  sim::SimulationConfig plain;
  plain.cache = config.cache;
  plain.workload = config.workload;
  plain.seed = config.seed;
  const auto simulated = sim::run_simulation(repo(), plain);

  expect_equal_counters(replay.counters, simulated.counters);
  EXPECT_EQ(replay.final_image_count, simulated.final_image_count);
  EXPECT_EQ(replay.final_total_bytes, simulated.final_total_bytes);
  EXPECT_EQ(replay.final_unique_bytes, simulated.final_unique_bytes);
  EXPECT_EQ(replay.crashes, 0u);
  EXPECT_EQ(replay.degraded_placements, 0u);
  EXPECT_EQ(replay.failed_placements, 0u);
  EXPECT_EQ(replay.degraded.build_failures, 0u);
}

TEST(CrashReplay, IntactCheckpointsRestoreLosslessly) {
  auto config = base_config();
  config.crash.checkpoint_every = 20;
  config.crash.crash_every = 45;

  const auto result = sim::run_crash_replay(repo(), config);
  EXPECT_GT(result.crashes, 0u);
  EXPECT_GT(result.checkpoints, 0u);
  EXPECT_EQ(result.torn_checkpoints, 0u);
  EXPECT_GT(result.images_recovered, 0u);
  EXPECT_EQ(result.records_lost, 0u);
  EXPECT_EQ(result.degraded.recovered_images, result.images_recovered);
  EXPECT_LE(result.final_unique_bytes, result.final_total_bytes);
  // Every restore rebuilt a decision index that reconciles exactly.
  EXPECT_EQ(result.index_divergences, 0u) << result.first_index_divergence;
  // All requests were still served across every incarnation.
  EXPECT_EQ(result.counters.requests,
            static_cast<std::uint64_t>(config.workload.unique_jobs) *
                config.workload.repetitions);
}

TEST(CrashReplay, TornCheckpointsRecoverPrefixOnly) {
  auto config = base_config();
  config.crash.checkpoint_every = 20;
  config.crash.crash_every = 45;
  config.faults.fail(fault::FaultOp::kSnapshotWrite, 1.0);  // every write torn
  config.faults.seed = 99;

  const auto result = sim::run_crash_replay(repo(), config);
  EXPECT_GT(result.crashes, 0u);
  EXPECT_EQ(result.torn_checkpoints, result.checkpoints);
  EXPECT_GT(result.records_lost, 0u);
  EXPECT_EQ(result.degraded.lost_records, result.records_lost);
  // Even prefix-recovered restores must rebuild an exact index.
  EXPECT_EQ(result.index_divergences, 0u) << result.first_index_divergence;
  // Prefix recovery still salvages something across the run.
  EXPECT_LE(result.final_unique_bytes, result.final_total_bytes);
  EXPECT_EQ(result.counters.requests,
            static_cast<std::uint64_t>(config.workload.unique_jobs) *
                config.workload.repetitions);

  // Torn recovery loses images relative to the intact-checkpoint run.
  auto intact = config;
  intact.faults = fault::FaultPlan{};
  const auto lossless = sim::run_crash_replay(repo(), intact);
  EXPECT_LT(result.images_recovered, lossless.images_recovered);
}

TEST(CrashReplay, SameConfigReplaysBitIdentically) {
  auto config = base_config(4);  // sharded decision layer
  config.crash.checkpoint_every = 15;
  config.crash.crash_every = 40;
  config.faults.fail(fault::FaultOp::kSnapshotWrite, 0.5)
      .fail(fault::FaultOp::kBuilderDownload, 0.2)
      .fail(fault::FaultOp::kMergeRewrite, 0.2);
  config.faults.seed = 1234;
  config.backoff.max_retries = 1;

  const auto first = sim::run_crash_replay(repo(), config);
  const auto second = sim::run_crash_replay(repo(), config);
  expect_equal_counters(first.counters, second.counters);
  EXPECT_EQ(first.crashes, second.crashes);
  EXPECT_EQ(first.checkpoints, second.checkpoints);
  EXPECT_EQ(first.torn_checkpoints, second.torn_checkpoints);
  EXPECT_EQ(first.images_recovered, second.images_recovered);
  EXPECT_EQ(first.records_lost, second.records_lost);
  EXPECT_EQ(first.degraded_placements, second.degraded_placements);
  EXPECT_EQ(first.failed_placements, second.failed_placements);
  EXPECT_EQ(first.degraded.retries, second.degraded.retries);
  EXPECT_DOUBLE_EQ(first.total_prep_seconds, second.total_prep_seconds);
  EXPECT_EQ(first.final_image_count, second.final_image_count);
  EXPECT_EQ(first.final_total_bytes, second.final_total_bytes);

  EXPECT_GT(first.crashes, 0u);
  EXPECT_GT(first.degraded.build_failures, 0u);
}

TEST(CrashReplay, V1CheckpointsWorkWhenNeverTorn) {
  auto config = base_config();
  config.crash.format = core::SnapshotFormat::kV1;
  config.crash.checkpoint_every = 20;
  config.crash.crash_every = 45;

  const auto result = sim::run_crash_replay(repo(), config);
  EXPECT_GT(result.crashes, 0u);
  EXPECT_GT(result.images_recovered, 0u);
  EXPECT_EQ(result.records_lost, 0u);
}

// ---- File-based snapshot I/O under injected faults -------------------

TEST(SnapshotFiles, TornWriteRecoversPrefixOnRead) {
  const auto path = testing::TempDir() + "landlord_torn_snapshot.txt";

  core::CacheConfig config;
  config.capacity = repo().total_bytes();
  core::ShardedCache cache(repo(), config);
  // A handful of images so the torn file retains a non-trivial prefix.
  for (std::uint32_t base = 100; base < 160; base += 4) {
    std::vector<pkg::PackageId> request{pkg::package_id(base),
                                        pkg::package_id(base + 1)};
    (void)cache.request(spec::Specification::from_request(repo(), request));
  }

  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kSnapshotWrite, 1);  // second write torn
  fault::FaultInjector injector(plan);

  ASSERT_TRUE(core::save_cache_file(path, cache, repo(),
                                    core::SnapshotFormat::kV2, &injector));
  EXPECT_FALSE(core::save_cache_file(path, cache, repo(),
                                     core::SnapshotFormat::kV2, &injector));

  core::RestoreReport report;
  auto restored = core::restore_cache_file(path, repo(), config, &report);
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(report.clean());
  EXPECT_LT(report.images_restored, cache.image_count());
  // records_lost counts image records the torn file still declares; the
  // tear may additionally swallow records whole, so <= not ==.
  EXPECT_LE(report.images_restored + report.records_lost, cache.image_count());
  EXPECT_EQ(restored.value()->image_count(), report.images_restored);
}

TEST(SnapshotFiles, InjectedReadFaultSurfacesPreciseError) {
  const auto path = testing::TempDir() + "landlord_read_fault.txt";
  core::CacheConfig config;
  config.capacity = repo().total_bytes();
  core::ShardedCache cache(repo(), config);
  ASSERT_TRUE(core::save_cache_file(path, cache, repo()));

  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kSnapshotRead, 1.0);
  fault::FaultInjector injector(plan);

  core::RestoreReport report;
  auto restored = core::restore_cache_file(path, repo(), config, &report, &injector);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.error().message.find("injected snapshot read failure"),
            std::string::npos);
  EXPECT_TRUE(report.corrupted);

  // Without the injector the same file restores cleanly.
  auto clean = core::restore_cache_file(path, repo(), config, &report);
  EXPECT_TRUE(clean.ok());
  EXPECT_TRUE(report.clean());
}

// ---- Landlord::restore as the head-node restart path -----------------

TEST(LandlordRestore, RoundTripsThroughSnapshotStream) {
  core::CacheConfig config;
  config.capacity = repo().total_bytes();
  core::Landlord landlord(repo(), config);
  for (std::uint32_t base = 200; base < 240; base += 4) {
    std::vector<pkg::PackageId> request{pkg::package_id(base),
                                        pkg::package_id(base + 1)};
    (void)landlord.submit(spec::Specification::from_request(repo(), request));
  }
  const auto images_before = landlord.image_count();
  const auto bytes_before = landlord.total_bytes();
  ASSERT_GT(images_before, 0u);

  std::ostringstream out;
  core::save_cache(out, landlord.cache(), repo(), core::SnapshotFormat::kV2);

  core::Landlord fresh(repo(), config);
  std::istringstream in(out.str());
  core::RestoreReport report;
  auto restored = fresh.restore(in, &report);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), images_before);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(fresh.image_count(), images_before);
  EXPECT_EQ(fresh.total_bytes(), bytes_before);
  EXPECT_EQ(fresh.degraded().recovered_images, images_before);
}

}  // namespace
}  // namespace landlord
