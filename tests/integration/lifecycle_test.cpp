// Capstone integration: a head-node lifecycle across restarts and
// release drift — trace capture, cache persistence, restore, and
// continued operation must compose.
#include <gtest/gtest.h>

#include <sstream>

#include "landlord/persist.hpp"
#include "pkg/manifest.hpp"
#include "pkg/synthetic.hpp"
#include "sim/trace.hpp"
#include "sim/workload.hpp"

namespace landlord {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 900;
    auto result = pkg::generate_repository(params, 151);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

TEST(Lifecycle, DayOneDayTwoWithRestartAndDrift) {
  core::CacheConfig config;
  config.alpha = 0.8;
  // Roomy budget: the all-hits replay below presumes day one evicted
  // nothing.
  config.capacity = repo().total_bytes() * 4;

  sim::WorkloadConfig workload;
  workload.unique_jobs = 30;
  workload.max_initial_selection = 10;
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(3));
  auto specs = generator.unique_specifications();

  // Day one: process the workload, capture the trace, snapshot the cache.
  sim::Trace trace;
  trace.specs = specs;
  core::ShardedCache day_one(repo(), config);
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    (void)day_one.request(specs[i]);
    trace.stream.push_back(i);
  }
  ASSERT_EQ(day_one.counters().deletes, 0u);
  std::stringstream trace_file, cache_file;
  sim::write_trace(trace_file, trace, repo());
  core::save_cache(cache_file, day_one, repo());

  // Restart: restore the cache; replaying the captured trace must be
  // all hits (everything was admitted yesterday).
  auto restored = core::restore_cache(cache_file, repo(), config);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  auto reloaded_trace = sim::read_trace(trace_file, repo());
  ASSERT_TRUE(reloaded_trace.ok()) << reloaded_trace.error().message;
  for (auto index : reloaded_trace.value().stream) {
    EXPECT_EQ(restored.value()->request(reloaded_trace.value().specs[index]).kind,
              core::RequestKind::kHit);
  }

  // Day two: a release cycle drifts the specs; the restored cache
  // absorbs the upgraded variants mostly by merging, not rebuilding.
  const auto before = restored.value()->counters();
  for (auto& spec : specs) {
    spec = generator.evolved_specification(spec, 0.15);
    (void)restored.value()->request(spec);
  }
  const auto after = restored.value()->counters();
  const auto new_inserts = after.inserts - before.inserts;
  const auto new_merges = after.merges - before.merges;
  const auto new_hits = after.hits - before.hits;
  EXPECT_EQ(new_inserts + new_merges + new_hits,
            static_cast<std::uint64_t>(specs.size()));
  EXPECT_GT(new_merges + new_hits, new_inserts);
}

TEST(Lifecycle, ManifestTraceSnapshotAllPortable) {
  // The three durable artefacts — manifest, trace, cache snapshot — can
  // rebuild an equivalent deployment from text alone.
  std::stringstream manifest_file;
  pkg::write_manifest(repo(), manifest_file);
  auto repo2 = pkg::parse_manifest(manifest_file);
  ASSERT_TRUE(repo2.ok()) << repo2.error().message;

  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = repo().total_bytes();

  sim::WorkloadConfig workload;
  workload.unique_jobs = 12;
  workload.max_initial_selection = 8;
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(9));
  const auto specs = generator.unique_specifications();

  core::ShardedCache original(repo(), config);
  for (const auto& spec : specs) (void)original.request(spec);
  std::stringstream snapshot;
  core::save_cache(snapshot, original, repo());

  // Restore against the *reparsed* repository: package ids may differ,
  // keys must carry the state across.
  auto restored = core::restore_cache(snapshot, repo2.value(), config);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored.value()->image_count(), original.image_count());
  EXPECT_EQ(restored.value()->total_bytes(), original.total_bytes());
}

}  // namespace
}  // namespace landlord
