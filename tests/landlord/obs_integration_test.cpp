// Reconciliation suite: the observability layer must agree *exactly*
// with the legacy counters it shadows, and must never perturb decisions.
//
// Every obs counter is bumped immediately adjacent to its
// CacheCounters / DegradedCounters twin, so any drift between a registry
// snapshot and the structs is a bug in the instrumentation — the
// acceptance gate for the metrics layer (see docs/observability.md).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "landlord/landlord.hpp"
#include "landlord/sharded.hpp"
#include "obs/obs.hpp"
#include "pkg/synthetic.hpp"
#include "sim/crash.hpp"
#include "sim/driver.hpp"
#include "sim/workload.hpp"

namespace landlord {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 600;
    auto result = pkg::generate_repository(params, 17);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

std::vector<spec::Specification> workload_specs(std::uint32_t jobs,
                                                std::uint64_t seed) {
  sim::WorkloadConfig workload;
  workload.unique_jobs = jobs;
  workload.repetitions = 2;
  workload.max_initial_selection = 12;
  sim::WorkloadGenerator generator(repo(), workload, util::Rng(seed));
  const auto specs = generator.unique_specifications();
  const auto stream = generator.request_stream();
  std::vector<spec::Specification> ordered;
  ordered.reserve(stream.size());
  for (const auto index : stream) ordered.push_back(specs[index]);
  return ordered;
}

double series(const std::map<std::string, double>& snap, const std::string& key) {
  const auto it = snap.find(key);
  EXPECT_NE(it, snap.end()) << "missing series: " << key;
  return it == snap.end() ? -1.0 : it->second;
}

std::uint64_t trace_count(const obs::EventTrace& trace, obs::EventKind kind) {
  std::uint64_t n = 0;
  for (const auto& event : trace.snapshot()) {
    if (event.kind == kind) ++n;
  }
  return n;
}

// ---- Exact counter reconciliation -----------------------------------

TEST(ObsReconcile, SequentialCacheCountersMatchSnapshotExactly) {
  const auto stream = workload_specs(40, 11);

  core::CacheConfig config;
  config.alpha = 0.85;
  config.capacity = repo().total_bytes() / 6;  // force evictions
  obs::Observability obs(1 << 16);
  core::Landlord landlord(repo(), config);
  landlord.set_observability(&obs);

  for (const auto& spec : stream) (void)landlord.submit(spec);

  const auto counters = landlord.counters();
  const auto snap = obs.registry.snapshot();
  const auto hits = series(snap, "landlord_cache_requests_total{kind=\"hit\"}");
  const auto merges = series(snap, "landlord_cache_requests_total{kind=\"merge\"}");
  const auto inserts =
      series(snap, "landlord_cache_requests_total{kind=\"insert\"}");
  EXPECT_EQ(hits, static_cast<double>(counters.hits));
  EXPECT_EQ(merges, static_cast<double>(counters.merges));
  EXPECT_EQ(inserts, static_cast<double>(counters.inserts));
  EXPECT_EQ(hits + merges + inserts, static_cast<double>(counters.requests));

  const auto evictions =
      series(snap, "landlord_cache_evictions_total{reason=\"budget\"}") +
      series(snap, "landlord_cache_evictions_total{reason=\"idle\"}") +
      series(snap, "landlord_cache_evictions_total{reason=\"split-empty\"}");
  EXPECT_EQ(evictions, static_cast<double>(counters.deletes));
  EXPECT_EQ(series(snap, "landlord_cache_splits_total"),
            static_cast<double>(counters.splits));
  EXPECT_EQ(series(snap, "landlord_cache_conflict_rejections_total"),
            static_cast<double>(counters.conflict_rejections));

  // One request-bytes observation per request, summing to the exact
  // requested byte total.
  EXPECT_EQ(series(snap, "landlord_cache_request_bytes_count"),
            static_cast<double>(counters.requests));
  EXPECT_EQ(series(snap, "landlord_cache_request_bytes_sum"),
            static_cast<double>(counters.requested_bytes));

  // Rungs: fault-free, split-free run — every request is a plain hit or
  // a built merge/insert.
  EXPECT_EQ(series(snap, "landlord_submit_rung_total{rung=\"hit\"}"),
            static_cast<double>(counters.hits));
  EXPECT_EQ(series(snap, "landlord_submit_rung_total{rung=\"build\"}"),
            static_cast<double>(counters.merges + counters.inserts));
  EXPECT_EQ(series(snap, "landlord_submit_rung_total{rung=\"exact-fallback\"}"), 0.0);
  EXPECT_EQ(series(snap, "landlord_submit_rung_total{rung=\"error\"}"), 0.0);
  EXPECT_EQ(series(snap, "landlord_submit_prep_seconds_count"),
            static_cast<double>(stream.size()));
  EXPECT_EQ(series(snap, "landlord_placement_invariant_violations_total"), 0.0);

  // The trace retained one request event per request (capacity is ample).
  EXPECT_EQ(trace_count(obs.trace, obs::EventKind::kRequest), counters.requests);
  EXPECT_EQ(trace_count(obs.trace, obs::EventKind::kEviction), counters.deletes);
}

TEST(ObsReconcile, RenderedTextParsesBackToTheSameSnapshot) {
  const auto stream = workload_specs(20, 5);
  obs::Observability obs;
  core::Landlord landlord(repo(), core::CacheConfig{});
  landlord.set_observability(&obs);
  for (const auto& spec : stream) (void)landlord.submit(spec);

  std::istringstream in(obs.registry.render_text());
  auto parsed = obs::parse_text(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value(), obs.registry.snapshot());
}

// ---- Zero perturbation ----------------------------------------------

TEST(ObsReconcile, AttachedObservabilityNeverPerturbsPlacements) {
  const auto stream = workload_specs(40, 29);

  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = repo().total_bytes() / 8;
  config.enable_split = true;
  core::Landlord plain(repo(), config);
  core::Landlord observed(repo(), config);
  obs::Observability obs;
  observed.set_observability(&obs);

  for (const auto& spec : stream) {
    const auto a = plain.submit(spec);
    const auto b = observed.submit(spec);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(core::to_value(a.image), core::to_value(b.image));
    EXPECT_EQ(a.image_bytes, b.image_bytes);
    EXPECT_DOUBLE_EQ(a.prep_seconds, b.prep_seconds);
  }
  const auto ca = plain.counters();
  const auto cb = observed.counters();
  EXPECT_EQ(ca.hits, cb.hits);
  EXPECT_EQ(ca.merges, cb.merges);
  EXPECT_EQ(ca.inserts, cb.inserts);
  EXPECT_EQ(ca.deletes, cb.deletes);
  EXPECT_EQ(ca.splits, cb.splits);
  EXPECT_EQ(ca.written_bytes, cb.written_bytes);
}

// ---- Degradation-ladder reconciliation ------------------------------

TEST(ObsReconcile, LadderRungsMatchDegradedCountersUnderChaos) {
  const auto stream = workload_specs(30, 23);

  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kBuilderDownload, 0.35)
      .fail(fault::FaultOp::kMergeRewrite, 0.35);
  plan.seed = 1234;
  fault::FaultInjector injector(plan);

  core::CacheConfig config;
  config.alpha = 0.85;
  config.capacity = repo().total_bytes() / 6;
  obs::Observability obs(1 << 16);
  core::Landlord landlord(repo(), config);
  landlord.set_observability(&obs);
  landlord.set_fault_injector(&injector);
  injector.set_observability(&obs);
  fault::BackoffPolicy backoff;
  backoff.max_retries = 1;
  landlord.set_backoff_policy(backoff);

  for (const auto& spec : stream) (void)landlord.submit(spec);

  const auto degraded = landlord.degraded();
  const auto snap = obs.registry.snapshot();
  EXPECT_EQ(series(snap, "landlord_submit_rung_total{rung=\"exact-fallback\"}"),
            static_cast<double>(degraded.fallback_exact_builds));
  EXPECT_EQ(series(snap, "landlord_submit_rung_total{rung=\"unsplit-fallback\"}"),
            static_cast<double>(degraded.fallback_unsplit_hits));
  EXPECT_EQ(series(snap, "landlord_submit_rung_total{rung=\"error\"}"),
            static_cast<double>(degraded.error_placements));
  EXPECT_EQ(series(snap, "landlord_submit_build_retries_total"),
            static_cast<double>(degraded.retries));
  EXPECT_DOUBLE_EQ(series(snap, "landlord_submit_backoff_seconds_total"),
                   degraded.backoff_seconds);
  EXPECT_GT(degraded.retries, 0u);  // the chaos actually bit

  // Fault injector telemetry matches its own accessors per class.
  EXPECT_EQ(
      series(snap, "landlord_fault_ops_total{op=\"builder-download\"}"),
      static_cast<double>(injector.occurrences(fault::FaultOp::kBuilderDownload)));
  EXPECT_EQ(
      series(snap, "landlord_fault_injected_total{op=\"builder-download\"}"),
      static_cast<double>(injector.injected(fault::FaultOp::kBuilderDownload)));
  EXPECT_EQ(
      series(snap, "landlord_fault_injected_total{op=\"merge-rewrite\"}"),
      static_cast<double>(injector.injected(fault::FaultOp::kMergeRewrite)));

  // The misreporting bugs stay fixed under chaos: the self-check that
  // runs inside every submit() found nothing.
  EXPECT_EQ(series(snap, "landlord_placement_invariant_violations_total"), 0.0);
  EXPECT_EQ(trace_count(obs.trace, obs::EventKind::kInvariantViolation), 0u);
  EXPECT_EQ(trace_count(obs.trace, obs::EventKind::kFallbackExact),
            degraded.fallback_exact_builds);
  EXPECT_EQ(trace_count(obs.trace, obs::EventKind::kFaultInjected),
            injector.total_injected());
}

// ---- Sharded decision layer -----------------------------------------

TEST(ObsReconcile, ShardedCountersAndGaugesMatch) {
  const auto stream = workload_specs(40, 41);

  core::CacheConfig config;
  config.alpha = 0.85;
  config.capacity = repo().total_bytes() / 6;
  config.shards = 4;
  obs::Observability obs;
  core::ShardedCache cache(repo(), config);
  cache.set_observability(&obs);

  for (const auto& spec : stream) (void)cache.request(spec);
  cache.publish_metrics();

  const auto counters = cache.counters();
  const auto snap = obs.registry.snapshot();
  EXPECT_EQ(series(snap, "landlord_cache_requests_total{kind=\"hit\"}"),
            static_cast<double>(counters.hits));
  EXPECT_EQ(series(snap, "landlord_cache_requests_total{kind=\"merge\"}"),
            static_cast<double>(counters.merges));
  EXPECT_EQ(series(snap, "landlord_cache_requests_total{kind=\"insert\"}"),
            static_cast<double>(counters.inserts));
  EXPECT_EQ(series(snap, "landlord_shard_lock_contentions_total"),
            static_cast<double>(counters.shard_lock_contentions));
  EXPECT_EQ(series(snap, "landlord_shard_optimistic_retries_total"),
            static_cast<double>(counters.optimistic_retries));
  EXPECT_EQ(series(snap, "landlord_shard_cross_moves_total"),
            static_cast<double>(counters.cross_shard_moves));

  // Published per-shard gauges sum to the cache-wide totals.
  double images = 0.0;
  double bytes = 0.0;
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    images += series(
        snap, "landlord_shard_images{shard=\"" + std::to_string(s) + "\"}");
    bytes += series(
        snap, "landlord_shard_bytes{shard=\"" + std::to_string(s) + "\"}");
  }
  EXPECT_EQ(images, static_cast<double>(cache.image_count()));
  EXPECT_EQ(bytes, static_cast<double>(cache.total_bytes()));
}

// ---- Crash-replay lifetime ------------------------------------------

TEST(ObsReconcile, CrashReplayAccumulatesAcrossIncarnations) {
  sim::CrashReplayConfig config;
  config.cache.alpha = 0.8;
  config.cache.capacity = repo().total_bytes();
  config.workload.unique_jobs = 40;
  config.workload.repetitions = 3;
  config.workload.max_initial_selection = 12;
  config.seed = 7;
  config.crash.checkpoint_every = 25;
  config.crash.crash_every = 60;
  config.faults.fail(fault::FaultOp::kSnapshotWrite, 0.5);
  config.faults.seed = 99;

  obs::Observability obs(1 << 16);
  config.obs = &obs;
  const auto result = sim::run_crash_replay(repo(), config);
  ASSERT_GT(result.crashes, 0u);
  ASSERT_GT(result.torn_checkpoints, 0u);

  const auto snap = obs.registry.snapshot();
  EXPECT_EQ(series(snap, "landlord_crashes_total"),
            static_cast<double>(result.crashes));
  EXPECT_EQ(series(snap, "landlord_checkpoints_total{result=\"torn\"}"),
            static_cast<double>(result.torn_checkpoints));
  EXPECT_EQ(series(snap, "landlord_checkpoints_total{result=\"ok\"}"),
            static_cast<double>(result.checkpoints - result.torn_checkpoints));

  // Decision counters survive the kill in the registry exactly as they
  // do in the driver's accumulator: the series are monotone across
  // incarnations because restore() re-attaches the same handles.
  EXPECT_EQ(series(snap, "landlord_cache_requests_total{kind=\"hit\"}"),
            static_cast<double>(result.counters.hits));
  EXPECT_EQ(series(snap, "landlord_cache_requests_total{kind=\"merge\"}"),
            static_cast<double>(result.counters.merges));
  EXPECT_EQ(series(snap, "landlord_cache_requests_total{kind=\"insert\"}"),
            static_cast<double>(result.counters.inserts));
  EXPECT_EQ(trace_count(obs.trace, obs::EventKind::kRestore), result.crashes);
  EXPECT_EQ(trace_count(obs.trace, obs::EventKind::kCheckpoint),
            result.checkpoints);
}

// ---- Simulation driver plumbing -------------------------------------

TEST(ObsReconcile, RunSimulationAttachesWhenConfigured) {
  sim::SimulationConfig config;
  config.cache.alpha = 0.75;
  config.cache.capacity = repo().total_bytes();
  config.workload.unique_jobs = 30;
  config.workload.repetitions = 2;
  config.workload.max_initial_selection = 12;
  config.seed = 3;

  obs::Observability obs;
  config.obs = &obs;
  const auto result = sim::run_simulation(repo(), config);

  const auto snap = obs.registry.snapshot();
  const auto total =
      series(snap, "landlord_cache_requests_total{kind=\"hit\"}") +
      series(snap, "landlord_cache_requests_total{kind=\"merge\"}") +
      series(snap, "landlord_cache_requests_total{kind=\"insert\"}");
  EXPECT_EQ(total, static_cast<double>(result.counters.requests));

  // And the same config without obs produces identical counters: the
  // driver-level attach is zero-perturbation too.
  sim::SimulationConfig detached = config;
  detached.obs = nullptr;
  const auto plain = sim::run_simulation(repo(), detached);
  EXPECT_EQ(plain.counters.hits, result.counters.hits);
  EXPECT_EQ(plain.counters.merges, result.counters.merges);
  EXPECT_EQ(plain.counters.inserts, result.counters.inserts);
  EXPECT_EQ(plain.counters.written_bytes, result.counters.written_bytes);
}

}  // namespace
}  // namespace landlord
