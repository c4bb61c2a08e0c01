// Chaos/property suite for the fault-injection layer.
//
// Every fault here is seed-deterministic (fault::FaultInjector), so the
// suite can assert exact replay: the same plan produces the same
// verdicts, the same degraded placements, and the same counters, run
// after run — across both the sequential and the sharded decision
// layers. The zero-fault guard pins the other end: an empty FaultPlan
// must leave the fault-wired paths bit-identical to the unwired code.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "landlord/landlord.hpp"
#include "landlord/persist.hpp"
#include "obs/obs.hpp"
#include "pkg/synthetic.hpp"
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

core::CacheConfig cache_config(double alpha = 0.8, std::uint32_t shards = 1) {
  core::CacheConfig c;
  c.alpha = alpha;
  c.capacity = repo().total_bytes();
  c.shards = shards;
  return c;
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

spec::Specification spec_for(std::initializer_list<std::uint32_t> ids) {
  std::vector<pkg::PackageId> request;
  for (auto i : ids) request.push_back(pkg::package_id(i));
  return spec::Specification::from_request(repo(), request);
}

// ---- FaultInjector determinism --------------------------------------

TEST(FaultInjector, SameSeedSameVerdicts) {
  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kBuilderDownload, 0.3)
      .fail(fault::FaultOp::kMergeRewrite, 0.7);
  plan.seed = 99;

  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.should_fail(fault::FaultOp::kBuilderDownload),
              b.should_fail(fault::FaultOp::kBuilderDownload));
    EXPECT_EQ(a.should_fail(fault::FaultOp::kMergeRewrite),
              b.should_fail(fault::FaultOp::kMergeRewrite));
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
  EXPECT_GT(a.total_injected(), 0u);
}

TEST(FaultInjector, VerdictsIndependentOfInterleaving) {
  // The k-th verdict for a class must not depend on what other classes
  // were asked in between.
  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kBuilderDownload, 0.5)
      .fail(fault::FaultOp::kSnapshotWrite, 0.5);
  plan.seed = 7;

  fault::FaultInjector sequential(plan);
  std::vector<bool> downloads;
  for (int i = 0; i < 50; ++i) {
    downloads.push_back(sequential.should_fail(fault::FaultOp::kBuilderDownload));
  }

  fault::FaultInjector interleaved(plan);
  for (int i = 0; i < 50; ++i) {
    (void)interleaved.should_fail(fault::FaultOp::kSnapshotWrite);
    EXPECT_EQ(interleaved.should_fail(fault::FaultOp::kBuilderDownload),
              downloads[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultInjector, ScheduleFiresExactOccurrences) {
  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kMergeRewrite, 0).at(fault::FaultOp::kMergeRewrite, 3);
  fault::FaultInjector injector(plan);
  std::vector<bool> verdicts;
  for (int i = 0; i < 6; ++i) {
    verdicts.push_back(injector.should_fail(fault::FaultOp::kMergeRewrite));
  }
  EXPECT_EQ(verdicts, (std::vector<bool>{true, false, false, true, false, false}));
  EXPECT_EQ(injector.injected(fault::FaultOp::kMergeRewrite), 2u);
  EXPECT_EQ(injector.occurrences(fault::FaultOp::kMergeRewrite), 6u);

  injector.reset();
  EXPECT_TRUE(injector.should_fail(fault::FaultOp::kMergeRewrite));
}

TEST(FaultInjector, EmptyPlanNeverFails) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  fault::FaultInjector injector(plan);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.should_fail(fault::FaultOp::kBuilderDownload));
    EXPECT_FALSE(injector.should_fail(fault::FaultOp::kSnapshotRead));
  }
  EXPECT_EQ(injector.total_injected(), 0u);
}

TEST(Backoff, ExponentialBoundedAndDeterministic) {
  fault::BackoffPolicy policy;
  policy.base_delay_s = 1.0;
  policy.multiplier = 2.0;
  policy.max_delay_s = 5.0;
  policy.jitter = 0.1;
  util::Rng rng_a(3), rng_b(3);
  double previous = 0.0;
  for (std::uint32_t attempt = 0; attempt < 6; ++attempt) {
    const double a = policy.delay_for(attempt, rng_a);
    const double b = policy.delay_for(attempt, rng_b);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
    EXPECT_LE(a, policy.max_delay_s * (1.0 + policy.jitter));
    if (attempt > 0 && attempt < 3) {
      EXPECT_GT(a, previous * 0.9);
    }
    previous = a;
  }
}

// ---- Zero-fault equivalence guard -----------------------------------

TEST(ZeroFault, WiredPathsBitIdenticalToUnwired) {
  const auto stream = workload_specs(40, 11);

  core::Landlord plain(repo(), cache_config());
  core::Landlord wired(repo(), cache_config());
  fault::FaultInjector injector{fault::FaultPlan{}};
  wired.set_fault_injector(&injector);

  for (const auto& spec : stream) {
    const auto a = plain.submit(spec);
    const auto b = wired.submit(spec);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(core::to_value(a.image), core::to_value(b.image));
    EXPECT_EQ(a.image_bytes, b.image_bytes);
    EXPECT_EQ(a.requested_bytes, b.requested_bytes);
    EXPECT_DOUBLE_EQ(a.prep_seconds, b.prep_seconds);
    EXPECT_FALSE(b.degraded);
    EXPECT_FALSE(b.failed);
    EXPECT_EQ(b.build_retries, 0u);
  }
  EXPECT_DOUBLE_EQ(plain.total_prep_seconds(), wired.total_prep_seconds());

  const auto ca = plain.counters();
  const auto cb = wired.counters();
  EXPECT_EQ(ca.requests, cb.requests);
  EXPECT_EQ(ca.hits, cb.hits);
  EXPECT_EQ(ca.merges, cb.merges);
  EXPECT_EQ(ca.inserts, cb.inserts);
  EXPECT_EQ(ca.deletes, cb.deletes);
  EXPECT_EQ(ca.written_bytes, cb.written_bytes);

  const auto degraded = wired.degraded();
  EXPECT_EQ(degraded.build_failures, 0u);
  EXPECT_EQ(degraded.retries, 0u);
  EXPECT_EQ(degraded.error_placements, 0u);

  // Snapshots are bit-identical too.
  std::ostringstream snap_a, snap_b;
  core::save_cache(snap_a, plain.cache(), repo());
  core::save_cache(snap_b, wired.cache(), repo());
  EXPECT_EQ(snap_a.str(), snap_b.str());
}

// ---- Chaos invariants ------------------------------------------------

/// Structural invariants that must hold after every request, faults or
/// not: the byte ledger matches the image set, dedup never exceeds the
/// total, and no image leaks outside the count.
void expect_invariants(const core::Landlord& landlord) {
  util::Bytes summed = 0;
  std::size_t count = 0;
  const auto visit = [&](const core::Image& image) {
    summed += image.bytes;
    ++count;
    EXPECT_EQ(image.bytes, repo().bytes_of(image.contents.bits()));
  };
  landlord.cache().for_each_image(visit);
  EXPECT_EQ(summed, landlord.total_bytes());
  EXPECT_EQ(count, landlord.cache().image_count());
  EXPECT_LE(landlord.unique_bytes(), landlord.total_bytes());
  // The sublinear decision index (postings refcounts, postings contents,
  // eviction order) must reconcile against a from-scratch rebuild after
  // every chaos mutation — nullopt means consistent (or knob off).
  EXPECT_EQ(landlord.cache().check_decision_index(), std::nullopt);
}

/// Placements that failed submit()'s own placement self-check
/// (core::decision_violation), which runs on every submit while
/// observability is attached. This is what used to catch fire: a rung-2
/// fallback claiming the merged *cached* image it never built, and a
/// rung-3 fallback reporting the split part instead of the unsplit image
/// it actually served.
std::uint64_t invariant_violations(obs::Observability& obs) {
  return obs.registry.counter("landlord_placement_invariant_violations_total")
      .value();
}

/// The residency-and-size rule, checked after every sequential submit:
/// a placement served without degrading names a resident image at its
/// cached size.
void expect_resident(const core::Landlord& landlord,
                     const core::JobPlacement& placement) {
  if (placement.failed || placement.degraded) return;
  const auto image = landlord.cache().find(placement.image);
  ASSERT_TRUE(image.has_value())
      << "placement image " << core::to_value(placement.image) << " is not resident";
  EXPECT_EQ(image->bytes, placement.image_bytes);
}

struct ChaosOutcome {
  core::CacheCounters counters;
  fault::DegradedCounters degraded;
  double prep_seconds = 0.0;
  std::uint64_t degraded_placements = 0;
  std::uint64_t failed_placements = 0;
};

ChaosOutcome run_chaos(std::uint32_t shards, std::uint64_t fault_seed,
                       bool check_invariants) {
  const auto stream = workload_specs(30, 23);

  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kBuilderDownload, 0.35)
      .fail(fault::FaultOp::kMergeRewrite, 0.35);
  plan.seed = fault_seed;
  fault::FaultInjector injector(plan);

  auto config = cache_config(0.85, shards);
  config.capacity = repo().total_bytes() / 6;  // force evictions too
  core::Landlord landlord(repo(), config);
  landlord.set_fault_injector(&injector);
  fault::BackoffPolicy backoff;
  backoff.max_retries = 1;
  landlord.set_backoff_policy(backoff);
  obs::Observability obs;
  if (check_invariants) landlord.set_observability(&obs);

  ChaosOutcome outcome;
  for (const auto& spec : stream) {
    const auto placement = landlord.submit(spec);
    outcome.prep_seconds += placement.prep_seconds;
    if (placement.degraded) ++outcome.degraded_placements;
    if (placement.failed) ++outcome.failed_placements;
    if (check_invariants) {
      expect_invariants(landlord);
      // Single-threaded replay: the placement cannot be invalidated by a
      // racing eviction, so the check is exact for any shard count.
      expect_resident(landlord, placement);
    }
  }
  EXPECT_EQ(invariant_violations(obs), 0u);
  outcome.counters = landlord.counters();
  outcome.degraded = landlord.degraded();
  return outcome;
}

TEST(Chaos, SequentialInvariantsHoldUnderFaults) {
  const auto outcome = run_chaos(1, 1234, true);
  EXPECT_GT(outcome.degraded.build_failures, 0u);
  EXPECT_GT(outcome.degraded.retries, 0u);
  EXPECT_GT(outcome.counters.requests, 0u);
}

TEST(Chaos, ShardedInvariantsHoldUnderFaults) {
  const auto outcome = run_chaos(4, 1234, true);
  EXPECT_GT(outcome.degraded.build_failures, 0u);
  EXPECT_GT(outcome.counters.requests, 0u);
}

TEST(Chaos, SameSeedReplaysIdenticalCounters) {
  for (const std::uint32_t shards : {1u, 4u}) {
    const auto first = run_chaos(shards, 555, false);
    const auto second = run_chaos(shards, 555, false);
    EXPECT_EQ(first.counters.requests, second.counters.requests);
    EXPECT_EQ(first.counters.hits, second.counters.hits);
    EXPECT_EQ(first.counters.merges, second.counters.merges);
    EXPECT_EQ(first.counters.inserts, second.counters.inserts);
    EXPECT_EQ(first.counters.deletes, second.counters.deletes);
    EXPECT_EQ(first.counters.written_bytes, second.counters.written_bytes);
    EXPECT_EQ(first.degraded.build_failures, second.degraded.build_failures);
    EXPECT_EQ(first.degraded.retries, second.degraded.retries);
    EXPECT_EQ(first.degraded.backoffs, second.degraded.backoffs);
    EXPECT_DOUBLE_EQ(first.degraded.backoff_seconds,
                     second.degraded.backoff_seconds);
    EXPECT_EQ(first.degraded.fallback_exact_builds,
              second.degraded.fallback_exact_builds);
    EXPECT_EQ(first.degraded.error_placements, second.degraded.error_placements);
    EXPECT_EQ(first.degraded_placements, second.degraded_placements);
    EXPECT_EQ(first.failed_placements, second.failed_placements);
    EXPECT_DOUBLE_EQ(first.prep_seconds, second.prep_seconds);
  }
}

// ---- Degradation ladder ---------------------------------------------

TEST(Degradation, RetrySucceedsAndChargesBackoff) {
  // First build attempt fails (scheduled), the retry succeeds: the
  // placement lands normally but carries the backoff wait.
  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kBuilderDownload, 0);
  fault::FaultInjector injector(plan);

  core::Landlord landlord(repo(), cache_config());
  landlord.set_fault_injector(&injector);

  const auto placement = landlord.submit(spec_for({500, 501}));
  EXPECT_EQ(placement.kind, core::RequestKind::kInsert);
  EXPECT_FALSE(placement.failed);
  EXPECT_FALSE(placement.degraded);
  EXPECT_EQ(placement.build_retries, 1u);
  const auto degraded = landlord.degraded();
  EXPECT_EQ(degraded.build_failures, 1u);
  EXPECT_EQ(degraded.retries, 1u);
  EXPECT_GT(degraded.backoff_seconds, 0.0);
  // Prep = successful build + the modelled wait before the retry.
  EXPECT_GT(placement.prep_seconds, degraded.backoff_seconds);
}

TEST(Degradation, FailedMergeRewriteFallsBackToExactInsert) {
  // Every merge rewrite fails; downloads succeed. The decided merge
  // cannot be materialised, so the job gets an exact, uncached image.
  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kMergeRewrite, 1.0);
  fault::FaultInjector injector(plan);

  core::Landlord landlord(repo(), cache_config(0.95));
  landlord.set_fault_injector(&injector);
  fault::BackoffPolicy backoff;
  backoff.max_retries = 1;
  landlord.set_backoff_policy(backoff);
  obs::Observability obs;
  landlord.set_observability(&obs);

  (void)landlord.submit(spec_for({500, 501, 502}));
  const auto merged = landlord.submit(spec_for({500, 501, 503}));
  ASSERT_EQ(landlord.counters().merges, 1u);  // decision layer merged
  EXPECT_TRUE(merged.degraded);
  EXPECT_FALSE(merged.failed);
  EXPECT_EQ(merged.kind, core::RequestKind::kInsert);  // served exact
  EXPECT_EQ(merged.image_bytes, merged.requested_bytes);
  EXPECT_GT(merged.prep_seconds, 0.0);
  EXPECT_EQ(landlord.degraded().fallback_exact_builds, 1u);
  // Regression: the placement used to claim the *merged cached image* —
  // an image whose rewrite just failed and whose contents the job never
  // got. A rung-2 fallback ships a one-off image that is not in the
  // cache, reported via the uncached sentinel.
  EXPECT_TRUE(core::is_uncached(merged.image));
  EXPECT_EQ(core::to_value(merged.image), core::to_value(core::kUncachedImage));
  EXPECT_EQ(invariant_violations(obs), 0u);
}

TEST(Degradation, FailedSplitRebuildServesUnsplitImage) {
  auto config = cache_config(1.0);
  config.enable_split = true;
  config.split_utilization = 0.6;

  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kMergeRewrite, 1.0);  // merges AND split rebuilds
  fault::FaultInjector injector(plan);

  core::Landlord landlord(repo(), config);
  fault::BackoffPolicy backoff;
  backoff.max_retries = 0;
  landlord.set_backoff_policy(backoff);
  obs::Observability obs;
  landlord.set_observability(&obs);

  const auto small = spec_for({500});
  (void)landlord.submit(small);
  const auto bloated = landlord.submit(spec_for({300, 301, 302, 303}));  // merge: bloat
  landlord.set_fault_injector(&injector);                 // faults start now
  const auto placement = landlord.submit(small);          // hit via split
  EXPECT_EQ(placement.kind, core::RequestKind::kHit);
  EXPECT_TRUE(placement.degraded);
  EXPECT_FALSE(placement.failed);
  EXPECT_GT(landlord.counters().splits, 0u);
  EXPECT_EQ(landlord.degraded().fallback_unsplit_hits, 1u);
  // Regression: the placement used to report the freshly split *part*
  // (id and bytes of an image whose rebuild just failed). What the job
  // actually runs in is the worker's on-disk copy of the unsplit bloated
  // image — its id and pre-split size.
  EXPECT_EQ(core::to_value(placement.image), core::to_value(bloated.image));
  EXPECT_EQ(placement.image_bytes, bloated.image_bytes);
  EXPECT_GT(placement.image_bytes, placement.requested_bytes);
  EXPECT_EQ(invariant_violations(obs), 0u);
}

TEST(Degradation, ExhaustionSurfacesErrorPlacement) {
  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kBuilderDownload, 1.0)
      .fail(fault::FaultOp::kMergeRewrite, 1.0);
  fault::FaultInjector injector(plan);

  core::Landlord landlord(repo(), cache_config());
  landlord.set_fault_injector(&injector);
  fault::BackoffPolicy backoff;
  backoff.max_retries = 2;
  landlord.set_backoff_policy(backoff);
  obs::Observability obs;
  landlord.set_observability(&obs);

  const auto placement = landlord.submit(spec_for({500, 501}));
  EXPECT_TRUE(placement.failed);
  EXPECT_FALSE(placement.error.empty());
  EXPECT_EQ(placement.build_retries, 2u);
  EXPECT_GT(placement.prep_seconds, 0.0);  // backoff waits still charged
  EXPECT_EQ(landlord.degraded().error_placements, 1u);
  EXPECT_EQ(invariant_violations(obs), 0u);

  // The decision layer stays structurally consistent even though the
  // materialisation failed.
  expect_invariants(landlord);

  // A later fault-free submit of the same spec hits the (decision-layer)
  // image and rebuilds nothing.
  landlord.set_fault_injector(nullptr);
  const auto retry = landlord.submit(spec_for({500, 501}));
  EXPECT_EQ(retry.kind, core::RequestKind::kHit);
  EXPECT_FALSE(retry.failed);
}

// ---- Decision/build race: the decided image is evicted after request()
// but before its build ------------------------------------------------

TEST(Toctou, ConcurrentEvictionStillBuildsDecidedContents) {
  const auto spec_b = spec_for({500, 501});
  const auto spec_big = spec_for({100, 101, 102, 103, 104, 105});

  auto config = cache_config(0.0);  // pure insert cache, no merging
  config.capacity =
      spec_b.bytes(repo()) + spec_big.bytes(repo()) - 1;  // only one fits

  core::Landlord landlord(repo(), config);
  bool hook_fired = false;
  landlord.set_submit_test_hook([&] {
    if (hook_fired) return;  // the hook's own submit re-enters
    hook_fired = true;
    // Simulates the racing thread: inserting the big image evicts the
    // image the outer submit just decided on.
    (void)landlord.submit(spec_big);
  });

  const auto placement = landlord.submit(spec_b);
  EXPECT_TRUE(hook_fired);
  // One decision per submit: the spec was not re-run through Algorithm 1
  // after the racing eviction.
  const auto counters = landlord.counters();
  EXPECT_EQ(counters.requests, 2u);
  EXPECT_EQ(counters.inserts, 2u);
  EXPECT_EQ(counters.deletes, 1u);
  EXPECT_EQ(placement.kind, core::RequestKind::kInsert);
  EXPECT_FALSE(placement.failed);
  EXPECT_FALSE(placement.degraded);
  // The decided image really was evicted before its build ran ...
  EXPECT_FALSE(landlord.cache().find(placement.image).has_value());
  // ... and the build was still charged, for exactly the contents the
  // decision named (request() copied them under its lock).
  shrinkwrap::ImageBuilder reference(repo());
  const auto expected = reference.build(spec_b);
  EXPECT_GT(placement.prep_seconds, 0.0);
  EXPECT_EQ(placement.content_digest, expected.content_digest);
  EXPECT_EQ(placement.bytes_written, expected.written_bytes);
  EXPECT_EQ(placement.image_bytes, spec_b.bytes(repo()));
  expect_invariants(landlord);
}

}  // namespace
}  // namespace landlord
