// Chaos/property suite for the fault-tolerant dispatch plane: worker
// churn and resumable transfers (sim::WorkerPool + FaultOp::kWorkerCrash
// / kWorkerTransfer), health-gated multi-site failover
// (sim::run_multisite + kSiteOutage circuit breakers), and the
// head-node invariants under sustained failure.
//
// Everything here leans on the fault layer's core guarantee: a verdict
// is a pure function of (plan, op class, occurrence index), so any
// churn schedule replays bit-for-bit — asserted directly below by
// running identical configurations twice and comparing every counter.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hpp"
#include "landlord/landlord.hpp"
#include "obs/obs.hpp"
#include "pkg/synthetic.hpp"
#include "sim/multisite.hpp"
#include "sim/parallel.hpp"
#include "sim/workers.hpp"
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

struct Workload {
  std::vector<spec::Specification> specs;
  std::vector<std::uint32_t> stream;
};

Workload workload(std::uint32_t jobs = 60, std::uint64_t seed = 5) {
  sim::WorkloadConfig config;
  config.unique_jobs = jobs;
  config.repetitions = 3;
  config.max_initial_selection = 12;
  sim::WorkloadGenerator generator(repo(), config, util::Rng(seed));
  return Workload{generator.unique_specifications(),
                  generator.request_stream()};
}

/// A synthetic head-node image; the pool only reads id/bytes/version.
core::Image image_of(std::uint64_t id, util::Bytes bytes,
                     std::uint32_t version = 0) {
  core::Image image;
  image.id = core::ImageId{id};
  image.bytes = bytes;
  image.version = version;
  return image;
}

void expect_same_dispatch(const sim::DispatchCounters& a,
                          const sim::DispatchCounters& b) {
  EXPECT_EQ(a.worker_crashes, b.worker_crashes);
  EXPECT_EQ(a.redispatches, b.redispatches);
  EXPECT_EQ(a.cold_rejoins, b.cold_rejoins);
  EXPECT_EQ(a.direct_transfers, b.direct_transfers);
  EXPECT_EQ(a.transfer_faults, b.transfer_faults);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.failed_transfers, b.failed_transfers);
  EXPECT_EQ(a.resumed_bytes, b.resumed_bytes);
  EXPECT_EQ(a.reshipped_bytes, b.reshipped_bytes);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);  // same jitter sequence
}

void expect_same_result(const sim::TransferResult& a,
                        const sim::TransferResult& b) {
  EXPECT_EQ(a.head_counters.requests, b.head_counters.requests);
  EXPECT_EQ(a.head_counters.hits, b.head_counters.hits);
  EXPECT_EQ(a.head_counters.merges, b.head_counters.merges);
  EXPECT_EQ(a.head_counters.inserts, b.head_counters.inserts);
  EXPECT_EQ(a.head_counters.deletes, b.head_counters.deletes);
  EXPECT_EQ(a.head_counters.written_bytes, b.head_counters.written_bytes);
  EXPECT_EQ(a.transferred_bytes, b.transferred_bytes);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.stale_refetches, b.stale_refetches);
  EXPECT_EQ(a.requested_bytes, b.requested_bytes);
  EXPECT_EQ(a.dispatches, b.dispatches);
  expect_same_dispatch(a.dispatch, b.dispatch);
}

/// Every job completes, one way or another: served from scratch, shipped
/// to scratch, or streamed directly from the head node.
void expect_all_jobs_complete(const sim::WorkerPool& pool) {
  EXPECT_EQ(pool.transfers() + pool.local_hits() +
                pool.dispatch_counters().direct_transfers,
            pool.dispatches());
}

// ---- Worker churn ---------------------------------------------------

TEST(WorkerChurn, CrashLosesScratchAndRejoinsCold) {
  sim::WorkerPoolConfig config;
  config.workers = 2;
  config.crash_downtime = 2;
  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kWorkerCrash, 2);  // third dispatch kills its target
  fault::FaultInjector injector(plan);

  sim::WorkerPool pool(config, util::Rng(1));
  pool.set_fault_injector(&injector);
  const auto img = image_of(7, 1000);

  // Dispatches 1+2 (round-robin): both workers warm up with a copy.
  EXPECT_EQ(pool.dispatch(img), 1000u);
  EXPECT_EQ(pool.dispatch(img), 1000u);
  EXPECT_EQ(pool.local_hits(), 0u);

  // Dispatch 3 targets worker 0 again — the oracle crashes it. The job
  // re-dispatches to worker 1, which still holds the copy.
  EXPECT_EQ(pool.dispatch(img), 0u);
  EXPECT_EQ(pool.dispatch_counters().worker_crashes, 1u);
  EXPECT_EQ(pool.dispatch_counters().redispatches, 1u);
  EXPECT_EQ(pool.local_hits(), 1u);
  EXPECT_EQ(pool.healthy_workers(), 1u);

  // Dispatch 4 targets worker 1: local hit. Dispatch 5 targets worker 0,
  // whose downtime (2 dispatches) has now elapsed — it rejoins cold and
  // must re-transfer the image it lost.
  EXPECT_EQ(pool.dispatch(img), 0u);
  EXPECT_EQ(pool.dispatch(img), 1000u);
  EXPECT_EQ(pool.dispatch_counters().cold_rejoins, 1u);
  EXPECT_EQ(pool.healthy_workers(), 2u);
  expect_all_jobs_complete(pool);
}

TEST(WorkerChurn, AllWorkersDownDrainsAsDirectTransfers) {
  sim::WorkerPoolConfig config;
  config.workers = 1;
  config.crash_downtime = 1'000'000;  // never rejoins within the test
  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kWorkerCrash, 0);
  fault::FaultInjector injector(plan);

  sim::WorkerPool pool(config, util::Rng(1));
  pool.set_fault_injector(&injector);
  const auto img = image_of(3, 500);
  util::Bytes total = 0;
  for (int i = 0; i < 20; ++i) total += pool.dispatch(img);

  // The whole pool is down from the first dispatch on; every job still
  // completes via a direct head-node stream. Nothing hangs, nothing
  // errors, nothing lands in scratch.
  EXPECT_EQ(pool.healthy_workers(), 0u);
  EXPECT_EQ(pool.dispatch_counters().direct_transfers, 20u);
  EXPECT_EQ(pool.transfers(), 0u);
  EXPECT_EQ(pool.local_hits(), 0u);
  EXPECT_EQ(total, 20u * 500u);
  expect_all_jobs_complete(pool);
}

TEST(WorkerChurn, OneWorkerAliveStillCompletesEveryJob) {
  sim::WorkerPoolConfig config;
  config.workers = 4;
  config.crash_downtime = 1'000'000;
  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kWorkerCrash, 0)
      .at(fault::FaultOp::kWorkerCrash, 1)
      .at(fault::FaultOp::kWorkerCrash, 2);
  fault::FaultInjector injector(plan);

  sim::WorkerPool pool(config, util::Rng(1));
  pool.set_fault_injector(&injector);
  const auto img = image_of(11, 800);
  for (int i = 0; i < 24; ++i) (void)pool.dispatch(img);

  EXPECT_EQ(pool.dispatch_counters().worker_crashes, 3u);
  EXPECT_EQ(pool.healthy_workers(), 1u);
  EXPECT_EQ(pool.dispatch_counters().direct_transfers, 0u);
  // Dispatches 1-3 each crash their round-robin target, so the job
  // re-dispatches to the next worker, which pulls the image cold — the
  // crash destroys each copy right after it lands. From dispatch 4 on,
  // the lone survivor serves everything from its scratch copy.
  EXPECT_EQ(pool.transfers(), 3u);
  EXPECT_EQ(pool.local_hits(), 21u);
  expect_all_jobs_complete(pool);
}

// ---- Resumable transfers --------------------------------------------

TEST(Transfers, ResumeKeepsThePartialBytes) {
  sim::WorkerPoolConfig config;
  config.workers = 1;
  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kWorkerTransfer, 0);  // first transfer cut once
  fault::FaultInjector injector(plan);

  sim::WorkerPool pool(config, util::Rng(1));
  pool.set_fault_injector(&injector);
  const util::Bytes bytes = 4000;
  const util::Bytes wire = pool.dispatch(image_of(1, bytes));

  // Byte-granular resume: the cut prefix (25% on the first injection)
  // counts once; total wire bytes equal the image exactly.
  EXPECT_EQ(wire, bytes);
  EXPECT_EQ(pool.dispatch_counters().transfer_faults, 1u);
  EXPECT_EQ(pool.dispatch_counters().transfer_retries, 1u);
  EXPECT_EQ(pool.dispatch_counters().failed_transfers, 0u);
  EXPECT_EQ(pool.dispatch_counters().resumed_bytes, bytes / 4);
  EXPECT_EQ(pool.dispatch_counters().reshipped_bytes, 0u);
  EXPECT_GT(pool.dispatch_counters().backoff_seconds, 0.0);
  EXPECT_EQ(pool.transfers(), 1u);
}

TEST(Transfers, WithoutResumeTheCutBytesAreReshipped) {
  sim::WorkerPoolConfig config;
  config.workers = 1;
  config.resume_transfers = false;
  fault::FaultPlan plan;
  plan.at(fault::FaultOp::kWorkerTransfer, 0);
  fault::FaultInjector injector(plan);

  sim::WorkerPool pool(config, util::Rng(1));
  pool.set_fault_injector(&injector);
  const util::Bytes bytes = 4000;
  const util::Bytes wire = pool.dispatch(image_of(1, bytes));

  // The wasted prefix ships again from zero: wire cost exceeds the image
  // by exactly the thrown-away cut.
  EXPECT_EQ(wire, bytes + bytes / 4);
  EXPECT_EQ(pool.dispatch_counters().resumed_bytes, 0u);
  EXPECT_EQ(pool.dispatch_counters().reshipped_bytes, bytes / 4);
  EXPECT_EQ(pool.transfers(), 1u);
}

TEST(Transfers, ExhaustedRetryBudgetFallsBackToDirectStream) {
  sim::WorkerPoolConfig config;
  config.workers = 2;
  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kWorkerTransfer, 1.0);  // every attempt cut
  fault::FaultInjector injector(plan);
  fault::BackoffPolicy backoff;
  backoff.max_retries = 1;

  sim::WorkerPool pool(config, util::Rng(1));
  pool.set_fault_injector(&injector);
  pool.set_backoff_policy(backoff);
  for (int i = 0; i < 10; ++i) (void)pool.dispatch(image_of(2, 1000));

  // No transfer ever lands in scratch, so every job degrades to a direct
  // stream — and still completes.
  EXPECT_EQ(pool.transfers(), 0u);
  EXPECT_EQ(pool.local_hits(), 0u);
  EXPECT_EQ(pool.dispatch_counters().failed_transfers, 10u);
  EXPECT_EQ(pool.dispatch_counters().direct_transfers, 10u);
  EXPECT_EQ(pool.dispatch_counters().transfer_retries, 10u);
  expect_all_jobs_complete(pool);
}

// ---- Replay / equivalence -------------------------------------------

sim::DispatchFaultConfig churn_faults() {
  sim::DispatchFaultConfig faults;
  faults.plan.fail(fault::FaultOp::kWorkerCrash, 0.05)
      .fail(fault::FaultOp::kWorkerTransfer, 0.2)
      .at(fault::FaultOp::kWorkerCrash, 3);
  faults.plan.seed = 71;
  return faults;
}

sim::WorkerPoolConfig churn_pool_config() {
  sim::WorkerPoolConfig config;
  config.workers = 4;
  config.scratch_per_worker = repo().total_bytes() / 16;  // force evictions
  config.crash_downtime = 6;
  return config;
}

TEST(DispatchReplay, ZeroFaultPlanIsBitIdenticalToUnwiredPool) {
  const auto load = workload();
  const auto plain = sim::run_with_workers(
      repo(), cache_config(), churn_pool_config(), load.specs, load.stream, 9);
  const auto wired =
      sim::run_with_workers(repo(), cache_config(), churn_pool_config(),
                            load.specs, load.stream, 9,
                            sim::DispatchFaultConfig{});  // empty plan
  expect_same_result(plain, wired);
  EXPECT_EQ(wired.dispatch.worker_crashes, 0u);
  EXPECT_EQ(wired.dispatch.transfer_faults, 0u);
}

TEST(DispatchReplay, ChurnScheduleReplaysBitForBit) {
  const auto load = workload();
  const auto first =
      sim::run_with_workers(repo(), cache_config(), churn_pool_config(),
                            load.specs, load.stream, 9, churn_faults());
  const auto second =
      sim::run_with_workers(repo(), cache_config(), churn_pool_config(),
                            load.specs, load.stream, 9, churn_faults());
  expect_same_result(first, second);
  EXPECT_GT(first.dispatch.worker_crashes, 0u);
  EXPECT_GT(first.dispatch.transfer_faults, 0u);
  EXPECT_GT(first.dispatch.resumed_bytes, 0u);
}

TEST(DispatchReplay, OrderedEvictionIndexMatchesTheScan) {
  // Satellite: WorkerPool::evict_worker through the ordered
  // (last_used, id) index vs. the O(n) scan — same faults, same
  // workload, bit-identical counters. Random scheduling + tight scratch
  // keeps the eviction path hot.
  const auto load = workload(80, 11);
  auto indexed = churn_pool_config();
  indexed.scheduling = sim::Scheduling::kRandom;
  indexed.scratch_per_worker = repo().total_bytes() / 48;
  auto scanned = indexed;
  scanned.ordered_eviction = false;

  const auto a = sim::run_with_workers(repo(), cache_config(), indexed,
                                       load.specs, load.stream, 9,
                                       churn_faults());
  const auto b = sim::run_with_workers(repo(), cache_config(), scanned,
                                       load.specs, load.stream, 9,
                                       churn_faults());
  expect_same_result(a, b);
  EXPECT_GT(a.transfers, 0u);  // the eviction path actually ran
}

TEST(DispatchReplay, SequentialAndShardedCachesAgreeOnDispatchCounters) {
  // The same churn plan replayed single-threaded at one and four shards,
  // with the decision index on and off, must produce identical
  // dispatch-plane counters — the shard layout is invisible below the
  // dispatch plane.
  const auto load = workload(70, 13);
  std::vector<sim::TransferResult> results;
  for (const std::uint32_t shards : {1u, 4u}) {
    for (const bool index : {true, false}) {
      auto config = cache_config(0.8, shards);
      config.decision_index = index;
      results.push_back(sim::run_with_workers(repo(), config,
                                              churn_pool_config(), load.specs,
                                              load.stream, 9, churn_faults()));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_result(results[0], results[i]);
  }
  EXPECT_GT(results[0].dispatch.worker_crashes, 0u);
}

// ---- Head-node invariants under sustained churn ---------------------

TEST(HeadNodeInvariants, HoldUnderWorkerAndBuilderChurn) {
  fault::FaultPlan plan;
  plan.fail(fault::FaultOp::kBuilderDownload, 0.25)
      .fail(fault::FaultOp::kMergeRewrite, 0.2)
      .fail(fault::FaultOp::kWorkerCrash, 0.1)
      .fail(fault::FaultOp::kWorkerTransfer, 0.3);
  plan.seed = 23;
  fault::FaultInjector injector(plan);

  core::Landlord landlord(repo(), cache_config());
  landlord.set_fault_injector(&injector);
  sim::WorkerPoolConfig pool_config;
  pool_config.workers = 3;
  pool_config.scratch_per_worker = repo().total_bytes() / 8;
  pool_config.crash_downtime = 4;
  sim::WorkerPool pool(pool_config, util::Rng(3));
  pool.set_fault_injector(&injector);

  const auto load = workload(50, 29);
  for (const auto index : load.stream) {
    const auto placement = landlord.submit(load.specs[index]);
    // Acceptance (b): no head-node invariant bends, no matter what the
    // dispatch plane below is doing.
    const auto violation = core::placement_violation(landlord, placement);
    EXPECT_EQ(violation, std::nullopt) << *violation;
    const auto divergence = landlord.check_decision_index();
    EXPECT_EQ(divergence, std::nullopt) << *divergence;
    if (placement.failed) continue;
    const auto image = landlord.find(placement.image);
    if (image.has_value()) (void)pool.dispatch(*image);
  }
  expect_all_jobs_complete(pool);
  EXPECT_GT(injector.total_injected(), 0u);
  EXPECT_GT(pool.dispatch_counters().worker_crashes, 0u);
}

// ---- Multi-site failover --------------------------------------------

spec::Specification single_spec() {
  std::vector<pkg::PackageId> request{pkg::package_id(4), pkg::package_id(9),
                                      pkg::package_id(30)};
  return spec::Specification::from_request(repo(), request);
}

std::uint32_t home_site_of(const spec::Specification& spec,
                           std::uint32_t sites) {
  // Derive the affinity home empirically from a fault-free run.
  sim::MultiSiteConfig config;
  config.sites = sites;
  config.cache = cache_config();
  const auto result = sim::run_multisite(repo(), config, {spec}, {0}, 1);
  for (std::uint32_t s = 0; s < sites; ++s) {
    if (result.per_site[s].requests > 0) return s;
  }
  ADD_FAILURE() << "no site served the probe request";
  return 0;
}

TEST(MultiSiteFailover, BreakerOpensFailsOverAndRecloses) {
  // Acceptance (c): outage at the home site -> three consecutive
  // failures trip the breaker -> affinity degrades to the next site by
  // hash -> the half-open probe succeeds after the cooldown -> breaker
  // re-closes and traffic returns home. Consultation schedule (site
  // attempts, one spec repeated 10x): requests 0-2 consult home then
  // fallback (occurrences 0/1, 2/3, 4/5), requests 3-5 consult only the
  // fallback while home is open (6-8), request 6 probes home (9),
  // requests 7-9 stay home (10-12). Failing occurrences {0,2,4} is
  // exactly "home down for three requests".
  const auto spec = single_spec();
  const std::uint32_t home = home_site_of(spec, 3);
  const std::uint32_t fallback = (home + 1) % 3;

  sim::MultiSiteConfig config;
  config.sites = 3;
  config.cache = cache_config();
  config.breaker.failure_threshold = 3;
  config.breaker.open_cooldown = 4;
  config.faults.at(fault::FaultOp::kSiteOutage, 0)
      .at(fault::FaultOp::kSiteOutage, 2)
      .at(fault::FaultOp::kSiteOutage, 4);

  const std::vector<std::uint32_t> stream(10, 0);
  const auto result = sim::run_multisite(repo(), config, {spec}, stream, 1);

  const auto& health = result.site_health[home];
  EXPECT_EQ(health.outage_failures, 3u);
  EXPECT_EQ(health.opens, 1u);
  EXPECT_EQ(health.half_opens, 1u);
  EXPECT_EQ(health.probes, 1u);
  EXPECT_EQ(health.closes, 1u);
  EXPECT_EQ(health.state, sim::BreakerState::kClosed);

  EXPECT_EQ(result.failed_requests, 0u);
  EXPECT_EQ(result.failover_placements, 6u);  // requests 0-5
  EXPECT_EQ(result.per_site[fallback].requests, 6u);
  EXPECT_EQ(result.per_site[home].requests, 4u);
  EXPECT_EQ(result.breaker_transitions, 3u);  // open, half-open, closed
  // The failover duplication cost: the fallback site had to build the
  // image its home would otherwise serve.
  EXPECT_GT(result.failover_written_bytes, 0u);
  EXPECT_EQ(result.failover_written_bytes,
            result.per_site[fallback].written_bytes);
}

TEST(MultiSiteFailover, AllSitesDownDrainsEveryRequestAsError) {
  const auto load = workload(20, 31);
  sim::MultiSiteConfig config;
  config.sites = 2;
  config.cache = cache_config();
  config.faults.fail(fault::FaultOp::kSiteOutage, 1.0);

  const auto result =
      sim::run_multisite(repo(), config, load.specs, load.stream, 1);

  // Total outage: nothing is ever served, every request drains as an
  // error (and the run terminates — no hang, no UB).
  EXPECT_EQ(result.failed_requests, load.stream.size());
  for (const auto& site : result.per_site) EXPECT_EQ(site.requests, 0u);
  EXPECT_GT(result.outage_failures, 0u);
  for (const auto& health : result.site_health) {
    EXPECT_NE(health.state, sim::BreakerState::kClosed);
  }
}

TEST(MultiSiteFailover, NeverFiringPlanMatchesTheFaultFreeFastPath) {
  // A plan whose only fault is scheduled far beyond the stream must be
  // observationally identical to no plan at all (breakers all closed,
  // zero failovers, same per-site counters).
  const auto load = workload(40, 37);
  sim::MultiSiteConfig fault_free;
  fault_free.sites = 4;
  fault_free.cache = cache_config();
  auto never = fault_free;
  never.faults.at(fault::FaultOp::kSiteOutage, 1u << 30);

  const auto a =
      sim::run_multisite(repo(), fault_free, load.specs, load.stream, 1);
  const auto b = sim::run_multisite(repo(), never, load.specs, load.stream, 1);

  ASSERT_EQ(a.per_site.size(), b.per_site.size());
  for (std::size_t s = 0; s < a.per_site.size(); ++s) {
    EXPECT_EQ(a.per_site[s].requests, b.per_site[s].requests);
    EXPECT_EQ(a.per_site[s].hits, b.per_site[s].hits);
    EXPECT_EQ(a.per_site[s].written_bytes, b.per_site[s].written_bytes);
    EXPECT_EQ(b.site_health[s].state, sim::BreakerState::kClosed);
  }
  EXPECT_EQ(a.total_cached_bytes, b.total_cached_bytes);
  EXPECT_EQ(a.global_unique_bytes, b.global_unique_bytes);
  EXPECT_EQ(b.failover_placements, 0u);
  EXPECT_EQ(b.failed_requests, 0u);
  EXPECT_EQ(b.breaker_transitions, 0u);
}

TEST(MultiSiteFailover, OutageScheduleReplaysBitForBit) {
  const auto load = workload(40, 41);
  sim::MultiSiteConfig config;
  config.sites = 3;
  config.cache = cache_config();
  config.faults.fail(fault::FaultOp::kSiteOutage, 0.15);
  config.faults.seed = 77;
  config.breaker.failure_threshold = 2;
  config.breaker.open_cooldown = 8;

  const auto a = sim::run_multisite(repo(), config, load.specs, load.stream, 1);
  const auto b = sim::run_multisite(repo(), config, load.specs, load.stream, 1);

  EXPECT_EQ(a.failover_placements, b.failover_placements);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.outage_failures, b.outage_failures);
  EXPECT_EQ(a.breaker_transitions, b.breaker_transitions);
  EXPECT_EQ(a.failover_written_bytes, b.failover_written_bytes);
  for (std::size_t s = 0; s < a.site_health.size(); ++s) {
    EXPECT_EQ(a.site_health[s].state, b.site_health[s].state);
    EXPECT_EQ(a.site_health[s].outage_failures,
              b.site_health[s].outage_failures);
    EXPECT_EQ(a.site_health[s].opens, b.site_health[s].opens);
    EXPECT_EQ(a.site_health[s].closes, b.site_health[s].closes);
    EXPECT_EQ(a.per_site[s].requests, b.per_site[s].requests);
    EXPECT_EQ(a.per_site[s].written_bytes, b.per_site[s].written_bytes);
  }
  EXPECT_GT(a.outage_failures, 0u);
  // Every request either landed somewhere or drained as an error.
  std::uint64_t served = 0;
  for (const auto& site : a.per_site) served += site.requests;
  EXPECT_EQ(served + a.failed_requests, load.stream.size());
}

// ---- Observability reconciliation -----------------------------------

TEST(DispatchObservability, MetricFamiliesReconcileWithCounters) {
  obs::Observability obs(1 << 12);
  const auto load = workload(50, 43);
  const auto result =
      sim::run_with_workers(repo(), cache_config(), churn_pool_config(),
                            load.specs, load.stream, 9, churn_faults(), &obs);

  obs::Registry& reg = obs.registry;
  const auto& d = result.dispatch;
  EXPECT_EQ(reg.counter("landlord_dispatch_transfers_total").value(),
            result.transfers);
  EXPECT_EQ(reg.counter("landlord_dispatch_transferred_bytes_total").value(),
            result.transferred_bytes);
  EXPECT_EQ(reg.counter("landlord_dispatch_local_hits_total").value(),
            result.local_hits);
  EXPECT_EQ(reg.counter("landlord_dispatch_stale_refetches_total").value(),
            result.stale_refetches);
  EXPECT_EQ(reg.counter("landlord_dispatch_worker_crashes_total").value(),
            d.worker_crashes);
  EXPECT_EQ(reg.counter("landlord_dispatch_redispatches_total").value(),
            d.redispatches);
  EXPECT_EQ(reg.counter("landlord_dispatch_cold_rejoins_total").value(),
            d.cold_rejoins);
  EXPECT_EQ(reg.counter("landlord_dispatch_direct_transfers_total").value(),
            d.direct_transfers);
  EXPECT_EQ(reg.counter("landlord_dispatch_transfer_faults_total").value(),
            d.transfer_faults);
  EXPECT_EQ(reg.counter("landlord_dispatch_transfer_retries_total").value(),
            d.transfer_retries);
  EXPECT_EQ(reg.counter("landlord_dispatch_failed_transfers_total").value(),
            d.failed_transfers);
  EXPECT_EQ(
      reg.counter("landlord_dispatch_transfer_resumed_bytes_total").value(),
      d.resumed_bytes);
  EXPECT_EQ(
      reg.counter("landlord_dispatch_transfer_reshipped_bytes_total").value(),
      d.reshipped_bytes);
  EXPECT_DOUBLE_EQ(reg.gauge("landlord_dispatch_backoff_seconds").value(),
                   d.backoff_seconds);
  EXPECT_GT(d.transfer_faults, 0u);

  // The trace saw the churn.
  bool saw_crash = false;
  for (const auto& event : obs.trace.snapshot()) {
    if (event.kind == obs::EventKind::kWorkerCrash) saw_crash = true;
  }
  EXPECT_TRUE(saw_crash);
}

TEST(DispatchObservability, SiteFamiliesReconcileWithMultiSiteResult) {
  obs::Observability obs(1 << 12);
  const auto load = workload(40, 47);
  sim::MultiSiteConfig config;
  config.sites = 3;
  config.cache = cache_config();
  config.faults.fail(fault::FaultOp::kSiteOutage, 0.2);
  config.breaker.failure_threshold = 2;
  config.breaker.open_cooldown = 6;
  config.obs = &obs;

  const auto result =
      sim::run_multisite(repo(), config, load.specs, load.stream, 1);

  obs::Registry& reg = obs.registry;
  EXPECT_EQ(reg.counter("landlord_dispatch_site_outages_total").value(),
            result.outage_failures);
  EXPECT_EQ(reg.counter("landlord_dispatch_failovers_total").value(),
            result.failover_placements);
  EXPECT_EQ(reg.counter("landlord_dispatch_failed_requests_total").value(),
            result.failed_requests);
  EXPECT_EQ(
      reg.counter("landlord_dispatch_failover_written_bytes_total").value(),
      result.failover_written_bytes);
  std::uint64_t transitions = 0;
  for (const char* to : {"open", "half-open", "closed"}) {
    transitions +=
        reg.counter("landlord_dispatch_breaker_transitions_total", {{"to", to}})
            .value();
  }
  EXPECT_EQ(transitions, result.breaker_transitions);
  EXPECT_GT(result.outage_failures, 0u);
}

// ---- Parallel driver with the dispatch plane ------------------------

TEST(ParallelDispatch, SingleThreadReplayIsDeterministic) {
  sim::ParallelConfig config;
  config.cache = cache_config(0.8, 4);
  config.workload.unique_jobs = 60;
  config.workload.repetitions = 3;
  config.workload.max_initial_selection = 12;
  config.seed = 5;
  config.threads = 1;
  config.dispatch = true;
  config.workers.workers = 4;
  config.workers.crash_downtime = 6;
  config.faults.fail(fault::FaultOp::kWorkerCrash, 0.05)
      .fail(fault::FaultOp::kWorkerTransfer, 0.2);
  config.faults.seed = 71;

  const auto a = sim::run_parallel(repo(), config);
  const auto b = sim::run_parallel(repo(), config);
  EXPECT_EQ(a.transferred_bytes, b.transferred_bytes);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.stale_refetches, b.stale_refetches);
  expect_same_dispatch(a.dispatch, b.dispatch);
  EXPECT_GT(a.dispatch.transfer_faults, 0u);
}

TEST(ParallelDispatch, MultiThreadStormCompletesEveryJob) {
  sim::ParallelConfig config;
  config.cache = cache_config(0.8, 4);
  config.workload.unique_jobs = 80;
  config.workload.repetitions = 4;
  config.workload.max_initial_selection = 12;
  config.seed = 7;
  config.threads = 4;
  config.dispatch = true;
  config.workers.workers = 4;
  config.workers.scratch_per_worker = repo().total_bytes() / 16;
  config.workers.crash_downtime = 6;
  config.faults.fail(fault::FaultOp::kWorkerCrash, 0.05)
      .fail(fault::FaultOp::kWorkerTransfer, 0.2);

  const auto result = sim::run_parallel(repo(), config);
  // Schedule-dependent, but invariant-preserving: every dispatched job
  // completed one way or another. Dispatches can trail requests by the
  // jobs whose image a concurrent thread evicted between the decision
  // and the find() (the sequential path's toctou_retries window).
  EXPECT_EQ(result.transfers + result.local_hits +
                result.dispatch.direct_transfers,
            result.dispatches);
  EXPECT_LE(result.dispatches, result.counters.requests);
  EXPECT_GE(result.dispatches,
            result.counters.requests - result.counters.requests / 10);
}

}  // namespace
}  // namespace landlord
