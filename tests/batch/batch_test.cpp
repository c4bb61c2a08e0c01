#include "batch/batch.hpp"

#include <gtest/gtest.h>

#include "pkg/synthetic.hpp"
#include "sim/workload.hpp"

namespace landlord::batch {
namespace {

using pkg::package_id;

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 600;
    auto result = pkg::generate_repository(params, 101);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

std::vector<spec::Specification> sample_specs(std::uint32_t count) {
  sim::WorkloadConfig config;
  config.unique_jobs = count;
  config.max_initial_selection = 8;
  sim::WorkloadGenerator generator(repo(), config, util::Rng(7));
  return generator.unique_specifications();
}

BatchConfig batch_config(std::uint32_t slots, double alpha = 0.8) {
  BatchConfig config;
  config.slots = slots;
  config.cache.alpha = alpha;
  config.cache.capacity = repo().total_bytes();
  return config;
}

TEST(PoissonSchedule, GeneratesSortedArrivalsWithCorrectCounts) {
  const auto jobs = poisson_schedule(10, 3, 120.0, 600.0, util::Rng(1));
  ASSERT_EQ(jobs.size(), 30u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival_s, jobs[i - 1].arrival_s);
  }
  std::vector<int> visits(10, 0);
  for (const auto& job : jobs) {
    ASSERT_LT(job.spec_index, 10u);
    ++visits[job.spec_index];
    EXPECT_GT(job.run_s, 0.0);
  }
  for (int count : visits) EXPECT_EQ(count, 3);
}

TEST(PoissonSchedule, MeanGapTracksRate) {
  const auto jobs = poisson_schedule(200, 5, 360.0, 100.0, util::Rng(2));
  // 360 jobs/h -> 10 s mean gap; 1000 arrivals give a tight estimate.
  const double span = jobs.back().arrival_s - jobs.front().arrival_s;
  EXPECT_NEAR(span / static_cast<double>(jobs.size() - 1), 10.0, 1.5);
}

TEST(RunBatch, SingleJobAccounting) {
  const auto specs = sample_specs(1);
  std::vector<Job> jobs = {{0, 5.0, 100.0}};
  const auto result = run_batch(repo(), specs, jobs, batch_config(4));
  ASSERT_EQ(result.jobs.size(), 1u);
  const auto& record = result.jobs[0];
  EXPECT_DOUBLE_EQ(record.start_s, 5.0);  // free slot: starts on arrival
  EXPECT_GT(record.prep_s(), 0.0);        // cold cache: insert
  EXPECT_DOUBLE_EQ(record.finish_s, record.ready_s + 100.0);
  EXPECT_EQ(record.placement, core::RequestKind::kInsert);
  EXPECT_DOUBLE_EQ(result.makespan_s, record.finish_s);
}

TEST(RunBatch, RepeatJobSkipsPrep) {
  const auto specs = sample_specs(1);
  std::vector<Job> jobs = {{0, 0.0, 50.0}, {0, 1000.0, 50.0}};
  const auto result = run_batch(repo(), specs, jobs, batch_config(4));
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_GT(result.jobs[0].prep_s(), 0.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].prep_s(), 0.0);  // cache hit
  EXPECT_EQ(result.jobs[1].placement, core::RequestKind::kHit);
}

TEST(RunBatch, JobsQueueWhenSlotsBusy) {
  const auto specs = sample_specs(1);
  // Two long jobs on one slot: the second waits for the first.
  std::vector<Job> jobs = {{0, 0.0, 100.0}, {0, 1.0, 100.0}};
  const auto result = run_batch(repo(), specs, jobs, batch_config(1));
  ASSERT_EQ(result.jobs.size(), 2u);
  const auto& first = result.jobs[0];
  const auto& second = result.jobs[1];
  EXPECT_DOUBLE_EQ(second.start_s, first.finish_s);
  EXPECT_GT(second.wait_s(), 90.0);
}

TEST(RunBatch, FifoOrderPreserved) {
  const auto specs = sample_specs(3);
  std::vector<Job> jobs = {{0, 0.0, 60.0}, {1, 1.0, 10.0}, {2, 2.0, 10.0}};
  const auto result = run_batch(repo(), specs, jobs, batch_config(1));
  // Started in arrival order regardless of run time.
  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_EQ(result.jobs[0].spec_index, 0u);
  EXPECT_EQ(result.jobs[1].spec_index, 1u);
  EXPECT_EQ(result.jobs[2].spec_index, 2u);
  EXPECT_LE(result.jobs[0].start_s, result.jobs[1].start_s);
  EXPECT_LE(result.jobs[1].start_s, result.jobs[2].start_s);
}

TEST(RunBatch, MoreSlotsNeverHurtMakespan) {
  const auto specs = sample_specs(20);
  const auto jobs = poisson_schedule(specs.size(), 3, 720.0, 300.0, util::Rng(5));
  const auto narrow = run_batch(repo(), specs, jobs, batch_config(2));
  const auto wide = run_batch(repo(), specs, jobs, batch_config(16));
  EXPECT_LE(wide.makespan_s, narrow.makespan_s + 1e-9);
  EXPECT_LE(wide.mean_wait_s, narrow.mean_wait_s + 1e-9);
}

TEST(RunBatch, CacheHitsReduceTotalPrep) {
  const auto specs = sample_specs(10);
  const auto jobs = poisson_schedule(specs.size(), 5, 360.0, 120.0, util::Rng(9));
  // Alpha 0.9 merges aggressively -> more reuse -> less prep than alpha 0
  // with a tiny cache that thrashes.
  auto thrashing = batch_config(8, 0.0);
  thrashing.cache.capacity = repo().total_bytes() / 50;
  const auto cold = run_batch(repo(), specs, jobs, thrashing);
  const auto warm = run_batch(repo(), specs, jobs, batch_config(8, 0.9));
  EXPECT_LT(warm.total_prep_s, cold.total_prep_s);
  EXPECT_GT(warm.cache_counters.hits, cold.cache_counters.hits);
}

TEST(RunBatch, UtilizationAndThroughputBounded) {
  const auto specs = sample_specs(15);
  const auto jobs = poisson_schedule(specs.size(), 4, 720.0, 200.0, util::Rng(11));
  const auto result = run_batch(repo(), specs, jobs, batch_config(8));
  EXPECT_GT(result.slot_utilization, 0.0);
  EXPECT_LE(result.slot_utilization, 1.0 + 1e-9);
  EXPECT_GT(result.throughput_jobs_per_hour, 0.0);
  EXPECT_EQ(result.jobs.size(), jobs.size());
  EXPECT_EQ(result.cache_counters.requests, jobs.size());
}

TEST(RunBatch, DeterministicRerun) {
  const auto specs = sample_specs(10);
  const auto jobs = poisson_schedule(specs.size(), 3, 360.0, 150.0, util::Rng(13));
  const auto a = run_batch(repo(), specs, jobs, batch_config(4));
  const auto b = run_batch(repo(), specs, jobs, batch_config(4));
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.total_prep_s, b.total_prep_s);
  EXPECT_EQ(a.cache_counters.hits, b.cache_counters.hits);
}

// The reported counters are the decision layer's whatever its shard
// count: one replay thread decides identically at any shard count, so a
// sharded run must report the same numbers, not zeros.
TEST(RunBatch, ShardedCountersMatchSingleShard) {
  const auto specs = sample_specs(12);
  const auto jobs = poisson_schedule(specs.size(), 3, 360.0, 150.0, util::Rng(17));
  BatchConfig single = batch_config(4, 0.6);
  single.cache.capacity = repo().total_bytes() / 4;
  BatchConfig sharded = single;
  sharded.cache.shards = 4;
  const auto a = run_batch(repo(), specs, jobs, single);
  const auto b = run_batch(repo(), specs, jobs, sharded);
  ASSERT_EQ(a.cache_counters.requests, jobs.size());
  EXPECT_EQ(b.cache_counters.requests, a.cache_counters.requests);
  EXPECT_EQ(b.cache_counters.hits, a.cache_counters.hits);
  EXPECT_EQ(b.cache_counters.merges, a.cache_counters.merges);
  EXPECT_EQ(b.cache_counters.inserts, a.cache_counters.inserts);
  EXPECT_EQ(b.cache_counters.deletes, a.cache_counters.deletes);
  EXPECT_EQ(b.cache_counters.requested_bytes, a.cache_counters.requested_bytes);
  EXPECT_EQ(b.cache_counters.written_bytes, a.cache_counters.written_bytes);
  EXPECT_DOUBLE_EQ(b.cache_counters.container_efficiency_sum,
                   a.cache_counters.container_efficiency_sum);
}

TEST(RunBatch, EmptyJobListIsEmptyResult) {
  const auto specs = sample_specs(1);
  const auto result = run_batch(repo(), specs, {}, batch_config(4));
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_DOUBLE_EQ(result.makespan_s, 0.0);
}

}  // namespace
}  // namespace landlord::batch
