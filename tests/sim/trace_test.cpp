#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "landlord/sharded.hpp"
#include "pkg/synthetic.hpp"
#include "sim/driver.hpp"
#include "sim/workload.hpp"

namespace landlord::sim {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 500;
    auto result = pkg::generate_repository(params, 71);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

Trace sample_trace() {
  WorkloadConfig config;
  config.unique_jobs = 12;
  config.repetitions = 3;
  config.max_initial_selection = 8;
  WorkloadGenerator generator(repo(), config, util::Rng(3));
  Trace trace;
  trace.specs = generator.unique_specifications();
  trace.stream = generator.request_stream();
  return trace;
}

TEST(Trace, RoundTripsExactly) {
  const auto original = sample_trace();
  std::stringstream buffer;
  write_trace(buffer, original, repo());
  auto reloaded = read_trace(buffer, repo());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  ASSERT_EQ(reloaded.value().specs.size(), original.specs.size());
  for (std::size_t i = 0; i < original.specs.size(); ++i) {
    EXPECT_TRUE(reloaded.value().specs[i].packages() ==
                original.specs[i].packages());
  }
  EXPECT_EQ(reloaded.value().stream, original.stream);
}

TEST(Trace, ReplayedTraceGivesIdenticalSimulation) {
  const auto trace = sample_trace();
  std::stringstream buffer;
  write_trace(buffer, trace, repo());
  auto reloaded = read_trace(buffer, repo());
  ASSERT_TRUE(reloaded.ok());

  auto run = [&](const Trace& t) {
    core::CacheConfig config;
    config.alpha = 0.8;
    config.capacity = repo().total_bytes() / 3;
    core::ShardedCache cache(repo(), config);
    for (auto index : t.stream) (void)cache.request(t.specs[index]);
    return cache.counters();
  };
  const auto a = run(trace);
  const auto b = run(reloaded.value());
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.written_bytes, b.written_bytes);
}

TEST(Trace, RejectsMissingMagic) {
  std::istringstream in("job 0 x/1\n");
  auto result = read_trace(in, repo());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("magic"), std::string::npos);
}

TEST(Trace, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_FALSE(read_trace(in, repo()).ok());
}

TEST(Trace, RejectsUnknownPackageKey) {
  std::istringstream in("landlord-trace v1\njob 0 ghost/9.9\n");
  auto result = read_trace(in, repo());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("unknown package"), std::string::npos);
}

TEST(Trace, RejectsOutOfOrderJobIndices) {
  std::istringstream in("landlord-trace v1\njob 1 " +
                        repo()[pkg::package_id(0)].key() + "\n");
  EXPECT_FALSE(read_trace(in, repo()).ok());
}

TEST(Trace, RejectsRequestBeforeJob) {
  std::istringstream in("landlord-trace v1\nrequest 0\n");
  auto result = read_trace(in, repo());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("undeclared"), std::string::npos);
}

TEST(Trace, RejectsGarbageDirective) {
  std::istringstream in("landlord-trace v1\nfrobnicate\n");
  EXPECT_FALSE(read_trace(in, repo()).ok());
}

TEST(Trace, ToleratesCommentsAndBlankLines) {
  const auto& key = repo()[pkg::package_id(3)].key();
  std::istringstream in("landlord-trace v1\n# hello\n\njob 0 " + key +
                        "\n# again\nrequest 0\nrequest 0\n");
  auto result = read_trace(in, repo());
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().specs.size(), 1u);
  EXPECT_EQ(result.value().stream.size(), 2u);
}

TEST(Trace, EmptyJobAllowed) {
  std::istringstream in("landlord-trace v1\njob 0\nrequest 0\n");
  auto result = read_trace(in, repo());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().specs[0].empty());
}

TEST(Trace, FileRoundTrip) {
  const auto trace = sample_trace();
  const std::string path = testing::TempDir() + "/landlord_trace_test.txt";
  ASSERT_TRUE(save_trace(path, trace, repo()));
  auto reloaded = load_trace(path, repo());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().stream, trace.stream);
  std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileFails) {
  EXPECT_FALSE(load_trace("/nonexistent/trace.txt", repo()).ok());
}

}  // namespace
}  // namespace landlord::sim
