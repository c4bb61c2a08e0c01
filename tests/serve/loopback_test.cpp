// Loopback equivalence: the same request trace replayed through the TCP
// service plane (server over 127.0.0.1) and through an in-process
// core::Landlord oracle must produce bit-identical results — every
// placement field equal (doubles compared as IEEE-754 bit patterns, not
// approximately), and the decision-layer counters equal field by field.
//
// The determinism contract under test (docs/serve.md): with one worker
// and one connection processing order equals arrival order, so the
// network adds nothing but transport.

#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "landlord/landlord.hpp"
#include "pkg/synthetic.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace landlord::serve {
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

core::CacheConfig cache_config() {
  core::CacheConfig config;
  config.alpha = 0.8;
  // Half the repository: the trace must overflow the budget so the
  // replay exercises evictions and re-inserts, not just hits.
  config.capacity = repo().total_bytes() / 2;
  return config;
}

// The loopback trace: one connection's deterministic loadgen schedule
// over the shared catalog.
struct LoopbackTrace {
  std::vector<SubmitRequest> catalog;
  std::vector<TraceEntry> entries;
};

LoopbackTrace make_loopback_trace(std::uint64_t count) {
  LoadGenConfig config;
  config.seed = 7;
  config.connections = 1;
  config.catalog_specs = 60;
  config.max_initial_selection = 40;
  config.clients = 1'000'000;
  LoopbackTrace trace;
  trace.catalog = make_catalog(repo(), config);
  trace.entries = make_trace(config, trace.catalog.size(), 0, count);
  return trace;
}

SubmitRequest request_for(const LoopbackTrace& trace, const TraceEntry& entry) {
  SubmitRequest request = trace.catalog[entry.spec];
  request.client_id = entry.client_id;
  return request;
}

// Exact comparison, with prep_seconds checked as a bit pattern so a
// formatting round-trip (or -0.0 vs 0.0 drift) cannot hide behind
// floating-point equality.
void expect_bit_identical(const PlacementReply& got,
                          const PlacementReply& want, std::size_t index) {
  EXPECT_EQ(got, want) << "request " << index;
  std::uint64_t got_bits = 0;
  std::uint64_t want_bits = 0;
  std::memcpy(&got_bits, &got.prep_seconds, sizeof(got_bits));
  std::memcpy(&want_bits, &want.prep_seconds, sizeof(want_bits));
  EXPECT_EQ(got_bits, want_bits) << "request " << index;
}

void expect_counters_equal(const core::CacheCounters& got,
                           const core::CacheCounters& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.merges, want.merges);
  EXPECT_EQ(got.inserts, want.inserts);
  EXPECT_EQ(got.deletes, want.deletes);
  EXPECT_EQ(got.splits, want.splits);
  EXPECT_EQ(got.conflict_rejections, want.conflict_rejections);
  EXPECT_EQ(got.requested_bytes, want.requested_bytes);
  EXPECT_EQ(got.written_bytes, want.written_bytes);
  EXPECT_EQ(got.container_efficiency_sum, want.container_efficiency_sum);
}

TEST(ServeLoopback, SingleSubmitsMatchInProcessOracle) {
  core::Landlord served(repo(), cache_config());
  core::Landlord oracle(repo(), cache_config());

  ServerConfig server_config;
  server_config.workers = 1;
  Server server(served, server_config);
  ASSERT_TRUE(server.start().ok());

  Client client;
  ASSERT_TRUE(client.connect(server.port()).ok());

  const LoopbackTrace trace = make_loopback_trace(400);
  std::uint64_t kinds[3] = {0, 0, 0};
  for (std::size_t i = 0; i < trace.entries.size(); ++i) {
    const SubmitRequest request = request_for(trace, trace.entries[i]);
    const PlacementReply want = to_reply(
        oracle.submit(to_specification(request, repo().size())),
        request.client_id);
    const auto got = client.submit(request);
    ASSERT_TRUE(got.ok()) << got.error().message;
    expect_bit_identical(got.value(), want, i);
    ++kinds[static_cast<std::size_t>(got.value().kind)];
  }
  // The trace must exercise every decision kind or the equivalence
  // claim is weaker than advertised.
  EXPECT_GT(kinds[0], 0u) << "no hits";
  EXPECT_GT(kinds[2], 0u) << "no inserts";
  EXPECT_GT(kinds[0] + kinds[1] + kinds[2], 0u);

  expect_counters_equal(served.counters(), oracle.counters());
  EXPECT_EQ(served.cache().image_count(), oracle.cache().image_count());
  client.close();
  server.stop();
}

TEST(ServeLoopback, BatchSubmitsMatchInProcessOracle) {
  core::Landlord served(repo(), cache_config());
  core::Landlord oracle(repo(), cache_config());

  ServerConfig server_config;
  server_config.workers = 1;
  Server server(served, server_config);
  ASSERT_TRUE(server.start().ok());

  Client client;
  ASSERT_TRUE(client.connect(server.port()).ok());

  const LoopbackTrace trace = make_loopback_trace(384);
  constexpr std::size_t kBatch = 32;
  for (std::size_t start = 0; start < trace.entries.size(); start += kBatch) {
    std::vector<SubmitRequest> batch;
    std::vector<PlacementReply> want;
    for (std::size_t i = start;
         i < std::min(start + kBatch, trace.entries.size()); ++i) {
      batch.push_back(request_for(trace, trace.entries[i]));
      want.push_back(to_reply(
          oracle.submit(to_specification(batch.back(), repo().size())),
          batch.back().client_id));
    }
    const auto got = client.submit_batch(batch);
    ASSERT_TRUE(got.ok()) << got.error().message;
    ASSERT_EQ(got.value().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_bit_identical(got.value()[i], want[i], start + i);
    }
  }

  expect_counters_equal(served.counters(), oracle.counters());
  client.close();
  server.stop();
}

// The kStatsReply snapshot a client fetches over the wire must equal
// the oracle's counters — the stats path reads the same decision layer
// the submits wrote.
TEST(ServeLoopback, WireStatsMatchOracleCounters) {
  core::Landlord served(repo(), cache_config());
  core::Landlord oracle(repo(), cache_config());

  ServerConfig server_config;
  server_config.workers = 1;
  Server server(served, server_config);
  ASSERT_TRUE(server.start().ok());
  Client client;
  ASSERT_TRUE(client.connect(server.port()).ok());

  const LoopbackTrace trace = make_loopback_trace(200);
  for (const TraceEntry& entry : trace.entries) {
    const SubmitRequest request = request_for(trace, entry);
    (void)oracle.submit(to_specification(request, repo().size()));
    ASSERT_TRUE(client.submit(request).ok());
  }

  const auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  const core::CacheCounters want = oracle.counters();
  EXPECT_EQ(stats.value().requests, want.requests);
  EXPECT_EQ(stats.value().hits, want.hits);
  EXPECT_EQ(stats.value().merges, want.merges);
  EXPECT_EQ(stats.value().inserts, want.inserts);
  EXPECT_EQ(stats.value().deletes, want.deletes);
  EXPECT_EQ(stats.value().splits, want.splits);
  EXPECT_EQ(stats.value().conflict_rejections, want.conflict_rejections);
  EXPECT_EQ(stats.value().requested_bytes, want.requested_bytes);
  EXPECT_EQ(stats.value().written_bytes, want.written_bytes);
  EXPECT_EQ(stats.value().image_count, oracle.cache().image_count());
  EXPECT_EQ(stats.value().container_efficiency_sum,
            want.container_efficiency_sum);

  client.close();
  server.stop();
}

// Replaying the identical trace against a fresh server twice must give
// identical placements — the service plane adds no hidden state.
TEST(ServeLoopback, ServerReplayIsDeterministic) {
  const LoopbackTrace trace = make_loopback_trace(150);
  std::vector<PlacementReply> first;
  for (int run = 0; run < 2; ++run) {
    core::Landlord served(repo(), cache_config());
    ServerConfig server_config;
    server_config.workers = 1;
    Server server(served, server_config);
    ASSERT_TRUE(server.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    std::vector<PlacementReply> replies;
    for (const TraceEntry& entry : trace.entries) {
      const auto got = client.submit(request_for(trace, entry));
      ASSERT_TRUE(got.ok());
      replies.push_back(got.value());
    }
    if (run == 0) {
      first = std::move(replies);
    } else {
      ASSERT_EQ(replies.size(), first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        expect_bit_identical(replies[i], first[i], i);
      }
    }
    client.close();
    server.stop();
  }
}

}  // namespace
}  // namespace landlord::serve
