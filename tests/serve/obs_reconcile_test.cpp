// Obs reconciliation: after a load-generator run, an obs::Registry
// snapshot of the serve_* metric families must equal Server::counters()
// exactly — not approximately. Counters and metric handles are bumped by
// the same helper in the same call, so any drift means an instrumented
// path forgot its twin.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include <gtest/gtest.h>

#include "landlord/landlord.hpp"
#include "obs/obs.hpp"
#include "pkg/synthetic.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace landlord::serve {
namespace {

const pkg::Repository& repo() {
  static const pkg::Repository r = [] {
    pkg::SyntheticRepoParams params;
    params.total_packages = 400;
    auto result = pkg::generate_repository(params, 97);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }();
  return r;
}

core::CacheConfig cache_config() {
  core::CacheConfig config;
  config.alpha = 0.8;
  config.capacity = repo().total_bytes() / 2;
  config.shards = 4;
  return config;
}

void expect_series(const std::map<std::string, double>& snap,
                   const std::string& series, std::uint64_t want) {
  const auto it = snap.find(series);
  ASSERT_NE(it, snap.end()) << "series missing: " << series;
  EXPECT_EQ(static_cast<std::uint64_t>(it->second), want) << series;
}

TEST(ServeObsReconcile, RegistryMatchesServerCountersAfterLoadgenRun) {
  core::Landlord landlord(repo(), cache_config());
  obs::Observability obs;

  ServerConfig server_config;
  server_config.workers = 4;
  Server server(landlord, server_config);
  server.set_observability(&obs);
  ASSERT_TRUE(server.start().ok());

  LoadGenConfig load;
  load.port = server.port();
  load.seed = 5;
  load.mode = LoadMode::kClosed;
  load.connections = 4;
  load.batch = 16;
  load.total_requests = 2000;
  load.catalog_specs = 50;
  load.max_initial_selection = 30;
  load.clients = 500'000;
  const auto report = run_load(repo(), load);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().requests_ok, load.total_requests);

  // Exercise the non-submit instrumented paths too.
  Client client;
  ASSERT_TRUE(client.connect(server.port()).ok());
  ASSERT_TRUE(client.ping().ok());
  ASSERT_TRUE(client.stats().ok());
  client.close();

  // stop() quiesces everything: all frames answered, all connections
  // reaped, so both sides of the comparison are final.
  server.stop();

  const ServeCounters c = server.counters();
  const auto snap = obs.registry.snapshot();

  expect_series(snap, "serve_connections_total{state=\"accepted\"}",
                c.connections_accepted);
  expect_series(snap, "serve_connections_total{state=\"closed\"}",
                c.connections_closed);
  expect_series(snap, "serve_frames_total{direction=\"in\"}", c.frames_in);
  expect_series(snap, "serve_frames_total{direction=\"out\"}", c.frames_out);
  expect_series(snap, "serve_bytes_total{direction=\"in\"}", c.bytes_in);
  expect_series(snap, "serve_bytes_total{direction=\"out\"}", c.bytes_out);
  expect_series(snap, "serve_frames_admitted_total", c.frames_admitted);
  expect_series(snap, "serve_specs_admitted_total", c.specs_admitted);
  expect_series(snap, "serve_frames_processed_total", c.frames_processed);
  expect_series(snap, "serve_requests_served_total", c.requests_served);
  expect_series(snap, "serve_batches_total", c.batches);
  expect_series(snap, "serve_gathered_writes_total", c.gathered_writes);
  expect_series(snap, "serve_rejected_total{reason=\"queue-full\"}",
                c.rejected_queue_full);
  expect_series(snap, "serve_rejected_total{reason=\"draining\"}",
                c.rejected_draining);
  expect_series(snap, "serve_rejected_requests_total", c.rejected_requests);
  expect_series(snap, "serve_decode_errors_total", c.decode_errors);
  expect_series(snap, "serve_pings_total", c.pings);
  expect_series(snap, "serve_stats_requests_total", c.stats_requests);
  expect_series(snap, "serve_placements_total{kind=\"hit\"}",
                c.placements_hit);
  expect_series(snap, "serve_placements_total{kind=\"merge\"}",
                c.placements_merge);
  expect_series(snap, "serve_placements_total{kind=\"insert\"}",
                c.placements_insert);
  expect_series(snap, "serve_placements_degraded_total",
                c.placements_degraded);
  expect_series(snap, "serve_placements_failed_total", c.placements_failed);
  expect_series(snap, "serve_net_read_idle_timeouts_total",
                c.net_read_timeouts);
  expect_series(snap, "serve_net_write_stall_timeouts_total",
                c.net_write_timeouts);
  expect_series(snap, "serve_net_write_errors_total", c.net_write_errors);
  expect_series(snap, "serve_dedup_hits_total", c.dedup_hits);
  expect_series(snap, "serve_dedup_evictions_total", c.dedup_evictions);
  expect_series(snap, "serve_deadline_shed_total", c.specs_shed_expired);
  expect_series(snap, "serve_spec_memo_total{result=\"hit\"}",
                c.spec_memo_hits);
  expect_series(snap, "serve_spec_memo_total{result=\"miss\"}",
                c.spec_memo_misses);
  // The peak gauge is published only through monotone raises (tally CAS
  // + Gauge::max_to of the same values), so at quiescence the two sides
  // agree exactly — a stale set() after the CAS loop used to break this.
  expect_series(snap, "serve_queue_depth_peak", c.queue_depth_peak);
  // The live depth gauge moves by exact +/-spec deltas at the same
  // accounting sites as the atomics, so a quiesced server reads zero.
  expect_series(snap, "serve_queue_depth", 0);
  EXPECT_EQ(server.queue_depth(), 0u);
  // Histograms: one batch-size sample per admitted frame, one duration
  // sample per processed frame, one gather-size sample per reply flush.
  expect_series(snap, "serve_batch_size_count", c.frames_admitted);
  expect_series(snap, "serve_process_seconds_count", c.frames_processed);
  expect_series(snap, "serve_gather_frames_count", c.gathered_writes);

  // Cross-checks against the run itself: the counters are not just
  // self-consistent but reflect the load that was actually offered.
  EXPECT_EQ(c.requests_served,
            load.total_requests + 0u);  // loadgen specs, all answered
  EXPECT_EQ(c.connections_accepted, load.connections + 1u);  // + stats client
  EXPECT_EQ(c.connections_closed, c.connections_accepted);
  EXPECT_EQ(c.pings, 1u);
  EXPECT_EQ(c.stats_requests, 1u);
  EXPECT_EQ(c.frames_admitted, c.frames_processed);
  // Spec-granular admission: every admitted spec was answered (no
  // rejects in this run), so the spec tally matches requests served.
  EXPECT_EQ(c.specs_admitted, c.requests_served);
  EXPECT_EQ(c.placements_hit + c.placements_merge + c.placements_insert,
            c.requests_served);
  // Every spec the server decoded went through the id-list memo once,
  // and the 50-spec catalog repeats, so most of them hit.
  EXPECT_EQ(c.spec_memo_hits + c.spec_memo_misses, c.specs_admitted);
  EXPECT_GE(c.spec_memo_misses, 1u);
  EXPECT_GT(c.spec_memo_hits, c.spec_memo_misses);

  // The event trace saw the connection lifecycle and the drain.
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t drain_begin = 0;
  std::uint64_t drain_complete = 0;
  for (const obs::TraceEvent& event : obs.trace.snapshot()) {
    if (event.kind == obs::EventKind::kServeConnection) {
      if (std::string_view(event.detail) == "accepted") ++accepted;
      if (std::string_view(event.detail) == "closed") ++closed;
    }
    if (event.kind == obs::EventKind::kServeDrain) {
      if (std::string_view(event.detail) == "begin") ++drain_begin;
      if (std::string_view(event.detail) == "complete") ++drain_complete;
    }
  }
  EXPECT_EQ(accepted, c.connections_accepted);
  EXPECT_EQ(closed, c.connections_closed);
  EXPECT_EQ(drain_begin, 1u);
  EXPECT_EQ(drain_complete, 1u);
}

// The overload path has metric twins too: saturate a tiny queue and
// reconcile the rejection counters.
TEST(ServeObsReconcile, RejectionCountersReconcile) {
  core::Landlord landlord(repo(), cache_config());
  obs::Observability obs;

  ServerConfig server_config;
  server_config.workers = 1;
  server_config.max_queue = 1;
  Server server(landlord, server_config);
  server.set_observability(&obs);
  ASSERT_TRUE(server.start().ok());

  LoadGenConfig load;
  load.seed = 5;
  load.catalog_specs = 20;
  load.max_initial_selection = 20;
  const auto catalog = make_catalog(repo(), load);

  Client client;
  ASSERT_TRUE(client.connect(server.port()).ok());
  // One frame occupies the single slot long enough to bounce another:
  // park the worker on a submit, then overflow, then drain.
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  server.set_process_test_hook([&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return open; });
  });
  ASSERT_TRUE(client.send_frame(encode_submit(1, catalog[0])));
  while (server.queue_depth() < 1) std::this_thread::yield();
  ASSERT_TRUE(client.send_frame(encode_submit(2, catalog[1])));
  const auto bounced = client.recv_frame();
  ASSERT_TRUE(bounced.ok());
  ASSERT_EQ(bounced.value.header.type, FrameType::kRejected);
  {
    std::scoped_lock lock(mutex);
    open = true;
  }
  cv.notify_all();
  const auto placed = client.recv_frame();
  ASSERT_TRUE(placed.ok());
  ASSERT_EQ(placed.value.header.type, FrameType::kPlacement);
  server.stop();

  const ServeCounters c = server.counters();
  const auto snap = obs.registry.snapshot();
  EXPECT_EQ(c.rejected_queue_full, 1u);
  EXPECT_EQ(c.rejected_requests, 1u);
  expect_series(snap, "serve_rejected_total{reason=\"queue-full\"}",
                c.rejected_queue_full);
  expect_series(snap, "serve_rejected_requests_total", c.rejected_requests);
  // Both frames were decoded through the memo before admission turned
  // one away.
  expect_series(snap, "serve_spec_memo_total{result=\"hit\"}",
                c.spec_memo_hits);
  expect_series(snap, "serve_spec_memo_total{result=\"miss\"}",
                c.spec_memo_misses);
  EXPECT_EQ(c.spec_memo_hits + c.spec_memo_misses,
            c.specs_admitted + c.rejected_requests);

  std::uint64_t overloads = 0;
  for (const obs::TraceEvent& event : obs.trace.snapshot()) {
    if (event.kind == obs::EventKind::kServeOverload) ++overloads;
  }
  EXPECT_EQ(overloads, 1u);
}

}  // namespace
}  // namespace landlord::serve
