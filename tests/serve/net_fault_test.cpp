// Network-fault suite for the serve plane (label: servefault), written
// to run under TSan and ASan+UBSan (tier1.sh stages 2b / 3).
//
// The contract under test (docs/fault_model.md "Network fault model"):
//
//   * the ChaosProxy shim injects resets, stalls, fragmented deliveries
//     and accept failures on a seeded, replayable schedule;
//   * the server defends itself — read-idle and write-stall timeouts
//     disconnect silent/slow peers instead of wedging readers, writers
//     or the worker pool, and deadline-stamped specs that expire while
//     queued are shed with a typed failure reply;
//   * the retry layer recovers exactly — a closed-loop load-generator
//     run driven through the shim must leave the decision layer in a
//     state BIT-IDENTICAL to a fault-free oracle run of the same trace,
//     with every spec placed exactly once (the dedup window absorbs
//     retransmits whose original reply was lost).

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "landlord/landlord.hpp"
#include "pkg/synthetic.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/retry.hpp"
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
  return config;  // one shard, one worker: arrival order is law
}

/// Polls a counter until `pred` holds or `budget` passes. The budget is
/// slack, not pacing: the poll returns the moment the predicate holds,
/// so a generous budget only matters on a sanitizer-slowed or
/// oversubscribed machine.
template <typename Pred>
bool eventually(Pred&& pred,
                std::chrono::seconds budget = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---- Shim determinism ----

/// Minimal echo upstream: accepts one connection at a time and echoes
/// whatever arrives, so a strict ping-pong client makes the proxy's
/// chunk sequence (and therefore its fault tape) fully deterministic.
class EchoServer {
 public:
  EchoServer() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }

  ~EchoServer() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void loop() {
    while (true) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;  // listener shut down
      char buf[4096];
      while (true) {
        const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
        if (n <= 0) break;
        ssize_t sent = 0;
        while (sent < n) {
          const ssize_t w =
              ::send(conn, buf + sent, static_cast<std::size_t>(n - sent),
                     MSG_NOSIGNAL);
          if (w <= 0) break;
          sent += w;
        }
        if (sent < n) break;
      }
      ::close(conn);
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// One strict ping-pong session through the proxy: send fixed messages,
/// read the echo (or give up on the first failure), reconnecting after
/// every fault, until `messages` echoes came back. Returns the proxy
/// tally.
ChaosTally drive_echo_session(std::uint16_t echo_port,
                              const fault::FaultPlan& plan,
                              int messages) {
  ChaosProxyConfig config;
  config.target_port = echo_port;
  config.plan = plan;
  config.stall_ms = 1;
  ChaosProxy proxy(config);
  EXPECT_TRUE(proxy.start().ok());

  const std::string message(100, 'm');
  int echoed = 0;
  while (echoed < messages) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(proxy.port());
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      continue;
    }
    while (echoed < messages) {
      if (::send(fd, message.data(), message.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(message.size())) {
        break;
      }
      std::string got;
      bool dead = false;
      while (got.size() < message.size()) {
        char buf[256];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          dead = true;
          break;
        }
        got.append(buf, static_cast<std::size_t>(n));
      }
      if (dead) break;
      ++echoed;
    }
    ::close(fd);
  }
  proxy.stop();
  return proxy.tally();
}

TEST(ServeChaosProxy, FaultTapeIsReplayableBitForBit) {
  EchoServer echo;
  fault::FaultPlan plan;
  plan.seed = 2024;
  plan.fail(fault::FaultOp::kConnReset, 0.05)
      .fail(fault::FaultOp::kConnStall, 0.05)
      .fail(fault::FaultOp::kPartialDelivery, 0.05)
      .fail(fault::FaultOp::kAcceptFail, 0.10)
      .at(fault::FaultOp::kPartialDelivery, 3)
      .at(fault::FaultOp::kConnReset, 7);

  const ChaosTally first = drive_echo_session(echo.port(), plan, 60);
  const ChaosTally second = drive_echo_session(echo.port(), plan, 60);

  // Scheduled faults guarantee the run is not accidentally fault-free.
  EXPECT_GT(first.injected(), 0u);
  // Same plan, same strict request/response chunk sequence: the whole
  // fault tape — and everything it caused — replays identically.
  EXPECT_EQ(first.connections, second.connections);
  EXPECT_EQ(first.accept_failures, second.accept_failures);
  EXPECT_EQ(first.resets, second.resets);
  EXPECT_EQ(first.stalls, second.stalls);
  EXPECT_EQ(first.partials, second.partials);
  EXPECT_EQ(first.chunks, second.chunks);
  EXPECT_EQ(first.forwarded_bytes, second.forwarded_bytes);

  // A different seed must produce a different tape (not a constant).
  fault::FaultPlan other = plan;
  other.seed = 2025;
  const ChaosTally third = drive_echo_session(echo.port(), other, 60);
  EXPECT_FALSE(third.resets == first.resets &&
               third.stalls == first.stalls &&
               third.partials == first.partials &&
               third.accept_failures == first.accept_failures &&
               third.chunks == first.chunks);
}

// ---- The oracle equivalence suite ----

struct RunOutcome {
  LoadGenReport report;
  ServeCounters counters;
  StatsReply stats;
};

/// Runs the closed-loop retrying loadgen against a fresh server —
/// optionally through a chaos proxy — and snapshots everything.
RunOutcome run_once(const fault::FaultPlan* plan) {
  core::Landlord landlord(repo(), cache_config());
  ServerConfig server_config;
  server_config.workers = 1;  // arrival order == processing order
  server_config.max_queue = 4096;
  Server server(landlord, server_config);
  EXPECT_TRUE(server.start().ok());

  ChaosProxy* proxy = nullptr;
  ChaosProxyConfig proxy_config;
  std::unique_ptr<ChaosProxy> owned;
  if (plan != nullptr) {
    proxy_config.target_port = server.port();
    proxy_config.plan = *plan;
    proxy_config.stall_ms = 5;
    owned = std::make_unique<ChaosProxy>(proxy_config);
    EXPECT_TRUE(owned->start().ok());
    proxy = owned.get();
  }

  LoadGenConfig load;
  load.port = proxy != nullptr ? proxy->port() : server.port();
  load.seed = 11;
  load.mode = LoadMode::kClosed;
  load.connections = 1;  // one deterministic stream for the oracle
  load.batch = 16;
  load.total_requests = 480;
  load.catalog_specs = 40;
  load.max_initial_selection = 30;
  load.clients = 100'000;
  RetryPolicy retry;
  retry.backoff.max_retries = 12;
  retry.backoff.base_delay_s = 0.2;
  retry.backoff_scale = 0.0;  // record the schedule, skip the sleeps
  retry.reply_timeout_ms = 1000;
  load.retry = retry;

  const auto report = run_load(repo(), load);
  EXPECT_TRUE(report.ok()) << report.error().message;

  RunOutcome out;
  out.report = report.ok() ? report.value() : LoadGenReport{};

  // Snapshot the decision layer through the wire (bypassing the proxy):
  // StatsReply has operator==, so the oracle comparison is bit-exact.
  Client direct;
  EXPECT_TRUE(direct.connect(server.port()).ok());
  const auto stats = direct.stats();
  EXPECT_TRUE(stats.ok());
  if (stats.ok()) out.stats = stats.value();
  direct.close();

  if (proxy != nullptr) {
    const ChaosTally tally = proxy->tally();
    EXPECT_GT(tally.injected(), 0u) << "chaos run injected nothing";
    proxy->stop();
  }
  server.drain();  // must return: no admitted frame may wedge
  server.stop();
  out.counters = server.counters();
  return out;
}

TEST(ServeNetFault, ChaosRunMatchesFaultFreeOracleExactly) {
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.fail(fault::FaultOp::kConnReset, 0.01)
      .fail(fault::FaultOp::kConnStall, 0.005)
      .fail(fault::FaultOp::kPartialDelivery, 0.01)
      .fail(fault::FaultOp::kAcceptFail, 0.10)
      .at(fault::FaultOp::kPartialDelivery, 2)
      .at(fault::FaultOp::kConnReset, 9);

  const RunOutcome oracle = run_once(nullptr);
  const RunOutcome chaos = run_once(&plan);

  // The fault-free oracle run answered everything without retries.
  EXPECT_EQ(oracle.report.requests_ok, 480u);
  EXPECT_EQ(oracle.report.retransmits, 0u);
  EXPECT_EQ(oracle.report.requests_rejected, 0u);

  // The chaos run answered everything too — through retransmits.
  EXPECT_EQ(chaos.report.requests_ok, 480u);
  EXPECT_EQ(chaos.report.requests_rejected, 0u);
  EXPECT_GT(chaos.report.retransmits, 0u);

  // No double placement, no loss: the decision layer's end state is
  // bit-identical to the oracle's. Every field, including the float
  // accumulators, because the executed request sequence is identical.
  EXPECT_EQ(chaos.stats, oracle.stats);

  // Same per-kind placement mix on the wire.
  EXPECT_EQ(chaos.report.placements_hit, oracle.report.placements_hit);
  EXPECT_EQ(chaos.report.placements_merge, oracle.report.placements_merge);
  EXPECT_EQ(chaos.report.placements_insert, oracle.report.placements_insert);

  // Server-side: exactly the trace's specs were executed, once each;
  // lost replies were answered from the window, not re-placed.
  EXPECT_EQ(chaos.counters.requests_served, 480u);
  EXPECT_EQ(oracle.counters.requests_served, 480u);
  EXPECT_EQ(oracle.counters.dedup_hits, 0u);
  EXPECT_EQ(chaos.counters.specs_shed_expired, 0u);
}

// ---- Server-side defense ----

TEST(ServeNetFault, ReadIdleTimeoutDisconnectsSilentClient) {
  core::Landlord landlord(repo(), cache_config());
  ServerConfig config;
  config.workers = 1;
  config.read_idle_timeout_ms = 30;
  Server server(landlord, config);
  ASSERT_TRUE(server.start().ok());

  Client client;
  ASSERT_TRUE(client.connect(server.port()).ok());
  // Send nothing. The server must hang up on its own.
  ASSERT_TRUE(eventually(
      [&] { return server.counters().net_read_timeouts >= 1; }));
  // The close is visible client-side as EOF.
  const Decoded<Frame> eof = client.recv_frame_within(1000);
  EXPECT_FALSE(eof.ok());
  client.close();

  // An *active* client is not a victim: pings keep the connection alive
  // through many timeout windows.
  Client active;
  ASSERT_TRUE(active.connect(server.port()).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(active.ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  active.close();
  server.stop();
  EXPECT_GE(server.counters().net_read_timeouts, 1u);
}

TEST(ServeNetFault, WriteStallTimeoutShedsNonReadingClient) {
  core::Landlord landlord(repo(), cache_config());
  ServerConfig config;
  config.workers = 2;
  config.max_queue = 1 << 14;
  config.write_stall_timeout_ms = 50;
  config.so_sndbuf = 4096;  // tiny server-side buffer: stall fast
  Server server(landlord, config);
  ASSERT_TRUE(server.start().ok());

  LoadGenConfig load;
  load.seed = 11;
  load.catalog_specs = 40;
  load.max_initial_selection = 30;
  const auto catalog = make_catalog(repo(), load);

  // A raw slow-loris: tiny receive window, pipelines big batches, never
  // reads a single reply byte.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;  // must be set before connect to clamp the window
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::vector<SubmitRequest> batch;
  for (std::size_t i = 0; i < 256; ++i) {
    batch.push_back(catalog[i % catalog.size()]);
    batch.back().client_id = i;
  }
  std::string wire;
  for (std::uint64_t id = 1; id <= 32; ++id) {
    wire += encode_batch_submit(id, batch);
  }
  // Feed frames until the server gives up on us (our own send may stall
  // once the server stops reading — keep it bounded and non-blocking).
  // The 30 s budgets are slack for TSan/ASan slowdown, not expected
  // runtime: the loop and the poll both exit the moment the server's
  // write-stall counter trips (~50 ms after the first reply flush jams).
  std::size_t sent = 0;
  const auto send_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sent < wire.size() &&
         server.counters().net_write_timeouts == 0 &&
         std::chrono::steady_clock::now() < send_deadline) {
    const ssize_t w = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      break;  // server already cut us off
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(eventually(
      [&] { return server.counters().net_write_timeouts >= 1; },
      std::chrono::seconds(30)));
  ::close(fd);

  // The stalled connection died but the server did not: a well-behaved
  // client is still served, and drain() returns (no wedged workers).
  Client healthy;
  ASSERT_TRUE(healthy.connect(server.port()).ok());
  EXPECT_TRUE(healthy.ping().ok());
  auto placed = healthy.submit(catalog[0]);
  EXPECT_TRUE(placed.ok());
  healthy.close();
  server.drain();
  server.stop();
  EXPECT_GE(server.counters().net_write_timeouts, 1u);
}

TEST(ServeNetFault, ExpiredDeadlineShedsSpecsWithTypedReply) {
  core::Landlord landlord(repo(), cache_config());
  ServerConfig config;
  config.workers = 1;
  Server server(landlord, config);
  ASSERT_TRUE(server.start().ok());

  LoadGenConfig load;
  load.seed = 11;
  load.catalog_specs = 20;
  load.max_initial_selection = 20;
  const auto catalog = make_catalog(repo(), load);

  // Park processing past the 20 ms budget, so the spec expires in queue.
  server.set_process_test_hook(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(60)); });

  Client client;
  ASSERT_TRUE(client.connect(server.port()).ok());
  ASSERT_TRUE(client.send_frame(
      encode_submit_v2(1, catalog[0], /*session_id=*/9, /*deadline_ms=*/20)));
  const Decoded<Frame> shed = client.recv_frame();
  ASSERT_TRUE(shed.ok());
  ASSERT_EQ(shed.value.header.type, FrameType::kPlacement);
  ASSERT_EQ(shed.value.placements.size(), 1u);
  EXPECT_TRUE(shed.value.placements[0].failed);
  EXPECT_EQ(shed.value.placements[0].error, "deadline-expired");

  // No deadline (v2 with 0, and plain v1) → never shed, even while slow.
  ASSERT_TRUE(client.send_frame(
      encode_submit_v2(2, catalog[1], /*session_id=*/9, /*deadline_ms=*/0)));
  const Decoded<Frame> placed_v2 = client.recv_frame();
  ASSERT_TRUE(placed_v2.ok());
  EXPECT_FALSE(placed_v2.value.placements[0].failed);
  server.set_process_test_hook({});
  ASSERT_TRUE(client.send_frame(encode_submit(3, catalog[2])));
  const Decoded<Frame> placed_v1 = client.recv_frame();
  ASSERT_TRUE(placed_v1.ok());
  EXPECT_FALSE(placed_v1.value.placements[0].failed);

  client.close();
  server.stop();
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.specs_shed_expired, 1u);
  // A shed spec is admitted but not served; the other two were served.
  EXPECT_EQ(counters.requests_served, 2u);
  EXPECT_EQ(counters.specs_admitted, 3u);
}

}  // namespace
}  // namespace landlord::serve
