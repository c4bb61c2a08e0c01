// Networked head-node service plane: a multi-threaded TCP server around
// core::Landlord (docs/serve.md).
//
// Threading model:
//   * one acceptor thread blocks in accept() and registers connections;
//   * one reader thread per connection reassembles length-prefixed frames
//     (serve/protocol.hpp) out of a rolling receive buffer and answers
//     pings/stats inline;
//   * submit frames pass spec-granular admission control and are handed
//     to a util::ThreadPool of decision workers, which call
//     core::Landlord::submit per spec and enqueue the placement reply.
//
// Reply path: replies are encoded once, straight into a per-connection
// ScratchArena, and queued; whichever thread finds the connection's
// writer idle claims it and flushes every queued frame with one gathered
// sendmsg(2) (serve/io.hpp). Replies to one connection go out in enqueue
// order; threads never block on another connection's socket.
//
// Admission control (spec-granular): at most ServerConfig::max_queue
// *specifications* may be outstanding (admitted, not yet answered) across
// all connections — a 64-spec batch frame costs 64 slots, not one, so
// batch and single-spec clients see the same shed point. A frame that
// would overflow the limit gets an immediate kRejected{queue-full}
// response from the reader thread, except when the queue is empty: an
// oversize batch is then admitted alone rather than starved forever.
//
// Per-connection pipelining: a client may pipeline at most
// ServerConfig::pipeline_depth specs on one connection. The limit is
// enforced with read-side backpressure — the reader simply stops parsing
// (and, via TCP flow control, the client stops sending) until in-flight
// specs complete — never with rejection, so a compliant pipelined client
// cannot be shed by its own burst.
//
// Graceful drain: drain() stops accepting connections, turns subsequent
// submits into kRejected{draining}, waits for every admitted frame to be
// answered, then says kDrained on each open connection. No in-flight
// request is dropped; no connection is accepted after drain begins.
//
// Workers call Landlord::submit concurrently; the decision layer is
// thread-safe at any shard count. A single-worker server processes a
// pipelined connection's requests in exact arrival order — the loopback
// equivalence suite replays a trace through the server and an
// in-process Landlord and requires bit-identical placements.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "landlord/landlord.hpp"
#include "obs/obs.hpp"
#include "serve/dedup.hpp"
#include "serve/io.hpp"
#include "serve/protocol.hpp"
#include "util/arena.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"

namespace landlord::serve {

struct ServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with Server::port()).
  std::uint16_t port = 0;
  /// Decision worker threads (util::ThreadPool size). With 1 worker and
  /// one connection, processing order equals arrival order.
  std::uint32_t workers = 4;
  /// Bounded admission queue: maximum outstanding *specifications*
  /// before the server answers kRejected{queue-full}. An oversize batch
  /// is admitted alone when the queue is empty.
  std::size_t max_queue = 1024;
  /// Per-connection pipelining limit, in specs: a reader pauses (read-
  /// side backpressure, not rejection) while its connection has this
  /// many specs in flight. 0 = unlimited. The environment variable
  /// LANDLORD_SERVE_PIPELINE_DEPTH overrides it at construction.
  std::size_t pipeline_depth = 1024;
  /// listen(2) backlog.
  int backlog = 128;
  /// Per-connection read idle timeout, milliseconds: a connection that
  /// sends nothing for this long is closed (slow-loris defense). 0 =
  /// never time out (the default — idle keep-alive clients are fine).
  std::uint32_t read_idle_timeout_ms = 0;
  /// Per-flush write stall timeout, milliseconds: a reply write that
  /// makes no progress for this long (client stopped reading) abandons
  /// the connection instead of wedging the flusher forever. 0 = wait
  /// forever.
  std::uint32_t write_stall_timeout_ms = 5000;
  /// Idempotent-retry dedup window capacity, in completed (session_id,
  /// request_id) entries; a retried v2 submit whose identity is still in
  /// the window is answered from it, never re-placed. 0 disables dedup.
  std::size_t dedup_window = 4096;
  /// When > 0, SO_SNDBUF for accepted connections (bytes). The write-
  /// stall tests shrink it so a non-reading client trips the stall
  /// timeout with little traffic; 0 keeps the kernel default.
  int so_sndbuf = 0;
};

/// Monotone service-plane counters. Every field has a serve_* metric
/// family bumped in lockstep (same helper, same increment), so an obs
/// registry snapshot must reconcile exactly with this struct — the
/// serve obs suite asserts it after every load-generator run.
struct ServeCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_admitted = 0;   ///< submit frames past admission
  std::uint64_t specs_admitted = 0;    ///< specs inside admitted frames
  std::uint64_t frames_processed = 0;  ///< admitted frames fully answered
  std::uint64_t requests_served = 0;   ///< individual specs placed
  std::uint64_t batches = 0;           ///< kBatchSubmit frames admitted
  std::uint64_t gathered_writes = 0;   ///< reply flushes (>= 1 frame each)
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_requests = 0;  ///< specs inside rejected frames
  std::uint64_t decode_errors = 0;
  std::uint64_t pings = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t placements_hit = 0;
  std::uint64_t placements_merge = 0;
  std::uint64_t placements_insert = 0;
  std::uint64_t placements_degraded = 0;
  std::uint64_t placements_failed = 0;
  std::uint64_t queue_depth_peak = 0;  ///< high-water admitted-spec depth
  // -- Network-robustness counters (PR 10) --
  std::uint64_t net_read_timeouts = 0;   ///< connections closed as idle
  std::uint64_t net_write_timeouts = 0;  ///< flushes abandoned mid-stall
  std::uint64_t net_write_errors = 0;    ///< flushes failed hard (peer gone)
  std::uint64_t dedup_hits = 0;          ///< submits answered from the window
  std::uint64_t dedup_evictions = 0;     ///< completed entries aged out
  std::uint64_t specs_shed_expired = 0;  ///< specs shed past their deadline
};

class Server {
 public:
  /// The landlord must outlive the server. Submits from `workers` threads
  /// proceed in parallel across the decision layer's shards
  /// (CacheConfig::shards); with one shard they contend on its lock.
  Server(core::Landlord& landlord, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:port, spawns the acceptor and the worker pool.
  /// Fails (with errno text) if the socket cannot be bound.
  [[nodiscard]] util::Result<bool> start();

  /// The bound port (meaningful after start(); resolves port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful drain: stop accepting, reject new submits with
  /// kRejected{draining}, wait until every admitted frame is answered,
  /// then send kDrained on each open connection. Idempotent.
  void drain();

  /// drain(), then close every connection and join all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Snapshot of the service-plane counters.
  [[nodiscard]] ServeCounters counters() const;

  /// Current admitted-but-unanswered specifications.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return outstanding_specs_.load(std::memory_order_acquire);
  }

  /// The effective per-connection pipelining limit (after the
  /// LANDLORD_SERVE_PIPELINE_DEPTH override); 0 = unlimited.
  [[nodiscard]] std::size_t pipeline_depth() const noexcept {
    return config_.pipeline_depth;
  }

  [[nodiscard]] const core::Landlord& landlord() const noexcept {
    return *landlord_;
  }

  /// Attaches serve_* metric families and the event trace. Call before
  /// start(); handles resolve once. Pass nullptr to detach.
  void set_observability(obs::Observability* observability);

  /// Test-only: runs at the start of every admitted frame's processing,
  /// before any submit. The overload suite parks workers here to
  /// saturate the bounded queue deterministically.
  void set_process_test_hook(std::function<void()> hook) {
    process_hook_ = std::move(hook);
  }

 private:
  struct Connection {
    int fd = -1;
    std::atomic<bool> done{false};  ///< reader exited
    /// Admitted frames not yet answered. Workers hold a raw Connection*
    /// while processing, so a connection whose client hung up mid-flight
    /// must not be reaped until this drops to zero.
    std::atomic<std::size_t> inflight{0};
    std::thread reader;

    // -- Reply path (all guarded by write_mutex unless noted) --
    std::mutex write_mutex;
    /// Backs every queued reply frame; reset when the queue empties.
    /// Growth chains new blocks without moving old ones, so queued
    /// ConstBuffers stay valid across concurrent encodes.
    util::ScratchArena reply_arena{0};
    /// Encoded frames awaiting the writer, one buffer per frame.
    std::vector<net::ConstBuffer> reply_pending;
    /// The active writer's claimed batch (owned by it while unlocked).
    std::vector<net::ConstBuffer> reply_writing;
    bool writer_active = false;
    bool write_failed = false;  ///< peer gone; drop further replies

    // -- Per-connection pipelining (guarded by pipeline_mutex) --
    std::mutex pipeline_mutex;
    std::condition_variable pipeline_cv;
    std::size_t inflight_specs = 0;
  };

  void accept_loop();
  void reader_loop(Connection* connection);
  /// Handles one well-formed frame from `connection`; returns false when
  /// the connection should close (protocol violation).
  bool handle_frame(Connection* connection, Frame frame);
  /// Executes an admitted submit frame. `expiry` is the v2 deadline as a
  /// server-clock instant (nullopt = none): specs past it are shed with
  /// a failed "deadline-expired" reply instead of executed.
  /// `dedup_claimed` marks a frame whose identity this worker registered
  /// in the dedup window and must complete.
  void process_submit(
      Connection* connection, const Frame& frame,
      std::optional<std::chrono::steady_clock::time_point> expiry,
      bool dedup_claimed);
  /// Replies to a retried submit from the dedup window's stored replies.
  void reply_from_window(Connection* connection, std::uint64_t request_id,
                         FrameType reply_type,
                         const std::vector<PlacementReply>& replies);

  /// Encodes one reply of exactly `size` wire bytes into the
  /// connection's arena via `encode(char*) -> char*` and queues it; if no
  /// writer is active, becomes the writer and flushes the queue with
  /// gathered writes until it is empty.
  template <typename Encode>
  void send_reply(Connection* connection, std::size_t size, Encode&& encode);
  /// Writer body: caller holds `lock` and has claimed writer_active.
  void flush_replies(Connection* connection,
                     std::unique_lock<std::mutex>& lock);

  /// Blocks until `connection` may put `specs` more specs in flight
  /// (pipeline_depth; an idle connection always may), then reserves them.
  void acquire_pipeline(Connection* connection, std::size_t specs);
  void release_pipeline(Connection* connection, std::size_t specs);

  [[nodiscard]] StatsReply stats_snapshot() const;
  void reap_closed_connections();
  void close_listener();

  core::Landlord* landlord_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  /// Atomic because drain() shuts the listener down while the acceptor
  /// thread is blocked in accept(2) on it.
  std::atomic<int> listen_fd_{-1};
  std::thread acceptor_;
  std::unique_ptr<util::ThreadPool> pool_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  /// Idempotent-retry window keyed by (session_id, request_id); sized by
  /// ServerConfig::dedup_window.
  DedupWindow dedup_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  /// Admitted specs not yet answered — the admission threshold and the
  /// value queue_depth() reports.
  std::atomic<std::size_t> outstanding_specs_{0};
  /// Admitted frames not yet answered — the drain predicate (a zero-spec
  /// batch frame still occupies the pipeline until it is answered).
  std::atomic<std::size_t> outstanding_frames_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  std::function<void()> process_hook_;

  /// Counter twins: the atomic is the source of truth; the metric handle
  /// (null when no registry is attached) is bumped in the same call.
  struct AtomicCounters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_closed{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> frames_admitted{0};
    std::atomic<std::uint64_t> specs_admitted{0};
    std::atomic<std::uint64_t> frames_processed{0};
    std::atomic<std::uint64_t> requests_served{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> gathered_writes{0};
    std::atomic<std::uint64_t> rejected_queue_full{0};
    std::atomic<std::uint64_t> rejected_draining{0};
    std::atomic<std::uint64_t> rejected_requests{0};
    std::atomic<std::uint64_t> decode_errors{0};
    std::atomic<std::uint64_t> pings{0};
    std::atomic<std::uint64_t> stats_requests{0};
    std::atomic<std::uint64_t> placements_hit{0};
    std::atomic<std::uint64_t> placements_merge{0};
    std::atomic<std::uint64_t> placements_insert{0};
    std::atomic<std::uint64_t> placements_degraded{0};
    std::atomic<std::uint64_t> placements_failed{0};
    std::atomic<std::uint64_t> queue_depth_peak{0};
    std::atomic<std::uint64_t> net_read_timeouts{0};
    std::atomic<std::uint64_t> net_write_timeouts{0};
    std::atomic<std::uint64_t> net_write_errors{0};
    std::atomic<std::uint64_t> dedup_hits{0};
    std::atomic<std::uint64_t> dedup_evictions{0};
    std::atomic<std::uint64_t> specs_shed_expired{0};
  };
  AtomicCounters tallies_;

  /// Metric handles resolved at set_observability; null ⇒ no-op.
  struct Hooks {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* frames_admitted = nullptr;
    obs::Counter* specs_admitted = nullptr;
    obs::Counter* frames_processed = nullptr;
    obs::Counter* requests_served = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* gathered_writes = nullptr;
    obs::Counter* rejected_queue_full = nullptr;
    obs::Counter* rejected_draining = nullptr;
    obs::Counter* rejected_requests = nullptr;
    obs::Counter* decode_errors = nullptr;
    obs::Counter* pings = nullptr;
    obs::Counter* stats_requests = nullptr;
    obs::Counter* placements_hit = nullptr;
    obs::Counter* placements_merge = nullptr;
    obs::Counter* placements_insert = nullptr;
    obs::Counter* placements_degraded = nullptr;
    obs::Counter* placements_failed = nullptr;
    obs::Counter* net_read_timeouts = nullptr;
    obs::Counter* net_write_timeouts = nullptr;
    obs::Counter* net_write_errors = nullptr;
    obs::Counter* dedup_hits = nullptr;
    obs::Counter* dedup_evictions = nullptr;
    obs::Counter* specs_shed_expired = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_depth_peak = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* gather_frames = nullptr;
    obs::Histogram* process_seconds = nullptr;
    obs::EventTrace* trace = nullptr;
  };
  Hooks hooks_;

  void bump(std::atomic<std::uint64_t>& tally, obs::Counter* metric,
            std::uint64_t n = 1) {
    tally.fetch_add(n, std::memory_order_relaxed);
    if (metric != nullptr) metric->inc(n);
  }

  /// Releases an admitted frame's `specs` admission slots and wakes
  /// drain(). The empty critical section pairs with the drainer's
  /// predicate check so the notify can never be lost between check and
  /// wait.
  void release_slots(std::size_t specs) {
    outstanding_specs_.fetch_sub(specs);
    outstanding_frames_.fetch_sub(1);
    { std::scoped_lock lock(drain_mutex_); }
    drain_cv_.notify_all();
  }
};

}  // namespace landlord::serve
