#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "serve/buffer.hpp"
#include "util/rng.hpp"

namespace landlord::serve {

namespace {

/// One recv(2)'s worth of pipelined traffic; bigger frames widen the
/// read to land in one call.
constexpr std::size_t kReadChunkBytes = 64 * 1024;

/// Hash seed for a server's id-list memo: the clock and the server's
/// address through SplitMix64, so no two servers share one.
std::uint64_t memo_seed(const void* server) {
  std::uint64_t state =
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(server));
  return util::splitmix64(state);
}

bool is_submit(FrameType type) {
  return type == FrameType::kSubmit || type == FrameType::kBatchSubmit;
}

}  // namespace

Server::Server(core::Landlord& landlord, ServerConfig config)
    : landlord_(&landlord),
      config_(std::move(config)),
      dedup_(config_.dedup_window),
      memo_(memo_seed(this)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_queue == 0) config_.max_queue = 1;
  if (const char* env = std::getenv("LANDLORD_SERVE_PIPELINE_DEPTH")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') {
      config_.pipeline_depth = static_cast<std::size_t>(v);
    }
  }
}

Server::~Server() { stop(); }

util::Result<bool> Server::start() {
  if (started_.exchange(true)) return util::Error{"server already started"};

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Error{std::string{"socket: "} + std::strerror(errno)};
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::string why = std::string{"bind: "} + std::strerror(errno);
    ::close(fd);
    return util::Error{why};
  }
  if (::listen(fd, config_.backlog) < 0) {
    std::string why = std::string{"listen: "} + std::strerror(errno);
    ::close(fd);
    return util::Error{why};
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    std::string why = std::string{"getsockname: "} + std::strerror(errno);
    ::close(fd);
    return util::Error{why};
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  pool_ = std::make_unique<util::ThreadPool>(config_.workers);
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_.load(std::memory_order_acquire), nullptr,
                      nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by drain()/stop()
    }
    if (draining_.load(std::memory_order_acquire)) {
      // Drain won the race with accept(2): this connection arrived after
      // drain began and must not be served.
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                   sizeof(config_.so_sndbuf));
    }

    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    bump(tallies_.connections_accepted, hooks_.connections_accepted);
    if (hooks_.trace != nullptr) {
      hooks_.trace->record(
          {.kind = obs::EventKind::kServeConnection, .detail = "accepted"});
    }
    {
      std::scoped_lock lock(connections_mutex_);
      reap_closed_connections();
      connections_.push_back(std::move(connection));
    }
    raw->reader = std::thread([this, raw] { reader_loop(raw); });
  }
}

void Server::reap_closed_connections() {
  // Caller holds connections_mutex_. Joins readers that have exited on
  // their own (client hung up) so long-lived servers don't accumulate
  // dead threads.
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    // The reader is gone, but a worker may still hold this Connection*
    // for an admitted frame; freeing it now would be use-after-free.
    if (c->inflight.load(std::memory_order_acquire) != 0) return false;
    if (c->reader.joinable()) c->reader.join();
    return true;
  });
}

void Server::reader_loop(Connection* connection) {
  const std::size_t universe = landlord_->repository().size();
  RollingBuffer rx;
  bool alive = true;
  while (alive) {
    // Drain every complete frame already buffered before reading again —
    // a pipelined burst that arrived in one recv is parsed in one pass,
    // and consume() never moves bytes.
    while (alive) {
      const std::string_view buffered = rx.view();
      if (buffered.size() < kHeaderSize) break;
      const Decoded<FrameHeader> header =
          decode_header(buffered.substr(0, kHeaderSize));
      if (!header.ok()) {
        // Framing is unrecoverable (bad magic/version/length): report the
        // typed error and hang up rather than resynchronise on garbage.
        bump(tallies_.decode_errors, hooks_.decode_errors);
        send_reply(connection, kStatusFrameWireSize, [&](char* out) {
          return encode_error_at(out, 0, header.status);
        });
        alive = false;
        break;
      }
      const std::size_t total = kHeaderSize + header.value.payload_size;
      if (buffered.size() < total) break;  // frame still arriving
      const std::string_view wire = buffered.substr(0, total);
      // Frame boundaries are intact (the header told us the length), so
      // a malformed payload only poisons its own frame, not the stream.
      const auto refuse = [&](DecodeStatus status) {
        bump(tallies_.decode_errors, hooks_.decode_errors);
        send_reply(connection, kStatusFrameWireSize, [&](char* out) {
          return encode_error_at(out, header.value.request_id, status);
        });
      };
      if (is_submit(header.value.type)) {
        // Decoded (and memo-resolved) before consume(): the memo keys on
        // the bytes in place.
        Decoded<SubmitFrame> frame = decode_submit_frame(wire, universe, memo_);
        rx.consume(total);
        bump(tallies_.frames_in, hooks_.frames_in);
        if (!frame.ok()) {
          refuse(frame.status);
          continue;
        }
        bump(tallies_.spec_memo_hits, hooks_.spec_memo_hits,
             frame.value.memo_hits);
        bump(tallies_.spec_memo_misses, hooks_.spec_memo_misses,
             frame.value.memo_misses);
        handle_submit(connection, std::move(frame.value));
        continue;
      }
      const Decoded<Frame> frame = decode_frame(wire, universe);
      rx.consume(total);
      bump(tallies_.frames_in, hooks_.frames_in);
      if (!frame.ok()) {
        refuse(frame.status);
        continue;
      }
      alive = handle_frame(connection, frame.value);
    }
    if (!alive) break;
    // Bulk receive: enough for the rest of a known pending frame, and
    // never less than one chunk so back-to-back small frames coalesce.
    std::size_t want = kReadChunkBytes;
    const std::string_view buffered = rx.view();
    if (buffered.size() >= kHeaderSize) {
      // The header decoded cleanly above (a bad one closed the loop), so
      // this re-decode is just reading the length back out.
      const Decoded<FrameHeader> header =
          decode_header(buffered.substr(0, kHeaderSize));
      const std::size_t total = kHeaderSize + header.value.payload_size;
      want = std::max(want, total - buffered.size());
    }
    rx.ensure_writable(want);
    // Read idle timeout: a peer that goes silent (including a slow-loris
    // holding a half-sent frame open) is disconnected after the budget
    // instead of pinning this reader forever. The pipeline wait above is
    // exempt — a backpressured client is making progress, not idling.
    if (config_.read_idle_timeout_ms > 0) {
      const net::IoStatus readable = net::wait_readable(
          connection->fd, static_cast<int>(config_.read_idle_timeout_ms));
      if (readable == net::IoStatus::kTimeout) {
        bump(tallies_.net_read_timeouts, hooks_.net_read_timeouts);
        if (hooks_.trace != nullptr) {
          hooks_.trace->record({.kind = obs::EventKind::kServeNetTimeout,
                                .detail = "read-idle"});
        }
        break;
      }
      if (readable != net::IoStatus::kOk) break;
    }
    const ssize_t r = ::recv(connection->fd, rx.write_ptr(), rx.writable(), 0);
    if (r > 0) {
      rx.commit(static_cast<std::size_t>(r));
      bump(tallies_.bytes_in, hooks_.bytes_in, static_cast<std::uint64_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;  // peer closed, shutdown(), or hard error
  }
  ::shutdown(connection->fd, SHUT_RDWR);
  bump(tallies_.connections_closed, hooks_.connections_closed);
  if (hooks_.trace != nullptr) {
    hooks_.trace->record(
        {.kind = obs::EventKind::kServeConnection, .detail = "closed"});
  }
  connection->done.store(true, std::memory_order_release);
}

bool Server::handle_frame(Connection* connection, const Frame& frame) {
  const std::uint64_t request_id = frame.header.request_id;
  switch (frame.header.type) {
    case FrameType::kPing:
      bump(tallies_.pings, hooks_.pings);
      send_reply(connection, kEmptyFrameWireSize, [&](char* out) {
        return encode_pong_at(out, request_id);
      });
      return true;
    case FrameType::kStats: {
      bump(tallies_.stats_requests, hooks_.stats_requests);
      const StatsReply stats = stats_snapshot();
      send_reply(connection, kStatsReplyWireSize, [&](char* out) {
        return encode_stats_reply_at(out, request_id, stats);
      });
      return true;
    }
    default:
      // Well-formed frame of a type only servers send (placement, pong,
      // stats-reply, ...): a confused peer. Tell it and hang up.
      bump(tallies_.decode_errors, hooks_.decode_errors);
      send_reply(connection, kStatusFrameWireSize, [&](char* out) {
        return encode_error_at(out, request_id, DecodeStatus::kUnexpectedType);
      });
      return false;
  }
}

void Server::handle_submit(Connection* connection, SubmitFrame frame) {
  const std::uint64_t request_id = frame.header.request_id;
  const std::size_t specs = frame.specs.size();
  // Idempotent retry (v2): claim the (session_id, request_id)
  // identity before admission. A duplicate of a finished original is
  // answered from the window — the specs are never placed twice; a
  // duplicate racing an in-flight original parks until it resolves
  // (bounded: the owner always completes or aborts).
  const DedupWindow::Key dedup_key{frame.session_id, request_id};
  bool dedup_claimed = false;
  if (config_.dedup_window > 0 && frame.session_id != 0) {
    FrameType reply_type = FrameType::kPlacement;
    std::vector<PlacementReply> window_replies;
    for (;;) {
      const DedupWindow::Claim claim =
          dedup_.claim(dedup_key, &reply_type, &window_replies);
      if (claim == DedupWindow::Claim::kNew) {
        dedup_claimed = true;
        break;
      }
      if (claim == DedupWindow::Claim::kInFlight &&
          !dedup_.wait(dedup_key, &reply_type, &window_replies)) {
        continue;  // the original was rejected; this retry re-attempts
      }
      bump(tallies_.dedup_hits, hooks_.dedup_hits);
      if (hooks_.trace != nullptr) {
        hooks_.trace->record({.kind = obs::EventKind::kServeDedup,
                              .aux = window_replies.size(),
                              .detail = "hit"});
      }
      reply_from_window(connection, request_id, reply_type,
                        window_replies);
      return;
    }
  }
  // Deadline budget (v2): stamped against the server clock at
  // arrival, so queueing time counts against it.
  std::optional<std::chrono::steady_clock::time_point> expiry;
  if (frame.deadline_ms > 0) {
    expiry = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(frame.deadline_ms);
  }
  // Per-connection pipelining: park this reader (read-side
  // backpressure via TCP flow control) until the connection has room
  // for `specs` more in-flight specs. Never rejects.
  acquire_pipeline(connection, specs);
  // Admission control: reserve the slots first, then check the drain
  // flag, so drain() can never observe an empty queue while a reader
  // is between "admitted" and "handed to the pool".
  outstanding_frames_.fetch_add(1);
  const std::size_t prev = outstanding_specs_.fetch_add(specs);
  const std::size_t depth = prev + specs;
  if (draining_.load(std::memory_order_acquire)) {
    release_slots(specs);
    release_pipeline(connection, specs);
    if (dedup_claimed) dedup_.abort(dedup_key);
    bump(tallies_.rejected_draining, hooks_.rejected_draining);
    bump(tallies_.rejected_requests, hooks_.rejected_requests, specs);
    if (hooks_.trace != nullptr) {
      hooks_.trace->record({.kind = obs::EventKind::kServeOverload,
                            .aux = specs,
                            .detail = "draining"});
    }
    send_reply(connection, kStatusFrameWireSize, [&](char* out) {
      return encode_rejected_at(out, request_id, RejectReason::kDraining);
    });
    return;
  }
  // Spec-granular shed: a batch frame costs its spec count, so batch
  // and single-spec clients hit the same ceiling. `prev == 0` admits
  // an oversize batch alone instead of starving it forever.
  if (specs > 0 && depth > config_.max_queue && prev != 0) {
    release_slots(specs);
    release_pipeline(connection, specs);
    if (dedup_claimed) dedup_.abort(dedup_key);
    bump(tallies_.rejected_queue_full, hooks_.rejected_queue_full);
    bump(tallies_.rejected_requests, hooks_.rejected_requests, specs);
    if (hooks_.trace != nullptr) {
      hooks_.trace->record({.kind = obs::EventKind::kServeOverload,
                            .aux = specs,
                            .detail = "queue-full"});
    }
    send_reply(connection, kStatusFrameWireSize, [&](char* out) {
      return encode_rejected_at(out, request_id, RejectReason::kQueueFull);
    });
    return;
  }
  // Admitted. The peak tally and both gauges are published from the
  // same accounting: the peak only ever rises (max_to), and the depth
  // gauge moves by the exact deltas the atomics move by, so a stale
  // snapshot can never overwrite a newer value.
  std::uint64_t peak =
      tallies_.queue_depth_peak.load(std::memory_order_relaxed);
  while (depth > peak &&
         !tallies_.queue_depth_peak.compare_exchange_weak(
             peak, depth, std::memory_order_relaxed)) {
  }
  if (hooks_.queue_depth_peak != nullptr) {
    hooks_.queue_depth_peak->max_to(static_cast<double>(depth));
  }
  if (hooks_.queue_depth != nullptr) {
    hooks_.queue_depth->add(static_cast<double>(specs));
  }
  bump(tallies_.frames_admitted, hooks_.frames_admitted);
  bump(tallies_.specs_admitted, hooks_.specs_admitted, specs);
  if (frame.header.type == FrameType::kBatchSubmit) {
    bump(tallies_.batches, hooks_.batches);
  }
  if (hooks_.batch_size != nullptr) {
    hooks_.batch_size->observe(static_cast<double>(specs));
  }
  connection->inflight.fetch_add(1, std::memory_order_acq_rel);
  auto task = [this, connection, expiry, dedup_claimed,
               moved = std::move(frame)]() mutable {
    process_submit(connection, moved, expiry, dedup_claimed);
    const std::size_t n = moved.specs.size();
    // The slots are released only after the reply is on the
    // connection's write queue, so drain() returning means every
    // admitted frame was answered (the queue's writer flushes it
    // before going idle).
    release_slots(n);
    if (hooks_.queue_depth != nullptr) {
      hooks_.queue_depth->add(-static_cast<double>(n));
    }
    release_pipeline(connection, n);
    // Last touch of `connection` in this task: after this, a reaped
    // reader's connection may be freed.
    connection->inflight.fetch_sub(1, std::memory_order_acq_rel);
  };
  // The future is intentionally dropped: completion is tracked by
  // outstanding_frames_, and the task cannot throw.
  (void)pool_->submit(std::move(task));
  return;
}

void Server::process_submit(
    Connection* connection, const SubmitFrame& frame,
    std::optional<std::chrono::steady_clock::time_point> expiry,
    bool dedup_claimed) {
  if (process_hook_) process_hook_();
  const auto started = std::chrono::steady_clock::now();

  std::vector<PlacementReply> replies;
  replies.reserve(frame.specs.size());
  std::size_t shed = 0;
  for (const SubmitSpec& submit : frame.specs) {
    // Deadline-aware execution: a spec whose budget ran out while it
    // queued gets a failed reply instead of a placement the client has
    // already given up on — the decision layer never sees it.
    if (expiry && std::chrono::steady_clock::now() > *expiry) {
      PlacementReply expired;
      expired.client_id = submit.client_id;
      expired.failed = true;
      expired.error = "deadline-expired";
      replies.push_back(std::move(expired));
      ++shed;
      continue;
    }
    const core::JobPlacement placement = landlord_->submit(submit.spec);
    switch (placement.kind) {
      case core::RequestKind::kHit:
        bump(tallies_.placements_hit, hooks_.placements_hit);
        break;
      case core::RequestKind::kMerge:
        bump(tallies_.placements_merge, hooks_.placements_merge);
        break;
      case core::RequestKind::kInsert:
        bump(tallies_.placements_insert, hooks_.placements_insert);
        break;
    }
    if (placement.degraded) {
      bump(tallies_.placements_degraded, hooks_.placements_degraded);
    }
    if (placement.failed) {
      bump(tallies_.placements_failed, hooks_.placements_failed);
    }
    replies.push_back(to_reply(placement, submit.client_id));
  }
  bump(tallies_.requests_served, hooks_.requests_served,
       replies.size() - shed);
  if (shed > 0) {
    bump(tallies_.specs_shed_expired, hooks_.specs_shed_expired, shed);
    if (hooks_.trace != nullptr) {
      hooks_.trace->record({.kind = obs::EventKind::kServeDeadlineShed,
                            .aux = shed,
                            .detail = "deadline-expired"});
    }
  }

  const std::uint64_t request_id = frame.header.request_id;
  const FrameType reply_type = frame.header.type == FrameType::kSubmit
                                   ? FrameType::kPlacement
                                   : FrameType::kBatchPlacement;
  if (reply_type == FrameType::kPlacement) {
    const PlacementReply& reply = replies.front();
    send_reply(connection, placement_wire_size(reply), [&](char* out) {
      return encode_placement_at(out, request_id, reply);
    });
  } else {
    send_reply(connection, batch_placement_wire_size(replies), [&](char* out) {
      return encode_batch_placement_at(out, request_id, replies);
    });
  }
  if (dedup_claimed) {
    // Publish after the reply hits the write path: a retry claiming now
    // sees kDone and is answered from the window instead of re-placing.
    const std::size_t evicted = dedup_.complete(
        {frame.session_id, request_id}, reply_type, std::move(replies));
    if (evicted > 0) {
      bump(tallies_.dedup_evictions, hooks_.dedup_evictions, evicted);
    }
  }
  bump(tallies_.frames_processed, hooks_.frames_processed);
  if (hooks_.process_seconds != nullptr) {
    hooks_.process_seconds->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
  }
}

void Server::reply_from_window(Connection* connection,
                               std::uint64_t request_id, FrameType reply_type,
                               const std::vector<PlacementReply>& replies) {
  if (reply_type == FrameType::kPlacement) {
    const PlacementReply& reply = replies.front();
    send_reply(connection, placement_wire_size(reply), [&](char* out) {
      return encode_placement_at(out, request_id, reply);
    });
  } else {
    send_reply(connection, batch_placement_wire_size(replies), [&](char* out) {
      return encode_batch_placement_at(out, request_id, replies);
    });
  }
}

template <typename Encode>
void Server::send_reply(Connection* connection, std::size_t size,
                        Encode&& encode) {
  std::unique_lock<std::mutex> lock(connection->write_mutex);
  if (connection->write_failed) return;
  char* out = static_cast<char*>(
      connection->reply_arena.allocate(size, alignof(std::max_align_t)));
  [[maybe_unused]] char* end = encode(out);
  assert(end == out + size);
  connection->reply_pending.push_back({out, size});
  if (connection->writer_active) return;  // the active writer takes it
  connection->writer_active = true;
  flush_replies(connection, lock);
}

void Server::flush_replies(Connection* connection,
                           std::unique_lock<std::mutex>& lock) {
  // Caller holds `lock` and claimed writer_active. Replies queued while
  // the socket write is in flight are picked up by the next iteration —
  // all of them in one gathered write — so a burst of worker completions
  // on one connection costs one syscall, not one per frame, and workers
  // never block on the socket behind this writer.
  while (!connection->reply_pending.empty() && !connection->write_failed) {
    connection->reply_writing.clear();
    std::swap(connection->reply_writing, connection->reply_pending);
    std::size_t bytes = 0;
    for (const net::ConstBuffer& b : connection->reply_writing) {
      bytes += b.size;
    }
    const std::size_t frames = connection->reply_writing.size();
    lock.unlock();
    const int stall_ms = config_.write_stall_timeout_ms == 0
                             ? -1
                             : static_cast<int>(config_.write_stall_timeout_ms);
    const net::IoStatus status =
        net::writev_all(connection->fd, connection->reply_writing, stall_ms);
    lock.lock();
    if (status == net::IoStatus::kOk) {
      bump(tallies_.frames_out, hooks_.frames_out, frames);
      bump(tallies_.bytes_out, hooks_.bytes_out, bytes);
      bump(tallies_.gathered_writes, hooks_.gathered_writes);
      if (hooks_.gather_frames != nullptr) {
        hooks_.gather_frames->observe(static_cast<double>(frames));
      }
    } else {
      // Slow-client defense: a stalled (or dead) peer may not drain the
      // socket for minutes. Fail the connection and shut the fd down so
      // the reader unblocks too — the worker pool never wedges behind
      // one receive window.
      if (status == net::IoStatus::kTimeout) {
        bump(tallies_.net_write_timeouts, hooks_.net_write_timeouts);
        if (hooks_.trace != nullptr) {
          hooks_.trace->record({.kind = obs::EventKind::kServeNetTimeout,
                                .aux = bytes,
                                .detail = "write-stall"});
        }
      } else {
        bump(tallies_.net_write_errors, hooks_.net_write_errors);
      }
      connection->write_failed = true;
      ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  connection->reply_writing.clear();
  if (connection->write_failed) connection->reply_pending.clear();
  // Every queued frame was flushed (or abandoned): no arena pointer is
  // live, so the writer can hand the arena back for reuse.
  connection->reply_arena.reset();
  connection->writer_active = false;
}

void Server::acquire_pipeline(Connection* connection, std::size_t specs) {
  if (config_.pipeline_depth == 0 || specs == 0) return;
  std::unique_lock<std::mutex> lock(connection->pipeline_mutex);
  // An idle connection always proceeds, so one frame larger than the
  // whole depth cannot deadlock its own connection.
  connection->pipeline_cv.wait(lock, [&] {
    return connection->inflight_specs == 0 ||
           connection->inflight_specs + specs <= config_.pipeline_depth;
  });
  connection->inflight_specs += specs;
}

void Server::release_pipeline(Connection* connection, std::size_t specs) {
  if (config_.pipeline_depth == 0 || specs == 0) return;
  {
    std::scoped_lock lock(connection->pipeline_mutex);
    connection->inflight_specs -= specs;
  }
  // Only the connection's own reader ever waits.
  connection->pipeline_cv.notify_one();
}

StatsReply Server::stats_snapshot() const {
  // The decision layer aggregates atomics; no lock needed.
  const core::CacheCounters counters = landlord_->counters();
  StatsReply stats;
  stats.requests = counters.requests;
  stats.hits = counters.hits;
  stats.merges = counters.merges;
  stats.inserts = counters.inserts;
  stats.deletes = counters.deletes;
  stats.splits = counters.splits;
  stats.conflict_rejections = counters.conflict_rejections;
  stats.requested_bytes = counters.requested_bytes;
  stats.written_bytes = counters.written_bytes;
  stats.image_count = landlord_->cache().image_count();
  stats.total_bytes = landlord_->total_bytes();
  stats.unique_bytes = landlord_->unique_bytes();
  stats.container_efficiency_sum = counters.container_efficiency_sum;
  stats.prep_seconds = landlord_->total_prep_seconds();
  return stats;
}

void Server::close_listener() {
  // shutdown() wakes a blocked accept(2). The descriptor is closed only
  // after the acceptor joins (drain()), so its number cannot be recycled
  // under a concurrent accept().
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void Server::drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (draining_.exchange(true)) {
    // A second drainer still waits for quiescence before returning.
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return outstanding_frames_.load() == 0; });
    return;
  }
  if (hooks_.trace != nullptr) {
    hooks_.trace->record(
        {.kind = obs::EventKind::kServeDrain, .detail = "begin"});
  }
  close_listener();
  if (acceptor_.joinable()) acceptor_.join();
  if (const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
      fd >= 0) {
    ::close(fd);  // releases the port
  }
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return outstanding_frames_.load() == 0; });
  }
  // Every admitted frame has been answered; say goodbye on each open
  // connection (readers that already exited fail the write harmlessly).
  {
    std::scoped_lock lock(connections_mutex_);
    for (const auto& connection : connections_) {
      if (!connection->done.load(std::memory_order_acquire)) {
        send_reply(connection.get(), kEmptyFrameWireSize, [&](char* out) {
          return encode_drained_at(out, 0);
        });
      }
    }
  }
  if (hooks_.trace != nullptr) {
    hooks_.trace->record(
        {.kind = obs::EventKind::kServeDrain,
         .aux = tallies_.frames_processed.load(std::memory_order_relaxed),
         .detail = "complete"});
  }
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) return;
  drain();
  // Unblock every reader, join them, then retire the pool. Readers are
  // the only producers of pool tasks, so after the joins the pool can
  // only hold already-admitted work, which drain() proved is done.
  {
    std::scoped_lock lock(connections_mutex_);
    for (const auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RDWR);
    }
    for (const auto& connection : connections_) {
      if (connection->reader.joinable()) connection->reader.join();
    }
  }
  pool_.reset();
  {
    std::scoped_lock lock(connections_mutex_);
    for (const auto& connection : connections_) {
      ::close(connection->fd);
    }
    connections_.clear();
  }
}

ServeCounters Server::counters() const {
  ServeCounters out;
  out.connections_accepted = tallies_.connections_accepted.load();
  out.connections_closed = tallies_.connections_closed.load();
  out.frames_in = tallies_.frames_in.load();
  out.frames_out = tallies_.frames_out.load();
  out.bytes_in = tallies_.bytes_in.load();
  out.bytes_out = tallies_.bytes_out.load();
  out.frames_admitted = tallies_.frames_admitted.load();
  out.specs_admitted = tallies_.specs_admitted.load();
  out.frames_processed = tallies_.frames_processed.load();
  out.requests_served = tallies_.requests_served.load();
  out.batches = tallies_.batches.load();
  out.gathered_writes = tallies_.gathered_writes.load();
  out.rejected_queue_full = tallies_.rejected_queue_full.load();
  out.rejected_draining = tallies_.rejected_draining.load();
  out.rejected_requests = tallies_.rejected_requests.load();
  out.decode_errors = tallies_.decode_errors.load();
  out.pings = tallies_.pings.load();
  out.stats_requests = tallies_.stats_requests.load();
  out.placements_hit = tallies_.placements_hit.load();
  out.placements_merge = tallies_.placements_merge.load();
  out.placements_insert = tallies_.placements_insert.load();
  out.placements_degraded = tallies_.placements_degraded.load();
  out.placements_failed = tallies_.placements_failed.load();
  out.queue_depth_peak = tallies_.queue_depth_peak.load();
  out.net_read_timeouts = tallies_.net_read_timeouts.load();
  out.net_write_timeouts = tallies_.net_write_timeouts.load();
  out.net_write_errors = tallies_.net_write_errors.load();
  out.dedup_hits = tallies_.dedup_hits.load();
  out.dedup_evictions = tallies_.dedup_evictions.load();
  out.specs_shed_expired = tallies_.specs_shed_expired.load();
  out.spec_memo_hits = tallies_.spec_memo_hits.load();
  out.spec_memo_misses = tallies_.spec_memo_misses.load();
  return out;
}

void Server::set_observability(obs::Observability* observability) {
  if (observability == nullptr) {
    hooks_ = Hooks{};
    return;
  }
  obs::Registry& r = observability->registry;
  hooks_.connections_accepted =
      &r.counter("serve_connections_total", {{"state", "accepted"}},
                 "Service-plane connections by lifecycle state");
  hooks_.connections_closed =
      &r.counter("serve_connections_total", {{"state", "closed"}},
                 "Service-plane connections by lifecycle state");
  hooks_.frames_in = &r.counter("serve_frames_total", {{"direction", "in"}},
                                "Protocol frames by direction");
  hooks_.frames_out = &r.counter("serve_frames_total", {{"direction", "out"}},
                                 "Protocol frames by direction");
  hooks_.bytes_in = &r.counter("serve_bytes_total", {{"direction", "in"}},
                               "Wire bytes by direction");
  hooks_.bytes_out = &r.counter("serve_bytes_total", {{"direction", "out"}},
                                "Wire bytes by direction");
  hooks_.frames_admitted =
      &r.counter("serve_frames_admitted_total", {},
                 "Submit frames past admission control");
  hooks_.specs_admitted =
      &r.counter("serve_specs_admitted_total", {},
                 "Specifications inside admitted submit frames");
  hooks_.frames_processed =
      &r.counter("serve_frames_processed_total", {},
                 "Admitted submit frames fully answered");
  hooks_.requests_served = &r.counter("serve_requests_served_total", {},
                                      "Individual specifications placed");
  hooks_.batches =
      &r.counter("serve_batches_total", {}, "Batch submit frames admitted");
  hooks_.gathered_writes =
      &r.counter("serve_gathered_writes_total", {},
                 "Reply-queue flushes (each one gathered write)");
  hooks_.rejected_queue_full =
      &r.counter("serve_rejected_total", {{"reason", "queue-full"}},
                 "Submit frames rejected by admission control");
  hooks_.rejected_draining =
      &r.counter("serve_rejected_total", {{"reason", "draining"}},
                 "Submit frames rejected by admission control");
  hooks_.rejected_requests =
      &r.counter("serve_rejected_requests_total", {},
                 "Specifications inside rejected submit frames");
  hooks_.decode_errors =
      &r.counter("serve_decode_errors_total", {},
                 "Frames that failed to decode or had unexpected types");
  hooks_.pings = &r.counter("serve_pings_total", {}, "Ping frames answered");
  hooks_.stats_requests =
      &r.counter("serve_stats_requests_total", {}, "Stats frames answered");
  hooks_.placements_hit =
      &r.counter("serve_placements_total", {{"kind", "hit"}},
                 "Placements served over the wire by decision kind");
  hooks_.placements_merge =
      &r.counter("serve_placements_total", {{"kind", "merge"}},
                 "Placements served over the wire by decision kind");
  hooks_.placements_insert =
      &r.counter("serve_placements_total", {{"kind", "insert"}},
                 "Placements served over the wire by decision kind");
  hooks_.placements_degraded =
      &r.counter("serve_placements_degraded_total", {},
                 "Placements served via a degradation-ladder fallback");
  hooks_.placements_failed =
      &r.counter("serve_placements_failed_total", {},
                 "Placements whose degradation ladder was exhausted");
  hooks_.net_read_timeouts =
      &r.counter("serve_net_read_idle_timeouts_total", {},
                 "Connections closed for exceeding the read idle timeout");
  hooks_.net_write_timeouts =
      &r.counter("serve_net_write_stall_timeouts_total", {},
                 "Connections closed for stalling the reply writer");
  hooks_.net_write_errors =
      &r.counter("serve_net_write_errors_total", {},
                 "Reply writes failed by a hard socket error");
  hooks_.dedup_hits =
      &r.counter("serve_dedup_hits_total", {},
                 "Retried submits answered from the dedup window");
  hooks_.dedup_evictions =
      &r.counter("serve_dedup_evictions_total", {},
                 "Completed dedup entries evicted to bound the window");
  hooks_.specs_shed_expired =
      &r.counter("serve_deadline_shed_total", {},
                 "Specifications shed because their deadline expired");
  hooks_.spec_memo_hits =
      &r.counter("serve_spec_memo_total", {{"result", "hit"}},
                 "Submitted id lists by id-list memo result");
  hooks_.spec_memo_misses =
      &r.counter("serve_spec_memo_total", {{"result", "miss"}},
                 "Submitted id lists by id-list memo result");
  hooks_.queue_depth = &r.gauge("serve_queue_depth", {},
                                "Admitted specifications awaiting workers");
  hooks_.queue_depth_peak =
      &r.gauge("serve_queue_depth_peak", {},
               "High-water mark of admitted specifications");
  hooks_.batch_size = &r.histogram(
      "serve_batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, {},
      "Specifications per admitted submit frame");
  hooks_.gather_frames = &r.histogram(
      "serve_gather_frames", {1, 2, 4, 8, 16, 32, 64, 128}, {},
      "Reply frames coalesced per gathered write");
  hooks_.process_seconds =
      &r.histogram("serve_process_seconds", obs::default_seconds_buckets(), {},
                   "Wall seconds from worker pickup to reply written");
  hooks_.trace = &observability->trace;
}

}  // namespace landlord::serve
