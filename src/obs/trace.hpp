// Structured per-request event trace with a bounded ring buffer and a
// JSONL sink.
//
// Metrics answer "how many"; the trace answers "what exactly happened to
// request k" — which rung of the degradation ladder a submit took, which
// victim an eviction chose, which fault class fired. Events are
// fixed-size records (no allocation per event) appended to a ring that
// keeps the most recent `capacity` entries, so a million-request sim can
// leave tracing on and still hand the operator the tail that matters.
// EventTrace::write_jsonl emits one JSON object per line; the schema is
// documented in docs/observability.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

namespace landlord::obs {

enum class EventKind : std::uint8_t {
  kRequest,          ///< one decision-layer request (hit/merge/insert)
  kEviction,         ///< an image left the cache (budget or idle)
  kSplit,            ///< a bloated image was split along its lineage
  kBuildRetry,       ///< a failed build was retried after backoff
  kFallbackExact,    ///< ladder rung 2: merge rewrite -> exact uncached image
  kFallbackUnsplit,  ///< ladder rung 3: split rebuild -> unsplit on-disk image
  kErrorPlacement,   ///< ladder exhausted: job got no image
  kFaultInjected,    ///< the injector failed an operation
  kCheckpoint,       ///< cache snapshot written (or torn)
  kRestore,          ///< cache snapshot restored after a crash
  kInvariantViolation,  ///< a placement failed the obs invariant check
  kWorkerCrash,         ///< a worker lost its scratch copies and went down
  kTransferFault,       ///< a worker transfer was cut mid-stream
  kSiteOutage,          ///< a site rejected a placement attempt
  kFailover,            ///< a request was served by a non-home site
  kBreakerTransition,   ///< a site breaker changed state
  kServeConnection,     ///< service plane accepted or closed a connection
  kServeOverload,       ///< admission control rejected a submit frame
  kServeDrain,          ///< service plane began or completed graceful drain
  kRepack,              ///< a merge hit the delta-chain cap and rewrote in full
  kServeNetTimeout,     ///< a read idle / write stall timeout closed a socket
  kServeDedup,          ///< a retried submit was answered from the dedup window
  kServeDeadlineShed,   ///< expired specs were shed before execution
};

[[nodiscard]] constexpr const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kRequest: return "request";
    case EventKind::kEviction: return "eviction";
    case EventKind::kSplit: return "split";
    case EventKind::kBuildRetry: return "build-retry";
    case EventKind::kFallbackExact: return "fallback-exact";
    case EventKind::kFallbackUnsplit: return "fallback-unsplit";
    case EventKind::kErrorPlacement: return "error-placement";
    case EventKind::kFaultInjected: return "fault-injected";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kRestore: return "restore";
    case EventKind::kInvariantViolation: return "invariant-violation";
    case EventKind::kWorkerCrash: return "worker-crash";
    case EventKind::kTransferFault: return "transfer-fault";
    case EventKind::kSiteOutage: return "site-outage";
    case EventKind::kFailover: return "failover";
    case EventKind::kBreakerTransition: return "breaker-transition";
    case EventKind::kServeConnection: return "serve-connection";
    case EventKind::kServeOverload: return "serve-overload";
    case EventKind::kServeDrain: return "serve-drain";
    case EventKind::kRepack: return "repack";
    case EventKind::kServeNetTimeout: return "serve-net-timeout";
    case EventKind::kServeDedup: return "serve-dedup";
    case EventKind::kServeDeadlineShed: return "serve-deadline-shed";
  }
  return "?";
}

/// One fixed-size trace record. Field meaning depends on `kind` (see
/// docs/observability.md); unused fields stay zero. `detail` must point
/// at a string with static storage duration (operation/outcome names).
struct TraceEvent {
  std::uint64_t seq = 0;  ///< assigned by the buffer, monotone from 0
  EventKind kind = EventKind::kRequest;
  std::uint64_t image = 0;       ///< image id the event concerns
  std::uint64_t bytes = 0;       ///< image bytes involved
  std::uint64_t aux = 0;         ///< kind-specific (requested bytes, records lost, ...)
  double seconds = 0.0;          ///< modelled seconds (prep, backoff)
  const char* detail = nullptr;  ///< static string (outcome kind, fault op, ...)
  bool degraded = false;
  bool failed = false;
};

/// Bounded ring of the most recent events. record() is mutex-guarded and
/// allocation-free after construction; readers snapshot oldest→newest.
class EventTrace {
 public:
  explicit EventTrace(std::size_t capacity = 4096);

  /// Appends, overwriting the oldest event once the ring is full, and
  /// stamps TraceEvent::seq.
  void record(TraceEvent event);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total events ever recorded (>= retained size).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events currently retained, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// One JSON object per line, oldest first:
  ///   {"seq":0,"event":"request","detail":"hit","image":3,...}
  void write_jsonl(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace landlord::obs
