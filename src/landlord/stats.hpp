// Cache operation counters and per-request time series.
//
// These are exactly the quantities the paper plots: operation counts
// (hits / inserts / merges / deletes, Fig. 4a & 5), cached vs. unique
// data (Fig. 4b, cache efficiency), cumulative requested vs. actual
// writes (Fig. 4c, I/O overhead), and per-request container efficiency
// (Fig. 6/7/8).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace landlord::core {

/// Monotone counters over the life of a cache.
struct CacheCounters {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;      ///< satisfied by an existing image (s ⊆ i)
  std::uint64_t merges = 0;    ///< spec merged into a close image
  std::uint64_t inserts = 0;   ///< brand-new image created
  std::uint64_t deletes = 0;   ///< images evicted (LRU, over budget)
  std::uint64_t splits = 0;    ///< bloated images split along lineage (extension)
  std::uint64_t conflict_rejections = 0;  ///< merge candidates rejected by constraints

  util::Bytes requested_bytes = 0;  ///< Σ size of what each job asked for
  util::Bytes written_bytes = 0;    ///< Σ bytes written creating/merging images

  // ---- Delta-merge accounting (all 0 when delta_chain_cap == 0, the
  // paper's full-rewrite model). Delta mode never changes decisions —
  // only how merge writes are charged — so every counter above stays
  // bit-identical with delta on or off except written_bytes, whose
  // full-rewrite counterfactual is preserved below. ----
  std::uint64_t delta_merges = 0;  ///< merges charged as delta writes
  std::uint64_t repacks = 0;       ///< chain flattenings (cap reached)
  util::Bytes delta_written_bytes = 0;   ///< Σ bytes charged to delta merges
  util::Bytes repack_written_bytes = 0;  ///< Σ bytes charged to repacks
  /// What written_bytes would have been under full-rewrite accounting;
  /// equals written_bytes exactly when delta merges are off.
  util::Bytes full_rewrite_bytes = 0;

  // ---- Concurrency observability. All 0 at one shard with a single
  // submitting thread; contentions and retries stay 0 at any shard
  // count while only one thread submits. ----
  std::uint64_t shard_lock_contentions = 0;  ///< shard-lock waits (try_lock missed)
  std::uint64_t optimistic_retries = 0;  ///< decisions invalidated by a racing writer
  std::uint64_t cross_shard_moves = 0;   ///< images re-homed after merge/split

  /// Σ over requests of (requested bytes / used-image bytes); divide by
  /// `requests` for the paper's container efficiency.
  double container_efficiency_sum = 0.0;

  [[nodiscard]] double container_efficiency() const noexcept {
    return requests > 0
               ? container_efficiency_sum / static_cast<double>(requests)
               : 1.0;
  }
};

/// How a single request was satisfied.
enum class RequestKind : std::uint8_t { kHit, kMerge, kInsert };

[[nodiscard]] constexpr const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kHit: return "hit";
    case RequestKind::kMerge: return "merge";
    case RequestKind::kInsert: return "insert";
  }
  return "?";
}

/// One row of the Fig. 5 time series, sampled after each request.
struct RequestSample {
  RequestKind kind = RequestKind::kHit;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t merges = 0;
  util::Bytes cached_bytes = 0;        ///< total data in cache
  util::Bytes unique_bytes = 0;        ///< deduplicated data in cache
  util::Bytes cumulative_written = 0;  ///< running actual-write total
  util::Bytes cumulative_requested = 0;
  std::uint64_t image_count = 0;
};

/// Optional per-request recording (costs one cache-wide union per
/// request when enabled; leave off for sweeps).
class TimeSeries {
 public:
  void record(RequestSample sample) { samples_.push_back(sample); }
  [[nodiscard]] const std::vector<RequestSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

 private:
  std::vector<RequestSample> samples_;
};

}  // namespace landlord::core
