// Eviction policies for the image cache.
//
// Algorithm 1 in the paper pairs merging with a conventional cache
// eviction scheme (its simulations behave "like a simple LRU-based
// cache" at α = 0). Which image to sacrifice when the byte budget is
// exceeded is an independent design axis; we provide the classic
// candidates so the ablation bench can quantify the choice:
//
//  * kLru          — least recently used (the paper's baseline)
//  * kLfu          — fewest lifetime hits (ties broken by LRU)
//  * kLargestFirst — biggest image first (frees space fastest, biased
//                    against merged/bloated images)
//  * kHitDensity   — lowest hits per byte (evicts cold bulk, keeps hot
//                    small images)
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/bytes.hpp"

namespace landlord::core {

enum class EvictionPolicy : std::uint8_t {
  kLru,
  kLfu,
  kLargestFirst,
  kHitDensity,
};

/// The fields a victim decision depends on, snapshotted from an Image.
/// Shared by the victim scan and the ordered eviction index so both pick
/// bit-identical victims from identical states.
struct EvictionKey {
  std::uint64_t last_used = 0;
  std::uint64_t hits = 0;
  util::Bytes bytes = 0;
  std::uint64_t id = 0;
};

/// True iff `a` should be evicted before `b` under `policy`. Fully
/// deterministic: every policy falls through to the older LRU stamp and
/// finally the smaller image id, so victim choice never depends on hash
/// map iteration order or shard count (a precondition for the
/// shard-count equivalence oracle).
[[nodiscard]] inline bool evict_before(EvictionPolicy policy,
                                       const EvictionKey& a,
                                       const EvictionKey& b) noexcept {
  switch (policy) {
    case EvictionPolicy::kLru:
      break;  // LRU/ID fallthrough below
    case EvictionPolicy::kLfu:
      if (a.hits != b.hits) return a.hits < b.hits;
      break;
    case EvictionPolicy::kLargestFirst:
      if (a.bytes != b.bytes) return a.bytes > b.bytes;
      break;
    case EvictionPolicy::kHitDensity: {
      const double ad = static_cast<double>(a.hits) /
                        static_cast<double>(std::max<util::Bytes>(1, a.bytes));
      const double bd = static_cast<double>(b.hits) /
                        static_cast<double>(std::max<util::Bytes>(1, b.bytes));
      if (ad != bd) return ad < bd;
      break;
    }
  }
  if (a.last_used != b.last_used) return a.last_used < b.last_used;
  return a.id < b.id;
}

[[nodiscard]] constexpr const char* to_string(EvictionPolicy policy) noexcept {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kLfu: return "lfu";
    case EvictionPolicy::kLargestFirst: return "largest-first";
    case EvictionPolicy::kHitDensity: return "hit-density";
  }
  return "?";
}

}  // namespace landlord::core
