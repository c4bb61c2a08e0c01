// Configuration of the LANDLORD container cache — Algorithm 1 with LRU
// eviction, implemented by core::ShardedCache (landlord/sharded.hpp).
//
// Given a stream of container specifications, the cache:
//   1. returns an existing image whose contents are a superset of the
//      spec (hit);
//   2. otherwise merges the spec into the closest cached image within
//      Jaccard distance α whose constraints are compatible, rewriting
//      that image (merge);
//   3. otherwise creates a fresh image exactly from the spec (insert);
// and evicts least-recently-used images whenever total cached bytes
// exceed the configured capacity (delete).
//
// α ∈ [0, 1] is the "globbiness": α = 0 merges nothing (pure LRU image
// cache), α = 1 accretes everything into one all-purpose image.
#pragma once

#include <cstdint>

#include "landlord/eviction.hpp"
#include "landlord/policy.hpp"
#include "util/bytes.hpp"

namespace landlord::core {

struct CacheConfig {
  util::Bytes capacity = 1400 * util::kGiB;  ///< byte budget (paper: 1.4 TB)
  double alpha = 0.8;                        ///< merge threshold, in [0, 1]
  MergePolicy policy = MergePolicy::kBestFit;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Record the Fig. 5 per-request series. Keeps a per-package refcount
  /// ledger behind one lock, taken only while this is on; leave off for
  /// sweeps and for concurrent serving.
  bool record_time_series = false;
  /// MinHash/LSH parameters (used only by kMinHashLsh).
  std::size_t minhash_k = 128;
  std::size_t lsh_bands = 32;

  // ---- Image splitting (extension; §I lists "creates, merges, splits,
  // or deletes" as LANDLORD's repertoire). When a hit ships an image far
  // larger than the request — utilization below `split_utilization` —
  // the image is split along its merge lineage: one part exactly covers
  // the request, the other carries the remaining constituents. Off by
  // default to match the paper's simulated Algorithm 1.
  bool enable_split = false;
  double split_utilization = 0.25;   ///< requested/image byte ratio trigger
  std::uint32_t max_lineage = 12;    ///< lineage entries kept per image

  /// Idle time-to-live (extension): an image untouched for this many
  /// requests is dropped even when the cache is under budget — "without
  /// regular use, the bloated image will eventually be evicted" (§V).
  /// 0 disables idle eviction (paper behaviour: space pressure only).
  std::uint64_t max_idle_requests = 0;

  /// Sublinear decision path (extension): inverted package→image
  /// postings for superset hits, an ordered eviction index, and a
  /// spec-fingerprint memo (src/landlord/index.hpp). Decisions are
  /// bit-identical with the knob on or off — tests/landlord/
  /// decision_index_test.cpp replays identical traces through both and
  /// compares every outcome, counter, and final image, and
  /// tests/landlord/golden_corpus_test.cpp holds both to the frozen
  /// reference. Off keeps the O(images) scans as the equivalence oracle.
  bool decision_index = true;

  /// Small-N hot path (extension): with decision_index on, superset
  /// lookups fall back to the linear scan while the cache (or shard)
  /// holds fewer than this many images — BENCH_decision.json shows the
  /// postings probe losing to the scan below a few hundred images. Both
  /// paths return the same image by construction (the ordered eviction
  /// index wins at every size and is unaffected), so the cutover never
  /// changes decisions. 0 always probes the index.
  std::size_t scan_cutover = 256;

  /// Delta merges (extension): when > 0, a merge that rewrites an image
  /// is charged only the *delta* — the bytes the merge added plus a
  /// manifest — instead of the paper's full rewrite ("the resulting
  /// image must be written out in its entirety", §VI), until the image
  /// has stacked this many delta generations; the next merge then
  /// repacks (full write, chain reset). Accounting only: decisions,
  /// placements, and every non-write counter are bit-identical with the
  /// knob on or off, and counters().full_rewrite_bytes always carries
  /// the paper's counterfactual charge (tests/landlord/
  /// delta_accounting_test.cpp and tests/sim/delta_oracle_test.cpp hold
  /// both paths to that). 0 keeps full-rewrite accounting.
  std::uint32_t delta_chain_cap = 0;
  /// Write charge for one delta manifest (header + entries, fsync'd
  /// alongside the new chunks).
  util::Bytes delta_manifest_bytes = 64 * util::kKiB;

  /// Concurrency (extension): number of shards the image namespace is
  /// partitioned across. 1 (the default) is the sequential case: one map,
  /// one lock. With a single replay thread every shard count makes
  /// bit-identical decisions (tests/landlord/sharded_cache_test.cpp and
  /// golden_corpus_test.cpp); more shards let concurrent submits proceed
  /// in parallel.
  std::uint32_t shards = 1;
};

}  // namespace landlord::core
