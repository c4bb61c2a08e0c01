// The LANDLORD container cache — Algorithm 1 with LRU eviction.
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
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>

#include "landlord/eviction.hpp"
#include "util/arena.hpp"
#include "landlord/image.hpp"
#include "landlord/index.hpp"
#include "landlord/policy.hpp"
#include "landlord/stats.hpp"
#include "obs/obs.hpp"
#include "pkg/repository.hpp"
#include "spec/minhash.hpp"
#include "spec/specification.hpp"

namespace landlord::core {

struct CacheConfig {
  util::Bytes capacity = 1400 * util::kGiB;  ///< byte budget (paper: 1.4 TB)
  double alpha = 0.8;                        ///< merge threshold, in [0, 1]
  MergePolicy policy = MergePolicy::kBestFit;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Record the Fig. 5 per-request series (adds a cache-wide union per
  /// request; leave off for sweeps).
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
  /// compares every outcome, counter, and final image. Off keeps the
  /// O(images) scans as the equivalence oracle.
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
  /// partitioned across by core::ShardedCache. 1 (the default) keeps
  /// today's single-map behaviour; core::Landlord routes through a
  /// ShardedCache when shards > 1. With a single replay thread, any
  /// shard count produces bit-identical decisions to the sequential
  /// Cache (see tests/landlord/sharded_cache_test.cpp).
  std::uint32_t shards = 1;
};

class Cache {
 public:
  Cache(const pkg::Repository& repo, CacheConfig config);

  struct Outcome {
    RequestKind kind = RequestKind::kHit;
    ImageId image{};
    util::Bytes image_bytes = 0;  ///< size of the image the job will use
    bool split = false;  ///< a bloated image was split to serve this hit
    /// When split: id and pre-split size of the bloated image the part
    /// was carved out of. The remainder (if any) keeps this id at a
    /// bumped version, so a worker holding the *unsplit* image on disk
    /// can still be served from it if rebuilding the part fails
    /// (degradation ladder rung 3).
    ImageId split_from{};
    util::Bytes split_from_bytes = 0;
    /// Contents of the decided image, copied under the decision's lock
    /// for outcomes that build (insert, merge, split) so the caller can
    /// materialise it even if a concurrent request evicts or rewrites
    /// the image first. Empty for plain hits, which build nothing.
    std::optional<spec::PackageSet> contents{};
    /// Size the spec actually needed, computed once per request so the
    /// caller need not walk the package set again.
    util::Bytes requested_bytes = 0;
  };

  /// Algorithm 1: satisfies `spec`, mutating the cache as needed.
  /// The spec's package set must be over this cache's repository universe.
  Outcome request(const spec::Specification& spec);

  /// Re-admits an image from a persisted snapshot: contents and usage
  /// history are adopted without charging insert counters or write I/O
  /// (the image file already exists on disk). LRU recency follows the
  /// order of adoption. Used by core::restore_cache.
  ImageId adopt(spec::PackageSet contents,
                std::vector<spec::VersionConstraint> constraints,
                std::uint64_t hits, std::uint32_t merge_count,
                std::uint32_t version);

  // ---- Introspection ----
  [[nodiscard]] std::size_t image_count() const noexcept { return images_.size(); }
  [[nodiscard]] util::Bytes total_bytes() const noexcept { return total_bytes_; }
  /// Deduplicated footprint: bytes of the union of all image contents.
  [[nodiscard]] util::Bytes unique_bytes() const;
  /// unique/total, the paper's cache efficiency; 1 for an empty cache.
  [[nodiscard]] double cache_efficiency() const;
  [[nodiscard]] const CacheCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const TimeSeries& time_series() const noexcept { return series_; }
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::optional<Image> find(ImageId id) const;

  /// Registers a callback fired whenever an image's on-disk chain dies:
  /// the image leaves the cache (budget, idle, or split-empty eviction —
  /// not merges, which keep the image's id), or a split rewrote the
  /// remainder in full (the id stays; bytes reported as 0). The
  /// image-store owner uses it to drop the image's chunk chain. Fired
  /// after counters are updated; the callback must not re-enter the
  /// cache. nullptr detaches.
  using EvictionListener = std::function<void(ImageId, util::Bytes)>;
  void set_eviction_listener(EvictionListener listener) {
    eviction_listener_ = std::move(listener);
  }

  /// Attaches (or detaches, with nullptr) an observability bundle.
  /// Metric handles are resolved once here; the request hot path then
  /// only bumps relaxed atomics. Instrumentation never changes
  /// decisions: an attached cache replays bit-identically to a detached
  /// one. Non-owning; the bundle must outlive the cache or be detached.
  void set_observability(obs::Observability* observability);

  /// Visits every cached image (unspecified order).
  template <typename Fn>
  void for_each_image(Fn&& fn) const {
    for (const auto& [id, image] : images_) fn(image);
  }

  // ---- Read-only decision probes (benchmarks and oracles) ----
  /// The superset image the next request for `spec` would hit, without
  /// touching LRU stamps, counters, or the memo. With decision_index on
  /// this is the postings probe (which may lazily compact); off, the
  /// full scan — so the two paths can be timed and compared directly.
  [[nodiscard]] std::optional<ImageId> peek_superset(
      const spec::Specification& spec);
  /// The victim the next over-budget eviction would pick, or nullopt
  /// when only the just-served image remains.
  [[nodiscard]] std::optional<ImageId> peek_victim();

  /// Postings/eviction-index telemetry (zeros when decision_index off).
  [[nodiscard]] DecisionIndexStats index_stats() const {
    return dindex_ ? dindex_->stats() : DecisionIndexStats{};
  }
  /// Spec-memo telemetry (zeros when decision_index off).
  [[nodiscard]] SpecMemoStats memo_stats() const {
    return memo_ ? memo_->stats() : SpecMemoStats{};
  }
  /// Reconciles the decision index against a from-scratch rebuild;
  /// nullopt when consistent or the index is disabled.
  [[nodiscard]] std::optional<std::string> check_decision_index() const {
    if (!dindex_) return std::nullopt;
    return dindex_->reconcile(images_);
  }

 private:
  [[nodiscard]] ImageId next_id() noexcept { return ImageId{id_counter_++}; }

  /// Returns the id of the superset image the request would hit —
  /// memo, postings probe, or (knob off / empty spec) the full scan.
  [[nodiscard]] std::optional<ImageId> find_superset(const spec::Specification& spec);
  /// The naive O(images) superset scan — the oracle the index must match.
  [[nodiscard]] std::optional<ImageId> find_superset_scan(
      const spec::Specification& spec) const;
  /// The naive O(images) victim scan (skips the just-served stamp).
  [[nodiscard]] std::unordered_map<std::uint64_t, Image>::iterator
  find_victim_scan();

  /// Returns the best merge candidate per the configured policy, or
  /// nullopt when no compatible image lies within distance α.
  [[nodiscard]] std::optional<ImageId> find_merge_candidate(
      const spec::Specification& spec);

  void evict_over_budget();
  void evict_idle();
  /// Splits a bloated image along its lineage after a low-utilization
  /// hit; returns the id of the part satisfying `spec`.
  [[nodiscard]] ImageId split_image(ImageId id, const spec::Specification& spec);
  void record_sample(RequestKind kind, const Outcome& outcome);
  void index_insert(const Image& image);
  void index_erase(const Image& image);

  // Decision-index maintenance (no-ops when the knob is off). Structural
  // changes (insert/erase/update) bump the memo epoch; recency touches
  // do not — they cannot change any superset answer.
  void dindex_insert(const Image& image);
  void dindex_erase(const util::DynamicBitset& old_bits,
                    const EvictionKey& old_key);
  void dindex_update(const Image& image, const util::DynamicBitset& old_bits,
                     const EvictionKey& old_key);
  void dindex_touch(const EvictionKey& old_key, const Image& image);

  /// Incremental view of the cache-wide union: per-package reference
  /// counts plus the running deduplicated byte total. Maintained on
  /// every contents mutation so unique_bytes() is O(1) instead of
  /// O(images × universe) — record_sample used to recompute the union
  /// per request, dominating time-series runs.
  void ledger_add(const util::DynamicBitset& bits);
  void ledger_remove(const util::DynamicBitset& bits);
  void trace_eviction(const Image& victim, const char* reason);

  const pkg::Repository* repo_;
  CacheConfig config_;
  std::unordered_map<std::uint64_t, Image> images_;
  util::Bytes total_bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t id_counter_ = 0;
  CacheCounters counters_;
  TimeSeries series_;
  EvictionListener eviction_listener_;
  std::vector<std::uint32_t> ledger_refs_;  ///< per-package image refcount
  util::Bytes ledger_unique_ = 0;

  /// Per-request scratch (candidate lists and friends); reset at the top
  /// of request(), so steady-state requests never touch the global
  /// allocator for short-lived containers.
  util::ScratchArena arena_;

  /// Sublinear decision path (engaged iff config_.decision_index).
  /// DecisionIndex holds no pointer into images_ and SpecMemo sits
  /// behind a unique_ptr (it owns a mutex), so the Cache stays movable —
  /// Landlord::restore move-assigns a freshly restored Cache.
  std::optional<DecisionIndex> dindex_;
  std::unique_ptr<SpecMemo> memo_;

  /// Metric handles resolved at set_observability; null ⇒ no-op.
  struct Hooks {
    obs::Counter* requests_hit = nullptr;
    obs::Counter* requests_merge = nullptr;
    obs::Counter* requests_insert = nullptr;
    obs::Counter* evictions_budget = nullptr;
    obs::Counter* evictions_idle = nullptr;
    obs::Counter* evictions_split = nullptr;
    obs::Counter* splits = nullptr;
    obs::Counter* conflict_rejections = nullptr;
    obs::Histogram* candidate_scan = nullptr;
    obs::Histogram* request_bytes = nullptr;
    // Delta-merge CAS families (registered only when delta_chain_cap > 0).
    obs::Counter* cas_delta_merges = nullptr;
    obs::Counter* cas_repacks = nullptr;
    obs::Counter* cas_delta_bytes = nullptr;
    obs::Counter* cas_repack_bytes = nullptr;
    obs::Counter* cas_full_rewrite_bytes = nullptr;
    // Decision-index families (registered only when the knob is on).
    obs::Histogram* postings_probe = nullptr;
    obs::Counter* memo_hit = nullptr;
    obs::Counter* memo_miss = nullptr;
    obs::Counter* eviction_index_updates = nullptr;
    obs::EventTrace* trace = nullptr;
  };
  Hooks hooks_;

  // MinHash/LSH state (kMinHashLsh policy only).
  spec::MinHasher hasher_;
  spec::LshIndex lsh_;
  std::unordered_map<std::uint64_t, spec::MinHashSignature> signatures_;
};

}  // namespace landlord::core
