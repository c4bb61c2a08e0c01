// The LANDLORD decision engine: Algorithm 1 (hit / merge / insert, with
// eviction) over an image namespace partitioned across N shards.
//
// Shards are keyed by the MinHash/LSH band signature of each image's
// contents (spec::band_signature_hash), so near-duplicate specifications
// — the ones likely to hit or merge with each other — tend to co-locate
// on one shard while unrelated traffic proceeds in parallel on the
// others. CacheConfig::shards = 1 (the default) is the sequential case:
// one map behind one uncontended lock.
//
// Concurrency protocol (per request):
//   1. *Decision phase* — the superset scan and the merge-candidate scan
//      visit shards one at a time, holding only that shard's lock, and
//      collect (id, bytes/distance) candidates. No two shard locks are
//      ever held during a scan.
//   2. *Apply phase* — the winning shard is re-locked and the decision
//      revalidated (the image may have changed since the scan); a stale
//      decision is retried from the top and counted in
//      CacheCounters::optimistic_retries. Mutations (hit bookkeeping,
//      merge, insert) happen under exactly one shard lock.
//   3. *Cross-shard path* — a merge or split can change an image's band
//      signature so that it homes to a different shard. When the target
//      shard has a higher index the image moves under both locks,
//      acquired in increasing index order (the global lock order; the
//      all-shard snapshot path acquires 0..N-1 the same way, so the
//      system is deadlock-free). When the target index is lower, the
//      image is extracted under the source lock and re-inserted under
//      the target lock — briefly invisible, never duplicated.
//   4. *Budget* — total bytes and image count live in shared atomic
//      ledgers. Eviction re-scans all shards for the globally worst
//      victim (per EvictionPolicy, deterministic id tie-break) and
//      revalidates it under its shard lock before erasing.
//
// Determinism: with one replay thread, every decision (hit choice, merge
// candidate order, victim choice, id assignment) is the same for ANY
// shard count, with the decision index on or off. The golden corpus
// (tests/landlord/golden_corpus_test.cpp) pins per-request outcomes,
// counters, snapshots and time series to the sequential reference, and
// tests/landlord/sharded_cache_test.cpp compares shard counts and both
// decision paths request by request. Multi-threaded runs are
// linearizable per shard and preserve the cache invariants
// (tests/landlord/sharded_stress_test.cpp) but their interleaving, and
// hence exact counters, depend on the schedule.
//
// CacheConfig::record_time_series keeps a per-package refcount ledger
// and the per-request series behind one leaf lock, taken only when the
// flag is on; the request path otherwise pays a single branch for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "landlord/cache.hpp"
#include "landlord/image.hpp"
#include "landlord/index.hpp"
#include "landlord/stats.hpp"
#include "obs/obs.hpp"
#include "pkg/repository.hpp"
#include "spec/minhash.hpp"
#include "spec/specification.hpp"

namespace landlord::core {

/// Point-in-time observability snapshot of one shard.
struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t images = 0;            ///< images resident on this shard
  util::Bytes bytes = 0;               ///< their total size
  std::uint64_t homed_inserts = 0;     ///< inserts/adopts placed here
  std::uint64_t lock_acquisitions = 0; ///< times this shard's lock was taken
  std::uint64_t lock_contentions = 0;  ///< acquisitions that had to wait
};

class ShardedCache {
 public:
  /// Shard count comes from config.shards (clamped to >= 1).
  ShardedCache(const pkg::Repository& repo, CacheConfig config);

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

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

  /// Thread-safe Algorithm 1 request (hit / merge / insert + eviction).
  /// The spec's package set must be over this cache's repository universe.
  Outcome request(const spec::Specification& spec);

  /// Re-admits an image from a persisted snapshot: contents and usage
  /// history are adopted without charging insert counters or write I/O
  /// (the image file already exists on disk). LRU recency follows the
  /// order of adoption. Used by core::restore_cache; thread-safe, though
  /// restores normally run single-threaded.
  ImageId adopt(spec::PackageSet contents,
                std::vector<spec::VersionConstraint> constraints,
                std::uint64_t hits, std::uint32_t merge_count,
                std::uint32_t version);

  // ---- Introspection (each call is individually consistent) ----
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t image_count() const noexcept {
    return image_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] util::Bytes total_bytes() const noexcept {
    return total_bytes_.load(std::memory_order_acquire);
  }
  /// Deduplicated footprint: bytes of the union of all image contents.
  /// O(1) from the ledger when record_time_series is on; otherwise takes
  /// every shard lock (increasing order) and unions.
  [[nodiscard]] util::Bytes unique_bytes() const;
  /// unique/total under the all-shard lock; 1 for an empty cache.
  [[nodiscard]] double cache_efficiency() const;
  /// Materialises the atomic ledgers into a plain counters snapshot.
  [[nodiscard]] CacheCounters counters() const;
  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  /// Copy of the Fig. 5 per-request series (empty unless
  /// record_time_series). Under concurrent submits each sample is
  /// consistent with some interleaving, not necessarily with its own
  /// request alone.
  [[nodiscard]] TimeSeries time_series() const;
  /// Copy of the image if resident (locks its shard).
  [[nodiscard]] std::optional<Image> find(ImageId id) const;
  /// Per-shard occupancy and lock-contention counters.
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

  /// Summed postings/eviction-index telemetry across shards (zeros when
  /// decision_index is off). Takes each shard lock in turn.
  [[nodiscard]] DecisionIndexStats index_stats() const;
  /// Spec-memo telemetry (zeros when decision_index is off).
  [[nodiscard]] SpecMemoStats memo_stats() const { return memo_.stats(); }
  /// Reconciles every shard's decision index against a from-scratch
  /// rebuild; nullopt when consistent or the index is disabled.
  [[nodiscard]] std::optional<std::string> check_decision_index() const;

  // ---- Read-only decision probes (benchmarks and oracles) ----
  /// The superset image the next request for `spec` would hit, without
  /// touching LRU stamps, counters, or the memo. With decision_index on
  /// this is the postings probe (which may lazily compact); off, the
  /// full scan — so the two paths can be timed and compared directly.
  [[nodiscard]] std::optional<ImageId> peek_superset(const spec::Specification& spec);
  /// The victim the next over-budget eviction would pick, or nullopt
  /// when only the just-served image remains.
  [[nodiscard]] std::optional<ImageId> peek_victim();

  /// Registers a callback fired whenever an image's on-disk chain dies:
  /// the image leaves the cache (budget, idle, or split-empty eviction —
  /// not merges, which keep the image's id), or a split rewrote the
  /// remainder in full (the id stays; bytes reported as 0). The
  /// image-store owner uses it to drop the image's chunk chain. Fired
  /// while the victim's shard lock is held, after counters are updated;
  /// the callback must not re-enter the cache. Set before concurrent use
  /// (the slot itself is unsynchronised). nullptr detaches.
  using EvictionListener = std::function<void(ImageId, util::Bytes)>;
  void set_eviction_listener(EvictionListener listener) {
    eviction_listener_ = std::move(listener);
  }

  /// Attaches (or detaches, with nullptr) an observability bundle.
  /// Metric handles are resolved once here; the request hot path then
  /// only bumps relaxed atomics. Instrumentation never changes
  /// decisions: an attached cache replays bit-identically to a detached
  /// one. Non-owning; the bundle must outlive the cache or be detached.
  /// Counters are bumped inline next to their AtomicCounters twins (so
  /// the two reconcile exactly); per-shard occupancy gauges are only
  /// refreshed by publish_metrics().
  void set_observability(obs::Observability* observability);
  /// Copies current per-shard occupancy/contention numbers into the
  /// attached registry's gauges. Call before rendering a snapshot; no-op
  /// when detached.
  void publish_metrics();

  /// Consistent point-in-time copy of every image, sorted by id: all
  /// shard locks are held (in increasing index order) for the duration,
  /// so the result is a true snapshot even under concurrent submits.
  [[nodiscard]] std::vector<Image> snapshot_images() const;

  /// Visits a consistent snapshot of every cached image.
  template <typename Fn>
  void for_each_image(Fn&& fn) const {
    for (const Image& image : snapshot_images()) fn(image);
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, Image> images;
    // MinHash/LSH state (kMinHashLsh policy only), guarded by `mutex`.
    spec::LshIndex lsh;
    std::unordered_map<std::uint64_t, spec::MinHashSignature> signatures;
    /// Sublinear decision path for this shard's images (engaged iff
    /// config.decision_index), guarded by `mutex`.
    std::optional<DecisionIndex> dindex;
    std::uint64_t homed_inserts = 0;  // guarded by `mutex`
    // Lock telemetry; relaxed atomics so readers need not take `mutex`.
    mutable std::atomic<std::uint64_t> lock_acquisitions{0};
    mutable std::atomic<std::uint64_t> lock_contentions{0};
  };

  /// Locks one shard, counting contention when the fast path misses.
  [[nodiscard]] std::unique_lock<std::mutex> lock_shard(const Shard& shard) const;
  /// Shard an image with these contents homes to (band-signature hash).
  [[nodiscard]] std::size_t home_of(const spec::PackageSet& contents) const;

  /// An image found by a cross-shard scan, with the shard holding it.
  struct Located {
    std::uint64_t id = 0;
    util::Bytes bytes = 0;
    std::size_t shard = 0;
  };

  Outcome serve(const spec::Specification& spec, std::uint64_t now,
                util::Bytes requested);
  /// The superset image a request for `spec` would hit, taking one shard
  /// lock at a time; touches no stamps, counters or memo.
  [[nodiscard]] std::optional<Located> find_superset(const spec::Specification& spec);
  /// The global eviction victim and its shard, skipping images stamped
  /// `now` (the one just served); one shard lock at a time.
  [[nodiscard]] std::optional<std::pair<EvictionKey, std::size_t>> find_victim(
      std::uint64_t now);
  /// Applies a hit decided by a scan or the memo; nullopt when a racing
  /// writer evicted or shrank the image since (the caller re-decides).
  std::optional<Outcome> apply_hit(std::size_t shard_index, std::uint64_t id,
                                   const spec::Specification& spec,
                                   std::uint64_t now, util::Bytes requested);
  Outcome split_locked(std::unique_lock<std::mutex>& source_lock,
                       std::size_t shard_index, Image& bloated,
                       const spec::Specification& spec, std::uint64_t now);
  void rehome_locked(std::unique_lock<std::mutex>& source_lock,
                     std::size_t source_index, std::size_t target_index,
                     std::uint64_t id);

  void index_insert(Shard& shard, const Image& image);
  void index_erase(Shard& shard, const Image& image);

  // Decision-index maintenance (no-ops when the knob is off); caller
  // holds the shard's lock. Structural changes bump the memo epoch;
  // recency touches do not.
  void dindex_insert(Shard& shard, const Image& image);
  void dindex_erase(Shard& shard, const util::DynamicBitset& old_bits,
                    const EvictionKey& old_key);
  void dindex_update(Shard& shard, const Image& image,
                     const util::DynamicBitset& old_bits,
                     const EvictionKey& old_key);
  void dindex_touch(Shard& shard, const EvictionKey& old_key,
                    const Image& image);
  /// Sweeps the shard's postings tombstones (DecisionIndex::sweep). Call
  /// under the shard's lock at the end of a structural mutation, once
  /// its image map and index agree again; never on the plain-hit path.
  void sweep_postings(Shard& shard);

  /// Adds a fresh image to its home shard and the shared ledgers.
  void admit(Image image);
  /// Adds `image` to `shard`'s map and indexes; caller holds its lock.
  void install_locked(Shard& shard, Image image);
  /// Evicts the image at `it` (budget or idle) under its shard's held
  /// lock — ledgers, indexes, counters, metrics, listener — and returns
  /// the next iterator. Leaves the postings sweep to the caller.
  std::unordered_map<std::uint64_t, Image>::iterator evict_locked(
      Shard& shard, std::unordered_map<std::uint64_t, Image>::iterator it, bool idle);

  void enforce_budget(std::uint64_t now);
  void evict_idle(std::uint64_t now);

  // Union ledger for the time series (no-op unless record_time_series):
  // per-package image refcounts plus the running deduplicated byte
  // total, counted up (`add`) or down at every contents mutation under
  // ledger_mutex_ (a leaf lock, taken while a shard lock may be held).
  void ledger_adjust(const util::DynamicBitset& bits, bool add);
  void record_sample(RequestKind kind);

  const pkg::Repository* repo_;
  CacheConfig config_;
  std::vector<Shard> shards_;
  spec::MinHasher hasher_;
  /// Cache-wide spec memo: a decision names a shard, so one epoch
  /// guards them all. Consulted only when config_.decision_index.
  SpecMemo memo_;

  // Shared ledgers.
  std::atomic<util::Bytes> total_bytes_{0};
  std::atomic<std::uint64_t> image_count_{0};
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> id_counter_{0};

  struct AtomicCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> merges{0};
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> deletes{0};
    std::atomic<std::uint64_t> splits{0};
    std::atomic<std::uint64_t> conflict_rejections{0};
    std::atomic<util::Bytes> requested_bytes{0};
    std::atomic<util::Bytes> written_bytes{0};
    std::atomic<std::uint64_t> delta_merges{0};
    std::atomic<std::uint64_t> repacks{0};
    std::atomic<util::Bytes> delta_written_bytes{0};
    std::atomic<util::Bytes> repack_written_bytes{0};
    std::atomic<util::Bytes> full_rewrite_bytes{0};
    std::atomic<double> container_efficiency_sum{0.0};
    std::atomic<std::uint64_t> optimistic_retries{0};
    std::atomic<std::uint64_t> cross_shard_moves{0};
  };
  AtomicCounters counters_;
  EvictionListener eviction_listener_;

  // Time-series state, guarded by ledger_mutex_; untouched unless
  // config_.record_time_series.
  mutable std::mutex ledger_mutex_;
  std::vector<std::uint32_t> ledger_refs_;  ///< per-package image refcount
  util::Bytes ledger_unique_ = 0;
  TimeSeries series_;

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
    obs::Counter* lock_contentions = nullptr;
    obs::Counter* optimistic_retries = nullptr;
    obs::Counter* cross_shard_moves = nullptr;
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
    std::vector<obs::Gauge*> shard_images;       ///< indexed by shard
    std::vector<obs::Gauge*> shard_bytes;        ///< indexed by shard
    std::vector<obs::Gauge*> shard_contentions;  ///< indexed by shard
    obs::EventTrace* trace = nullptr;
  };
  Hooks hooks_;
};

/// headbench/ (which is kept unedited) names the engine both
/// core::ShardedCache and core::Cache::Outcome; this alias serves the
/// second spelling.
using Cache = ShardedCache;

}  // namespace landlord::core
