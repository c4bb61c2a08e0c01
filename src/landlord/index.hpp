// Sublinear decision-path indexes for the LANDLORD cache.
//
// Algorithm 1's hot path is executed once per submitted job, and the
// naive implementation is O(#images) per request twice over: the
// superset scan walks every cached image and eviction victim selection
// re-scans the whole map per evicted image. The paper's workload model
// (CVMFS-derived traces, §VI) is dominated by repeated and
// near-identical specs — exactly the regime where indexing and
// memoization pay off. Three structures, all guarded by
// CacheConfig::decision_index and all **bit-identical** to the scans
// they replace (docs/decision_index.md):
//
//  * Inverted postings index (package → image ids): any image containing
//    a spec must contain the spec's rarest package, so a superset lookup
//    exact-checks only that package's postings list instead of every
//    image. Per-package live refcounts pick the rarest; erasures leave
//    tombstones that are swept lazily during probes, so mutations stay
//    O(|contents|) and never touch other lists.
//
//  * Ordered eviction index: a std::set of EvictionKey ordered by
//    evict_before (a total order — every policy falls through to
//    last_used then id), so the global victim is begin() and each
//    last_used/hits touch re-keys one node in place, O(log n).
//
//  * Spec memo: fingerprint of the request bitset → last hit decision
//    and the spec's requested bytes, epoch-stamped. Any structural
//    mutation (insert/erase/contents rewrite — NOT recency touches,
//    which cannot change a superset answer) bumps the epoch and
//    invalidates every entry at once, so back-to-back identical specs
//    (the common HTC case) short-circuit to a hit without any probe or
//    byte sum. Entries keep a full copy of the key
//    set, so a fingerprint collision can never alias two specs.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "landlord/eviction.hpp"
#include "landlord/image.hpp"
#include "spec/package_set.hpp"
#include "util/checksum.hpp"

namespace landlord::core {

/// The fields a victim decision reads, snapshotted from an Image.
[[nodiscard]] inline EvictionKey eviction_key(const Image& image) noexcept {
  return EvictionKey{image.last_used, image.hits, image.bytes,
                     to_value(image.id)};
}

/// Telemetry for the postings + eviction index (never read on the
/// decision path; kept outside CacheCounters so indexed and scan runs
/// produce identical counter snapshots).
struct DecisionIndexStats {
  std::uint64_t postings_probes = 0;        ///< superset lookups served
  std::uint64_t postings_probe_entries = 0; ///< postings entries scanned
  std::uint64_t postings_compactions = 0;   ///< lazy list compactions
  std::uint64_t eviction_updates = 0;       ///< ordered-index mutations
  std::uint64_t postings_live = 0;   ///< live postings entries right now
  std::uint64_t postings_stale = 0;  ///< tombstones not yet swept
};

/// Per-image-map decision index: inverted postings for superset hits
/// plus the ordered eviction set, one per shard. Deliberately holds no
/// pointer to the image map; every query takes the map as a parameter and the two must be mutated in lockstep
/// — reconcile() verifies that against a from-scratch rebuild.
class DecisionIndex {
 public:
  using ImageMap = std::unordered_map<std::uint64_t, Image>;

  DecisionIndex(std::size_t universe, EvictionPolicy policy)
      : policy_(policy),
        postings_(universe),
        refcounts_(universe, 0),
        order_(KeyLess{policy}) {}

  /// Registers a new image: one postings entry per package, one
  /// eviction key. O(|contents| + log n).
  void insert(const Image& image);

  /// Unregisters an image by its *current* contents and key.
  void erase(const Image& image) {
    erase(image.contents.bits(), eviction_key(image));
  }
  /// Unregisters by explicit pre-mutation state — required when the
  /// image was rewritten (or moved away) before the index could see it.
  void erase(const util::DynamicBitset& old_bits, const EvictionKey& old_key);

  /// After a contents/bytes rewrite (merge, split remainder): word-diffs
  /// old vs new contents, adds/retires only the changed packages, and
  /// replaces the eviction key. O(|Δcontents| + log n).
  void update(const Image& image, const util::DynamicBitset& old_bits,
              const EvictionKey& old_key);

  /// Recency/hits touch: the eviction key moved but contents did not.
  void touch(const EvictionKey& old_key, const EvictionKey& new_key);

  /// The smallest-bytes (then lowest-id) image whose contents ⊇ `spec`,
  /// bit-identical to the full scan. Probes only the rarest spec
  /// package's postings list; `probe_len` (optional) receives the number
  /// of entries scanned. May lazily compact tombstoned lists. `spec`
  /// must be non-empty (an empty spec matches everything; callers scan).
  [[nodiscard]] std::optional<ImageId> find_superset(
      const spec::PackageSet& spec, const ImageMap& images,
      std::size_t* probe_len = nullptr);

  /// The eviction victim the full scan would pick: the evict_before
  /// minimum among images not stamped `now` (never evict the image just
  /// served). O(log n) amortized — at most two images carry the current
  /// stamp (a hit, plus a split remainder).
  [[nodiscard]] std::optional<EvictionKey> victim(std::uint64_t now) const;

  /// Sweeps every tombstoned postings list once tombstones outnumber
  /// live entries by more than 1024, so total entries stay below live
  /// + 1024. Safe only where `images` and the index agree: probes run
  /// it, and so does the end of every structural mutation, because
  /// below the scan cutover no probe runs at all.
  void sweep(const ImageMap& images);

  [[nodiscard]] DecisionIndexStats stats() const noexcept {
    DecisionIndexStats out = stats_;
    out.postings_live = live_entries_;
    out.postings_stale = stale_entries_;
    return out;
  }

  /// Cross-checks refcounts, postings contents, and the eviction order
  /// against a from-scratch rebuild of `images`. Returns a description
  /// of the first divergence, or nullopt when consistent. O(images ×
  /// |contents| + postings entries); for tests and chaos suites.
  [[nodiscard]] std::optional<std::string> reconcile(
      const ImageMap& images) const;

 private:
  struct KeyLess {
    EvictionPolicy policy;
    bool operator()(const EvictionKey& a, const EvictionKey& b) const noexcept {
      return evict_before(policy, a, b);
    }
  };

  void postings_add(std::size_t pkg, std::uint64_t id) {
    postings_[pkg].push_back(id);
    ++refcounts_[pkg];
    ++live_entries_;
  }
  void postings_remove(std::size_t pkg) {
    assert(refcounts_[pkg] > 0 && "postings refcount underflow");
    --refcounts_[pkg];
    --live_entries_;
    ++stale_entries_;  // the list entry stays behind as a tombstone
  }
  /// Drops dead/duplicate entries from one list. Safe only while the
  /// image map is consistent (probe time), never mid-erase.
  void compact_list(std::size_t pkg, const ImageMap& images);

  EvictionPolicy policy_;
  std::vector<std::vector<std::uint64_t>> postings_;  ///< package → image ids
  std::vector<std::uint32_t> refcounts_;  ///< live images containing pkg
  std::uint64_t live_entries_ = 0;        ///< Σ refcounts_
  std::uint64_t stale_entries_ = 0;       ///< tombstones not yet swept
  std::set<EvictionKey, KeyLess> order_;  ///< every image's current key
  DecisionIndexStats stats_;
};

/// Adds `by` to a counter whose writers all hold one mutex: a relaxed
/// load plus a store, no read-modify-write. Readers may load it without
/// that mutex.
template <typename T>
void add_locked(std::atomic<T>& counter, std::type_identity_t<T> by = 1) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

struct SpecMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t epoch = 0;  ///< structural mutations seen so far
};

/// Epoch-invalidated memo of recent superset decisions. Thread-safe:
/// epoch bumps are a relaxed atomic increment (writers already hold a
/// shard lock for the mutation itself); lookup/store take a private
/// mutex. An entry is served only when its stored epoch is current AND
/// its stored key equals the probe set bit for bit, so a memo hit is
/// exactly the answer a fresh scan would produce.
///
/// Storage is flat (docs/decision_index.md): an open-addressed slot
/// array, linear-probed by fingerprint and never more than half full,
/// holds each entry's fingerprint, epoch, decision and key size; one
/// word arena holds the key bits, entry after entry. A probe reads two
/// contiguous arrays and a warm store allocates nothing. There is one
/// slot per fingerprint, as in a map keyed by it: a colliding store
/// overwrites, and lookup compares the full key. Every key shares one
/// universe (the cache's); a store over another universe clears first.
class SpecMemo {
 public:
  explicit SpecMemo(std::size_t capacity = 1024)
      : capacity_(capacity),
        shift_(64 - static_cast<unsigned>(std::countr_zero(
                        std::bit_ceil(2 * std::max<std::size_t>(capacity, 1))))) {}

  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Structural cache mutation: every cached decision is now suspect.
  void bump() noexcept { epoch_.fetch_add(1, std::memory_order_relaxed); }

  struct Decision {
    ImageId image{};
    std::size_t shard = 0;
    /// The key's Specification::bytes. Exact whatever the epoch: it
    /// depends only on the key, compared word for word, and on the
    /// cache's repository, which never changes.
    util::Bytes requested_bytes = 0;
  };

  [[nodiscard]] std::optional<Decision> lookup(const spec::PackageSet& key);

  /// Records a hit decision made at `epoch`. Dropped when the epoch has
  /// already moved on (the decision may no longer hold). When full, the
  /// table is cleared wholesale — entries are epoch-gated anyway, so
  /// eviction sophistication buys nothing.
  void store(const spec::PackageSet& key, ImageId image, std::size_t shard,
             util::Bytes requested_bytes, std::uint64_t at_epoch);

  [[nodiscard]] SpecMemoStats stats() const {
    SpecMemoStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.stores = stores_.load(std::memory_order_relaxed);
    out.epoch = epoch();
    return out;
  }

 private:
  [[nodiscard]] static std::uint64_t fingerprint(
      const spec::PackageSet& key) noexcept {
    // Four independent FNV-1a lanes over interleaved words, folded at
    // the end. The single-chain version serialized ~word_count dependent
    // multiplies (the dominant cost of a memo probe at 151 words); four
    // chains give the CPU independent multiply streams. Collisions are
    // harmless — lookup() compares the full key — so the exact mixing
    // function is free to change.
    std::uint64_t h0 = util::kFnv1aOffset ^ static_cast<std::uint64_t>(key.size());
    std::uint64_t h1 = util::kFnv1aOffset ^ 0x9e3779b97f4a7c15ULL;
    std::uint64_t h2 = util::kFnv1aOffset ^ 0xc2b2ae3d27d4eb4fULL;
    std::uint64_t h3 = util::kFnv1aOffset ^ 0x165667b19e3779f9ULL;
    const auto& words = key.bits().words();
    const std::size_t n = words.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      h0 = (h0 ^ words[i]) * util::kFnv1aPrime;
      h1 = (h1 ^ words[i + 1]) * util::kFnv1aPrime;
      h2 = (h2 ^ words[i + 2]) * util::kFnv1aPrime;
      h3 = (h3 ^ words[i + 3]) * util::kFnv1aPrime;
    }
    for (; i < n; ++i) h0 = (h0 ^ words[i]) * util::kFnv1aPrime;
    std::uint64_t h = (h0 ^ (h1 >> 32 | h1 << 32)) * util::kFnv1aPrime;
    h = (h ^ (h2 >> 16 | h2 << 48)) * util::kFnv1aPrime;
    h = (h ^ (h3 >> 48 | h3 << 16)) * util::kFnv1aPrime;
    return h;
  }

  struct Slot {
    std::uint64_t fingerprint = 0;
    std::uint64_t epoch = 0;
    Decision decision;
    std::uint64_t key_size = 0;  ///< |key|: a one-compare pre-reject
    std::uint64_t key = 0;       ///< 1 + the key's block in keys_; 0 = empty
  };

  /// The slot holding `fp`, or the empty slot where it would go. Always
  /// terminates: at most capacity_ of the ≥ 2·capacity_ slots are used.
  [[nodiscard]] Slot& probe(std::uint64_t fp) noexcept;
  [[nodiscard]] bool same_key(const Slot& slot,
                              const spec::PackageSet& key) const noexcept;
  void clear() noexcept;

  std::size_t capacity_;
  unsigned shift_;  ///< home slot = fingerprint's top log2(slots) bits
  std::atomic<std::uint64_t> epoch_{0};
  // Written only under mutex_ (a load plus a store, no read-modify-
  // write); atomic so stats() may read them without it.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  mutable std::mutex mutex_;
  std::size_t used_ = 0;       ///< entries since the last clear
  std::size_t key_bits_ = 0;   ///< universe of every stored key
  std::vector<Slot> slots_;    ///< allocated at the first store
  std::vector<std::uint64_t> keys_;  ///< used_ keys, word_count words each
};

}  // namespace landlord::core
