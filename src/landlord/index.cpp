#include "landlord/index.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace landlord::core {

namespace {

/// Calls fn(bit index) for every set bit of `word`.
template <typename Fn>
void for_each_bit(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word != 0) {
    fn(base + static_cast<std::size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

}  // namespace

void DecisionIndex::insert(const Image& image) {
  image.contents.bits().for_each_set(
      [&](std::size_t i) { postings_add(i, to_value(image.id)); });
  const bool inserted = order_.insert(eviction_key(image)).second;
  assert(inserted && "duplicate eviction key");
  (void)inserted;
  ++stats_.eviction_updates;
}

void DecisionIndex::erase(const util::DynamicBitset& old_bits,
                          const EvictionKey& old_key) {
  old_bits.for_each_set([&](std::size_t i) { postings_remove(i); });
  const auto erased = order_.erase(old_key);
  assert(erased == 1 && "eviction key not indexed");
  (void)erased;
  ++stats_.eviction_updates;
}

void DecisionIndex::update(const Image& image,
                           const util::DynamicBitset& old_bits,
                           const EvictionKey& old_key) {
  // Word-level diff: add packages that entered the contents, tombstone
  // those that left. Unchanged packages (the vast majority of a merge)
  // cost nothing.
  const auto& ow = old_bits.words();
  const auto& nw = image.contents.bits().words();
  assert(ow.size() == nw.size());
  const std::uint64_t id = to_value(image.id);
  for (std::size_t wi = 0; wi < nw.size(); ++wi) {
    if (ow[wi] == nw[wi]) continue;
    for_each_bit(nw[wi] & ~ow[wi], wi * 64,
                 [&](std::size_t i) { postings_add(i, id); });
    for_each_bit(ow[wi] & ~nw[wi], wi * 64,
                 [&](std::size_t i) { postings_remove(i); });
  }
  touch(old_key, eviction_key(image));
}

void DecisionIndex::touch(const EvictionKey& old_key,
                          const EvictionKey& new_key) {
  // Re-key the node in place: no free/malloc. Under LRU a touched key
  // carries the newest stamp and so orders last, which makes the end()
  // hint exact and the insert O(1); other policies pay the O(log n)
  // search a wrong hint falls back to.
  auto node = order_.extract(old_key);
  assert(!node.empty() && "eviction key not indexed");
  if (node.empty()) [[unlikely]] {
    order_.insert(new_key);  // what erase + insert would leave behind
  } else {
    node.value() = new_key;
    order_.insert(order_.end(), std::move(node));
    assert(node.empty() && "duplicate eviction key");
  }
  ++stats_.eviction_updates;
}

void DecisionIndex::compact_list(std::size_t pkg, const ImageMap& images) {
  auto& list = postings_[pkg];
  const std::size_t before = list.size();
  std::erase_if(list, [&](std::uint64_t id) {
    const auto it = images.find(id);
    return it == images.end() || !it->second.contents.bits().test(pkg);
  });
  // A re-merged package can appear twice for one live image (tombstone +
  // fresh entry); the probe's min-selection is idempotent over
  // duplicates, but they must be dropped here so the stale accounting
  // stays exact: every removed entry corresponds to one past remove.
  // Live entries number at least refcounts_[pkg], so only a longer list
  // can hold a duplicate; the sort is skipped otherwise.
  if (list.size() > refcounts_[pkg]) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  assert(list.size() == refcounts_[pkg] && "postings/refcount drift");
  stale_entries_ -= before - list.size();
  ++stats_.postings_compactions;
}

void DecisionIndex::sweep(const ImageMap& images) {
  if (stale_entries_ <= live_entries_ + 1024) return;
  for (std::size_t p = 0; p < postings_.size(); ++p) {
    if (postings_[p].size() > refcounts_[p]) compact_list(p, images);
  }
}

std::optional<ImageId> DecisionIndex::find_superset(
    const spec::PackageSet& spec, const ImageMap& images,
    std::size_t* probe_len) {
  assert(!spec.empty() && "empty specs match everything; caller must scan");
  ++stats_.postings_probes;

  // Any superset of the spec contains every spec package, so the rarest
  // one has the shortest candidate list that is still guaranteed to
  // cover all supersets.
  std::size_t rarest = 0;
  std::uint32_t rarest_refs = std::numeric_limits<std::uint32_t>::max();
  spec.bits().for_each_set([&](std::size_t i) {
    if (refcounts_[i] < rarest_refs) {
      rarest_refs = refcounts_[i];
      rarest = i;
    }
  });
  if (probe_len != nullptr) *probe_len = 0;
  if (rarest_refs == 0) return std::nullopt;  // no image holds this package

  // Lazy hygiene, amortized against probes: rebuild a list drowning in
  // tombstones, and sweep everything when global staleness dominates.
  sweep(images);
  auto& list = postings_[rarest];
  if (list.size() > 2 * static_cast<std::size_t>(rarest_refs) + 8) {
    compact_list(rarest, images);
  }

  const Image* best = nullptr;
  for (const std::uint64_t id : list) {
    const auto it = images.find(id);
    if (it == images.end()) continue;  // tombstone: image evicted
    const Image& image = it->second;
    // Stale entry: the package left this image (split remainder).
    if (!image.contents.bits().test(rarest)) continue;
    if (!spec.is_subset_of(image.contents)) continue;
    if (best == nullptr || image.bytes < best->bytes ||
        (image.bytes == best->bytes &&
         to_value(image.id) < to_value(best->id))) {
      best = &image;
    }
  }
  stats_.postings_probe_entries += list.size();
  if (probe_len != nullptr) *probe_len = list.size();
  if (best == nullptr) return std::nullopt;
  return best->id;
}

std::optional<EvictionKey> DecisionIndex::victim(std::uint64_t now) const {
  // begin() is the evict_before minimum; at most two images carry the
  // current stamp (the image just served, plus a split remainder), so
  // the skip loop is O(1) amortized.
  for (const EvictionKey& key : order_) {
    if (key.last_used == now) continue;
    return key;
  }
  return std::nullopt;
}

std::optional<std::string> DecisionIndex::reconcile(
    const ImageMap& images) const {
  // From-scratch truth: per-package live refcounts and eviction keys.
  std::vector<std::uint32_t> truth(refcounts_.size(), 0);
  for (const auto& [id, image] : images) {
    image.contents.bits().for_each_set([&](std::size_t i) { ++truth[i]; });
    if (order_.find(eviction_key(image)) == order_.end()) {
      return "eviction order lost image " + std::to_string(id);
    }
  }
  if (order_.size() != images.size()) {
    return "eviction order holds " + std::to_string(order_.size()) +
           " keys for " + std::to_string(images.size()) + " images";
  }
  for (std::size_t p = 0; p < truth.size(); ++p) {
    if (truth[p] != refcounts_[p]) {
      return "package " + std::to_string(p) + " refcount " +
             std::to_string(refcounts_[p]) + " != rebuilt " +
             std::to_string(truth[p]);
    }
    // Distinct live entries in the list must match the refcount; with
    // the counts equal, that proves every live (package, image) pair is
    // present — a probe can never miss a superset.
    std::vector<std::uint64_t> live;
    for (const std::uint64_t id : postings_[p]) {
      const auto it = images.find(id);
      if (it != images.end() && it->second.contents.bits().test(p)) {
        live.push_back(id);
      }
    }
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    if (live.size() != refcounts_[p]) {
      return "package " + std::to_string(p) + " postings list has " +
             std::to_string(live.size()) + " live entries, refcount says " +
             std::to_string(refcounts_[p]);
    }
  }
  return std::nullopt;
}

SpecMemo::Slot& SpecMemo::probe(std::uint64_t fp) noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = static_cast<std::size_t>(fp >> shift_);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.key == 0 || slot.fingerprint == fp) return slot;
  }
}

bool SpecMemo::same_key(const Slot& slot,
                        const spec::PackageSet& key) const noexcept {
  if (slot.key_size != key.size() || key.universe() != key_bits_) return false;
  const auto& words = key.bits().words();
  return std::equal(words.begin(), words.end(),
                    keys_.begin() + static_cast<std::ptrdiff_t>(
                                        (slot.key - 1) * words.size()));
}

void SpecMemo::clear() noexcept {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  keys_.clear();
  used_ = 0;
}

std::optional<SpecMemo::Decision> SpecMemo::lookup(
    const spec::PackageSet& key) {
  const std::uint64_t now = epoch();
  const std::uint64_t fp = fingerprint(key);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!slots_.empty()) {
    const Slot& slot = probe(fp);
    if (slot.key != 0 && slot.epoch == now && same_key(slot, key)) {
      add_locked(hits_);
      return slot.decision;
    }
  }
  add_locked(misses_);
  return std::nullopt;
}

void SpecMemo::store(const spec::PackageSet& key, ImageId image,
                     std::size_t shard, util::Bytes requested_bytes,
                     std::uint64_t at_epoch) {
  if (at_epoch != epoch()) return;  // the world moved on mid-decision
  const std::uint64_t fp = fingerprint(key);
  const auto& words = key.bits().words();
  std::lock_guard<std::mutex> lock(mutex_);
  if (slots_.empty()) slots_.resize(std::size_t{1} << (64 - shift_));
  if (key.universe() != key_bits_) {
    clear();
    key_bits_ = key.universe();
  }
  Slot* slot = &probe(fp);
  if (slot->key == 0) {
    if (used_ >= capacity_) {
      clear();
      slot = &probe(fp);
    }
    slot->fingerprint = fp;
    slot->key = ++used_;
    keys_.resize(used_ * words.size());
  }
  slot->epoch = at_epoch;
  slot->decision = Decision{image, shard, requested_bytes};
  slot->key_size = key.size();
  std::copy(words.begin(), words.end(),
            keys_.begin() + static_cast<std::ptrdiff_t>((slot->key - 1) * words.size()));
  add_locked(stores_);
}

}  // namespace landlord::core
