#include "serve/id_list_memo.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace landlord::serve {
namespace {

constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kSlots = 2 * kIdListMemoCapacity;
/// Home slot = the hash's top log2(kSlots) bits.
constexpr unsigned kShift = 64 - std::countr_zero(kSlots);

std::uint64_t load64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t load32(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

IdListMemo::IdListMemo(std::uint64_t seed) : seed_(seed) {}

std::uint64_t IdListMemo::hash(std::string_view ids) const noexcept {
  // Four independent multiply chains over interleaved words, folded at
  // the end, as core::SpecMemo's fingerprint: a ~700-byte list costs ~22
  // dependent multiplies per chain instead of ~90 in one.
  const char* p = ids.data();
  std::size_t n = ids.size();
  std::uint64_t h0 = seed_ ^ n;
  std::uint64_t h1 = std::rotl(seed_, 16) ^ 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t h2 = std::rotl(seed_, 32) ^ 0x165667b19e3779f9ULL;
  std::uint64_t h3 = std::rotl(seed_, 48) ^ 0x27d4eb2f165667c5ULL;
  for (; n >= 32; n -= 32, p += 32) {
    h0 = (h0 ^ load64(p)) * kMul;
    h1 = (h1 ^ load64(p + 8)) * kMul;
    h2 = (h2 ^ load64(p + 16)) * kMul;
    h3 = (h3 ^ load64(p + 24)) * kMul;
  }
  for (; n >= 8; n -= 8, p += 8) h0 = (h0 ^ load64(p)) * kMul;
  if (n >= 4) h1 = (h1 ^ load32(p)) * kMul;
  // A multiply only carries bits upwards; the rotations and the final
  // xor-shift bring every lane's high bits down before the last multiply
  // lifts them into the top bits the home slot is taken from.
  std::uint64_t h = h0 ^ std::rotl(h1, 16) ^ std::rotl(h2, 32) ^ std::rotl(h3, 48);
  h = (h ^ (h >> 32)) * kMul;
  return h ^ (h >> 29);
}

std::size_t IdListMemo::probe(std::uint64_t hash) const noexcept {
  for (std::size_t i = static_cast<std::size_t>(hash >> kShift);;
       i = (i + 1) & (kSlots - 1)) {
    const Slot& slot = slots_[i];
    if (slot.entry == 0 || slot.hash == hash) return i;
  }
}

bool IdListMemo::holds(const Entry& entry, std::string_view ids) const noexcept {
  return entry.ids_size == ids.size() &&
         (ids.empty() ||
          std::memcmp(ids_.data() + entry.ids_at, ids.data(), ids.size()) == 0);
}

void IdListMemo::clear() noexcept {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  ids_.clear();
  used_ = 0;
  bytes_ = 0;
  ++clears_;
}

const spec::PackageSet* IdListMemo::Reader::find(
    std::string_view ids, std::uint64_t hash) const noexcept {
  if (memo_.slots_.empty() || universe_ != memo_.universe_) return nullptr;
  const Slot& slot = memo_.slots_[memo_.probe(hash)];
  if (slot.entry == 0) return nullptr;
  const Entry& entry = memo_.entries_[slot.entry - 1];
  return memo_.holds(entry, ids) ? &entry.set : nullptr;
}

void IdListMemo::insert(std::size_t universe, std::span<const Insert> lists) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (slots_.empty()) {
    slots_.resize(kSlots);
    entries_.reserve(kIdListMemoCapacity);
  }
  if (universe != universe_) {
    if (used_ > 0) clear();
    entries_.clear();  // kept sets are sized for the old universe
    universe_ = universe;
  }
  for (const Insert& list : lists) {
    const std::size_t need =
        list.ids.size() + list.set->bits().word_count() * sizeof(std::uint64_t);
    if (need > kIdListMemoBudgetBytes) continue;  // would not fit even alone
    std::size_t i = probe(list.hash);
    // Taken: another reader or an earlier spec of this frame stored these
    // bytes, or other bytes share the hash. One entry per hash, so a
    // colliding list is not stored and stays a miss (find compares the
    // bytes); with a seeded 64-bit hash that is practically never.
    if (slots_[i].entry != 0) continue;
    if (used_ >= kIdListMemoCapacity || bytes_ + need > kIdListMemoBudgetBytes) {
      clear();
      i = probe(list.hash);
    }
    // The arena doubles, capped at the budget it can never pass. It is
    // not reserved at the budget up front: on a 1500-package universe
    // that one allocation slowed the builder's chunk table by ~10% on
    // headbench churn, where the memo needs ~0.45 MiB.
    const std::size_t size = ids_.size() + list.ids.size();
    if (size > ids_.capacity()) {
      ids_.reserve(
          std::min(kIdListMemoBudgetBytes, std::max(size, 2 * ids_.capacity())));
    }
    if (used_ == entries_.size()) entries_.emplace_back();
    Entry& entry = entries_[used_++];
    entry.ids_at = ids_.size();
    entry.ids_size = list.ids.size();
    ids_.insert(ids_.end(), list.ids.begin(), list.ids.end());
    entry.set = *list.set;  // a kept set's words are reused in place
    slots_[i] = Slot{list.hash, static_cast<std::uint32_t>(used_)};
    bytes_ += need;
  }
}

IdListMemo::Stats IdListMemo::stats() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return Stats{used_, bytes_, clears_};
}

}  // namespace landlord::serve
