// PackageSet: a set of packages over a fixed repository universe.
//
// Wraps util::DynamicBitset with a cached cardinality so the hot cache
// operations — subset test (hit detection) and Jaccard distance (merge
// candidate selection) — cost one fused pass over ~N/64 words, using
// |A ∪ B| = |A| + |B| - |A ∩ B| to avoid a second pass.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "pkg/package.hpp"
#include "util/bitset.hpp"

namespace landlord::spec {

class PackageSet {
 public:
  PackageSet() = default;

  /// Empty set over a universe of `universe` packages.
  explicit PackageSet(std::size_t universe) : bits_(universe), count_(0) {}

  /// Adopts a bitset (e.g. a dependency closure from pkg::Repository).
  explicit PackageSet(util::DynamicBitset bits)
      : bits_(std::move(bits)), count_(bits_.count()) {}

  /// The set of `ids` (any order, repeats allowed): one bulk bit set,
  /// then one popcount, so the size is exact however the ids arrive.
  [[nodiscard]] static PackageSet from_ids(std::size_t universe,
                                           std::span<const pkg::PackageId> ids) {
    util::DynamicBitset bits(universe);
    bits.set_all(ids);
    return PackageSet(std::move(bits));
  }

  [[nodiscard]] std::size_t universe() const noexcept { return bits_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] bool contains(pkg::PackageId id) const noexcept {
    return bits_.test(pkg::to_index(id));
  }

  void insert(pkg::PackageId id) noexcept {
    const auto i = pkg::to_index(id);
    if (!bits_.test(i)) {
      bits_.set(i);
      ++count_;
    }
  }

  void erase(pkg::PackageId id) noexcept {
    const auto i = pkg::to_index(id);
    if (bits_.test(i)) {
      bits_.reset(i);
      --count_;
    }
  }

  /// In-place union; operands must share a universe. The fused kernel
  /// returns the new cardinality, so no second count() pass is needed.
  void merge(const PackageSet& other) noexcept {
    count_ = bits_.or_assign_count(other.bits_);
  }

  /// In-place difference (this \ other).
  void subtract(const PackageSet& other) noexcept {
    count_ = bits_.and_not_assign_count(other.bits_);
  }

  [[nodiscard]] bool operator==(const PackageSet& other) const noexcept {
    return count_ == other.count_ && bits_ == other.bits_;
  }

  /// True iff this ⊆ other.
  [[nodiscard]] bool is_subset_of(const PackageSet& other) const noexcept {
    if (count_ > other.count_) return false;  // cheap pre-reject
    return bits_.is_subset_of(other.bits_);
  }

  [[nodiscard]] std::size_t intersection_size(const PackageSet& other) const noexcept {
    return bits_.intersection_count(other.bits_);
  }

  [[nodiscard]] std::size_t union_size(const PackageSet& other) const noexcept {
    return count_ + other.count_ - intersection_size(other);
  }

  /// Set union as a new value.
  [[nodiscard]] PackageSet unioned_with(const PackageSet& other) const {
    PackageSet out = *this;
    out.merge(other);
    return out;
  }

  /// Member ids in increasing order.
  [[nodiscard]] std::vector<pkg::PackageId> to_ids() const {
    std::vector<pkg::PackageId> out;
    out.reserve(count_);
    bits_.for_each_set([&out](std::size_t i) {
      out.push_back(pkg::package_id(static_cast<std::uint32_t>(i)));
    });
    return out;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    bits_.for_each_set([&fn](std::size_t i) {
      fn(pkg::package_id(static_cast<std::uint32_t>(i)));
    });
  }

  [[nodiscard]] const util::DynamicBitset& bits() const noexcept { return bits_; }

 private:
  util::DynamicBitset bits_;
  std::size_t count_ = 0;
};

}  // namespace landlord::spec
