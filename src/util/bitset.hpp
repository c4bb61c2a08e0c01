// Dense dynamic bitset sized at construction.
//
// This is the workhorse of the whole reproduction: container
// specifications and cached images are sets over a fixed package universe
// (9,660 packages in the SFT-like repository), so subset tests, unions,
// intersections and Jaccard distances all reduce to a few hundred 64-bit
// word operations. The word loops themselves live in util::simd — an
// AVX2 path and a 4×-unrolled portable fallback, runtime-dispatched once
// per process (LANDLORD_NO_SIMD=1 forces the fallback) and bit-identical
// by construction and by differential test (tests/util/simd_test.cpp).
//
// Cross-universe binary operations are a hard error in EVERY build mode:
// the word counts differ, so the old assert-only guard meant a release
// build (the one the benches and the serve plane actually run) would
// silently read out of bounds — and SIMD widens any such read to 32
// bytes. The check is one integer compare per call; the failure path is
// cold, [[noreturn]], and aborts with both sizes in the message.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "util/simd.hpp"

namespace landlord::util {

namespace detail {
/// Cold failure path for mismatched-universe bitset operations; prints
/// both sizes to stderr and aborts (defined in bitset.cpp).
[[noreturn]] void universe_mismatch(const char* op, std::size_t lhs_bits,
                                    std::size_t rhs_bits) noexcept;
}  // namespace detail

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// All-zero bitset over a universe of `bits` elements.
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }

  void set(std::size_t i) noexcept {
    assert(i < bits_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void reset(std::size_t i) noexcept {
    assert(i < bits_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  /// Sets the bit of every id in `ids` (any integer or enum type; any
  /// order, repeats allowed). A per-id set on a sorted list is one
  /// store-to-load chain through each word; ORing from four interleaved
  /// quarters of the list keeps four independent chains in flight.
  template <typename Id>
  void set_all(std::span<const Id> ids) noexcept {
    std::uint64_t* const w = words_.data();
    const Id* const q = ids.data();
    const std::size_t quarter = ids.size() / 4;
    for (std::size_t k = 0; k < quarter; ++k) {
      or_bit(w, q[k]);
      or_bit(w, q[quarter + k]);
      or_bit(w, q[2 * quarter + k]);
      or_bit(w, q[3 * quarter + k]);
    }
    for (std::size_t k = 4 * quarter; k < ids.size(); ++k) or_bit(w, q[k]);
  }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    assert(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    return simd::active_ops().popcount(words_.data(), words_.size());
  }

  [[nodiscard]] bool none() const noexcept {
    for (std::uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  /// In-place union; operands must share a universe size.
  DynamicBitset& operator|=(const DynamicBitset& other) noexcept {
    check_universe("operator|=", other);
    (void)simd::active_ops().or_assign_count(words_.data(), other.words_.data(),
                                             words_.size());
    return *this;
  }

  /// In-place union, returning the resulting cardinality — one fused
  /// pass instead of |= followed by count().
  std::size_t or_assign_count(const DynamicBitset& other) noexcept {
    check_universe("or_assign_count", other);
    return simd::active_ops().or_assign_count(words_.data(),
                                              other.words_.data(),
                                              words_.size());
  }

  /// In-place intersection.
  DynamicBitset& operator&=(const DynamicBitset& other) noexcept {
    check_universe("operator&=", other);
    (void)simd::active_ops().and_assign_count(words_.data(),
                                              other.words_.data(),
                                              words_.size());
    return *this;
  }

  /// In-place intersection, returning the resulting cardinality.
  std::size_t and_assign_count(const DynamicBitset& other) noexcept {
    check_universe("and_assign_count", other);
    return simd::active_ops().and_assign_count(words_.data(),
                                               other.words_.data(),
                                               words_.size());
  }

  /// In-place difference (this \ other).
  DynamicBitset& operator-=(const DynamicBitset& other) noexcept {
    check_universe("operator-=", other);
    (void)simd::active_ops().and_not_assign_count(words_.data(),
                                                  other.words_.data(),
                                                  words_.size());
    return *this;
  }

  /// In-place difference, returning the resulting cardinality.
  std::size_t and_not_assign_count(const DynamicBitset& other) noexcept {
    check_universe("and_not_assign_count", other);
    return simd::active_ops().and_not_assign_count(words_.data(),
                                                   other.words_.data(),
                                                   words_.size());
  }

  [[nodiscard]] bool operator==(const DynamicBitset& other) const noexcept = default;

  /// |this ∩ other| without materialising the intersection.
  [[nodiscard]] std::size_t intersection_count(const DynamicBitset& other) const noexcept {
    check_universe("intersection_count", other);
    return simd::active_ops().intersection_count(
        words_.data(), other.words_.data(), words_.size());
  }

  /// |this ∪ other| without materialising the union.
  [[nodiscard]] std::size_t union_count(const DynamicBitset& other) const noexcept {
    check_universe("union_count", other);
    return simd::active_ops().union_count(words_.data(), other.words_.data(),
                                          words_.size());
  }

  /// True iff every element of *this is in `other` (early exit per block).
  [[nodiscard]] bool is_subset_of(const DynamicBitset& other) const noexcept {
    check_universe("is_subset_of", other);
    return simd::active_ops().subset_of(words_.data(), other.words_.data(),
                                        words_.size());
  }

  [[nodiscard]] bool intersects(const DynamicBitset& other) const noexcept {
    check_universe("intersects", other);
    return simd::active_ops().intersects(words_.data(), other.words_.data(),
                                         words_.size());
  }

  /// Calls fn(index) for every set bit, in increasing index order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(w));
        fn(wi * 64 + bit);
        w &= w - 1;
      }
    }
  }

  [[nodiscard]] std::vector<std::uint32_t> to_indices() const {
    std::vector<std::uint32_t> out;
    out.reserve(count());
    for_each_set([&out](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
    return out;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }

 private:
  template <typename Id>
  void or_bit(std::uint64_t* words, Id id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    assert(i < bits_);
    words[i >> 6] |= 1ULL << (i & 63);
  }

  void check_universe(const char* op, const DynamicBitset& other) const noexcept {
    if (bits_ != other.bits_) [[unlikely]] {
      detail::universe_mismatch(op, bits_, other.bits_);
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace landlord::util
