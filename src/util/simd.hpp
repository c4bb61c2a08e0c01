// Vectorized set-operation kernels over 64-bit word arrays.
//
// Every decision the Landlord cache makes — superset hit detection,
// Jaccard merge-candidate selection, eviction ledger maintenance —
// bottoms out in word loops over util::DynamicBitset (~151 words for
// the 9,660-package universe). These kernels are that loop, lifted out
// so it can be runtime-dispatched between an AVX2 path (256-bit lanes,
// vpshufb nibble-LUT popcount) and a portable 4×-unrolled std::uint64_t
// path. Selection happens once, at first use:
//
//   * LANDLORD_NO_SIMD=1 in the environment forces the portable path
//     (the fallback the differential suite and tier1.sh pin against);
//   * otherwise AVX2 is used when the CPU reports it;
//   * non-x86 builds compile only the portable path.
//
// Both backends are exposed directly (portable_ops() / avx2_ops()) so
// tests/util/simd_test.cpp can differential-test them against each
// other and against naive per-word reference loops — the portable
// kernels double as the retained scalar oracle. All kernels are pure
// word arithmetic: for equal inputs the two backends return identical
// results bit for bit, so cache placements cannot depend on the
// backend. Predicate kernels (subset_of / intersects) keep the
// early-exit semantics of the original per-word loops at 4-word block
// granularity.
//
// Callers must pass arrays of equal word count; the kernels themselves
// never read past `n` words (universe-mismatch hard-fail lives one
// level up, in DynamicBitset).
#pragma once

#include <cstddef>
#include <cstdint>

namespace landlord::util::simd {

/// One backend's kernel set. All pointers are non-null.
struct SetOps {
  const char* name;  ///< "avx2" or "portable"

  /// True iff a ⊆ b, i.e. no word has a bit set outside b.
  bool (*subset_of)(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) noexcept;
  /// True iff a ∩ b is non-empty.
  bool (*intersects)(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n) noexcept;
  /// |a ∩ b| without materialising the intersection.
  std::size_t (*intersection_count)(const std::uint64_t* a,
                                    const std::uint64_t* b,
                                    std::size_t n) noexcept;
  /// |a ∪ b| without materialising the union.
  std::size_t (*union_count)(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) noexcept;
  /// Fused a |= b; returns |a| after the merge (one pass, not two).
  std::size_t (*or_assign_count)(std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) noexcept;
  /// Fused a &= ~b; returns |a| after the subtraction.
  std::size_t (*and_not_assign_count)(std::uint64_t* a, const std::uint64_t* b,
                                      std::size_t n) noexcept;
  /// Fused a &= b; returns |a| after the intersection.
  std::size_t (*and_assign_count)(std::uint64_t* a, const std::uint64_t* b,
                                  std::size_t n) noexcept;
  /// |a| — population count of the whole array.
  std::size_t (*popcount)(const std::uint64_t* a, std::size_t n) noexcept;
  /// Σ weights[i] over every set bit i of a — the requested bytes of a
  /// package set. `weights` holds 64·n entries (zero-padded past the
  /// universe); sums wrap modulo 2^64 identically on every backend.
  std::uint64_t (*weighted_sum)(const std::uint64_t* a,
                                const std::uint64_t* weights,
                                std::size_t n) noexcept;
};

/// The portable 4×-unrolled scalar backend (always available; the
/// retained oracle every vector path is differential-tested against).
[[nodiscard]] const SetOps& portable_ops() noexcept;

/// The AVX2 backend, or nullptr when the build target or CPU lacks it.
[[nodiscard]] const SetOps* avx2_ops() noexcept;

/// The backend every DynamicBitset operation routes through: chosen
/// once at first call (LANDLORD_NO_SIMD=1 forces portable, otherwise
/// the best the CPU supports) and never changes afterwards.
[[nodiscard]] const SetOps& active_ops() noexcept;

}  // namespace landlord::util::simd
