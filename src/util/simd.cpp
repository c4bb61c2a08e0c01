#include "util/simd.hpp"

#include <bit>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__)
#define LANDLORD_SIMD_X86 1
#include <immintrin.h>
#else
#define LANDLORD_SIMD_X86 0
#endif

namespace landlord::util::simd {

namespace {

// ---------------------------------------------------------------------------
// Portable backend: 4×-unrolled word loops. The unroll gives the
// compiler independent accumulator chains (popcount latency no longer
// serialises the loop) while staying bit-exact with the naive per-word
// reference — these are pure boolean/popcount identities.
// ---------------------------------------------------------------------------

inline std::size_t pc(std::uint64_t w) noexcept {
  return static_cast<std::size_t>(std::popcount(w));
}

bool portable_subset_of(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t stray = (a[i] & ~b[i]) | (a[i + 1] & ~b[i + 1]) |
                                (a[i + 2] & ~b[i + 2]) | (a[i + 3] & ~b[i + 3]);
    if (stray != 0) return false;  // early exit per 4-word block
  }
  for (; i < n; ++i) {
    if (a[i] & ~b[i]) return false;
  }
  return true;
}

bool portable_intersects(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t any = (a[i] & b[i]) | (a[i + 1] & b[i + 1]) |
                              (a[i + 2] & b[i + 2]) | (a[i + 3] & b[i + 3]);
    if (any != 0) return true;
  }
  for (; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

std::size_t portable_intersection_count(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::size_t n) noexcept {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += pc(a[i] & b[i]);
    c1 += pc(a[i + 1] & b[i + 1]);
    c2 += pc(a[i + 2] & b[i + 2]);
    c3 += pc(a[i + 3] & b[i + 3]);
  }
  for (; i < n; ++i) c0 += pc(a[i] & b[i]);
  return c0 + c1 + c2 + c3;
}

std::size_t portable_union_count(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) noexcept {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += pc(a[i] | b[i]);
    c1 += pc(a[i + 1] | b[i + 1]);
    c2 += pc(a[i + 2] | b[i + 2]);
    c3 += pc(a[i + 3] | b[i + 3]);
  }
  for (; i < n; ++i) c0 += pc(a[i] | b[i]);
  return c0 + c1 + c2 + c3;
}

std::size_t portable_or_assign_count(std::uint64_t* a, const std::uint64_t* b,
                                     std::size_t n) noexcept {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += pc(a[i] |= b[i]);
    c1 += pc(a[i + 1] |= b[i + 1]);
    c2 += pc(a[i + 2] |= b[i + 2]);
    c3 += pc(a[i + 3] |= b[i + 3]);
  }
  for (; i < n; ++i) c0 += pc(a[i] |= b[i]);
  return c0 + c1 + c2 + c3;
}

std::size_t portable_and_not_assign_count(std::uint64_t* a,
                                          const std::uint64_t* b,
                                          std::size_t n) noexcept {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += pc(a[i] &= ~b[i]);
    c1 += pc(a[i + 1] &= ~b[i + 1]);
    c2 += pc(a[i + 2] &= ~b[i + 2]);
    c3 += pc(a[i + 3] &= ~b[i + 3]);
  }
  for (; i < n; ++i) c0 += pc(a[i] &= ~b[i]);
  return c0 + c1 + c2 + c3;
}

std::size_t portable_and_assign_count(std::uint64_t* a, const std::uint64_t* b,
                                      std::size_t n) noexcept {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += pc(a[i] &= b[i]);
    c1 += pc(a[i + 1] &= b[i + 1]);
    c2 += pc(a[i + 2] &= b[i + 2]);
    c3 += pc(a[i + 3] &= b[i + 3]);
  }
  for (; i < n; ++i) c0 += pc(a[i] &= b[i]);
  return c0 + c1 + c2 + c3;
}

std::size_t portable_popcount(const std::uint64_t* a, std::size_t n) noexcept {
  std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += pc(a[i]);
    c1 += pc(a[i + 1]);
    c2 += pc(a[i + 2]);
    c3 += pc(a[i + 3]);
  }
  for (; i < n; ++i) c0 += pc(a[i]);
  return c0 + c1 + c2 + c3;
}

std::uint64_t portable_weighted_sum(const std::uint64_t* a,
                                    const std::uint64_t* weights,
                                    std::size_t n) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint64_t w = a[i]; w != 0; w &= w - 1) {
      total += weights[i * 64 + static_cast<std::size_t>(std::countr_zero(w))];
    }
  }
  return total;
}

constexpr SetOps kPortableOps = {
    "portable",
    portable_subset_of,
    portable_intersects,
    portable_intersection_count,
    portable_union_count,
    portable_or_assign_count,
    portable_and_not_assign_count,
    portable_and_assign_count,
    portable_popcount,
    portable_weighted_sum,
};

#if LANDLORD_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 backend. Compiled via per-function target attributes so the rest
// of the binary stays baseline-x86-64 and the choice is purely runtime
// (__builtin_cpu_supports). Counting kernels use the classic vpshufb
// nibble-LUT popcount (Muła): per 256-bit vector, split each byte into
// nibbles, look both up in a 16-entry bit-count table, then vpsadbw
// accumulates byte counts into four 64-bit lanes. Lane sums stay far
// below overflow for any realistic word count (≤ 32 per byte-lane per
// vector, summed over n/4 iterations in 64-bit lanes).
// ---------------------------------------------------------------------------

#define LANDLORD_AVX2 __attribute__((target("avx2,popcnt")))

/// Per-64-bit-lane population count of `v` (four u64 partial counts).
LANDLORD_AVX2 inline __m256i popcount_lanes(__m256i v) noexcept {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/// Horizontal sum of four u64 lanes.
LANDLORD_AVX2 inline std::size_t hsum_lanes(__m256i acc) noexcept {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(
      static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
      static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1)));
}

LANDLORD_AVX2 bool avx2_subset_of(const std::uint64_t* a,
                                  const std::uint64_t* b,
                                  std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // vptest: ZF set iff (va & ~vb) == 0 — one instruction, early exit
    // per 256-bit block, same contract as the scalar per-word loop.
    if (!_mm256_testc_si256(vb, va)) return false;
  }
  for (; i < n; ++i) {
    if (a[i] & ~b[i]) return false;
  }
  return true;
}

LANDLORD_AVX2 bool avx2_intersects(const std::uint64_t* a,
                                   const std::uint64_t* b,
                                   std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  for (; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

LANDLORD_AVX2 std::size_t avx2_intersection_count(const std::uint64_t* a,
                                                  const std::uint64_t* b,
                                                  std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, popcount_lanes(_mm256_and_si256(va, vb)));
  }
  std::size_t total = hsum_lanes(acc);
  for (; i < n; ++i) total += pc(a[i] & b[i]);
  return total;
}

LANDLORD_AVX2 std::size_t avx2_union_count(const std::uint64_t* a,
                                           const std::uint64_t* b,
                                           std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, popcount_lanes(_mm256_or_si256(va, vb)));
  }
  std::size_t total = hsum_lanes(acc);
  for (; i < n; ++i) total += pc(a[i] | b[i]);
  return total;
}

LANDLORD_AVX2 std::size_t avx2_or_assign_count(std::uint64_t* a,
                                               const std::uint64_t* b,
                                               std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i merged = _mm256_or_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i), merged);
    acc = _mm256_add_epi64(acc, popcount_lanes(merged));
  }
  std::size_t total = hsum_lanes(acc);
  for (; i < n; ++i) total += pc(a[i] |= b[i]);
  return total;
}

LANDLORD_AVX2 std::size_t avx2_and_not_assign_count(std::uint64_t* a,
                                                    const std::uint64_t* b,
                                                    std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // vpandn computes ~first & second, so the operand order is (b, a).
    const __m256i diff = _mm256_andnot_si256(vb, va);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i), diff);
    acc = _mm256_add_epi64(acc, popcount_lanes(diff));
  }
  std::size_t total = hsum_lanes(acc);
  for (; i < n; ++i) total += pc(a[i] &= ~b[i]);
  return total;
}

LANDLORD_AVX2 std::size_t avx2_and_assign_count(std::uint64_t* a,
                                                const std::uint64_t* b,
                                                std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i inter = _mm256_and_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i), inter);
    acc = _mm256_add_epi64(acc, popcount_lanes(inter));
  }
  std::size_t total = hsum_lanes(acc);
  for (; i < n; ++i) total += pc(a[i] &= b[i]);
  return total;
}

LANDLORD_AVX2 std::size_t avx2_popcount(const std::uint64_t* a,
                                        std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, popcount_lanes(va));
  }
  std::size_t total = hsum_lanes(acc);
  for (; i < n; ++i) total += pc(a[i]);
  return total;
}

// Σ weights over set bits. A sparse word takes the set-bit loop: a few
// adds. A word with more than kDenseBits set bits takes 16 branch-free
// nibble steps whatever its popcount: lane j of `x` holds the word
// shifted so that bit 4k+j sits in the sign bit, the sign compare turns
// that into an all-ones/zero lane mask, and the mask ANDs four weights
// into the lane sums. Closures are dense in their low (base-package)
// words and sparse above, so both paths carry real traffic.
LANDLORD_AVX2 std::uint64_t avx2_weighted_sum(const std::uint64_t* a,
                                              const std::uint64_t* weights,
                                              std::size_t n) noexcept {
  constexpr int kDenseBits = 8;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i top_nibble = _mm256_setr_epi64x(3, 2, 1, 0);
  __m256i acc0 = zero;
  __m256i acc1 = zero;
  std::uint64_t sparse = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t word = a[i];
    const std::uint64_t* w = weights + 64 * i;
    if (std::popcount(word) <= kDenseBits) {
      for (; word != 0; word &= word - 1) {
        sparse += w[static_cast<std::size_t>(std::countr_zero(word))];
      }
      continue;
    }
    // Nibble 15 first (lane j: bit 60 + j in the sign), then down by 4.
    __m256i x = _mm256_sllv_epi64(
        _mm256_set1_epi64x(static_cast<long long>(word)), top_nibble);
    const auto* lanes = reinterpret_cast<const __m256i*>(w);
    for (int k = 15; k > 0; k -= 2) {
      acc0 = _mm256_add_epi64(
          acc0, _mm256_and_si256(_mm256_cmpgt_epi64(zero, x),
                                 _mm256_loadu_si256(lanes + k)));
      x = _mm256_slli_epi64(x, 4);
      acc1 = _mm256_add_epi64(
          acc1, _mm256_and_si256(_mm256_cmpgt_epi64(zero, x),
                                 _mm256_loadu_si256(lanes + k - 1)));
      x = _mm256_slli_epi64(x, 4);
    }
  }
  return sparse + hsum_lanes(_mm256_add_epi64(acc0, acc1));
}

constexpr SetOps kAvx2Ops = {
    "avx2",
    avx2_subset_of,
    avx2_intersects,
    avx2_intersection_count,
    avx2_union_count,
    avx2_or_assign_count,
    avx2_and_not_assign_count,
    avx2_and_assign_count,
    avx2_popcount,
    avx2_weighted_sum,
};

#endif  // LANDLORD_SIMD_X86

const SetOps& select_backend() noexcept {
  if (const char* no_simd = std::getenv("LANDLORD_NO_SIMD");
      no_simd != nullptr && no_simd[0] == '1') {
    return kPortableOps;
  }
  if (const SetOps* avx2 = avx2_ops()) return *avx2;
  return kPortableOps;
}

}  // namespace

const SetOps& portable_ops() noexcept { return kPortableOps; }

const SetOps* avx2_ops() noexcept {
#if LANDLORD_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return &kAvx2Ops;
  }
#endif
  return nullptr;
}

const SetOps& active_ops() noexcept {
  // Chosen once; the env var is read before any bitset op ever runs a
  // kernel, so a process sees exactly one backend for its lifetime.
  static const SetOps& chosen = select_backend();
  return chosen;
}

}  // namespace landlord::util::simd
