// SIMD tier model for the word-parallel kernels.
//
// Three tiers cover every word loop in the engine:
//   kScalar — portable 64-bit words + __builtin_popcountll; always present.
//   kAvx2   — 256-bit lanes (4 words), VPAND + the PSHUFB nibble-LUT
//             popcount; compiled only under __AVX2__.
//   kAvx512 — 512-bit lanes (8 words), VPANDQ + native VPOPCNTQ; compiled
//             only under __AVX512F__ + __AVX512VPOPCNTDQ__.
//
// Compile-time guards decide which tiers *exist* in the binary (the
// default build is scalar-only; configure with -DLAZYMC_SIMD=avx2/avx512
// or -march=native to compile the vector tiers in).  A one-time CPUID
// check (`best_tier`) decides which compiled tier actually *runs*, so a
// binary built with -mavx512* still degrades safely on an AVX2-only
// host... of the tiers it was allowed to assume.  `force_tier` overrides
// the choice process-wide for A/B runs (`lazymc --kernels ...`) and for
// the forced-tier agreement tests; every dispatch site re-reads
// `current_tier()` through one relaxed atomic.
//
// The vector kernels use unaligned loads and per-word gathers, so no
// *correctness* requirement falls on data placement; alignment helpers
// (AlignedAllocator, kRowAlignment) exist so the hot row storage sits on
// cache-line boundaries and aligned vector loads stay legal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <string_view>
#include <vector>

#include "support/names.hpp"

#if defined(__AVX2__)
#define LAZYMC_HAVE_AVX2 1
#else
#define LAZYMC_HAVE_AVX2 0
#endif

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)
#define LAZYMC_HAVE_AVX512 1
#else
#define LAZYMC_HAVE_AVX512 0
#endif

#if LAZYMC_HAVE_AVX2 || LAZYMC_HAVE_AVX512
#include <immintrin.h>
#endif

namespace lazymc::simd {

enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr std::size_t kNumTiers = 3;

/// Row storage alignment (bytes): one cache line, enough for any tier's
/// aligned vector load.
inline constexpr std::size_t kRowAlignment = 64;

/// The --kernels spellings of the forced tiers ("auto" means no force).
inline constexpr Named<Tier> kTierNames[] = {
    {"scalar", Tier::kScalar},
    {"avx2", Tier::kAvx2},
    {"avx512", Tier::kAvx512},
};

/// "scalar" / "avx2" / "avx512" (kTierNames).
inline const char* tier_name(Tier t) { return name_of(kTierNames, t); }

/// Inverse of tier_name: the tier spelled `name`, or nullopt.
inline std::optional<Tier> tier_from_name(std::string_view name) {
  return from_name(kTierNames, name);
}

/// Whether the tier's kernels were compiled into this binary (the macro
/// guards above, evaluated under the build's flags).
bool tier_compiled(Tier t);

/// Compiled in *and* supported by the running CPU.
bool tier_supported(Tier t);

/// Highest supported tier (cached after the first CPUID query).
Tier best_tier();

/// The tier every dispatch site routes to: the forced tier when one is
/// set, else best_tier().
Tier current_tier();

/// Forces all kernel dispatch to `t` (process-global).  Returns false —
/// and changes nothing — when the tier is not supported here.
bool force_tier(Tier t);

/// Clears any forced tier; dispatch returns to best_tier().
void reset_tier();

/// The currently forced tier, or nullopt under auto dispatch.
std::optional<Tier> forced_tier();

/// All tiers this build + CPU can run, ascending (always starts with
/// kScalar); the domain forced-tier sweeps iterate over.
std::vector<Tier> supported_tiers();

/// Selects the table matching current_tier() from per-tier candidates,
/// walking down a tier when the preferred one was not compiled in (the
/// vector pointers are null then).  Shared by every dispatch cascade so
/// adding a tier means editing one switch.
template <typename T>
const T& pick_table(const T& scalar, const T* avx2, const T* avx512) {
  switch (current_tier()) {
    case Tier::kAvx512:
      if (avx512) return *avx512;
      [[fallthrough]];
    case Tier::kAvx2:
      if (avx2) return *avx2;
      [[fallthrough]];
    case Tier::kScalar:
      break;
  }
  return scalar;
}

/// std::vector allocator with a fixed alignment (a power of two >=
/// alignof(T)).  Used for bitset words and slab arenas so rows start on
/// cache-line boundaries.
template <typename T, std::size_t Align>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0);

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  // The non-type Align parameter defeats allocator_traits' generic
  // rebind pattern; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

/// 64-bit words on cache-line boundaries: the storage type for bitset
/// rows, slab arenas, and scratch word buffers.
using AlignedWords =
    std::vector<std::uint64_t, AlignedAllocator<std::uint64_t, kRowAlignment>>;

#if LAZYMC_HAVE_AVX2

/// Per-64-bit-lane popcount without VPOPCNTQ: PSHUFB nibble lookup, then
/// PSADBW folds the byte counts into each quadword (the standard
/// Mula/Kurz/Lemire construction).
inline __m256i popcount_epi64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

/// Horizontal sum of the four 64-bit lanes.
inline std::uint64_t reduce_add_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

#endif  // LAZYMC_HAVE_AVX2

}  // namespace lazymc::simd
