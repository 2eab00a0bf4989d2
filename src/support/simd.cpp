#include "support/simd.hpp"

#include <atomic>

namespace lazymc::simd {
namespace {

/// CPU feature probe, independent of what this binary was compiled with.
bool cpu_has(Tier t) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Tier::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vpopcntdq");
  }
  return false;
#else
  return t == Tier::kScalar;
#endif
}

/// -1 = auto (best_tier); otherwise the forced Tier value.
std::atomic<int> g_forced{-1};

}  // namespace

bool tier_compiled(Tier t) {
  switch (t) {
    case Tier::kScalar: return true;
    case Tier::kAvx2: return LAZYMC_HAVE_AVX2 != 0;
    case Tier::kAvx512: return LAZYMC_HAVE_AVX512 != 0;
  }
  return false;
}

bool tier_supported(Tier t) { return tier_compiled(t) && cpu_has(t); }

Tier best_tier() {
  static const Tier best = [] {
    if (tier_supported(Tier::kAvx512)) return Tier::kAvx512;
    if (tier_supported(Tier::kAvx2)) return Tier::kAvx2;
    return Tier::kScalar;
  }();
  return best;
}

Tier current_tier() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  return forced < 0 ? best_tier() : static_cast<Tier>(forced);
}

bool force_tier(Tier t) {
  if (!tier_supported(t)) return false;
  g_forced.store(static_cast<int>(t), std::memory_order_relaxed);
  return true;
}

void reset_tier() { g_forced.store(-1, std::memory_order_relaxed); }

std::optional<Tier> forced_tier() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced < 0) return std::nullopt;
  return static_cast<Tier>(forced);
}

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers;
  for (std::size_t t = 0; t < kNumTiers; ++t) {
    if (tier_supported(static_cast<Tier>(t))) {
      tiers.push_back(static_cast<Tier>(t));
    }
  }
  return tiers;
}

}  // namespace lazymc::simd
