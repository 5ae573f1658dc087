// The batched Box-Muller's exactness checks at full scale (DESIGN.md §2
// "Client shards"): every shard and the test set of the three presets at
// scale 1, under every GEMM tier the CPU has, against the scalar path, and
// each wide tier's z against glibc's scalar z over 10^8 random pairs and
// the hard inputs. test_data runs the same checks at a reduced scale.
//
//   cmake --build build --target derive_full_check
//   build/derive_full_check
//   GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F build/derive_full_check
//
// Prints one line per tier and preset, and exits 1 on a mismatched shard
// or test set, or on a z error of half the rounding test's margin or more.
#include <cstdio>

#include "derive_checks.h"

int main() {
  using namespace gluefl;
  const detail::GemmTier picked = detail::gemm_tier();
  int failures = 0;
  for (const detail::GemmTier tier :
       {detail::GemmTier::kLanes4, detail::GemmTier::kAvx2,
        detail::GemmTier::kAvx512}) {
    const char* name = detail::gemm_tier_name(tier);
    if (!detail::gemm_tier_supported(tier)) {
      std::printf("%s: not supported by this build/CPU, skipped\n", name);
      continue;
    }
    for (const testing::PresetCheck& c :
         testing::check_presets_match_scalar(tier, 1.0)) {
      std::printf(
          "%s %s: %d shards, %d carry a cached half, %d mismatched, test set "
          "%s, %llu fallbacks\n",
          name, c.name.c_str(), c.shards, c.carried, c.mismatched,
          c.test_set_equal ? "equal" : "DIFFERS",
          static_cast<unsigned long long>(c.fallbacks));
      if (c.mismatched != 0 || !c.test_set_equal) ++failures;
    }
    detail::set_gemm_tier(tier);
    if (detail::box_muller_tier() != nullptr) {
      const testing::BoundCheck b = testing::measure_error_bound(100000000);
      std::printf("%s: %zu pairs, max %lld ULPs against a margin of %lld\n",
                  name, b.pairs, static_cast<long long>(b.max_ulps),
                  static_cast<long long>(detail::kCastMarginUlps));
      if (b.max_ulps >= detail::kCastMarginUlps / 2) ++failures;
    }
  }
  detail::set_gemm_tier(picked);
  std::printf("%s\n", failures == 0 ? "all exact" : "FAILED");
  return failures == 0 ? 0 : 1;
}
