#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "common/check.h"
#include "tensor/gemm_tiled.h"

namespace gluefl {

namespace {

using detail::GemmTier;
using detail::GemmTiledFn;

// The 4-lane tier, at the baseline ISA. Kept out of line and 64-byte
// aligned, like the wide tiers and `transpose`, so the hot loops'
// cache-line placement does not move with unrelated code.
__attribute__((noinline, aligned(64))) void gemm_tiled_lanes4(
    const float* a, size_t a_row, size_t a_red, const float* b, float* c,
    int rows, int len, int n) {
  gemm_tiled<4, 4>(a, a_row, a_red, b, c, rows, len, n);
}

constexpr GemmTier kTiers[] = {GemmTier::kLanes4, GemmTier::kAvx2,
                               GemmTier::kAvx512};

// The tier's entry point, or nullptr when this build does not hold it.
GemmTiledFn tier_fn(GemmTier tier) {
  switch (tier) {
    case GemmTier::kLanes4:
      return &gemm_tiled_lanes4;
#if defined(GLUEFL_TENSOR_SIMD)
    case GemmTier::kAvx2:
      return &detail::gemm_tiled_avx2;
    case GemmTier::kAvx512:
      return &detail::gemm_tiled_avx512;
#else
    case GemmTier::kAvx2:
    case GemmTier::kAvx512:
      return nullptr;
#endif
  }
  return nullptr;
}

bool cpu_has(GemmTier tier) {
#if defined(GLUEFL_TENSOR_SIMD)
  __builtin_cpu_init();
  if (tier == GemmTier::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  if (tier == GemmTier::kAvx512) return __builtin_cpu_supports("avx512f") != 0;
#endif
  return tier == GemmTier::kLanes4;
}

// The process's entry point: the widest supported tier, resolved on first
// use.
std::atomic<GemmTiledFn>& active_fn() {
  static std::atomic<GemmTiledFn> fn{[] {
    GemmTier widest = GemmTier::kLanes4;
    for (const GemmTier t : kTiers) {
      if (detail::gemm_tier_supported(t)) widest = t;
    }
    return tier_fn(widest);
  }()};
  return fn;
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(m) * n);
  active_fn().load()(a, static_cast<size_t>(k), 1, b, c, m, k, n);
}

void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(k) * n);
  active_fn().load()(a, 1, static_cast<size_t>(k), b, c, k, m, n);
}

__attribute__((aligned(64))) void transpose(const float* src, float* dst,
                                            int rows, int cols) {
  constexpr int kBlock = 8;
  for (int i0 = 0; i0 < rows; i0 += kBlock) {
    const int i1 = std::min(i0 + kBlock, rows);
    for (int j0 = 0; j0 < cols; j0 += kBlock) {
      const int j1 = std::min(j0 + kBlock, cols);
      for (int i = i0; i < i1; ++i) {
        for (int j = j0; j < j1; ++j) {
          dst[static_cast<size_t>(j) * rows + i] =
              src[static_cast<size_t>(i) * cols + j];
        }
      }
    }
  }
}

void axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void sub(const float* a, const float* b, float* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void add_row_bias(const float* bias, float* x, int m, int n) {
  for (int i = 0; i < m; ++i) {
    float* xi = x + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) xi[j] += bias[j];
  }
}

namespace detail {

const char* gemm_tier_name(GemmTier tier) {
  switch (tier) {
    case GemmTier::kLanes4:
      return "lanes4";
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool gemm_tier_supported(GemmTier tier) {
  return tier_fn(tier) != nullptr && cpu_has(tier);
}

GemmTier gemm_tier() {
  const GemmTiledFn fn = active_fn().load();
  for (const GemmTier t : kTiers) {
    if (tier_fn(t) == fn) return t;
  }
  return GemmTier::kLanes4;
}

void set_gemm_tier(GemmTier tier) {
  GLUEFL_CHECK_MSG(gemm_tier_supported(tier),
                   std::string("GEMM tier ") + gemm_tier_name(tier) +
                       " is not supported by this build/CPU");
  active_fn().store(tier_fn(tier));
}

}  // namespace detail

}  // namespace gluefl
