// Dense row-major float kernels used by the neural-network substrate.
//
// All matrices are row-major, shapes given as (rows, cols). The two GEMM
// variants cover the forward, weight-gradient and (transposed)
// input-gradient passes of fully-connected layers. Both hold a tile of C
// in vector registers while the reduction index runs over its whole
// range, so each output adds the same products in the same ascending order
// as the naive triple loop and the results are bit-identical to it. The
// tile's lane count (4, 8 or 16) is picked once per process by CPUID and
// changes no bit (DESIGN.md "Training kernels").
#pragma once

#include <cstddef>

namespace gluefl {

/// C[m,n] = A[m,k] * B[k,n]   (or += when accumulate)
void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate = false);

/// C[k,n] = A[m,k]^T * B[m,n] (or += when accumulate)
void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate = false);

/// dst[cols,rows] = src[rows,cols]^T, in 8x8 blocks.
void transpose(const float* src, float* dst, int rows, int cols);

/// y += alpha * x  (n elements)
void axpy(float alpha, const float* x, float* y, size_t n);

/// out = a - b
void sub(const float* a, const float* b, float* out, size_t n);

/// Adds bias[j] to every row of x[m,n].
void add_row_bias(const float* bias, float* x, int m, int n);

namespace detail {

/// The GEMM tiers, by vector lane count. kLanes4 is the GCC/Clang vector
/// extension at the baseline ISA; the wide tiers exist on x86-64 builds.
enum class GemmTier { kLanes4, kAvx2, kAvx512 };

/// "lanes4", "avx2" or "avx512".
const char* gemm_tier_name(GemmTier tier);

/// True when this build holds `tier` and the running CPU can execute it.
bool gemm_tier_supported(GemmTier tier);

/// The tier gemm_nn and gemm_tn use: the widest supported one, unless a
/// test forced another.
GemmTier gemm_tier();

/// Makes gemm_nn and gemm_tn use `tier` for the rest of the process, so
/// tests can check every tier the CPU has. CheckError when unsupported.
/// Call it only while no GEMM runs on another thread.
void set_gemm_tier(GemmTier tier);

}  // namespace detail

}  // namespace gluefl
