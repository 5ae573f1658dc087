// The 16-lane GEMM tier, compiled with -mavx512f (x86-64 only). ops.cpp
// calls it only when the CPU reports AVX-512F. See gemm_tiled.h.
#include "tensor/gemm_tiled.h"

namespace gluefl::detail {

__attribute__((aligned(64))) void gemm_tiled_avx512(
    const float* a, size_t a_row, size_t a_red, const float* b, float* c,
    int rows, int len, int n) {
  gemm_tiled<16, 4>(a, a_row, a_red, b, c, rows, len, n);
}

}  // namespace gluefl::detail
