// The tiled GEMM loop nest behind gemm_nn and gemm_tn, as a template on the
// vector lane count L. Private to src/tensor: ops.cpp instantiates L = 4,
// ops_avx2.cpp (built with -mavx2) L = 8 and ops_avx512.cpp (built with
// -mavx512f) L = 16, and ops.cpp picks one of them per process by CPUID.
//
// Every tier adds the same products in the same order (DESIGN.md §2
// "Training kernels"): lane-wise IEEE * and + are the scalar operations,
// so the lane count changes which outputs are in flight, never what any
// output adds.
//
// Everything defined here has internal linkage, so each translation unit
// compiles its own copy for its own ISA. Keep it that way, and include
// nothing that instantiates inline or template code with external linkage
// (a std::vector method, std::min): the linker may keep the AVX-512 copy
// of such code for the whole program, which then dies with SIGILL on a CPU
// without AVX-512.
#pragma once

#include <cstddef>

namespace gluefl {

namespace detail {

// C[rows, n] += A * B[len, n] with A(r, t) = a[r * a_row + t * a_red]; the
// signature every tier's entry point shares.
using GemmTiledFn = void (*)(const float* a, size_t a_row, size_t a_red,
                             const float* b, float* c, int rows, int len,
                             int n);

// The wide tiers' entry points, one per ISA translation unit.
void gemm_tiled_avx2(const float* a, size_t a_row, size_t a_red,
                     const float* b, float* c, int rows, int len, int n);
void gemm_tiled_avx512(const float* a, size_t a_row, size_t a_red,
                       const float* b, float* c, int rows, int len, int n);

}  // namespace detail

namespace {

// L floats in one vector register, via the GCC/Clang vector extension.
template <int L>
struct Lanes {
  typedef float Vec __attribute__((vector_size(L * sizeof(float))));
};

template <int L>
inline typename Lanes<L>::Vec load(const float* p) {
  typename Lanes<L>::Vec v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <int L>
inline void store(float* p, typename Lanes<L>::Vec v) {
  __builtin_memcpy(p, &v, sizeof v);
}

// C[R, V*L] (row stride ldc) += sum over t in [0, len) of A(r, t) * B[t, :],
// t ascending, where A(r, t) = a[r * a_row + t * a_red] and B has row
// stride ldb. The R*V accumulators live in registers for the whole sum.
// The scalar is broadcast by `s * b`, never by `Vec{} + s`, which would
// turn -0.0 into +0.0.
template <int L, int R, int V>
inline void tile(const float* a, size_t a_row, size_t a_red, const float* b,
                 size_t ldb, float* c, size_t ldc, int len) {
  typedef typename Lanes<L>::Vec Vec;
  Vec acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = load<L>(c + r * ldc + v * L);
  }
  for (int t = 0; t < len; ++t, a += a_red, b += ldb) {
    Vec bv[V];
    for (int v = 0; v < V; ++v) bv[v] = load<L>(b + v * L);
    for (int r = 0; r < R; ++r) {
      const float s = a[r * a_row];
      for (int v = 0; v < V; ++v) acc[r][v] += s * bv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) store<L>(c + r * ldc + v * L, acc[r][v]);
  }
}

// One block of R rows: R x 2L tiles over [0, n2), an R x L tile over the
// strip [n2, n1) when it exists (n1 - n2 is 0 or L).
template <int L, int R>
inline void row_block(const float* ar, size_t a_row, size_t a_red,
                      const float* b, float* cr, size_t ldb, int len, int n2,
                      int n1) {
  for (int j = 0; j < n2; j += 2 * L) {
    tile<L, R, 2>(ar, a_row, a_red, b + j, ldb, cr + j, ldb, len);
  }
  if (n1 > n2) tile<L, R, 1>(ar, a_row, a_red, b + n2, ldb, cr + n2, ldb, len);
}

// C[rows, n] += A * B[len, n] with A(r, t) = a[r * a_row + t * a_red].
// Every C entry adds its len products in ascending t, exactly like
// `for t: for r: for j: c[r][j] += A(r, t) * b[t][j]`; only the loop nest
// around that per-entry sum is tiled: R-row blocks (then single rows),
// two-vector tiles, a one-vector strip, and a scalar loop for the last
// n mod L columns.
template <int L, int R>
inline void gemm_tiled(const float* a, size_t a_row, size_t a_red,
                       const float* b, float* c, int rows, int len, int n) {
  const size_t ldb = static_cast<size_t>(n);
  const int n2 = n - n % (2 * L);
  const int n1 = n - n2 >= L ? n2 + L : n2;
  int r = 0;
  for (; r + R <= rows; r += R) {
    row_block<L, R>(a + static_cast<size_t>(r) * a_row, a_row, a_red, b,
                    c + static_cast<size_t>(r) * ldb, ldb, len, n2, n1);
  }
  for (; r < rows; ++r) {
    row_block<L, 1>(a + static_cast<size_t>(r) * a_row, a_row, a_red, b,
                    c + static_cast<size_t>(r) * ldb, ldb, len, n2, n1);
  }
  if (n1 == n) return;
  for (r = 0; r < rows; ++r) {
    const float* ar = a + static_cast<size_t>(r) * a_row;
    float* cr = c + static_cast<size_t>(r) * ldb;
    for (int t = 0; t < len; ++t) {
      const float av = ar[static_cast<size_t>(t) * a_red];
      const float* bt = b + static_cast<size_t>(t) * ldb;
      for (int j = n1; j < n; ++j) cr[j] += av * bt[j];
    }
  }
}

}  // namespace

}  // namespace gluefl
