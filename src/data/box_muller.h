// The batched Box–Muller behind client shards and the test set, as a
// template on the vector lane count L. Private to src/data:
// derive_avx2.cpp (built with -mavx2) instantiates L = 4 on glibc's
// libmvec _ZGVdN4v_* functions, derive_avx512.cpp (built with -mavx512f)
// L = 8 on _ZGVeN8v_*, and federated_dataset.cpp picks one of them per
// call from the GEMM tier (DESIGN.md §2 "Client shards").
//
// A vector log, sin or cos may differ from glibc's scalar one in the last
// few bits of a double. A shard stores only float(0.0 + sd * z), though,
// and two doubles a few ULPs apart cast to the same float unless a float
// rounding midpoint lies between them (Ziv's rounding test, applied at
// the cast). So a lane keeps its float only where float_cast_safe holds;
// the caller recomputes every other lane with Rng::box_muller, the scalar
// expressions of Rng::normal. The floats therefore never depend on the
// tier, as long as every tier's z stays within kCastMarginUlps of glibc's
// scalar z (test_data and derive_full_check measure the distance).
//
// Everything defined here has internal linkage, so each translation unit
// compiles its own copy for its own ISA; as in tensor/gemm_tiled.h, keep
// it that way and include nothing that instantiates inline or template
// code with external linkage.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace gluefl {

namespace detail {

// How far, in double ULPs, a lane's v = 0.0 + sd * z must lie from a float
// rounding midpoint for its float to be kept. It bounds the tiers' error
// against glibc's scalar z, measured at 6 ULPs at most over 10^8 pairs.
constexpr int64_t kCastMarginUlps = 32;

// For the n pairs (u1[k], u2[k]), n a multiple of the tier's lanes:
// z[2k] = r cos θ and z[2k+1] = r sin θ, with r = sqrt(-2 log u1) and
// θ = 2π u2, and noise[j] = float(0.0 + sd * z[j]). Returns true when
// float_cast_safe fails on any lane; the caller then finds those lanes
// and recomputes them. The signature every tier's entry point shares.
using BoxMullerFn = bool (*)(const double* u1, const double* u2, size_t n,
                             double sd, double* z, float* noise);

// The tier of the GEMM tier in use (detail::gemm_tier), read on every
// call so tests can force each; nullptr for the scalar path, which the
// 4-lane GEMM tier, a CPU without AVX2 and a non-x86-64 build take.
BoxMullerFn box_muller_tier();

// The tiers' entry points, one per ISA translation unit.
bool box_muller_avx2(const double* u1, const double* u2, size_t n, double sd,
                     double* z, float* noise);
bool box_muller_avx512(const double* u1, const double* u2, size_t n,
                       double sd, double* z, float* noise);

}  // namespace detail

namespace {

// Nonzero where float(v) is the float of every double within
// kCastMarginUlps of v, for `bits` the bits of v: v is in the float
// normal range [2^-126, 2^128), where the float rounding midpoints are
// exactly the doubles whose low 29 bits are 2^28, and the low 29 bits
// lie more than the margin from 2^28. Zeros, float subnormals, overflow
// and NaN fail. I is int64_t or a vector of them.
template <typename I>
inline I float_cast_safe(I bits) {
  const I exponent = (bits >> 52) & 0x7ff;
  const I off = (bits & 0x1fffffff) - 0x10000000;
  return (exponent >= 1023 - 126) & (exponent <= 1023 + 127) &
         ((off > detail::kCastMarginUlps) | (off < -detail::kCastMarginUlps));
}

// L doubles, L int64 lanes and L floats in one vector each, via the
// GCC/Clang vector extension.
template <int L>
struct BoxMullerLanes {
  typedef double D __attribute__((vector_size(L * sizeof(double))));
  typedef int64_t I __attribute__((vector_size(L * sizeof(int64_t))));
  typedef float F __attribute__((vector_size(L * sizeof(float))));
};

// Lanes (a0, b0, a1, b1, ...) of two vectors, as two vectors of L.
template <int L, typename V>
inline void interleave(V a, V b, V* lo, V* hi) {
  if constexpr (L == 4) {
    *lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    *hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  } else {
    static_assert(L == 8);
    *lo = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    *hi = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
  }
}

// The BoxMullerFn contract at L lanes. Ops supplies the tier's vector
// log, sin, cos and sqrt. Every operation is the scalar one lane-wise, in
// the scalar's order: -2.0 * log(u1), its square root, (2π) * u2, r times
// the cosine or sine, 0.0 + sd * z, and the float cast.
template <int L, typename Ops>
inline bool box_muller_lanes(const double* u1, const double* u2, size_t n,
                             double sd, double* z, float* noise) {
  typedef BoxMullerLanes<L> T;
  typename T::I unsafe = {};
  for (size_t k = 0; k < n; k += L) {
    typename T::D a, b;
    __builtin_memcpy(&a, u1 + k, sizeof a);
    __builtin_memcpy(&b, u2 + k, sizeof b);
    const typename T::D r = Ops::sqrt(-2.0 * Ops::log(a));
    const typename T::D theta = (2.0 * M_PI) * b;
    const typename T::D zc = r * Ops::cos(theta);
    const typename T::D zs = r * Ops::sin(theta);
    const typename T::D vc = 0.0 + sd * zc;
    const typename T::D vs = 0.0 + sd * zs;
    unsafe |= ~(float_cast_safe((typename T::I)vc) &
                float_cast_safe((typename T::I)vs));
    typename T::D zlo, zhi;
    interleave<L>(zc, zs, &zlo, &zhi);
    __builtin_memcpy(z + 2 * k, &zlo, sizeof zlo);
    __builtin_memcpy(z + 2 * k + L, &zhi, sizeof zhi);
    typename T::F flo, fhi;
    interleave<L>(__builtin_convertvector(vc, typename T::F),
                  __builtin_convertvector(vs, typename T::F), &flo, &fhi);
    __builtin_memcpy(noise + 2 * k, &flo, sizeof flo);
    __builtin_memcpy(noise + 2 * k + L, &fhi, sizeof fhi);
  }
  int64_t any = 0;
  for (int l = 0; l < L; ++l) any |= unsafe[l];
  return any != 0;
}

}  // namespace

}  // namespace gluefl
