// The 4-lane Box–Muller tier, compiled with -mavx2 (x86-64 only), on
// glibc's libmvec. federated_dataset.cpp calls it only when the CPU
// reports AVX2. See box_muller.h.
#include <immintrin.h>

#include "data/box_muller.h"

typedef gluefl::BoxMullerLanes<4>::D D4;

extern "C" D4 _ZGVdN4v_log(D4);
extern "C" D4 _ZGVdN4v_sin(D4);
extern "C" D4 _ZGVdN4v_cos(D4);

namespace gluefl {

namespace {

struct Avx2 {
  typedef D4 D;
  static D log(D x) { return _ZGVdN4v_log(x); }
  static D sin(D x) { return _ZGVdN4v_sin(x); }
  static D cos(D x) { return _ZGVdN4v_cos(x); }
  static D sqrt(D x) { return _mm256_sqrt_pd(x); }
};

}  // namespace

namespace detail {

bool box_muller_avx2(const double* u1, const double* u2, size_t n, double sd,
                     double* z, float* noise) {
  return box_muller_lanes<4, Avx2>(u1, u2, n, sd, z, noise);
}

}  // namespace detail

}  // namespace gluefl
