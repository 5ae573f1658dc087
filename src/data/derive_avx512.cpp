// The 8-lane Box–Muller tier, compiled with -mavx512f (x86-64 only), on
// glibc's libmvec. federated_dataset.cpp calls it only when the CPU
// reports AVX-512F. See box_muller.h.
#include <immintrin.h>

#include "data/box_muller.h"

typedef gluefl::BoxMullerLanes<8>::D D8;

extern "C" D8 _ZGVeN8v_log(D8);
extern "C" D8 _ZGVeN8v_sin(D8);
extern "C" D8 _ZGVeN8v_cos(D8);

namespace gluefl {

namespace {

struct Avx512 {
  typedef D8 D;
  static D log(D x) { return _ZGVeN8v_log(x); }
  static D sin(D x) { return _ZGVeN8v_sin(x); }
  static D cos(D x) { return _ZGVeN8v_cos(x); }
  // The zero-masked form: the plain _mm512_sqrt_pd passes an undefined
  // source that GCC 12 reports as uninitialized.
  static D sqrt(D x) { return _mm512_maskz_sqrt_pd(0xff, x); }
};

}  // namespace

namespace detail {

bool box_muller_avx512(const double* u1, const double* u2, size_t n,
                       double sd, double* z, float* noise) {
  return box_muller_lanes<8, Avx512>(u1, u2, n, sd, z, noise);
}

}  // namespace detail

}  // namespace gluefl
