// The folding CRC-32 tier, compiled with -mpclmul (x86-64 only). io.cpp
// calls it only when the CPU reports PCLMULQDQ. See crc32_fold.h.
//
// The algorithm is the 4x128-bit fold with a Barrett reduction from
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009), with the paper's constants for the
// reflected polynomial 0xEDB88320. Each constant is x^t mod P, bit-
// reflected: a carry-less product by it moves a 64-bit half t bits ahead,
// where it lands on bytes still to come.
#include <emmintrin.h>
#include <wmmintrin.h>

#include "ckpt/crc32_fold.h"

namespace gluefl::ckpt::detail {

namespace {

// k1/k2 move the low/high half of a lane 512 bits ahead (four lanes),
// k3/k4 128 bits (one lane); k5 folds 64 bits into 32. kP is the
// polynomial and kMu the Barrett quotient floor(x^64 / P).
constexpr long long kK1 = 0x0154442bd4, kK2 = 0x01c6e41596;
constexpr long long kK3 = 0x01751997d0, kK4 = 0x00ccaa009e;
constexpr long long kK5 = 0x0163cd6124;
constexpr long long kP = 0x01db710641, kMu = 0x01f7011641;

inline __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Moves lane `x` ahead by the distance of `k` (its low half times k.lo,
// its high half times k.hi) and adds the lane found there.
inline __m128i fold(__m128i x, __m128i k, __m128i there) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), there);
}

}  // namespace

uint32_t crc32_fold_pclmul(const uint8_t* data, size_t size, uint32_t reg) {
  // Four lanes of running state; the register adds into the first.
  const __m128i r = _mm_cvtsi32_si128(static_cast<int>(reg));
  __m128i x1 = _mm_xor_si128(load(data), r);
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  data += 64;
  size -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; size >= 64; data += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(data));
    x2 = fold(x2, k1k2, load(data + 16));
    x3 = fold(x3, k1k2, load(data + 32));
    x4 = fold(x4, k1k2, load(data + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) x1 = fold(x1, k3k4, load(data));

  // 128 bits to 64: the low half times k4 onto the high half, then the
  // low 32 bits of that times k5 onto the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction of those 64 bits to the 32-bit register.
  const __m128i mu_p = _mm_set_epi64x(kMu, kP);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_p, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_p, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

}  // namespace gluefl::ckpt::detail
