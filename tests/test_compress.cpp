// BitMask / top-k / encoding / error-feedback / quantizer tests.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "compress/bitmask.h"
#include "compress/encoding.h"
#include "compress/error_feedback.h"
#include "compress/quantizer.h"
#include "compress/topk.h"

namespace gluefl {
namespace {

TEST(BitMask, SetTestReset) {
  BitMask m(100);
  EXPECT_FALSE(m.test(7));
  m.set(7);
  EXPECT_TRUE(m.test(7));
  m.reset(7);
  EXPECT_FALSE(m.test(7));
}

TEST(BitMask, CountAndAny) {
  BitMask m(200);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.any());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(199);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_TRUE(m.any());
}

TEST(BitMask, SetAllRespectsDomain) {
  BitMask m(70);  // crosses a word boundary with padding
  m.set_all();
  EXPECT_EQ(m.count(), 70u);
  m.flip();
  EXPECT_EQ(m.count(), 0u);
}

TEST(BitMask, FlipIsComplement) {
  BitMask m(130);
  m.set(1);
  m.set(129);
  m.flip();
  EXPECT_EQ(m.count(), 128u);
  EXPECT_FALSE(m.test(1));
  EXPECT_TRUE(m.test(0));
}

TEST(BitMask, UnionIntersectAndNot) {
  BitMask a(64), b(64);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  BitMask u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  BitMask i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(2));
  BitMask d = a;
  d.and_not(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
  EXPECT_EQ(BitMask::intersection_count(a, b), 1u);
}

TEST(BitMask, DomainMismatchThrows) {
  BitMask a(10), b(11);
  EXPECT_THROW(a |= b, CheckError);
}

TEST(BitMask, IndicesRoundTrip) {
  const std::vector<uint32_t> idx{0, 5, 63, 64, 99};
  const BitMask m = BitMask::from_indices(100, idx);
  EXPECT_EQ(m.to_indices(), idx);
}

TEST(BitMask, ForEachSetAscending) {
  BitMask m(128);
  m.set(100);
  m.set(3);
  m.set(64);
  std::vector<size_t> seen;
  m.for_each_set([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 64, 100}));
}

TEST(BitMask, WireBytes) {
  EXPECT_EQ(BitMask(8).wire_bytes(), 1u);
  EXPECT_EQ(BitMask(9).wire_bytes(), 2u);
  EXPECT_EQ(BitMask(1000).wire_bytes(), 125u);
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> x{0.1f, -5.0f, 2.0f, -0.3f, 4.0f};
  const SparseVec s = top_k_abs(x.data(), x.size(), 2);
  ASSERT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.idx[0], 1u);
  EXPECT_EQ(s.idx[1], 4u);
  EXPECT_FLOAT_EQ(s.val[0], -5.0f);
  EXPECT_FLOAT_EQ(s.val[1], 4.0f);
}

TEST(TopK, KZeroAndKBiggerThanN) {
  const std::vector<float> x{1.0f, 2.0f};
  EXPECT_EQ(top_k_abs(x.data(), 2, 0).nnz(), 0u);
  EXPECT_EQ(top_k_abs(x.data(), 2, 10).nnz(), 2u);
}

TEST(TopK, TieBreaksTowardLowerIndex) {
  const std::vector<float> x{1.0f, -1.0f, 1.0f, 1.0f};
  const SparseVec s = top_k_abs(x.data(), 4, 2);
  EXPECT_EQ(s.idx[0], 0u);
  EXPECT_EQ(s.idx[1], 1u);
}

// The selection top_k_abs used before its radix select: nth_element under
// (|x| desc, index asc), then an index sort. It is the reference the radix
// select must match bit for bit on every NaN-free input.
SparseVec reference_top_k(const float* x, std::vector<uint32_t> cand,
                          size_t k) {
  SparseVec out;
  if (k == 0 || cand.empty()) return out;
  k = std::min(k, cand.size());
  const auto greater = [x](uint32_t a, uint32_t b) {
    const float ma = std::fabs(x[a]);
    const float mb = std::fabs(x[b]);
    if (ma != mb) return ma > mb;
    return a < b;
  };
  std::nth_element(cand.begin(), cand.begin() + static_cast<long>(k) - 1,
                   cand.end(), greater);
  cand.resize(k);
  std::sort(cand.begin(), cand.end());
  out.idx = std::move(cand);
  out.val.resize(k);
  for (size_t i = 0; i < k; ++i) out.val[i] = x[out.idx[i]];
  return out;
}

bool same_bits(const SparseVec& a, const SparseVec& b) {
  return a.idx.size() == b.idx.size() && a.val.size() == b.val.size() &&
         (a.idx.empty() ||
          (std::memcmp(a.idx.data(), b.idx.data(), 4 * a.idx.size()) == 0 &&
           std::memcmp(a.val.data(), b.val.data(), 4 * a.val.size()) == 0));
}

// NaN-free inputs that stress the key order: Gaussian, heavy ties, signed
// zeros only, denormals mixed with infinities, and one repeated value.
std::vector<float> topk_input(int kind, size_t n, Rng& rng) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x(n);
  for (float& v : x) {
    const float sign = rng.bernoulli(0.5) ? -1.0f : 1.0f;
    switch (kind) {
      case 0: v = static_cast<float>(rng.normal()); break;
      case 1: v = sign * 0.5f * static_cast<float>(rng.uniform_int(0, 3)); break;
      case 2: v = sign * 0.0f; break;
      case 3:
        v = rng.bernoulli(0.1)
                ? sign * inf
                : sign * denorm * static_cast<float>(rng.uniform_int(0, 40));
        break;
      default: v = 1.5f; break;
    }
  }
  return x;
}

const std::vector<size_t> kTopKSizes{1, 2, 63, 64, 65, 1000, 33600};

TEST(TopK, MatchesSortReference) {
  Rng rng(21);
  for (const size_t n : kTopKSizes) {
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
    for (int kind = 0; kind < 5; ++kind) {
      const std::vector<float> x = topk_input(kind, n, rng);
      for (const size_t k : {size_t{0}, size_t{1}, n / 2, n - 1, n, n + 3}) {
        EXPECT_TRUE(same_bits(top_k_abs(x.data(), n, k),
                              reference_top_k(x.data(), all, k)))
            << "n=" << n << " k=" << k << " input=" << kind;
      }
    }
  }
}

TEST(TopK, MaskedMatchesSortReference) {
  Rng rng(22);
  for (const size_t n : kTopKSizes) {
    // No bit, one bit, 16%, 92% and every bit allowed.
    std::vector<BitMask> masks(5, BitMask(n));
    masks[1].set(n / 3);
    for (size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.16)) masks[2].set(i);
      if (rng.bernoulli(0.92)) masks[3].set(i);
    }
    masks[4].set_all();
    for (int kind = 0; kind < 5; ++kind) {
      const std::vector<float> x = topk_input(kind, n, rng);
      for (size_t m = 0; m < masks.size(); ++m) {
        const std::vector<uint32_t> allowed = masks[m].to_indices();
        for (const size_t k : {size_t{0}, size_t{1}, n / 2, n - 1, n, n + 3}) {
          EXPECT_TRUE(same_bits(top_k_abs_masked(x.data(), n, k, masks[m]),
                                reference_top_k(x.data(), allowed, k)))
              << "n=" << n << " k=" << k << " input=" << kind
              << " mask=" << m;
        }
      }
    }
  }
}

TEST(TopK, NanRanksAboveInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x{-inf, 3.0f, nan, inf, -nan};
  // Both NaNs outrank both infinities; each pair ties toward its lower index.
  const SparseVec one = top_k_abs(x.data(), x.size(), 1);
  EXPECT_EQ(one.idx, (std::vector<uint32_t>{2}));
  EXPECT_TRUE(std::isnan(one.val[0]));
  const SparseVec three = top_k_abs(x.data(), x.size(), 3);
  EXPECT_EQ(three.idx, (std::vector<uint32_t>{0, 2, 4}));
  BitMask allowed(x.size());
  allowed.set(1);
  allowed.set(2);
  EXPECT_EQ(top_k_abs_masked(x.data(), x.size(), 1, allowed).idx,
            (std::vector<uint32_t>{2}));
}

TEST(TopK, MaskedSelectionHonorsMask) {
  const std::vector<float> x{10.0f, 9.0f, 8.0f, 7.0f};
  BitMask allowed(4);
  allowed.set(2);
  allowed.set(3);
  const SparseVec s = top_k_abs_masked(x.data(), 4, 1, allowed);
  ASSERT_EQ(s.nnz(), 1u);
  EXPECT_EQ(s.idx[0], 2u);
}

TEST(TopK, MaskedWithFewerAllowedThanK) {
  const std::vector<float> x{1.0f, 2.0f, 3.0f};
  BitMask allowed(3);
  allowed.set(0);
  EXPECT_EQ(top_k_abs_masked(x.data(), 3, 5, allowed).nnz(), 1u);
}

TEST(TopK, ScatterAddAccumulatesScaled) {
  SparseVec s;
  s.idx = {1, 3};
  s.val = {2.0f, 4.0f};
  std::vector<float> out{0.0f, 1.0f, 0.0f, -1.0f};
  scatter_add(s, 2.0f, out.data());
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 5.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[3], 7.0f);
}

TEST(Encoding, PositionBytesVariants) {
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kBitmap), 100u);
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kIndices32), 40u);
  EXPECT_EQ(position_bytes(10, 800, PositionEncoding::kAuto), 40u);
}

TEST(Encoding, AutoCrossoverAtDimOver32) {
  const size_t dim = 3200;
  // bitmap = 400 bytes; indices = 4*nnz. Crossover at nnz = 100.
  EXPECT_EQ(position_bytes(99, dim), 396u);
  EXPECT_EQ(position_bytes(101, dim), 400u);
}

TEST(Encoding, SparseAndDenseBytes) {
  EXPECT_EQ(dense_bytes(100), 400u);
  EXPECT_EQ(values_only_bytes(25), 100u);
  EXPECT_EQ(sparse_update_bytes(10, 800), 40u + 40u);
}

TEST(Encoding, NnzCannotExceedDim) {
  EXPECT_THROW(position_bytes(11, 10), CheckError);
}

TEST(ErrorFeedback, NoneModeIsInert) {
  ErrorFeedback ec(ErrorFeedback::Mode::kNone, 3);
  const std::vector<float> r{1.0f, 2.0f, 3.0f};
  ec.store(0, 1.0, r.data());
  std::vector<float> delta(3, 0.0f);
  ec.apply(0, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 0.0f);
  EXPECT_EQ(ec.num_tracked_clients(), 0u);
}

TEST(ErrorFeedback, RawModeAddsResidualUnscaled) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRaw, 2);
  const std::vector<float> r{1.0f, -1.0f};
  ec.store(5, 4.0, r.data());
  std::vector<float> delta{0.0f, 0.0f};
  ec.apply(5, 0.5, delta.data());  // weights ignored in raw mode
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
  EXPECT_FLOAT_EQ(delta[1], -1.0f);
}

TEST(ErrorFeedback, RescaledModeUsesWeightRatio) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRescaled, 2);
  const std::vector<float> r{2.0f, 4.0f};
  ec.store(7, 3.0, r.data());  // stored with nu = 3
  std::vector<float> delta{0.0f, 0.0f};
  ec.apply(7, 6.0, delta.data());  // now nu = 6 -> coef = 3/6 = 0.5
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
  EXPECT_FLOAT_EQ(delta[1], 2.0f);
}

TEST(ErrorFeedback, UnknownClientIsNoop) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRescaled, 2);
  std::vector<float> delta{1.0f, 1.0f};
  ec.apply(99, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 1.0f);
}

TEST(ErrorFeedback, StoreOverwrites) {
  ErrorFeedback ec(ErrorFeedback::Mode::kRaw, 1);
  const float a = 1.0f;
  const float b = 5.0f;
  ec.store(0, 1.0, &a);
  ec.store(0, 1.0, &b);
  std::vector<float> delta{0.0f};
  ec.apply(0, 1.0, delta.data());
  EXPECT_FLOAT_EQ(delta[0], 5.0f);
  EXPECT_EQ(ec.num_tracked_clients(), 1u);
}

TEST(Quantizer, ValuesStayInRangeOnGrid) {
  Rng rng(31);
  UniformQuantizer q(4);
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const float max_abs_before =
      std::fabs(*std::max_element(x.begin(), x.end(), [](float a, float b) {
        return std::fabs(a) < std::fabs(b);
      }));
  q.quantize(x.data(), x.size(), rng);
  for (float v : x) EXPECT_LE(std::fabs(v), max_abs_before + 1e-5f);
}

TEST(Quantizer, StochasticRoundingIsUnbiased) {
  Rng rng(33);
  UniformQuantizer q(2);
  const int trials = 4000;
  double sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> x{0.3f, 1.0f};  // 1.0 pins the scale
    q.quantize(x.data(), 2, rng);
    sum += x[0];
  }
  EXPECT_NEAR(sum / trials, 0.3, 0.02);
}

TEST(Quantizer, PayloadBytes) {
  UniformQuantizer q8(8);
  EXPECT_EQ(q8.payload_bytes(100), 100u + 4u);
  UniformQuantizer q1(1);
  EXPECT_EQ(q1.payload_bytes(16), 2u + 4u);
}

TEST(Quantizer, ZeroVectorUnchanged) {
  Rng rng(35);
  UniformQuantizer q(8);
  std::vector<float> x(10, 0.0f);
  q.quantize(x.data(), x.size(), rng);
  for (float v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace gluefl
