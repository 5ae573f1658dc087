#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gemm_tier_test.h"
#include "nn/linear.h"

namespace gluefl {
namespace {

// The naive triple loops the tiled kernels replaced. Each output sums its
// reduction index in ascending order from its initial value; the kernels
// must reproduce these bits exactly, so results are compared with memcmp.
void ref_gemm_nn(const float* a, const float* b, float* c, int m, int k, int n,
                 bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<size_t>(i) * k;
    float* ci = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = ai[p];
      const float* bp = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

// C[m,k] = A[m,n] * B[k,n]^T, as a serial dot product per output (the
// non-accumulating form, the only one the input gradient used).
void ref_gemm_nt(const float* a, const float* b, float* c, int m, int n,
                 int k) {
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<size_t>(i) * n;
    float* ci = c + static_cast<size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* bp = b + static_cast<size_t>(p) * n;
      float s = 0.0f;
      for (int j = 0; j < n; ++j) s += ai[j] * bp[j];
      ci[p] = 0.0f + s;
    }
  }
}

void ref_gemm_tn(const float* a, const float* b, float* c, int m, int k, int n,
                 bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * static_cast<size_t>(k) * n);
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<size_t>(i) * k;
    const float* bi = b + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = ai[p];
      float* cp = c + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) cp[j] += av * bi[j];
    }
  }
}

// Normal entries with every fifth one a signed zero.
std::vector<float> random_vec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i % 5 == 3 ? (i % 2 ? -0.0f : 0.0f)
                      : static_cast<float>(rng.normal());
  }
  return v;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Sizes that hit every row and column tail of the 4-, 8- and 16-lane
// tiers: partial row blocks, two-vector tiles, the one-vector strip
// [L, 2L) and the scalar columns after it.
constexpr int kSizes[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48,
                          64, 128};

// Runs fn(m, k, n) over every shape in kSizes^3.
template <typename Fn>
void for_each_shape(Fn fn) {
  for (int m : kSizes) {
    for (int k : kSizes) {
      for (int n : kSizes) fn(m, k, n);
    }
  }
}

// C[m,n] = A[m,k] * B[k,n] against the naive loop; `accumulate` starts
// from a random C that includes signed zeros.
void check_gemm_nn(bool accumulate) {
  Rng rng(accumulate ? 2 : 1);
  for_each_shape([&](int m, int k, int n) {
    const auto a = random_vec(static_cast<size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    auto c = random_vec(static_cast<size_t>(m) * n, rng);
    auto ref = c;
    gemm_nn(a.data(), b.data(), c.data(), m, k, n, accumulate);
    ref_gemm_nn(a.data(), b.data(), ref.data(), m, k, n, accumulate);
    ASSERT_TRUE(same_bits(c, ref)) << m << "x" << k << "x" << n;
  });
}

// Linear::backward computes dX[bs,in] = gout[bs,out] * W[in,out]^T as the
// transpose of dX^T[in,bs] = W[in,out] * gout^T[out,bs]: gemm_nn over a
// transposed gout, transposed back. Checked against the serial dot
// product per output.
void check_gemm_nt() {
  Rng rng(3);
  for_each_shape([&](int m, int n, int k) {
    // C[m,k] = A[m,n] * B[k,n]^T, with A = gout and B = W.
    const auto a = random_vec(static_cast<size_t>(m) * n, rng);
    const auto b = random_vec(static_cast<size_t>(k) * n, rng);
    std::vector<float> at(a.size());
    std::vector<float> ct(static_cast<size_t>(k) * m);
    transpose(a.data(), at.data(), m, n);
    gemm_nn(b.data(), at.data(), ct.data(), k, n, m);
    auto c = random_vec(static_cast<size_t>(m) * k, rng);
    auto ref = c;
    transpose(ct.data(), c.data(), k, m);
    ref_gemm_nt(a.data(), b.data(), ref.data(), m, n, k);
    ASSERT_TRUE(same_bits(c, ref)) << m << "x" << n << "x" << k;
  });
}

void check_gemm_tn() {
  Rng rng(4);
  for (const bool accumulate : {false, true}) {
    for_each_shape([&](int m, int k, int n) {
      // C[k,n] = A[m,k]^T * B[m,n]
      const auto a = random_vec(static_cast<size_t>(m) * k, rng);
      const auto b = random_vec(static_cast<size_t>(m) * n, rng);
      auto c = random_vec(static_cast<size_t>(k) * n, rng);
      auto ref = c;
      gemm_tn(a.data(), b.data(), c.data(), m, k, n, accumulate);
      ref_gemm_tn(a.data(), b.data(), ref.data(), m, k, n, accumulate);
      ASSERT_TRUE(same_bits(c, ref))
          << m << "x" << k << "x" << n << " accumulate=" << accumulate;
    });
  }
}

// Linear::backward's dX and dW against the naive gemm_nt / gemm_tn.
void check_linear_backward() {
  Rng rng(5);
  for (const int in : {5, 64, 128}) {
    for (const int out : {7, 64, 128}) {
      const int bs = 16;
      Linear layer(in, out);
      layer.bind({0, layer.param_count()}, {0, 0});
      std::vector<float> params(layer.param_count());
      layer.init_params(params.data(), rng);
      const auto x = random_vec(static_cast<size_t>(bs) * in, rng);
      const auto gout = random_vec(static_cast<size_t>(bs) * out, rng);
      std::vector<float> y(static_cast<size_t>(bs) * out);
      layer.forward(params.data(), nullptr, x.data(), y.data(), bs, true);
      std::vector<float> grads(params.size(), 0.0f);
      std::vector<float> gin(static_cast<size_t>(bs) * in);
      layer.backward(params.data(), gout.data(), gin.data(), grads.data(), bs);

      std::vector<float> ref_gin(gin.size());
      ref_gemm_nt(gout.data(), params.data(), ref_gin.data(), bs, out, in);
      EXPECT_TRUE(same_bits(gin, ref_gin)) << in << "->" << out;
      std::vector<float> ref_gw(static_cast<size_t>(in) * out, 0.0f);
      ref_gemm_tn(x.data(), gout.data(), ref_gw.data(), bs, in, out, true);
      EXPECT_EQ(std::memcmp(grads.data(), ref_gw.data(),
                            ref_gw.size() * sizeof(float)),
                0)
          << in << "->" << out;
    }
  }
}

// The Tensor tests run at the tier this process picked by CPUID, the one
// every run uses; the TensorTiers tests force each tier in turn.
TEST(Tensor, GemmNnMatchesReference) { check_gemm_nn(/*accumulate=*/false); }

TEST(Tensor, GemmNnAccumulates) { check_gemm_nn(/*accumulate=*/true); }

TEST(Tensor, GemmNtMatchesReference) { check_gemm_nt(); }

TEST(Tensor, GemmTnMatchesReference) { check_gemm_tn(); }

TEST(Tensor, LinearBackwardMatchesNaiveKernels) { check_linear_backward(); }

class TensorTiers : public testing::GemmTierTest {};

TEST_P(TensorTiers, GemmNnMatchesReference) { check_gemm_nn(false); }

TEST_P(TensorTiers, GemmNnAccumulates) { check_gemm_nn(true); }

TEST_P(TensorTiers, GemmNtMatchesReference) { check_gemm_nt(); }

TEST_P(TensorTiers, GemmTnMatchesReference) { check_gemm_tn(); }

TEST_P(TensorTiers, LinearBackwardMatchesNaiveKernels) {
  check_linear_backward();
}

INSTANTIATE_TEST_SUITE_P(Tiers, TensorTiers, testing::all_gemm_tiers(),
                         testing::gemm_tier_param_name);

TEST(Tensor, PicksWidestSupportedGemmTier) {
  using detail::GemmTier;
  ASSERT_TRUE(detail::gemm_tier_supported(GemmTier::kLanes4));
  GemmTier widest = GemmTier::kLanes4;
  for (const GemmTier t : {GemmTier::kAvx2, GemmTier::kAvx512}) {
    if (detail::gemm_tier_supported(t)) widest = t;
  }
  EXPECT_EQ(detail::gemm_tier(), widest);
}

TEST(Tensor, TransposeCoversBlockTails) {
  for (int rows : kSizes) {
    for (int cols : kSizes) {
      std::vector<float> src(static_cast<size_t>(rows) * cols);
      for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<float>(i);
      std::vector<float> dst(src.size(), -1.0f);
      transpose(src.data(), dst.data(), rows, cols);
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
          ASSERT_EQ(dst[static_cast<size_t>(j) * rows + i],
                    src[static_cast<size_t>(i) * cols + j]);
        }
      }
    }
  }
}

TEST(Tensor, Axpy) {
  std::vector<float> x{1.0f, 2.0f, 3.0f};
  std::vector<float> y{10.0f, 20.0f, 30.0f};
  axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(Tensor, Sub) {
  std::vector<float> a{5.0f, 3.0f};
  std::vector<float> b{2.0f, 1.0f};
  std::vector<float> out(2);
  sub(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST(Tensor, AddRowBias) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};  // 2x2
  std::vector<float> bias{10.0f, 20.0f};
  add_row_bias(bias.data(), x.data(), 2, 2);
  EXPECT_FLOAT_EQ(x[0], 11.0f);
  EXPECT_FLOAT_EQ(x[1], 22.0f);
  EXPECT_FLOAT_EQ(x[2], 13.0f);
  EXPECT_FLOAT_EQ(x[3], 24.0f);
}

}  // namespace
}  // namespace gluefl
