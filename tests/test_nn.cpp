// Layer/model tests: finite-difference gradient checks for every layer
// type, BatchNorm semantics, optimizer math, and end-to-end trainability.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "gemm_tier_test.h"
#include "gradcheck.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/proxies.h"
#include "nn/residual.h"

namespace gluefl {
namespace {

struct Batch {
  std::vector<float> x;
  std::vector<int> y;
};

Batch random_batch(int bs, int dim, int classes, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.x.resize(static_cast<size_t>(bs) * dim);
  b.y.resize(static_cast<size_t>(bs));
  for (auto& v : b.x) v = static_cast<float>(rng.normal());
  for (auto& v : b.y) v = rng.uniform_int(0, classes - 1);
  return b;
}

FlatModel linear_model() {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 3));
  m.finalize();
  return m;
}

TEST(NnModel, ParamDimsAddUp) {
  FlatModel m(8, 4);
  m.add(std::make_unique<Linear>(8, 16));   // 8*16 + 16 = 144
  m.add(std::make_unique<BatchNorm1d>(16)); // 32 params, 33 stats
  m.add(std::make_unique<ReLU>(16));
  m.add(std::make_unique<Linear>(16, 4));   // 16*4 + 4 = 68
  m.finalize();
  EXPECT_EQ(m.param_dim(), 144u + 32u + 68u);
  EXPECT_EQ(m.stat_dim(), 33u);
}

TEST(NnModel, RejectsDimMismatch) {
  FlatModel m(8, 4);
  m.add(std::make_unique<Linear>(8, 16));
  EXPECT_THROW(m.add(std::make_unique<Linear>(8, 4)), CheckError);
}

TEST(NnModel, RejectsWrongOutputDim) {
  FlatModel m(8, 4);
  m.add(std::make_unique<Linear>(8, 16));
  EXPECT_THROW(m.finalize(), CheckError);
}

TEST(NnModel, InitIsDeterministic) {
  FlatModel m = linear_model();
  Rng r1(5);
  Rng r2(5);
  EXPECT_EQ(m.make_params(r1), m.make_params(r2));
}

TEST(NnGradCheck, LinearOnly) {
  FlatModel m = linear_model();
  const Batch b = random_batch(4, 6, 3, 1);
  Rng rng(2);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 4, rng, 0);
  EXPECT_LT(res.max_rel_err, 2e-2) << "abs err " << res.max_abs_err;
}

TEST(NnGradCheck, LinearRelu) {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 10));
  m.add(std::make_unique<ReLU>(10));
  m.add(std::make_unique<Linear>(10, 3));
  m.finalize();
  const Batch b = random_batch(5, 6, 3, 3);
  Rng rng(4);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 5, rng, 0);
  EXPECT_LT(res.max_rel_err, 2e-2);
}

TEST(NnGradCheck, WithBatchNorm) {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 8));
  m.add(std::make_unique<BatchNorm1d>(8));
  m.add(std::make_unique<ReLU>(8));
  m.add(std::make_unique<Linear>(8, 3));
  m.finalize();
  const Batch b = random_batch(8, 6, 3, 5);
  Rng rng(6);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 8, rng, 128);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(NnGradCheck, ResidualBlock) {
  FlatModel m(6, 3);
  m.add(std::make_unique<Linear>(6, 8));
  m.add(std::make_unique<ReLU>(8));
  m.add(std::make_unique<ResidualBlock>(8));
  m.add(std::make_unique<Linear>(8, 3));
  m.finalize();
  const Batch b = random_batch(8, 6, 3, 7);
  Rng rng(8);
  const auto res = grad_check(m, b.x.data(), b.y.data(), 8, rng, 128);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(NnBatchNorm, UpdatesRunningStatsInTraining) {
  FlatModel m(4, 2);
  m.add(std::make_unique<BatchNorm1d>(4));
  m.add(std::make_unique<Linear>(4, 2));
  m.finalize();
  Rng rng(9);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  // stats layout: mean[4], var[4], count[1], then nothing for Linear.
  EXPECT_FLOAT_EQ(stats[0], 0.0f);
  EXPECT_FLOAT_EQ(stats[4], 1.0f);
  EXPECT_FLOAT_EQ(stats[8], 0.0f);

  const Batch b = random_batch(16, 4, 2, 10);
  std::vector<float> grads(m.param_dim());
  m.forward_backward(params.data(), stats.data(), b.x.data(), b.y.data(), 16,
                     grads.data());
  EXPECT_FLOAT_EQ(stats[8], 1.0f);  // num_batches_tracked incremented
  // Running mean moved toward the batch mean (momentum 0.1, inputs ~N(0,1)).
  bool moved = false;
  for (int j = 0; j < 4; ++j) {
    if (std::fabs(stats[static_cast<size_t>(j)]) > 1e-6) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(NnBatchNorm, EvalModeDoesNotTouchStats) {
  FlatModel m(4, 2);
  m.add(std::make_unique<BatchNorm1d>(4));
  m.add(std::make_unique<Linear>(4, 2));
  m.finalize();
  Rng rng(11);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  const auto stats_before = stats;
  const Batch b = random_batch(8, 4, 2, 12);
  std::vector<float> logits(8 * 2);
  m.predict(params.data(), stats.data(), b.x.data(), 8, logits.data());
  EXPECT_EQ(stats, stats_before);
}

TEST(NnBatchNorm, TrainingForwardNormalizes) {
  // Direct layer test: training output should have ~zero mean, unit var.
  BatchNorm1d bn(3);
  bn.bind({0, bn.param_count()}, {0, bn.stat_count()});
  std::vector<float> params(bn.param_count());
  std::vector<float> stats(bn.stat_count());
  Rng rng(13);
  bn.init_params(params.data(), rng);
  bn.init_stats(stats.data());
  const int bs = 64;
  std::vector<float> in(static_cast<size_t>(bs) * 3);
  for (auto& v : in) v = static_cast<float>(rng.normal(3.0, 2.0));
  std::vector<float> out(in.size());
  bn.forward(params.data(), stats.data(), in.data(), out.data(), bs, true);
  for (int j = 0; j < 3; ++j) {
    double mu = 0.0, var = 0.0;
    for (int i = 0; i < bs; ++i) mu += out[static_cast<size_t>(i) * 3 + j];
    mu /= bs;
    for (int i = 0; i < bs; ++i) {
      const double d = out[static_cast<size_t>(i) * 3 + j] - mu;
      var += d * d;
    }
    var /= bs;
    EXPECT_NEAR(mu, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(NnLoss, MatchesManualComputation) {
  // Two classes, logits (0, 0) -> loss = ln 2 regardless of label.
  const std::vector<float> logits{0.0f, 0.0f};
  const int y0 = 0;
  EXPECT_NEAR(softmax_xent(logits.data(), &y0, 1, 2, nullptr), std::log(2.0f),
              1e-6);
}

TEST(NnLoss, GradientRowsSumToZero) {
  Rng rng(14);
  const int bs = 4, c = 5;
  std::vector<float> logits(static_cast<size_t>(bs) * c);
  for (auto& v : logits) v = static_cast<float>(rng.normal());
  std::vector<int> y{0, 1, 2, 3};
  std::vector<float> g(logits.size());
  softmax_xent(logits.data(), y.data(), bs, c, g.data());
  for (int i = 0; i < bs; ++i) {
    double s = 0.0;
    for (int j = 0; j < c; ++j) s += g[static_cast<size_t>(i) * c + j];
    EXPECT_NEAR(s, 0.0, 1e-6);  // softmax grad rows are zero-sum
  }
}

TEST(NnLoss, TopkAccuracy) {
  // logits row: class 2 highest, class 0 second.
  const std::vector<float> logits{1.0f, -1.0f, 2.0f};
  int y = 0;
  EXPECT_DOUBLE_EQ(accuracy_topk(logits.data(), &y, 1, 3, 1), 0.0);
  EXPECT_DOUBLE_EQ(accuracy_topk(logits.data(), &y, 1, 3, 2), 1.0);
  y = 2;
  EXPECT_DOUBLE_EQ(accuracy_topk(logits.data(), &y, 1, 3, 1), 1.0);
}

TEST(NnOptimizer, MomentumAccumulates) {
  SgdMomentum opt(2, 0.9);
  std::vector<float> w{0.0f, 0.0f};
  const std::vector<float> g{1.0f, -2.0f};
  opt.step(w.data(), g.data(), 0.1);
  EXPECT_NEAR(w[0], -0.1f, 1e-6);  // v = g
  opt.step(w.data(), g.data(), 0.1);
  EXPECT_NEAR(w[0], -0.1f - 0.1f * 1.9f, 1e-6);  // v = 0.9*g + g
  EXPECT_NEAR(w[1], 0.2f + 0.1f * 3.8f, 1e-6);
}

TEST(NnOptimizer, ResetClearsVelocity) {
  SgdMomentum opt(1, 0.9);
  std::vector<float> w{0.0f};
  const std::vector<float> g{1.0f};
  opt.step(w.data(), g.data(), 1.0);
  opt.reset();
  w[0] = 0.0f;
  opt.step(w.data(), g.data(), 1.0);
  EXPECT_NEAR(w[0], -1.0f, 1e-6);
}

TEST(NnModel, TrainingReducesLossOnSeparableData) {
  FlatModel m(2, 2);
  m.add(std::make_unique<Linear>(2, 8));
  m.add(std::make_unique<ReLU>(8));
  m.add(std::make_unique<Linear>(8, 2));
  m.finalize();
  Rng rng(15);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  // Separable blobs at (+2, +2) and (-2, -2).
  const int n = 64;
  std::vector<float> x(static_cast<size_t>(n) * 2);
  std::vector<int> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    const float cx = label == 0 ? 2.0f : -2.0f;
    x[static_cast<size_t>(i) * 2] = cx + static_cast<float>(rng.normal()) * 0.3f;
    x[static_cast<size_t>(i) * 2 + 1] =
        cx + static_cast<float>(rng.normal()) * 0.3f;
    y[static_cast<size_t>(i)] = label;
  }
  std::vector<float> grads(m.param_dim());
  SgdMomentum opt(m.param_dim(), 0.9);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 60; ++step) {
    const float loss = m.forward_backward(params.data(), stats.data(),
                                          x.data(), y.data(), n, grads.data());
    if (step == 0) first_loss = loss;
    last_loss = loss;
    opt.step(params.data(), grads.data(), 0.05);
  }
  EXPECT_LT(last_loss, first_loss * 0.2f);
  const auto eval =
      m.evaluate(params.data(), stats.data(), x.data(), y.data(), n, 32, 1);
  EXPECT_GT(eval.accuracy, 0.95);
}

TEST(NnModel, CloneSharesArchitectureNotCaches) {
  FlatModel m = linear_model();
  FlatModel c = m.clone();
  EXPECT_EQ(c.param_dim(), m.param_dim());
  EXPECT_EQ(c.stat_dim(), m.stat_dim());
  // Both instances evaluate the same parameters to the same logits.
  Rng rng(16);
  auto params = m.make_params(rng);
  auto stats = m.make_stats();
  const Batch b = random_batch(3, 6, 3, 17);
  std::vector<float> l1(9), l2(9);
  m.predict(params.data(), stats.data(), b.x.data(), 3, l1.data());
  c.predict(params.data(), stats.data(), b.x.data(), 3, l2.data());
  EXPECT_EQ(l1, l2);
}

TEST(NnProxies, DimensionsAndCosts) {
  auto sn = make_shufflenet_proxy(64, 62);
  auto mn = make_mobilenet_proxy(64, 62);
  auto rn = make_resnet34_proxy(64, 35);
  EXPECT_GT(sn.model.param_dim(), 10000u);
  EXPECT_GT(mn.model.param_dim(), sn.model.param_dim());
  EXPECT_GT(rn.model.param_dim(), 10000u);
  EXPECT_GT(rn.flops_per_sample, mn.flops_per_sample);
  EXPECT_GT(mn.flops_per_sample, sn.flops_per_sample);
  // All three carry BatchNorm statistics.
  EXPECT_GT(sn.model.stat_dim(), 0u);
  EXPECT_GT(rn.model.stat_dim(), 0u);
}

TEST(NnProxies, FactoryByName) {
  EXPECT_EQ(make_proxy("shufflenet", 8, 4).name, "shufflenet");
  EXPECT_EQ(make_proxy("resnet34", 8, 4).name, "resnet34");
  EXPECT_THROW(make_proxy("vgg", 8, 4), CheckError);
}

TEST(NnProxies, ResNetProxyGradCheck) {
  auto proxy = make_resnet34_proxy(6, 3);
  const Batch b = random_batch(8, 6, 3, 18);
  Rng rng(19);
  const auto res = grad_check(proxy.model, b.x.data(), b.y.data(), 8, rng, 96);
  EXPECT_LT(res.max_rel_err, 8e-2);
}

// FNV-1a over the raw bytes of the trained parameters and statistics.
uint64_t model_hash(const std::vector<float>& params,
                    const std::vector<float>& stats) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto* v : {&params, &stats}) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(v->data());
    for (size_t i = 0; i < v->size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

// Training golden: 10 forward_backward + SgdMomentum steps at batch 16 on
// each proxy. The hashes were produced by the naive GEMMs before the tiled
// kernels replaced them; a kernel that changes any summation order (or lets
// the compiler fuse mul+add) changes them, and must re-pin them as a
// declared contract change (DESIGN.md "Training kernels").
void check_training_hashes() {
  const struct {
    const char* name;
    int classes;
    uint64_t hash;
  } cases[] = {
      {"shufflenet", 62, 0xc332165c7e2e2a51ull},
      {"mobilenet", 62, 0xd7e46c007d6a21faull},
      {"resnet34", 35, 0x49ed779cf2d48be7ull},
  };
  for (const auto& c : cases) {
    ModelProxy proxy = make_proxy(c.name, 64, c.classes);
    Rng rng(42);
    std::vector<float> params = proxy.model.make_params(rng);
    std::vector<float> stats = proxy.model.make_stats();
    std::vector<float> grads(params.size());
    SgdMomentum opt(params.size(), 0.9);
    for (int step = 0; step < 10; ++step) {
      const Batch b = random_batch(16, 64, c.classes, 100 + step);
      proxy.model.forward_backward(params.data(), stats.data(), b.x.data(),
                                   b.y.data(), 16, grads.data());
      opt.step(params.data(), grads.data(), 0.05);
    }
    EXPECT_EQ(model_hash(params, stats), c.hash)
        << c.name << " hash 0x" << std::hex << model_hash(params, stats);
  }
}

// At the tier this process picked by CPUID.
TEST(NnProxies, TrainingStepsMatchPinnedHash) { check_training_hashes(); }

class NnTiers : public testing::GemmTierTest {};

TEST_P(NnTiers, TrainingStepsMatchPinnedHash) { check_training_hashes(); }

INSTANTIATE_TEST_SUITE_P(Tiers, NnTiers, testing::all_gemm_tiers(),
                         testing::gemm_tier_param_name);

// ---- The column-loop layers the row-major passes replaced, kept as ------
// ---- bit-exact oracles. -------------------------------------------------

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

bool same_bits(float x, float y) { return std::memcmp(&x, &y, sizeof x) == 0; }

// BatchNorm1d state the oracle reads and writes, in the layer's flat
// layouts: params = gamma[dim] beta[dim]; stats = mean[dim] var[dim] count.
struct BnState {
  std::vector<float> params, stats, grads;
  std::vector<float> xhat, inv_std;  // training caches
};

// BatchNorm1d::forward as one column loop per feature.
void ref_bn_forward(BnState& st, const float* in, float* out, int bs, int dim,
                    bool training) {
  const float momentum = 0.1f, eps = 1e-5f;
  const float* gamma = st.params.data();
  const float* beta = gamma + dim;
  float* run_mean = st.stats.data();
  float* run_var = run_mean + dim;
  float* num_batches = run_var + dim;
  if (training) {
    st.xhat.resize(static_cast<size_t>(bs) * dim);
    st.inv_std.resize(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) {
      double m = 0.0;
      for (int i = 0; i < bs; ++i) m += in[static_cast<size_t>(i) * dim + j];
      m /= bs;
      double v = 0.0;
      for (int i = 0; i < bs; ++i) {
        const double d = in[static_cast<size_t>(i) * dim + j] - m;
        v += d * d;
      }
      const double var_biased = v / bs;
      const double var_unbiased = bs > 1 ? v / (bs - 1) : var_biased;
      const float istd = 1.0f / std::sqrt(static_cast<float>(var_biased) + eps);
      st.inv_std[static_cast<size_t>(j)] = istd;
      for (int i = 0; i < bs; ++i) {
        const size_t idx = static_cast<size_t>(i) * dim + j;
        const float xh = (in[idx] - static_cast<float>(m)) * istd;
        st.xhat[idx] = xh;
        out[idx] = gamma[j] * xh + beta[j];
      }
      run_mean[j] = (1.0f - momentum) * run_mean[j] +
                    momentum * static_cast<float>(m);
      run_var[j] = (1.0f - momentum) * run_var[j] +
                   momentum * static_cast<float>(var_unbiased);
    }
    num_batches[0] += 1.0f;
  } else {
    for (int j = 0; j < dim; ++j) {
      const float istd = 1.0f / std::sqrt(run_var[j] + eps);
      const float m = run_mean[j];
      for (int i = 0; i < bs; ++i) {
        const size_t idx = static_cast<size_t>(i) * dim + j;
        out[idx] = gamma[j] * (in[idx] - m) * istd + beta[j];
      }
    }
  }
}

// BatchNorm1d::backward as one column loop per feature.
void ref_bn_backward(BnState& st, const float* gout, float* gin, int bs,
                     int dim) {
  const float* gamma = st.params.data();
  float* ggamma = st.grads.data();
  float* gbeta = ggamma + dim;
  for (int j = 0; j < dim; ++j) {
    double sum_g = 0.0;
    double sum_gx = 0.0;
    for (int i = 0; i < bs; ++i) {
      const size_t idx = static_cast<size_t>(i) * dim + j;
      sum_g += gout[idx];
      sum_gx += static_cast<double>(gout[idx]) * st.xhat[idx];
    }
    ggamma[j] += static_cast<float>(sum_gx);
    gbeta[j] += static_cast<float>(sum_g);
    const float istd = st.inv_std[static_cast<size_t>(j)];
    const float c = gamma[j] * istd / static_cast<float>(bs);
    for (int i = 0; i < bs; ++i) {
      const size_t idx = static_cast<size_t>(i) * dim + j;
      gin[idx] = c * (static_cast<float>(bs) * gout[idx] -
                      static_cast<float>(sum_g) -
                      st.xhat[idx] * static_cast<float>(sum_gx));
    }
  }
}

std::vector<float> normal_vec(size_t n, Rng& rng, double mean, double sd) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(mean, sd));
  return v;
}

TEST(NnOracles, BatchNormMatchesColumnLoops) {
  Rng rng(21);
  for (const int bs : {2, 3, 16, 17}) {
    for (const int dim : {1, 7, 64, 128}) {
      const size_t n = static_cast<size_t>(bs) * dim;
      BatchNorm1d bn(dim);
      bn.bind({0, bn.param_count()}, {0, bn.stat_count()});
      BnState ref;
      ref.params = normal_vec(bn.param_count(), rng, 1.0, 0.5);
      ref.stats = normal_vec(bn.stat_count(), rng, 0.0, 1.0);
      for (int j = 0; j < dim; ++j) {  // running variances are positive
        ref.stats[static_cast<size_t>(dim + j)] =
            std::fabs(ref.stats[static_cast<size_t>(dim + j)]) + 0.1f;
      }
      ref.grads = normal_vec(bn.param_count(), rng, 0.0, 1.0);
      std::vector<float> stats = ref.stats;
      std::vector<float> grads = ref.grads;
      const auto in = normal_vec(n, rng, 3.0, 2.0);
      const auto gout = normal_vec(n, rng, 0.0, 1.0);
      const std::string shape =
          std::to_string(bs) + "x" + std::to_string(dim);

      for (const bool training : {false, true}) {
        std::vector<float> out(n), ref_out(n);
        bn.forward(ref.params.data(), stats.data(), in.data(), out.data(), bs,
                   training);
        ref_bn_forward(ref, in.data(), ref_out.data(), bs, dim, training);
        EXPECT_TRUE(same_bits(out, ref_out))
            << shape << " training=" << training;
        EXPECT_TRUE(same_bits(stats, ref.stats))
            << shape << " training=" << training;
      }
      std::vector<float> gin(n), ref_gin(n);
      bn.backward(ref.params.data(), gout.data(), gin.data(), grads.data(), bs);
      ref_bn_backward(ref, gout.data(), ref_gin.data(), bs, dim);
      EXPECT_TRUE(same_bits(gin, ref_gin)) << shape;
      EXPECT_TRUE(same_bits(grads, ref.grads)) << shape;
    }
  }
}

TEST(NnOracles, ReluMatchesOutputMask) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> specials{0.0f, -0.0f, nan, -nan, inf, -inf,
                                    1.5f, -2.5f};
  const int dim = static_cast<int>(specials.size());
  const int bs = dim;
  std::vector<float> in, gout;
  // Row r pairs input special j with gradient special (j + r) mod dim, so
  // the rows cover every pair.
  for (int r = 0; r < bs; ++r) {
    for (int j = 0; j < dim; ++j) {
      in.push_back(specials[static_cast<size_t>(j)]);
      gout.push_back(specials[static_cast<size_t>((j + r) % dim)]);
    }
  }
  ReLU relu(dim);
  std::vector<float> out(in.size()), gin(in.size());
  relu.forward(nullptr, nullptr, in.data(), out.data(), bs, true);
  relu.backward(nullptr, gout.data(), gin.data(), nullptr, bs);
  std::vector<float> ref_out(in.size()), ref_gin(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    ref_out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    ref_gin[i] = ref_out[i] > 0.0f ? gout[i] : 0.0f;
  }
  EXPECT_TRUE(same_bits(out, ref_out));
  EXPECT_TRUE(same_bits(gin, ref_gin));
}

// ResidualBlock with its old final ReLU: forward copies the block output,
// and backward masks by that copy with a per-element branch. The inner
// chain is the same five layers, bound to the same flat slices.
class RefResidual {
 public:
  explicit RefResidual(int dim) : dim_(dim) {
    inner_.push_back(std::make_unique<Linear>(dim, dim));
    inner_.push_back(std::make_unique<BatchNorm1d>(dim));
    inner_.push_back(std::make_unique<ReLU>(dim));
    inner_.push_back(std::make_unique<Linear>(dim, dim));
    inner_.push_back(std::make_unique<BatchNorm1d>(dim));
    size_t po = 0, so = 0;
    for (auto& l : inner_) {
      l->bind({po, l->param_count()}, {so, l->stat_count()});
      po += l->param_count();
      so += l->stat_count();
    }
  }

  void forward(const float* params, float* stats, const float* in,
               float* out, int bs) {
    const size_t n = static_cast<size_t>(bs) * dim_;
    act_.resize(inner_.size());
    const float* cur = in;
    for (size_t i = 0; i < inner_.size(); ++i) {
      act_[i].resize(n);
      inner_[i]->forward(params, stats, cur, act_[i].data(), bs, true);
      cur = act_[i].data();
    }
    for (size_t i = 0; i < n; ++i) {
      const float v = in[i] + act_.back()[i];
      out[i] = v > 0.0f ? v : 0.0f;
    }
    final_out_.assign(out, out + n);
  }

  void backward(const float* params, const float* gout, float* gin,
                float* grads, int bs) {
    const size_t n = static_cast<size_t>(bs) * dim_;
    std::vector<float> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      if (final_out_[i] > 0.0f) {
        a[i] = gout[i];
      } else {
        a[i] = 0.0f;
      }
    }
    for (size_t i = 0; i < n; ++i) gin[i] = a[i];
    float* g = a.data();
    float* gnext = b.data();
    for (size_t i = inner_.size(); i-- > 0;) {
      inner_[i]->backward(params, g, gnext, grads, bs);
      std::swap(g, gnext);
    }
    for (size_t i = 0; i < n; ++i) gin[i] += g[i];
  }

 private:
  int dim_;
  std::vector<std::unique_ptr<Layer>> inner_;
  std::vector<std::vector<float>> act_;
  std::vector<float> final_out_;
};

TEST(NnOracles, ResidualBlockMatchesOutputCopy) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> specials{0.0f, -0.0f, nan, -nan, inf, -inf,
                                    1.5f, -2.5f};
  const int dim = static_cast<int>(specials.size());
  Rng rng(23);
  // Finite inputs keep F(in) finite, so the last BatchNorm's gamma = ±0
  // and beta = one special per column make F(in) ±0, ±inf or NaN column
  // by column, and zero inputs then put ±0 into in + F(in) as well. The
  // second pass feeds the specials straight in.
  for (const bool special_in : {false, true}) {
    for (const int bs : {2, 3, 16, 17}) {
      const size_t n = static_cast<size_t>(bs) * dim;
      ResidualBlock block(dim);
      block.bind({0, block.param_count()}, {0, block.stat_count()});
      block.bind_children();
      RefResidual ref(dim);
      std::vector<float> params =
          normal_vec(block.param_count(), rng, 0.0, 0.5);
      float* gamma = params.data() + params.size() - 2 * dim;
      for (int j = 0; j < dim; ++j) {
        gamma[j] = j % 2 == 0 ? 0.0f : -0.0f;
        gamma[dim + j] = specials[static_cast<size_t>(j)];
      }
      std::vector<float> in = normal_vec(n, rng, 0.0, 1.0);
      std::vector<float> gout = normal_vec(n, rng, 0.0, 1.0);
      for (size_t i = 0; i < n; ++i) {
        if (special_in) {
          in[i] = specials[i % specials.size()];
        } else if (i % 3 == 0) {
          in[i] = i % 2 == 0 ? 0.0f : -0.0f;
        }
        if (i % 3 == 1) gout[i] = specials[(i / 3) % specials.size()];
      }
      std::vector<float> stats(block.stat_count());
      block.init_stats(stats.data());
      std::vector<float> ref_stats = stats;
      std::vector<float> out(n), ref_out(n), gin(n), ref_gin(n);
      std::vector<float> grads(params.size(), 0.0f), ref_grads = grads;

      block.forward(params.data(), stats.data(), in.data(), out.data(), bs,
                    true);
      ref.forward(params.data(), ref_stats.data(), in.data(), ref_out.data(),
                  bs);
      block.backward(params.data(), gout.data(), gin.data(), grads.data(),
                     bs);
      ref.backward(params.data(), gout.data(), ref_gin.data(),
                   ref_grads.data(), bs);
      const std::string shape = "bs=" + std::to_string(bs) +
                                " special_in=" + std::to_string(special_in);
      EXPECT_TRUE(same_bits(out, ref_out)) << shape;
      EXPECT_TRUE(same_bits(stats, ref_stats)) << shape;
      EXPECT_TRUE(same_bits(gin, ref_gin)) << shape;
      EXPECT_TRUE(same_bits(grads, ref_grads)) << shape;
    }
  }
}

// softmax_xent with its per-call probability buffer.
float ref_softmax_xent(const float* logits, const int* labels, int bs,
                       int classes, float* grad_logits) {
  double loss = 0.0;
  const float inv_bs = 1.0f / static_cast<float>(bs);
  std::vector<float> prob(static_cast<size_t>(classes));
  for (int i = 0; i < bs; ++i) {
    const float* row = logits + static_cast<size_t>(i) * classes;
    const int y = labels[i];
    float mx = row[0];
    for (int j = 1; j < classes; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < classes; ++j) {
      prob[static_cast<size_t>(j)] = std::exp(row[j] - mx);
      sum += prob[static_cast<size_t>(j)];
    }
    const double log_sum = std::log(sum);
    loss += -(static_cast<double>(row[y]) - mx - log_sum);
    if (grad_logits != nullptr) {
      float* g = grad_logits + static_cast<size_t>(i) * classes;
      const float inv_sum = static_cast<float>(1.0 / sum);
      for (int j = 0; j < classes; ++j) {
        g[j] = prob[static_cast<size_t>(j)] * inv_sum * inv_bs;
      }
      g[y] -= inv_bs;
    }
  }
  return static_cast<float>(loss / bs);
}

TEST(NnOracles, SoftmaxXentMatchesAllocatingLoop) {
  Rng rng(22);
  for (const int bs : {1, 3, 16}) {
    for (const int classes : {2, 7, 62, 64}) {
      const auto logits =
          normal_vec(static_cast<size_t>(bs) * classes, rng, 0.0, 4.0);
      std::vector<int> y(static_cast<size_t>(bs));
      for (auto& v : y) v = rng.uniform_int(0, classes - 1);
      std::vector<float> g(logits.size()), ref_g(logits.size());
      const float loss =
          softmax_xent(logits.data(), y.data(), bs, classes, g.data());
      const float ref_loss =
          ref_softmax_xent(logits.data(), y.data(), bs, classes, ref_g.data());
      EXPECT_TRUE(same_bits(loss, ref_loss)) << bs << "x" << classes;
      EXPECT_TRUE(same_bits(g, ref_g)) << bs << "x" << classes;
      EXPECT_TRUE(same_bits(
          softmax_xent(logits.data(), y.data(), bs, classes, nullptr),
          ref_loss))
          << bs << "x" << classes;
    }
  }
}

}  // namespace
}  // namespace gluefl
