#include "nn/batchnorm.h"

#include <cmath>

#include "common/check.h"

namespace gluefl {

BatchNorm1d::BatchNorm1d(int dim, float momentum, float eps)
    : dim_(dim), momentum_(momentum), eps_(eps) {
  GLUEFL_CHECK(dim > 0);
}

void BatchNorm1d::init_params(float* flat_params, Rng& /*rng*/) const {
  float* gamma = flat_params + params_.offset;
  float* beta = gamma + dim_;
  for (int j = 0; j < dim_; ++j) {
    gamma[j] = 1.0f;
    beta[j] = 0.0f;
  }
}

void BatchNorm1d::init_stats(float* flat_stats) const {
  float* mean = flat_stats + stats_.offset;
  float* var = mean + dim_;
  float* count = var + dim_;
  for (int j = 0; j < dim_; ++j) {
    mean[j] = 0.0f;
    var[j] = 1.0f;
  }
  count[0] = 0.0f;
}

// Every pass walks the batch row by row, so the inner loops run over
// contiguous features. Each feature still sums its rows in ascending order
// into its own double accumulator, and each element is the same scalar
// expression, evaluated in the same order, as a per-feature column loop.
void BatchNorm1d::forward(const float* flat_params, float* flat_stats,
                          const float* in, float* out, int bs, bool training) {
  const float* gamma = flat_params + params_.offset;
  const float* beta = gamma + dim_;
  float* run_mean = flat_stats + stats_.offset;
  float* run_var = run_mean + dim_;
  float* num_batches = run_var + dim_;
  const size_t d = static_cast<size_t>(dim_);

  if (training) {
    GLUEFL_CHECK_MSG(bs >= 2, "BatchNorm training requires batch size >= 2");
    xhat_.resize(static_cast<size_t>(bs) * d);
    inv_std_.resize(d);
    cached_bs_ = bs;
    acc_a_.assign(d, 0.0);
    acc_b_.assign(d, 0.0);
    double* mean = acc_a_.data();
    double* sq = acc_b_.data();
    float* istd = inv_std_.data();
    for (int i = 0; i < bs; ++i) {
      const float* xi = in + static_cast<size_t>(i) * d;
      for (size_t j = 0; j < d; ++j) mean[j] += xi[j];
    }
    for (size_t j = 0; j < d; ++j) mean[j] /= bs;
    for (int i = 0; i < bs; ++i) {
      const float* xi = in + static_cast<size_t>(i) * d;
      for (size_t j = 0; j < d; ++j) {
        const double dev = xi[j] - mean[j];
        sq[j] += dev * dev;
      }
    }
    for (size_t j = 0; j < d; ++j) {
      const double var_biased = sq[j] / bs;
      const double var_unbiased = bs > 1 ? sq[j] / (bs - 1) : var_biased;
      istd[j] = 1.0f / std::sqrt(static_cast<float>(var_biased) + eps_);
      run_mean[j] = (1.0f - momentum_) * run_mean[j] +
                    momentum_ * static_cast<float>(mean[j]);
      run_var[j] = (1.0f - momentum_) * run_var[j] +
                   momentum_ * static_cast<float>(var_unbiased);
    }
    for (int i = 0; i < bs; ++i) {
      const size_t row = static_cast<size_t>(i) * d;
      const float* __restrict xi = in + row;
      float* __restrict xh = xhat_.data() + row;
      float* __restrict oi = out + row;
      for (size_t j = 0; j < d; ++j) {
        xh[j] = (xi[j] - static_cast<float>(mean[j])) * istd[j];
        oi[j] = gamma[j] * xh[j] + beta[j];
      }
    }
    num_batches[0] += 1.0f;
  } else {
    fac_.resize(d);
    float* istd = fac_.data();
    for (size_t j = 0; j < d; ++j) {
      istd[j] = 1.0f / std::sqrt(run_var[j] + eps_);
    }
    for (int i = 0; i < bs; ++i) {
      const size_t row = static_cast<size_t>(i) * d;
      const float* __restrict xi = in + row;
      float* __restrict oi = out + row;
      for (size_t j = 0; j < d; ++j) {
        oi[j] = gamma[j] * (xi[j] - run_mean[j]) * istd[j] + beta[j];
      }
    }
  }
}

void BatchNorm1d::backward(const float* flat_params, const float* gout,
                           float* gin, float* flat_grads, int bs) {
  GLUEFL_CHECK_MSG(bs == cached_bs_, "backward batch differs from forward");
  const float* gamma = flat_params + params_.offset;
  float* ggamma = flat_grads + params_.offset;
  float* gbeta = ggamma + dim_;
  const size_t d = static_cast<size_t>(dim_);

  acc_a_.assign(d, 0.0);
  acc_b_.assign(d, 0.0);
  double* sum_g = acc_a_.data();   // sum of gout
  double* sum_gx = acc_b_.data();  // sum of gout * xhat
  for (int i = 0; i < bs; ++i) {
    const size_t row = static_cast<size_t>(i) * d;
    const float* gi = gout + row;
    const float* xh = xhat_.data() + row;
    for (size_t j = 0; j < d; ++j) {
      sum_g[j] += gi[j];
      sum_gx[j] += static_cast<double>(gi[j]) * xh[j];
    }
  }
  for (size_t j = 0; j < d; ++j) {
    ggamma[j] += static_cast<float>(sum_gx[j]);
    gbeta[j] += static_cast<float>(sum_g[j]);
  }
  if (gin == nullptr) return;
  fac_.resize(d);
  float* c = fac_.data();
  const float fbs = static_cast<float>(bs);
  for (size_t j = 0; j < d; ++j) c[j] = gamma[j] * inv_std_[j] / fbs;
  for (int i = 0; i < bs; ++i) {
    const size_t row = static_cast<size_t>(i) * d;
    const float* __restrict gi = gout + row;
    const float* __restrict xh = xhat_.data() + row;
    float* __restrict gn = gin + row;
    for (size_t j = 0; j < d; ++j) {
      gn[j] = c[j] * (fbs * gi[j] - static_cast<float>(sum_g[j]) -
                      xh[j] * static_cast<float>(sum_gx[j]));
    }
  }
}

std::unique_ptr<Layer> BatchNorm1d::clone() const {
  auto l = std::make_unique<BatchNorm1d>(dim_, momentum_, eps_);
  l->bind(params_, stats_);
  return l;
}

}  // namespace gluefl
