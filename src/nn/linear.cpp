#include "nn/linear.h"

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "tensor/ops.h"

namespace gluefl {

Linear::Linear(int in_dim, int out_dim) : in_(in_dim), out_(out_dim) {
  GLUEFL_CHECK(in_dim > 0 && out_dim > 0);
}

void Linear::init_params(float* flat_params, Rng& rng) const {
  float* w = flat_params + params_.offset;
  float* b = w + static_cast<size_t>(in_) * out_;
  // Kaiming-uniform fan-in initialization (matches PyTorch's default for
  // layers followed by ReLU).
  const float bound = std::sqrt(6.0f / static_cast<float>(in_));
  for (size_t i = 0; i < static_cast<size_t>(in_) * out_; ++i) {
    w[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  for (int j = 0; j < out_; ++j) b[j] = 0.0f;
}

void Linear::forward(const float* flat_params, float* /*flat_stats*/,
                     const float* in, float* out, int bs, bool training) {
  const float* w = flat_params + params_.offset;
  const float* b = w + static_cast<size_t>(in_) * out_;
  gemm_nn(in, w, out, bs, in_, out_);
  add_row_bias(b, out, bs, out_);
  if (training) {
    cached_in_ = in;
    cached_bs_ = bs;
  }
}

void Linear::backward(const float* flat_params, const float* gout, float* gin,
                      float* flat_grads, int bs) {
  GLUEFL_CHECK_MSG(bs == cached_bs_, "backward batch differs from forward");
  const float* w = flat_params + params_.offset;
  float* gw = flat_grads + params_.offset;
  float* gb = gw + static_cast<size_t>(in_) * out_;
  // dW[in,out] += X^T[in,bs] * gout[bs,out]
  gemm_tn(cached_in_, gout, gw, bs, in_, out_, /*accumulate=*/true);
  // db[out] += column sums of gout
  for (int i = 0; i < bs; ++i) {
    const float* gi = gout + static_cast<size_t>(i) * out_;
    for (int j = 0; j < out_; ++j) gb[j] += gi[j];
  }
  // dX[bs,in] = gout[bs,out] * W^T[out,in], computed as its transpose
  // dX^T[in,bs] = W[in,out] * gout^T[out,bs] so that only the two bs-row
  // matrices are transposed, not W. W[k,j] * gout[i,j] is the same
  // rounded product as gout[i,j] * W[k,j], and each dX entry still sums
  // over out in ascending order.
  if (gin != nullptr) {
    gout_t_.resize(static_cast<size_t>(bs) * out_);
    gin_t_.resize(static_cast<size_t>(bs) * in_);
    transpose(gout, gout_t_.data(), bs, out_);
    gemm_nn(w, gout_t_.data(), gin_t_.data(), in_, out_, bs);
    transpose(gin_t_.data(), gin, in_, bs);
  }
}

std::unique_ptr<Layer> Linear::clone() const {
  auto l = std::make_unique<Linear>(in_, out_);
  l->bind(params_, stats_);
  return l;
}

}  // namespace gluefl
