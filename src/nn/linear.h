// Fully-connected layer: out = in * W + b, W stored row-major [in_dim, out_dim].
#pragma once

#include <vector>

#include "nn/layer.h"

namespace gluefl {

class Linear final : public Layer {
 public:
  Linear(int in_dim, int out_dim);

  std::string name() const override { return "Linear"; }
  int in_dim() const override { return in_; }
  int out_dim() const override { return out_; }
  size_t param_count() const override {
    return static_cast<size_t>(in_) * out_ + out_;
  }

  void init_params(float* flat_params, Rng& rng) const override;
  void forward(const float* flat_params, float* flat_stats, const float* in,
               float* out, int bs, bool training) override;
  void backward(const float* flat_params, const float* gout, float* gin,
                float* flat_grads, int bs) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  int in_;
  int out_;
  const float* cached_in_ = nullptr;  // input of the last training forward
  // gout^T and dX^T scratch for the input gradient
  std::vector<float> gout_t_, gin_t_;
  int cached_bs_ = 0;
};

}  // namespace gluefl
