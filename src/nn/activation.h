// Parameter-free activation layers.
#pragma once

#include "nn/layer.h"

namespace gluefl {

class ReLU final : public Layer {
 public:
  explicit ReLU(int dim);

  std::string name() const override { return "ReLU"; }
  int in_dim() const override { return dim_; }
  int out_dim() const override { return dim_; }
  size_t param_count() const override { return 0; }

  void init_params(float* flat_params, Rng& rng) const override;
  void forward(const float* flat_params, float* flat_stats, const float* in,
               float* out, int bs, bool training) override;
  void backward(const float* flat_params, const float* gout, float* gin,
                float* flat_grads, int bs) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  int dim_;
  const float* cached_in_ = nullptr;  // input of the last training forward
  int cached_bs_ = 0;
};

}  // namespace gluefl
