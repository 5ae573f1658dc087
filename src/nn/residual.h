// Residual block: out = ReLU(in + F(in)) where
//   F = Linear(dim,dim) -> BatchNorm1d -> ReLU -> Linear(dim,dim) -> BatchNorm1d
//
// This is the MLP analogue of a ResNet basic block; it gives the ResNet-34
// proxy the skip-connection and BatchNorm training dynamics of the paper's
// Google Speech model.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace gluefl {

class ResidualBlock final : public Layer {
 public:
  explicit ResidualBlock(int dim);

  std::string name() const override { return "ResidualBlock"; }
  int in_dim() const override { return dim_; }
  int out_dim() const override { return dim_; }
  size_t param_count() const override;
  size_t stat_count() const override;

  /// Distributes the bound slices across the inner layers in order.
  void bind_children();
  void init_params(float* flat_params, Rng& rng) const override;
  void init_stats(float* flat_stats) const override;
  void forward(const float* flat_params, float* flat_stats, const float* in,
               float* out, int bs, bool training) override;
  void backward(const float* flat_params, const float* gout, float* gin,
                float* flat_grads, int bs) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  int dim_;
  std::vector<std::unique_ptr<Layer>> inner_;
  // forward activations: act_[i] = output of inner_[i]
  std::vector<std::vector<float>> act_;
  const float* cached_in_ = nullptr;  // input of the last training forward
  std::vector<float> gbuf_a_, gbuf_b_;
  int cached_bs_ = 0;
};

}  // namespace gluefl
