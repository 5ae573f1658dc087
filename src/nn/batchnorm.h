// 1-D batch normalization with PyTorch-compatible semantics.
//
// Trainable parameters (in the flat trainable vector, thus subject to
// masking / sparsification): gamma[n], beta[n].
// Non-trainable statistics (in the flat stats vector, aggregated with the
// unweighted-mean rule of the paper's Appendix D): running_mean[n],
// running_var[n], num_batches_tracked[1].
//
// Training mode normalizes with the biased batch variance and updates the
// running statistics with momentum 0.1 (running_var uses the unbiased batch
// variance); eval mode normalizes with the running statistics.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace gluefl {

class BatchNorm1d final : public Layer {
 public:
  explicit BatchNorm1d(int dim, float momentum = 0.1f, float eps = 1e-5f);

  std::string name() const override { return "BatchNorm1d"; }
  int in_dim() const override { return dim_; }
  int out_dim() const override { return dim_; }
  size_t param_count() const override { return 2 * static_cast<size_t>(dim_); }
  size_t stat_count() const override { return 2 * static_cast<size_t>(dim_) + 1; }

  void init_params(float* flat_params, Rng& rng) const override;
  void init_stats(float* flat_stats) const override;
  void forward(const float* flat_params, float* flat_stats, const float* in,
               float* out, int bs, bool training) override;
  void backward(const float* flat_params, const float* gout, float* gin,
                float* flat_grads, int bs) override;
  std::unique_ptr<Layer> clone() const override;

 private:
  int dim_;
  float momentum_;
  float eps_;
  // caches from the last training-mode forward
  std::vector<float> xhat_;     // normalized inputs [bs, dim]
  std::vector<float> inv_std_;  // 1/sqrt(var + eps) per feature
  int cached_bs_ = 0;
  // Per-feature scratch of the row-major passes: two double accumulators
  // that sum the rows in ascending order, and a float factor that the
  // elementwise row pass reads.
  std::vector<double> acc_a_, acc_b_;
  std::vector<float> fac_;
};

}  // namespace gluefl
