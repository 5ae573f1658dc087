// Sparse Ternary Compression, masking part (Sattler et al., 2019; the
// paper's Algorithm 1).
//
// Clients upload the top-q fraction of their update by magnitude (with
// client-side error accumulation, per the STC design); the server
// aggregates with FedAvg weights and applies a second top-q over the
// aggregate, so only a q-fraction of the model changes per round. The
// changed positions differ round to round, which is what makes stale
// clients re-download most of the model (Fig. 2).
#pragma once

#include <memory>

#include "compress/error_feedback.h"
#include "fl/engine.h"
#include "fl/strategy.h"
#include "sampling/uniform_sampler.h"

namespace gluefl {

struct StcConfig {
  /// Total mask ratio q (fraction of coordinates kept on each side).
  double q = 0.2;
  /// Client-side error accumulation (STC's "memory"); the paper's
  /// Algorithm 1 elides it but the STC system uses it.
  bool error_feedback = true;
};

class StcStrategy final : public Strategy {
 public:
  explicit StcStrategy(StcConfig cfg);

  std::string name() const override { return "stc"; }
  const StcConfig& config() const { return cfg_; }
  void init(SimEngine& engine) override;
  void run_round(SimEngine& engine, int round, RoundRecord& rec) override;

  /// Checkpointable: the per-client error-accumulation memories, which
  /// ride the residual journal; the strategy blob itself is empty.
  void save_state(ckpt::Writer& w) const override { (void)w; }
  void restore_state(ckpt::Reader& r) override { (void)r; }
  const ErrorFeedback* residuals() const override { return ec_.get(); }
  void restore_residuals(const ResidualRows& rows) override;

 private:
  StcConfig cfg_;
  std::unique_ptr<UniformSampler> sampler_;
  std::unique_ptr<ErrorFeedback> ec_;
  size_t k_ = 0;  // number of kept coordinates
};

}  // namespace gluefl
