// FedBuff-style buffered asynchronous aggregation (Nguyen et al., 2022),
// the first async strategy for the AsyncSimEngine.
//
// Clients ship dense deltas; when the engine's K-of-N buffer fills, the
// server applies a staleness-discounted weighted mean:
//
//   w <- w + eta_g * sum_i s(tau_i) Delta_i / sum_i s(tau_i)
//
// with s(tau) = 1 (constant) or (1 + tau)^(-alpha) (polynomial, FedBuff's
// default with alpha = 1/2). Normalizing by sum s(tau_i) rather than K
// keeps the step size stable when most of a buffer is heavily discounted.
// Updates staler than `max_staleness` (when positive) get weight zero —
// they still fill the buffer and pay their bytes, but cannot drag the
// model backwards. BatchNorm statistics are folded with the same weights
// (Appendix D uses an unweighted mean in the sync path; discounting stale
// BN deltas follows the same staleness logic as the trainable parameters).
//
// Byte accounting per dispatch/fold (handled by the engine):
//   download = staleness diff (SyncTracker) + BN stats
//   upload   = dense delta + BN stats
#pragma once

#include "fl/async_engine.h"
#include "fl/strategy.h"

namespace gluefl {

struct AsyncFedBuffConfig {
  StalenessDiscount discount = StalenessDiscount::kPolynomial;
  /// Polynomial discount exponent: s(tau) = (1 + tau)^(-alpha).
  double alpha = 0.5;
  /// Server learning rate eta_g applied to the aggregated step.
  double server_lr = 1.0;
  /// Updates with staleness > max_staleness get weight 0; <= 0 disables.
  int max_staleness = 0;
};

class AsyncFedBuffStrategy final : public AsyncStrategy {
 public:
  explicit AsyncFedBuffStrategy(AsyncFedBuffConfig cfg);

  std::string name() const override { return "async-fedbuff"; }
  const AsyncFedBuffConfig& config() const { return cfg_; }
  /// Discount s(tau) applied to an update trained tau aggregations ago.
  double staleness_weight(int staleness) const;
  void aggregate(SimEngine& engine, int version,
                 std::vector<AsyncUpdate>& buffer,
                 RoundRecord& rec) override;

  /// Checkpointable: the discount family is pure configuration, so there
  /// is no cross-aggregation state — the in-flight updates live in
  /// AsyncRunState and ride the snapshot's async section instead.
  void save_state(ckpt::Writer& w) const override { (void)w; }
  void restore_state(ckpt::Reader& r) override { (void)r; }

 private:
  AsyncFedBuffConfig cfg_;
};

}  // namespace gluefl
