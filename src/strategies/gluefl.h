// GlueFL (the paper's contribution, Algorithm 3 + §3.3 adaptations).
//
// Components, and where they live:
//   * sticky sampling + group rebalance ............ sampling/sticky_sampler
//   * inverse-propensity aggregation weights
//     (nu_s = S/C * p_i, nu_r = (N-S)/(K-C) * p_i) .. this file
//   * shared mask M_t with ratio q_shr, shifted to
//     M_{t+1} = top_{q_shr}(|shared + unique update|)  (Alg. 3 line 26)
//   * unique component: clients send top_{q - q_shr} of the mask's
//     complement; server keeps the top_{q - q_shr} of the aggregate (Eq. 6)
//   * shared-mask regeneration every I rounds: the round runs with
//     q_shr = 0 (pure top-q unique) and the mask is re-seeded from the
//     aggregated unique update (§3.3)
//   * re-scaled error compensation (Eq. 7) ......... compress/error_feedback
//   * BatchNorm statistics: unweighted mean of client deltas (Appendix D)
//
// Byte accounting per round:
//   download  = staleness diff (SyncTracker) + shared-mask bitmap + BN stats
//   upload    = |M_t| values (positions implicit) +
//               top_{q - q_shr} unique (values + positions) + BN stats
#pragma once

#include <memory>

#include "compress/bitmask.h"
#include "compress/error_feedback.h"
#include "fl/engine.h"
#include "fl/strategy.h"
#include "sampling/sticky_sampler.h"

namespace gluefl {

struct GlueFlConfig {
  /// Total mask ratio q.
  double q = 0.2;
  /// Shared mask ratio q_shr < q (paper default: 16% of 20% for
  /// ShuffleNet, 24% of 30% for MobileNet / ResNet-34).
  double q_shr = 0.16;
  /// Regenerate the shared mask every I rounds; <= 0 disables (I = inf).
  int regen_every = 10;
  /// Sticky group size S (paper default 4K).
  int sticky_group_size = 120;
  /// Sticky participants per round C (paper default 4K/5).
  int sticky_per_round = 24;
  /// Over-commitment split (Table 3a); negative = proportional C/K.
  double oc_sticky_fraction = -1.0;
  /// Error-compensation mode: kRescaled is GlueFL's REC, kRaw the "EC"
  /// ablation, kNone disables compensation (Fig. 11).
  ErrorFeedback::Mode error_comp = ErrorFeedback::Mode::kRescaled;
  /// Fig. 5 ablation: use equal weights 1/K instead of the unbiased
  /// inverse-propensity weights.
  bool equal_weights = false;
};

class GlueFlStrategy final : public Strategy {
 public:
  explicit GlueFlStrategy(GlueFlConfig cfg);

  std::string name() const override { return "gluefl"; }
  const GlueFlConfig& config() const { return cfg_; }
  void init(SimEngine& engine) override;
  void run_round(SimEngine& engine, int round, RoundRecord& rec) override;

  /// Checkpointable: sticky cohort, shared mask M_t and the regeneration
  /// counter; the error-compensation residuals ride the journal.
  void save_state(ckpt::Writer& w) const override;
  void restore_state(ckpt::Reader& r) override;
  const ErrorFeedback* residuals() const override { return ec_.get(); }
  void restore_residuals(const ResidualRows& rows) override;

  const BitMask& shared_mask() const { return mask_; }
  const StickySampler& sampler() const { return *sampler_; }
  /// Number of regeneration rounds executed so far (includes the bootstrap
  /// round 0, whose mask starts empty).
  int regen_count() const { return regen_count_; }

 private:
  GlueFlConfig cfg_;
  std::unique_ptr<StickySampler> sampler_;
  std::unique_ptr<ErrorFeedback> ec_;
  BitMask mask_;  // M_t; empty before the first (regeneration) round
  size_t k_shr_target_ = 0;
  int regen_count_ = 0;
};

}  // namespace gluefl
