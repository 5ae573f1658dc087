// Finite-difference gradient checking for FlatModel.
//
// tests/test_nn.cpp validates every layer's backward pass with it.
#pragma once

#include "common/rng.h"
#include "nn/model.h"

namespace gluefl {

struct GradCheckResult {
  double max_abs_err = 0.0;
  /// Relative error |fd - analytic| / max(|fd|, |analytic|, sig_floor).
  /// The floor keeps float-precision noise on near-zero gradients from
  /// masquerading as 100% relative error.
  double max_rel_err = 0.0;
  size_t checked = 0;
};

/// Compares analytic gradients against central finite differences on
/// `num_coords` randomly chosen coordinates (or all when num_coords == 0).
/// BatchNorm running-statistic updates are neutralized by re-running from a
/// copy of the stats for every probe.
GradCheckResult grad_check(FlatModel& model, const float* x, const int* y,
                           int bs, Rng& rng, size_t num_coords = 64,
                           double epsilon = 1e-3, double sig_floor = 0.05);

}  // namespace gluefl
