#include "gradcheck.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "nn/loss.h"

namespace gluefl {

namespace {

// Loss with training-mode forward (so BatchNorm uses batch statistics, the
// same normalization the analytic backward differentiates through), without
// keeping stat mutations.
double loss_at(FlatModel& model, const std::vector<float>& params,
               const std::vector<float>& base_stats, const float* x,
               const int* y, int bs) {
  std::vector<float> stats = base_stats;
  std::vector<float> grads(model.param_dim());
  // forward_backward computes the training-mode loss; gradient output is
  // discarded by the caller.
  return model.forward_backward(params.data(), stats.data(), x, y, bs,
                                grads.data());
}

}  // namespace

GradCheckResult grad_check(FlatModel& model, const float* x, const int* y,
                           int bs, Rng& rng, size_t num_coords,
                           double epsilon, double sig_floor) {
  GLUEFL_CHECK(model.finalized());
  std::vector<float> params = model.make_params(rng);
  const std::vector<float> stats = model.make_stats();

  std::vector<float> grads(model.param_dim());
  {
    std::vector<float> stats_copy = stats;
    model.forward_backward(params.data(), stats_copy.data(), x, y, bs,
                           grads.data());
  }

  std::vector<size_t> coords;
  if (num_coords == 0 || num_coords >= model.param_dim()) {
    coords.resize(model.param_dim());
    for (size_t i = 0; i < coords.size(); ++i) coords[i] = i;
  } else {
    for (size_t i = 0; i < num_coords; ++i) {
      coords.push_back(static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(model.param_dim()) - 1)));
    }
  }

  GradCheckResult res;
  for (size_t c : coords) {
    const float orig = params[c];
    params[c] = orig + static_cast<float>(epsilon);
    const double lp = loss_at(model, params, stats, x, y, bs);
    params[c] = orig - static_cast<float>(epsilon);
    const double lm = loss_at(model, params, stats, x, y, bs);
    params[c] = orig;
    const double fd = (lp - lm) / (2.0 * epsilon);
    const double an = grads[c];
    const double abs_err = std::abs(fd - an);
    const double denom = std::max({std::abs(fd), std::abs(an), sig_floor});
    res.max_abs_err = std::max(res.max_abs_err, abs_err);
    res.max_rel_err = std::max(res.max_rel_err, abs_err / denom);
    ++res.checked;
  }
  return res;
}

}  // namespace gluefl
