#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace gluefl {

float softmax_xent(const float* logits, const int* labels, int bs, int classes,
                   float* grad_logits) {
  GLUEFL_CHECK(bs > 0 && classes > 1);
  double loss = 0.0;
  const float inv_bs = 1.0f / static_cast<float>(bs);
  for (int i = 0; i < bs; ++i) {
    const float* row = logits + static_cast<size_t>(i) * classes;
    const int y = labels[i];
    GLUEFL_CHECK(y >= 0 && y < classes);
    float mx = row[0];
    for (int j = 1; j < classes; ++j) mx = std::max(mx, row[j]);
    // The exponentials go straight into the gradient row, which is then
    // scaled in place.
    float* g = grad_logits != nullptr
                   ? grad_logits + static_cast<size_t>(i) * classes
                   : nullptr;
    double sum = 0.0;
    for (int j = 0; j < classes; ++j) {
      const float e = std::exp(row[j] - mx);
      if (g != nullptr) g[j] = e;
      sum += e;
    }
    const double log_sum = std::log(sum);
    loss += -(static_cast<double>(row[y]) - mx - log_sum);
    if (g != nullptr) {
      const float inv_sum = static_cast<float>(1.0 / sum);
      for (int j = 0; j < classes; ++j) g[j] = g[j] * inv_sum * inv_bs;
      g[y] -= inv_bs;
    }
  }
  return static_cast<float>(loss / bs);
}

double accuracy_topk(const float* logits, const int* labels, int bs,
                     int classes, int k) {
  GLUEFL_CHECK(k >= 1 && k <= classes);
  int correct = 0;
  for (int i = 0; i < bs; ++i) {
    const float* row = logits + static_cast<size_t>(i) * classes;
    const float target = row[labels[i]];
    // Rank of the label's logit: count strictly greater entries.
    int greater = 0;
    for (int j = 0; j < classes; ++j) {
      if (row[j] > target) ++greater;
    }
    if (greater < k) ++correct;
  }
  return static_cast<double>(correct) / bs;
}

}  // namespace gluefl
