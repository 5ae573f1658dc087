// Softmax cross-entropy loss and classification accuracy.
#pragma once

#include <cstddef>

namespace gluefl {

/// Computes mean softmax cross-entropy over a batch and, when
/// `grad_logits` is non-null, writes dL/dlogits (already divided by the
/// batch size) into it. `logits` is [bs, classes] row-major; it is not
/// modified, and `grad_logits` must not alias it.
float softmax_xent(const float* logits, const int* labels, int bs, int classes,
                   float* grad_logits);

/// Fraction of rows whose label is within the top-k logits (top-1 accuracy
/// for k = 1, paper uses top-5 for OpenImage).
double accuracy_topk(const float* logits, const int* labels, int bs,
                     int classes, int k);

}  // namespace gluefl
