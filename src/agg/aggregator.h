// The update reduction: folds a batch of weighted SparseDeltas into a flat
// float accumulator,   out[j] += sum_i weight_i * delta_i[j].
//
// At every output position j the floating-point additions happen in the
// order the deltas appear in the batch, so the result is a function of the
// batch alone. The reduce is serial; DESIGN.md §6b gives the measurement
// behind that choice.
//
// Sparse deltas keep ascending index arrays. Consecutive deltas aliasing
// the same index array (GlueFL's sticky cohort on M_t) are reduced
// position-major, and supports that run over consecutive positions
// collapse to unit-stride axpys; neither changes the per-position order.
#pragma once

#include <vector>

#include "agg/sparse_delta.h"

namespace gluefl {

/// out[j] += sum_i deltas[i].weight * deltas[i][j] over [0, dim), in batch
/// order at every position. Validates the batch against `dim` first
/// (CheckError on misuse) and runs under the "aggregate" span.
void reduce_deltas(const std::vector<SparseDelta>& deltas, float* out,
                   size_t dim);

}  // namespace gluefl
