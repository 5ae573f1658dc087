// SparseDelta: the unit of work submitted to the update reduction
// (agg/aggregator.h).
//
// GlueFL's premise is that masked, quantized client updates are sparse; a
// SparseDelta carries exactly the transmitted coordinates instead of a
// dense model-sized vector. The index set is held through a shared_ptr so
// GlueFL's sticky clients — which all report on the same shared mask M_t —
// reference ONE index array for the whole cohort (the per-client payload is
// then just the value array, mirroring the values-only wire encoding).
//
// Three shapes, one struct:
//   dense        idx == nullptr, val.size() == dim
//   shared mask  idx == cohort-shared index array, val aligned with it
//   unique       idx == per-delta index array (e.g. a top-k support)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "compress/topk.h"

namespace gluefl {

struct SparseDelta {
  /// Aggregation coefficient: the delta enters the reduction as
  /// weight * value at every carried coordinate.
  float weight = 1.0f;
  /// Ascending coordinate list; nullptr marks a dense delta.
  std::shared_ptr<const std::vector<uint32_t>> idx;
  /// Values, aligned with *idx (or with [0, dim) when dense).
  std::vector<float> val;

  bool is_dense() const { return idx == nullptr; }
  size_t nnz() const { return val.size(); }

  /// Dense delta: every coordinate carried.
  static SparseDelta dense(std::vector<float> values, float weight = 1.0f);

  /// Per-delta sparse support (takes ownership of the SparseVec's arrays).
  static SparseDelta from_sparse(SparseVec sv, float weight = 1.0f);

  /// Validates (strictly ascending) and wraps a cohort-shared index array.
  /// The O(nnz) check runs here ONCE per cohort — on_shared then only
  /// checks alignment per member, keeping cohort construction linear in
  /// the values actually shipped.
  static std::shared_ptr<const std::vector<uint32_t>> make_support(
      std::vector<uint32_t> indices);

  /// Cohort-shared support: `values[k]` belongs to coordinate (*indices)[k].
  /// Every delta of the cohort aliases the same index array, which must
  /// come from make_support (or otherwise be strictly ascending — this is
  /// NOT re-checked per member).
  static SparseDelta on_shared(
      std::shared_ptr<const std::vector<uint32_t>> indices,
      std::vector<float> values, float weight = 1.0f);

  /// Gathers x at the shared support and wraps the result (the typical
  /// client-side "values-only" payload construction).
  static SparseDelta gather_shared(
      const std::shared_ptr<const std::vector<uint32_t>>& indices,
      const float* x, float weight = 1.0f);

  /// Approximate resident bytes of this delta (values + owned indices;
  /// a shared index array is charged to the cohort once, not per delta).
  size_t heap_bytes(bool count_shared_idx = false) const;
};

/// Sanity-checks a batch against the model dimension (index bounds,
/// ascending order, value/index alignment). Throws CheckError on misuse.
void validate_deltas(const std::vector<SparseDelta>& deltas, size_t dim);

}  // namespace gluefl
