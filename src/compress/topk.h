// Top-k-by-magnitude selection — the sparsification primitive shared by
// STC (client and server side) and GlueFL's unique-gradient component.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/bitmask.h"

namespace gluefl {

/// Sparse vector: parallel arrays of (ascending) indices and values.
struct SparseVec {
  std::vector<uint32_t> idx;
  std::vector<float> val;

  size_t nnz() const { return idx.size(); }
};

/// Selects the k entries of x[0..n) with the largest |value| (all of them
/// when k >= n). The contract (DESIGN.md §4):
///   * entries rank by their IEEE bits with the sign cleared, which is
///     |value| order for every non-NaN float: -0 and +0 tie, denormals and
///     infinities sit where |value| puts them;
///   * ties break toward the lower index, so the result is deterministic;
///   * a NaN ranks above +inf;
///   * indices come out in ascending order, with val[i] = x[idx[i]].
SparseVec top_k_abs(const float* x, size_t n, size_t k);

/// Same, but only positions where `allowed.test(i)` may be selected
/// (used for GlueFL's top over the complement of the shared mask).
SparseVec top_k_abs_masked(const float* x, size_t n, size_t k,
                           const BitMask& allowed);

/// out[idx[i]] += scale * val[i].
void scatter_add(const SparseVec& s, float scale, float* out);

}  // namespace gluefl
