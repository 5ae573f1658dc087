#include "agg/aggregator.h"

#include "telemetry/telemetry.h"
#include "tensor/ops.h"

namespace gluefl {

namespace {

/// Accumulates one delta.
void accumulate(const SparseDelta& d, float* out, size_t dim) {
  const float w = d.weight;
  if (d.is_dense()) {
    axpy(w, d.val.data(), out, dim);
    return;
  }
  const std::vector<uint32_t>& idx = *d.idx;
  size_t k = 0;
  const size_t k1 = idx.size();
  // Positional-delta fast path: supports decoded from bitmap/RLE cohort
  // masks arrive as runs of consecutive positions, where the scatter
  // collapses to a unit-stride axpy over the run. Supports ascend
  // strictly, so the first/last distance is a complete consecutiveness
  // probe — scattered indices pay ONE extra compare per position, never a
  // run scan. Each position still receives exactly one add in ascending
  // order, so the result is bit-identical to the plain scalar walk.
  constexpr size_t kMinRun = 16;
  while (k < k1) {
    if (k + kMinRun <= k1 && idx[k + kMinRun - 1] == idx[k] + (kMinRun - 1)) {
      size_t r = k + kMinRun;
      while (r < k1 && idx[r] == idx[r - 1] + 1) ++r;
      axpy(w, d.val.data() + k, out + idx[k], r - k);
      k = r;
    } else {
      out[idx[k]] += w * d.val[k];
      ++k;
    }
  }
}

/// Accumulates a cohort run deltas[i0, i1) — consecutive batch entries
/// aliasing the SAME index array (GlueFL's sticky clients on M_t) —
/// position-major: each output position and index entry is loaded once for
/// the whole run instead of once per delta. The per-position addition
/// sequence is still i0, i0+1, ..., so the result is bit-identical to
/// processing the run delta-by-delta.
void accumulate_shared_run(const std::vector<SparseDelta>& deltas, size_t i0,
                           size_t i1, float* out) {
  const std::vector<uint32_t>& idx = *deltas[i0].idx;
  const size_t k1 = idx.size();
  if (k1 == 0) return;

  const size_t n = i1 - i0;
  std::vector<const float*> vals(n);
  std::vector<float> ws(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = deltas[i0 + i].val.data();
    ws[i] = deltas[i0 + i].weight;
  }
  // Blocks of positions: each position's adds stay in i order (one chain
  // per position, bit-identical to the scalar form), but the kBlock chains
  // are independent, so the inner loop vectorizes / pipelines across them.
  constexpr size_t kBlock = 8;
  size_t k = 0;
  for (; k + kBlock <= k1; k += kBlock) {
    float acc[kBlock];
    // Positional-delta fast path: when the block's indices are one
    // consecutive run (idx ascends strictly, so first/last distance is a
    // complete test), the gather/scatter collapses to unit-stride loads
    // and stores. The per-position add chains are unchanged either way,
    // so both branches are bit-identical to the scalar form.
    if (idx[k + kBlock - 1] == idx[k] + (kBlock - 1)) {
      float* o = out + idx[k];
      for (size_t u = 0; u < kBlock; ++u) acc[u] = o[u];
      for (size_t i = 0; i < n; ++i) {
        const float w = ws[i];
        const float* v = vals[i] + k;
        for (size_t u = 0; u < kBlock; ++u) acc[u] += w * v[u];
      }
      for (size_t u = 0; u < kBlock; ++u) o[u] = acc[u];
      continue;
    }
    for (size_t u = 0; u < kBlock; ++u) acc[u] = out[idx[k + u]];
    for (size_t i = 0; i < n; ++i) {
      const float w = ws[i];
      const float* v = vals[i] + k;
      for (size_t u = 0; u < kBlock; ++u) acc[u] += w * v[u];
    }
    for (size_t u = 0; u < kBlock; ++u) out[idx[k + u]] = acc[u];
  }
  for (; k < k1; ++k) {
    float acc = out[idx[k]];
    for (size_t i = 0; i < n; ++i) acc += ws[i] * vals[i][k];
    out[idx[k]] = acc;
  }
}

}  // namespace

void reduce_deltas(const std::vector<SparseDelta>& deltas, float* out,
                   size_t dim) {
  telemetry::Span span("aggregate");
  validate_deltas(deltas, dim);
  size_t i = 0;
  while (i < deltas.size()) {
    const SparseDelta& d = deltas[i];
    size_t j = i + 1;
    if (!d.is_dense()) {
      while (j < deltas.size() && deltas[j].idx.get() == d.idx.get()) ++j;
    }
    if (!d.is_dense() && j - i > 1) {
      accumulate_shared_run(deltas, i, j, out);
    } else {
      accumulate(d, out, dim);
    }
    i = j;
  }
}

}  // namespace gluefl
