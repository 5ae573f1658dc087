// Aggregation-phase throughput and peak update memory: the dense serial
// reduction (the seed repo's behaviour) versus the sharded sparse path
// (src/agg/), at OpenImage round scale and at a 100x scaled-up population.
//
// Updates are modelled GlueFL-style: a sticky cohort (80% of participants)
// shares one mask of q_shr * dim coordinates and ships values-only
// payloads against it, and every participant adds a unique top-(q - q_shr)
// support. The dense baseline aggregates the same logical updates
// materialized as model-sized vectors, which is exactly what the
// strategies did before src/agg/ existed.
//
// Both paths reduce the same update pool, and the bench asserts their
// outputs are bit-identical before reporting timings.
//
// Environment knobs:
//   GLUEFL_FULL=1           real-model dimension (2^21) and the full
//                           100x-population round (10000 updates); the
//                           default is a laptop/CI-sized configuration.
//   GLUEFL_AGG_DIM=n        model dimension override
//   GLUEFL_AGG_POP=n        update count override for the 100x arm
//   GLUEFL_AGG_SHARDS=n     shard-count override (default: auto)
//   GLUEFL_BENCH_JSON=FILE  machine-readable summary (perf trajectory)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agg/aggregator.h"
#include "agg/sparse_delta.h"
#include "bench_common.h"
#include "compress/encoding.h"
#include "common/rng.h"

using namespace gluefl;

namespace {

constexpr double kQ = 0.20;      // total mask ratio (ShuffleNet default)
constexpr double kQShr = 0.16;   // shared mask ratio
constexpr double kStickyFrac = 0.8;

/// Random ascending support of exactly `k` coordinates out of `dim`
/// (selection sampling: pick j with probability need / remaining).
std::vector<uint32_t> random_support(size_t dim, size_t k, Rng& rng) {
  std::vector<uint32_t> idx;
  idx.reserve(k);
  size_t need = std::min(k, dim);
  for (size_t j = 0; j < dim && need > 0; ++j) {
    const double p =
        static_cast<double>(need) / static_cast<double>(dim - j);
    if (rng.uniform() < p) {
      idx.push_back(static_cast<uint32_t>(j));
      --need;
    }
  }
  return idx;
}

/// Like random_support, but only over coordinates with !excluded[j]
/// (`avail` = number of false entries). GlueFL's unique component lives on
/// the complement of the shared mask, so supports never overlap — which is
/// also what makes a client's (shared, unique) delta pair merge losslessly
/// into one dense vector for the baseline.
std::vector<uint32_t> random_support_excluding(
    size_t dim, size_t k, const std::vector<char>& excluded, size_t avail,
    Rng& rng) {
  std::vector<uint32_t> idx;
  idx.reserve(k);
  size_t remaining = avail;
  size_t need = std::min(k, avail);
  for (size_t j = 0; j < dim && need > 0; ++j) {
    if (excluded[j]) continue;
    const double p =
        static_cast<double>(need) / static_cast<double>(remaining);
    if (rng.uniform() < p) {
      idx.push_back(static_cast<uint32_t>(j));
      --need;
    }
    --remaining;
  }
  return idx;
}

/// Shared mask built from contiguous position runs — the shape a bitmap/RLE
/// cohort mask decodes to when layers are selected wholesale (DESIGN.md
/// §6b). Runs of kRunLen positions are spread evenly across the model with
/// a little jittered placement so shard boundaries still cut through runs.
std::vector<uint32_t> run_structured_support(size_t dim, size_t k, Rng& rng) {
  constexpr size_t kRunLen = 256;
  std::vector<uint32_t> idx;
  idx.reserve(k);
  const size_t nruns = std::max<size_t>(1, k / kRunLen);
  const size_t stride = dim / nruns;
  for (size_t r = 0; r < nruns && idx.size() < k; ++r) {
    const size_t len = std::min(kRunLen, k - idx.size());
    const size_t slack = stride > len ? stride - len : 0;
    const size_t start =
        r * stride +
        static_cast<size_t>(rng.uniform() * static_cast<double>(slack));
    for (size_t j = 0; j < len && start + j < dim; ++j) {
      idx.push_back(static_cast<uint32_t>(start + j));
    }
  }
  return idx;
}

struct Pool {
  std::vector<SparseDelta> sparse;   // shared-mask + unique, GlueFL-shaped
  std::vector<SparseDelta> dense;    // same updates, materialized densely
  size_t sparse_bytes = 0;           // resident update bytes, sparse rep
  size_t dense_bytes_total = 0;      // resident update bytes, dense rep
};

Pool make_pool(size_t dim, size_t window, Rng& rng, bool run_mask) {
  const size_t k_shr = static_cast<size_t>(kQShr * static_cast<double>(dim));
  const size_t k_uni =
      static_cast<size_t>((kQ - kQShr) * static_cast<double>(dim));
  const auto shared_idx = SparseDelta::make_support(
      run_mask ? run_structured_support(dim, k_shr, rng)
               : random_support(dim, k_shr, rng));
  std::vector<char> in_mask(dim, 0);
  for (const uint32_t j : *shared_idx) in_mask[j] = 1;
  const size_t complement = dim - shared_idx->size();

  Pool pool;
  pool.sparse_bytes += shared_idx->capacity() * sizeof(uint32_t);
  // Clients [0, n_sticky) form the sticky cohort; like GlueFL's shared
  // batch, their values-only deltas sit consecutively so the aggregator's
  // cohort-run fast path engages. Mask and complement supports are
  // disjoint, so each client's (shared, unique) pair merges losslessly
  // into one dense vector — and per-position addition order matches the
  // dense baseline's client order exactly.
  const size_t n_sticky =
      static_cast<size_t>(kStickyFrac * static_cast<double>(window));
  std::vector<SparseDelta> uniques;
  uniques.reserve(window);
  for (size_t i = 0; i < window; ++i) {
    const float w = static_cast<float>(0.5 + rng.uniform());
    std::vector<float> dense_vals(dim, 0.0f);
    if (i < n_sticky) {
      std::vector<float> vals(shared_idx->size());
      for (size_t j = 0; j < vals.size(); ++j) {
        vals[j] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
        dense_vals[(*shared_idx)[j]] = vals[j];
      }
      pool.sparse.push_back(
          SparseDelta::on_shared(shared_idx, std::move(vals), w));
    } else {
      // Fresh clients report on the same mask but cannot rely on the
      // cohort's cached index set: they own (and pay for) their positions.
      SparseVec sv;
      sv.idx = *shared_idx;
      sv.val.resize(sv.idx.size());
      for (size_t j = 0; j < sv.val.size(); ++j) {
        sv.val[j] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
        dense_vals[sv.idx[j]] = sv.val[j];
      }
      pool.sparse.push_back(SparseDelta::from_sparse(std::move(sv), w));
    }
    // Unique component rides in a second delta per client, like GlueFL's
    // unique top-k batch — drawn from the complement of the shared mask.
    SparseVec uni;
    uni.idx = random_support_excluding(dim, k_uni, in_mask, complement, rng);
    uni.val.resize(uni.idx.size());
    for (size_t j = 0; j < uni.val.size(); ++j) {
      uni.val[j] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      dense_vals[uni.idx[j]] = uni.val[j];
    }
    // Merge shared + unique into ONE dense delta (same logical update).
    pool.dense.push_back(SparseDelta::dense(std::move(dense_vals), w));
    uniques.push_back(SparseDelta::from_sparse(std::move(uni), w));
  }
  for (auto& u : uniques) pool.sparse.push_back(std::move(u));
  for (const auto& d : pool.sparse) pool.sparse_bytes += d.heap_bytes();
  for (const auto& d : pool.dense) {
    pool.dense_bytes_total += d.heap_bytes();
  }
  return pool;
}

double time_reduce(const Aggregator& agg,
                   const std::vector<SparseDelta>& batch, float* out,
                   size_t dim, size_t waves) {
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < waves; ++r) agg.reduce(batch, out, dim);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct ArmResult {
  std::string label;
  size_t dim = 0;
  size_t updates = 0;
  double dense_ms = 0.0;
  double sharded_ms = 0.0;
  double speedup = 0.0;
  double dense_mb = 0.0;    // full update set, dense representation
  double sparse_mb = 0.0;   // full update set, sparse representation
  bool bit_identical = false;
};

ArmResult run_arm(const std::string& label, size_t dim, size_t updates,
                  int shards, int threads, uint64_t seed,
                  bool run_mask = false) {
  const size_t window = std::min<size_t>(updates, 200);
  const size_t waves = (updates + window - 1) / window;
  Rng rng(seed);
  Pool pool = make_pool(dim, window, rng, run_mask);

  const DenseAggregator dense_agg;
  const ShardedAggregator sharded_agg(shards, threads);

  // Bit-identity sanity check before timing anything: the sparse batch
  // must reduce to exactly the dense batch's result.
  std::vector<float> ref(dim, 0.0f), got(dim, 0.0f);
  dense_agg.reduce(pool.dense, ref.data(), dim);
  sharded_agg.reduce(pool.sparse, got.data(), dim);
  bool identical = true;
  for (size_t j = 0; j < dim; ++j) {
    if (ref[j] != got[j]) {
      identical = false;
      break;
    }
  }

  ArmResult arm;
  arm.label = label;
  arm.dim = dim;
  arm.updates = updates;
  arm.bit_identical = identical;
  const double per_update_dense =
      static_cast<double>(pool.dense_bytes_total) /
      static_cast<double>(window);
  const double per_update_sparse =
      static_cast<double>(pool.sparse_bytes) / static_cast<double>(window);
  arm.dense_mb = per_update_dense * static_cast<double>(updates) / 1e6;
  arm.sparse_mb = per_update_sparse * static_cast<double>(updates) / 1e6;

  std::vector<float> out(dim, 0.0f);
  // Best of 3 timing passes each, interleaved to share cache warmth.
  arm.dense_ms = 1e300;
  arm.sharded_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    arm.dense_ms = std::min(
        arm.dense_ms, time_reduce(dense_agg, pool.dense, out.data(), dim,
                                  waves));
    arm.sharded_ms = std::min(
        arm.sharded_ms, time_reduce(sharded_agg, pool.sparse, out.data(),
                                    dim, waves));
  }
  arm.speedup = arm.sharded_ms > 0.0 ? arm.dense_ms / arm.sharded_ms : 0.0;
  return arm;
}

}  // namespace

int main() {
  const bool full = bench::full_mode();
  const size_t dim =
      bench::env_positive("GLUEFL_AGG_DIM", full ? (size_t{1} << 21) : (size_t{1} << 18));
  // OpenImage: K = 100 aggregated participants per round. The 100x arm
  // scales the population (and with it the per-round aggregation load);
  // the default mode subsamples that round for CI speed.
  const size_t k_openimage = 100;
  const size_t pop_updates =
      bench::env_positive("GLUEFL_AGG_POP", full ? 10000 : 2000);
  const int threads = static_cast<int>(
      std::min(8u, std::max(1u, std::thread::hardware_concurrency())));

  bench::print_header(
      "Aggregation-phase throughput and peak update memory",
      "scaling study beyond the paper: dense serial vs sharded sparse",
      "GlueFL-shaped updates (q=20%, q_shr=16%, 80% sticky); sharded path "
      "uses " + std::to_string(threads) + " threads, auto shard count");

  const int shards =
      static_cast<int>(bench::env_positive("GLUEFL_AGG_SHARDS", 0 /* auto */));

  std::vector<ArmResult> arms;
  arms.push_back(run_arm("openimage round (K=100)", dim, k_openimage,
                         shards, threads, /*seed=*/42));
  arms.push_back(run_arm("100x population round", dim, pop_updates, shards,
                         threads, /*seed=*/43));
  // Same K=100 round but with a run-structured shared mask (contiguous
  // position blocks, as decoded from bitmap/RLE cohort masks): exercises
  // the aggregator's positional-delta fast path, where gather/scatter
  // collapses to unit-stride accumulation.
  arms.push_back(run_arm("openimage round, run-structured mask", dim,
                         k_openimage, shards, threads, /*seed=*/44,
                         /*run_mask=*/true));

  TablePrinter t;
  t.set_headers({"arm", "dim", "updates", "dense (ms)", "sharded (ms)",
                 "speedup", "dense mem", "sparse mem"});
  for (const auto& a : arms) {
    GLUEFL_CHECK_MSG(a.bit_identical,
                     "sharded sparse result diverged from dense reference");
    t.add_row({a.label, std::to_string(a.dim), std::to_string(a.updates),
               fmt_double(a.dense_ms, 1), fmt_double(a.sharded_ms, 1),
               fmt_double(a.speedup, 1) + "x", fmt_bytes(a.dense_mb * 1e6),
               fmt_bytes(a.sparse_mb * 1e6)});
  }
  std::cout << t.to_string();
  const double mem_ratio =
      arms[0].dense_mb > 0.0 ? arms[0].sparse_mb / arms[0].dense_mb : 0.0;
  std::cout << "\nShape: the sparse representation stores ~"
            << fmt_double(mem_ratio * 100.0, 0)
            << "% of the dense update bytes (values plus index encodings;\n"
               "sticky cohorts share one index set), and parameter-range\n"
               "sharding parallelizes the reduce without changing a single\n"
               "bit of the result.\n";

  if (const char* path = std::getenv("GLUEFL_BENCH_JSON")) {
    std::ostringstream json;
    json << "{\"schema\": \"gluefl.bench_agg_scale.v1\", \"threads\": "
         << threads << ", \"arms\": [";
    for (size_t i = 0; i < arms.size(); ++i) {
      const auto& a = arms[i];
      if (i > 0) json << ", ";
      json << "{\"label\": \"" << a.label << "\", \"dim\": " << a.dim
           << ", \"updates\": " << a.updates
           << ", \"dense_ms\": " << a.dense_ms
           << ", \"sharded_ms\": " << a.sharded_ms
           << ", \"speedup\": " << a.speedup
           << ", \"dense_update_mb\": " << a.dense_mb
           << ", \"sparse_update_mb\": " << a.sparse_mb
           << ", \"bit_identical\": " << (a.bit_identical ? "true" : "false")
           << "}";
    }
    json << "]}";
    std::ofstream f(path);
    GLUEFL_CHECK_MSG(f.good(), std::string("cannot open GLUEFL_BENCH_JSON "
                                           "file '") + path + "'");
    f << json.str() << "\n";
    std::cout << "\nJSON summary written to " << path << "\n";
  }
  return 0;
}
