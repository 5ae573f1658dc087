// Micro-benchmarks (google-benchmark) for the hot kernels of the
// simulator: top-k selection, bitmask algebra, sparse scatter, the
// training GEMMs and client-shard derivation per tier, and the SyncTracker
// union that dominates staleness accounting.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/bitmask.h"
#include "compress/topk.h"
#include "data/federated_dataset.h"
#include "data/presets.h"
#include "fl/sync_tracker.h"
#include "tensor/ops.h"

namespace gluefl {
namespace {

std::vector<float> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void BM_TopKAbs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = n / 5;  // q = 20%
  const auto x = random_vec(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(top_k_abs(x.data(), n, k));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopKAbs)->Arg(33000)->Arg(62000)->Arg(1 << 20);

void BM_TopKAbsMasked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = random_vec(n, 2);
  BitMask allowed(n);
  for (size_t i = 0; i < n; i += 2) allowed.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(top_k_abs_masked(x.data(), n, n / 10, allowed));
  }
}
BENCHMARK(BM_TopKAbsMasked)->Arg(33000)->Arg(1 << 20);

void BM_BitMaskUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  BitMask a(n), b(n);
  for (size_t i = 0; i < n; i += 3) a.set(i);
  for (size_t i = 1; i < n; i += 3) b.set(i);
  for (auto _ : state) {
    BitMask c = a;
    c |= b;
    benchmark::DoNotOptimize(c.count());
  }
}
BENCHMARK(BM_BitMaskUnion)->Arg(33000)->Arg(1 << 20);

void BM_ScatterAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = random_vec(n, 3);
  const SparseVec s = top_k_abs(x.data(), n, n / 5);
  std::vector<float> out(n, 0.0f);
  for (auto _ : state) {
    scatter_add(s, 0.5f, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ScatterAdd)->Arg(33000)->Arg(1 << 20);

// The five GEMMs of one ShuffleNet-proxy training step at OpenImage scale
// (64 features, 128-wide hidden layers, 64 classes, batch 16), run under
// each GEMM tier: the three forward layers, the hidden layer's dW, and its
// dX^T = W * gout^T. FLOP/s counts 2*m*k*n per call; compare it with the
// host's non-FMA peak (one vector multiply and one vector add per cycle
// and port).
void BM_TrainingGemm(benchmark::State& state) {
  const struct {
    const char* name;
    bool tn;  // gemm_tn (dW) instead of gemm_nn
    int m, k, n;
  } shapes[] = {
      {"fwd 16x64x128", false, 16, 64, 128},
      {"fwd 16x128x128", false, 16, 128, 128},
      {"fwd 16x128x64", false, 16, 128, 64},
      {"dW 128x16x128", true, 16, 128, 128},
      {"dXt 128x128x16", false, 128, 128, 16},
  };
  const auto& s = shapes[state.range(0)];
  const auto tier = static_cast<detail::GemmTier>(state.range(1));
  if (!detail::gemm_tier_supported(tier)) {
    state.SkipWithError("GEMM tier not supported by this build/CPU");
    return;
  }
  const detail::GemmTier picked = detail::gemm_tier();
  detail::set_gemm_tier(tier);
  state.SetLabel(std::string(s.name) + " " + detail::gemm_tier_name(tier));
  // gemm_tn reads A[m,k] and B[m,n] and writes C[k,n].
  const auto a = random_vec(static_cast<size_t>(s.m) * s.k, 4);
  const auto b = random_vec(static_cast<size_t>(s.tn ? s.m : s.k) * s.n, 5);
  std::vector<float> c(static_cast<size_t>(s.tn ? s.k : s.m) * s.n);
  for (auto _ : state) {
    if (s.tn) {
      gemm_tn(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    } else {
      gemm_nn(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOP/s"] = benchmark::Counter(
      2.0 * s.m * s.k * s.n, benchmark::Counter::kIsIterationInvariantRate);
  detail::set_gemm_tier(picked);
}
BENCHMARK(BM_TrainingGemm)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2}});

// Derives the first 256 shards of the OpenImage preset at scale 1 under
// each GEMM tier, which picks the Box-Muller tier (DESIGN.md §2 "Client
// shards"). The "pair" counter is the time per Box-Muller pair, uniform
// draws, label draws and prototype adds included.
void BM_DeriveShard(benchmark::State& state) {
  const auto tier = static_cast<detail::GemmTier>(state.range(0));
  if (!detail::gemm_tier_supported(tier)) {
    state.SkipWithError("GEMM tier not supported by this build/CPU");
    return;
  }
  static const FederatedDataset ds =
      make_synthetic_dataset(openimage_spec(1.0, 42));
  constexpr int kShards = 256;
  double pairs = 0.0;
  for (int i = 0; i < kShards; ++i) {
    pairs += ds.sizes[static_cast<size_t>(i)] * (ds.spec.feature_dim / 2);
  }
  const detail::GemmTier picked = detail::gemm_tier();
  detail::set_gemm_tier(tier);
  state.SetLabel(detail::gemm_tier_name(tier));
  for (auto _ : state) {
    for (int i = 0; i < kShards; ++i) {
      benchmark::DoNotOptimize(ds.derive_shard(i).x.data());
    }
  }
  state.counters["pair"] = benchmark::Counter(
      pairs, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
  detail::set_gemm_tier(picked);
}
BENCHMARK(BM_DeriveShard)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_SyncTrackerUnion(benchmark::State& state) {
  // A client stale by `range` rounds under q = 20% masking of a 33k-dim
  // model: the per-invitee cost of the staleness accounting.
  const size_t dim = 33000;
  const int stale = static_cast<int>(state.range(0));
  SyncTracker t(4, dim);
  Rng rng(6);
  for (int r = 0; r < stale; ++r) {
    BitMask m(dim);
    for (size_t i = 0; i < dim / 5; ++i) {
      m.set(static_cast<size_t>(rng.uniform_int(0, static_cast<int>(dim) - 1)));
    }
    t.record_round_changes(r, m);
  }
  t.mark_synced(0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.stale_positions(0, stale));
  }
}
BENCHMARK(BM_SyncTrackerUnion)->Arg(10)->Arg(100)->Arg(500);

}  // namespace
}  // namespace gluefl

BENCHMARK_MAIN();
