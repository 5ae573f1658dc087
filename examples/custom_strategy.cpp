// Extending the framework: implement a custom FL strategy against the
// Strategy/SimEngine API and race it against GlueFL.
//
// The example strategy, "TopKOnly", is the classic client-side-only
// sparsifier (Stich et al., 2018): clients upload top-q updates with error
// accumulation, but the server applies the aggregate densely — i.e. no
// server mask. Upstream is as cheap as STC's, but every position can
// change every round, so downstream degenerates to FedAvg's: a compact
// demonstration of why server-side masking (and then GlueFL's mask
// shifting) matters.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <utility>

#include "agg/aggregator.h"
#include "analysis/report.h"
#include "compress/encoding.h"
#include "compress/error_feedback.h"
#include "compress/topk.h"
#include "data/presets.h"
#include "fl/engine.h"
#include "fl/uplink.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "sampling/uniform_sampler.h"
#include "strategies/factory.h"
#include "tensor/ops.h"
#include "wire/codec.h"

using namespace gluefl;

namespace {

class TopKOnlyStrategy final : public Strategy {
 public:
  explicit TopKOnlyStrategy(double q) : q_(q) {}

  std::string name() const override { return "topk-only"; }

  void init(SimEngine& engine) override {
    sampler_ = std::make_unique<UniformSampler>(engine.num_clients());
    ec_ = std::make_unique<ErrorFeedback>(ErrorFeedback::Mode::kRaw,
                                          engine.dim());
    k_ = std::max<size_t>(1, static_cast<size_t>(q_ * engine.dim()));
  }

  void run_round(SimEngine& engine, int round, RoundRecord& rec) override {
    Rng rng = engine.round_rng(round, 0);
    CandidateSet cand =
        sampler_->invite(round, engine.clients_per_round(),
                         engine.run_config().overcommit, rng,
                         engine.availability_fn(round));
    const size_t dim = engine.dim();
    // Downloads: the engine's measured sync frame plus the BN stats frame.
    auto down = engine.down_bytes_fn(
        round, wire::encoded_stats_bytes(engine.stat_dim()));
    // Uploads: the analytic top-k size only orders the straggler cutoff;
    // the intake below prices the frames actually sent.
    const size_t up_b = sparse_update_bytes(k_, dim) + engine.stat_bytes();
    auto up = [up_b](int) { return up_b; };
    const Participation part =
        engine.simulate_participation(round, cand, down, up, rec);
    const auto included = part.all();

    BitMask changed(dim);
    if (!included.empty()) {
      auto results = engine.local_train(included, round);
      std::vector<float> agg(dim, 0.0f);
      std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
      const double n = engine.num_clients();
      const double khat = static_cast<double>(included.size());
      // Every client frame goes through the engine's uplink intake: it
      // measures the frame, applies scenario faults, rejects what fails to
      // decode, and hands the decoder to the fold below.
      uplink::Intake intake(engine, round);
      std::vector<SparseDelta> batch;
      for (size_t i = 0; i < included.size(); ++i) {
        auto& delta = results[i].delta;
        ec_->apply(included[i], 1.0, delta.data());
        const SparseVec kept = top_k_abs(delta.data(), dim, k_);
        for (uint32_t idx : kept.idx) delta[idx] = 0.0f;
        ec_->store(included[i], 1.0, delta.data());
        const float nu = static_cast<float>(
            n / khat * engine.client_weight(included[i]));
        wire::WireEncoder we(dim);
        we.add_unique(kept);
        we.add_stats(results[i].stat_delta.data(), engine.stat_dim());
        intake.submit(included[i], std::move(we), [&](wire::WireDecoder& wd) {
          batch.push_back(wd.take_unique(nu));
          const std::vector<float> st = wd.take_stats();
          axpy(static_cast<float>(1.0 / khat), st.data(), stat_agg.data(),
               engine.stat_dim());
        });
      }
      intake.price(part, rec);
      reduce_deltas(batch, agg.data(), dim);
      // KEY DIFFERENCE vs STC: the server applies the aggregate densely —
      // no second top-k. The union of K clients' top-k sets touches most
      // of the model, so the changed set is large every round.
      axpy(1.0f, agg.data(), engine.params().data(), dim);
      axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
      for (size_t j = 0; j < dim; ++j) {
        if (agg[j] != 0.0f) changed.set(j);
      }
    }
    rec.changed_frac = static_cast<double>(changed.count()) / dim;
    engine.sync().record_round_changes(round, changed);
  }

 private:
  double q_;
  size_t k_ = 0;
  std::unique_ptr<UniformSampler> sampler_;
  std::unique_ptr<ErrorFeedback> ec_;
};

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 50;
  const SyntheticSpec spec = femnist_spec(0.2);
  TrainConfig train;
  train.lr0 = 0.05;
  RunConfig run;
  run.rounds = rounds;
  run.clients_per_round = 30;
  run.seed = 5;
  SimEngine engine(make_synthetic_dataset(spec),
                   make_shufflenet_proxy(spec.feature_dim, spec.num_classes),
                   make_edge_env(), train, run);

  std::cout << "custom strategy demo (" << rounds << " rounds)\n\n";
  std::vector<LabeledRun> runs;
  {
    TopKOnlyStrategy topk(0.2);
    runs.push_back({"topk-only (custom)", engine.run(topk)});
  }
  {
    auto stc = make_strategy("stc", 30, "shufflenet");
    runs.push_back({"stc", engine.run(*stc)});
  }
  {
    auto gluefl = make_strategy("gluefl", 30, "shufflenet");
    runs.push_back({"gluefl", engine.run(*gluefl)});
  }

  TablePrinter t;
  t.set_headers({"strategy", "mean changed frac", "DV (GB)", "UV (GB)",
                 "best acc"});
  for (const auto& r : runs) {
    double changed = 0.0;
    for (const auto& rr : r.result.rounds) changed += rr.changed_frac;
    changed /= static_cast<double>(r.result.rounds.size());
    const auto totals = r.result.totals();
    t.add_row({r.label, fmt_percent(changed), fmt_double(totals.down_gb, 2),
               fmt_double(totals.up_gb, 2),
               fmt_percent(r.result.best_accuracy())});
  }
  std::cout << t.to_string();
  std::cout << "\nclient-side top-k alone leaves the changed set (and thus\n"
               "downstream) nearly dense; STC's server mask shrinks it to q;\n"
               "GlueFL additionally keeps it overlapping across rounds.\n";
  return 0;
}
