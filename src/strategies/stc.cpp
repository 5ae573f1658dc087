#include "strategies/stc.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agg/aggregator.h"
#include "agg/sparse_delta.h"
#include "common/check.h"
#include "compress/encoding.h"
#include "compress/topk.h"
#include "fl/uplink.h"
#include "tensor/ops.h"
#include "wire/codec.h"

namespace gluefl {

StcStrategy::StcStrategy(StcConfig cfg) : cfg_(cfg) {
  GLUEFL_CHECK(cfg.q > 0.0 && cfg.q <= 1.0);
}

void StcStrategy::init(SimEngine& engine) {
  sampler_ = std::make_unique<UniformSampler>(engine.num_clients());
  ec_ = std::make_unique<ErrorFeedback>(
      cfg_.error_feedback ? ErrorFeedback::Mode::kRaw
                          : ErrorFeedback::Mode::kNone,
      engine.dim());
  k_ = std::max<size_t>(
      1, static_cast<size_t>(std::lround(cfg_.q * engine.dim())));
}

void StcStrategy::restore_residuals(const ResidualRows& rows) {
  ec_->restore_rows(rows);
}

void StcStrategy::run_round(SimEngine& engine, int round, RoundRecord& rec) {
  Rng rng = engine.round_rng(round, /*purpose=*/0);
  CandidateSet cand =
      sampler_->invite(round, engine.clients_per_round(),
                       engine.run_config().overcommit, rng,
                       engine.availability_fn(round));

  const size_t dim = engine.dim();
  auto down = engine.down_bytes_fn(
      round, wire::encoded_stats_bytes(engine.stat_dim()));
  // Analytic size: the straggler-cutoff estimate.
  const size_t up_bytes = sparse_update_bytes(k_, dim) + engine.stat_bytes();
  auto up = [up_bytes](int) { return up_bytes; };
  const Participation part =
      engine.simulate_participation(round, cand, down, up, rec);
  const std::vector<int> included = part.all();

  BitMask changed(dim);
  if (!included.empty()) {
    auto results = engine.local_train(included, round);
    std::vector<float> agg(dim, 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    const double n = engine.num_clients();
    const double khat = static_cast<double>(included.size());
    double loss_sum = 0.0;
    std::vector<SparseDelta> batch;
    batch.reserve(included.size());
    uplink::Intake intake(engine, round);
    for (size_t i = 0; i < included.size(); ++i) {
      const int client = included[i];
      std::vector<float>& delta = results[i].delta;
      // STC memory: re-inject what previous compressions dropped.
      ec_->apply(client, 1.0, delta.data());
      SparseVec kept = top_k_abs(delta.data(), dim, k_);
      const double nu = n / khat * engine.client_weight(client);
      // Residual: the update minus what was sent.
      for (size_t j = 0; j < kept.idx.size(); ++j) delta[kept.idx[j]] = 0.0f;
      ec_->store(client, 1.0, delta.data());

      // Client-side state (EC memory) updates above run for every included
      // client; a Byzantine one still trained — only its wire frame lies.
      wire::WireEncoder we(dim);
      we.add_unique(kept);
      we.add_stats(results[i].stat_delta.data(), engine.stat_dim());
      intake.submit(client, std::move(we), [&](wire::WireDecoder& wd) {
        batch.push_back(wd.take_unique(static_cast<float>(nu)));
        const std::vector<float> dec_stats = wd.take_stats();
        axpy(static_cast<float>(1.0 / khat), dec_stats.data(),
             stat_agg.data(), engine.stat_dim());
        loss_sum += results[i].loss;
      });
    }
    intake.price(part, rec);
    reduce_deltas(batch, agg.data(), dim);
    // Server-side sparsification (Algorithm 1 line 17): top-q of the
    // aggregate becomes the actual model update.
    const SparseVec final_update = top_k_abs(agg.data(), dim, k_);
    scatter_add(final_update, 1.0f, engine.params().data());
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    for (uint32_t idx : final_update.idx) changed.set(idx);
    rec.train_loss = loss_sum / khat;
  }
  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(dim);
  engine.sync().record_round_changes(round, changed);
}

}  // namespace gluefl
