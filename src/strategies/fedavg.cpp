#include "strategies/fedavg.h"

#include <utility>

#include "agg/aggregator.h"
#include "agg/sparse_delta.h"
#include "compress/encoding.h"
#include "fl/uplink.h"
#include "tensor/ops.h"
#include "wire/codec.h"

namespace gluefl {

void FedAvgStrategy::init(SimEngine& engine) {
  sampler_ = std::make_unique<UniformSampler>(engine.num_clients());
}

void FedAvgStrategy::run_round(SimEngine& engine, int round,
                               RoundRecord& rec) {
  Rng rng = engine.round_rng(round, /*purpose=*/0);
  CandidateSet cand =
      sampler_->invite(round, engine.clients_per_round(),
                       engine.run_config().overcommit, rng,
                       engine.availability_fn(round));

  const size_t sb = engine.stat_bytes();
  auto down = engine.down_bytes_fn(
      round, wire::encoded_stats_bytes(engine.stat_dim()));
  // Analytic dense size: the straggler-cutoff estimate.
  auto up = [&engine, sb](int) { return dense_bytes(engine.dim()) + sb; };
  const Participation part =
      engine.simulate_participation(round, cand, down, up, rec);
  const std::vector<int> included = part.all();

  BitMask changed(engine.dim());
  if (!included.empty()) {
    auto results = engine.local_train(included, round);
    std::vector<float> agg(engine.dim(), 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    const double n = engine.num_clients();
    const double khat = static_cast<double>(included.size());
    double loss_sum = 0.0;
    std::vector<SparseDelta> batch;
    batch.reserve(included.size());
    uplink::Intake intake(engine, round);
    for (size_t i = 0; i < included.size(); ++i) {
      const double nu = n / khat * engine.client_weight(included[i]);
      // FedAvg ships the whole dense delta, in a frame buffer sized once.
      // The frame owns the payload once encoded, so the client's copy is
      // released before the decode: one dense copy per client, as in the
      // aggregation batch itself.
      wire::WireEncoder we(engine.dim());
      we.reserve(wire::dense_frame_bytes(engine.dim(), engine.stat_dim()));
      we.add_dense(results[i].delta.data(), results[i].delta.size());
      we.add_stats(results[i].stat_delta.data(), engine.stat_dim());
      results[i].delta = std::vector<float>();
      results[i].stat_delta = std::vector<float>();
      intake.submit(included[i], std::move(we), [&](wire::WireDecoder& wd) {
        batch.push_back(wd.take_dense(static_cast<float>(nu)));
        const std::vector<float> dec_stats = wd.take_stats();
        axpy(static_cast<float>(1.0 / khat), dec_stats.data(),
             stat_agg.data(), engine.stat_dim());
        loss_sum += results[i].loss;
      });
    }
    intake.price(part, rec);
    reduce_deltas(batch, agg.data(), engine.dim());
    axpy(1.0f, agg.data(), engine.params().data(), engine.dim());
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    rec.train_loss = loss_sum / khat;
    changed.set_all();  // dense update: every position may have moved
  }
  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(engine.dim());
  engine.sync().record_round_changes(round, changed);
}

}  // namespace gluefl
