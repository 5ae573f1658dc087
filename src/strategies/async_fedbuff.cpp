#include "strategies/async_fedbuff.h"

#include <cmath>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "agg/sparse_delta.h"
#include "common/check.h"
#include "compress/bitmask.h"
#include "fl/uplink.h"
#include "tensor/ops.h"
#include "wire/codec.h"

namespace gluefl {

AsyncFedBuffStrategy::AsyncFedBuffStrategy(AsyncFedBuffConfig cfg)
    : cfg_(cfg) {
  GLUEFL_CHECK_MSG(cfg_.alpha >= 0.0,
                   "async-fedbuff alpha must be non-negative");
  GLUEFL_CHECK_MSG(cfg_.server_lr > 0.0,
                   "async-fedbuff server_lr must be positive");
}

double AsyncFedBuffStrategy::staleness_weight(int staleness) const {
  const int tau = staleness < 0 ? 0 : staleness;
  if (cfg_.max_staleness > 0 && tau > cfg_.max_staleness) return 0.0;
  if (cfg_.discount == StalenessDiscount::kConstant) return 1.0;
  return std::pow(1.0 + static_cast<double>(tau), -cfg_.alpha);
}

void AsyncFedBuffStrategy::aggregate(SimEngine& engine, int version,
                                     std::vector<AsyncUpdate>& buffer,
                                     RoundRecord& rec) {
  BitMask changed(engine.dim());
  // Open every buffered frame once. A rejected (Byzantine) frame never
  // enters the staleness normalization or the aggregate. No
  // events::mark_byzantine here: the async engine derives the fate from
  // the dispatch seq when it folds the update, so the flight-recorder
  // record already says kByzantine. The weights depend on wsum, which is
  // known only once every frame has been opened; take_dense only stores
  // the weight, so assigning it afterwards is bit-identical.
  std::vector<SparseDelta> batch;
  std::vector<std::vector<float>> stats;
  std::vector<double> discount;
  batch.reserve(buffer.size());
  double wsum = 0.0;
  double loss_sum = 0.0;
  for (AsyncUpdate& u : buffer) {
    const bool ok =
        uplink::open(u.wire, engine.dim(), [&](wire::WireDecoder& wd) {
          batch.push_back(wd.take_dense(0.0f));
          stats.push_back(wd.take_stats());
        });
    // The decoded sections own the payload now: one dense copy per update.
    u.wire = std::vector<uint8_t>();
    if (!ok) continue;
    discount.push_back(staleness_weight(u.staleness));
    wsum += discount.back();
    loss_sum += u.result.loss;
  }
  const size_t valid = batch.size();

  if (valid > 0 && wsum > 0.0) {
    std::vector<float> agg(engine.dim(), 0.0f);
    std::vector<float> stat_agg(engine.stat_dim(), 0.0f);
    for (size_t i = 0; i < valid; ++i) {
      const double nu = cfg_.server_lr * discount[i] / wsum;
      batch[i].weight = static_cast<float>(nu);
      axpy(static_cast<float>(nu), stats[i].data(), stat_agg.data(),
           engine.stat_dim());
    }
    reduce_deltas(batch, agg.data(), engine.dim());
    axpy(1.0f, agg.data(), engine.params().data(), engine.dim());
    axpy(1.0f, stat_agg.data(), engine.stats().data(), engine.stat_dim());
    rec.train_loss = loss_sum / static_cast<double>(valid);
    changed.set_all();  // dense update: every position may have moved
  }
  rec.changed_frac =
      static_cast<double>(changed.count()) / static_cast<double>(engine.dim());
  engine.sync().record_round_changes(version, changed);
}

}  // namespace gluefl
