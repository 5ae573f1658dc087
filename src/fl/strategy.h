// Strategy interface: one FL algorithm = one Strategy implementation.
//
// The engine owns the round loop, the global model state, timing and
// byte accounting; the strategy decides who participates, what is
// transmitted, and how updates are aggregated — mirroring the structure of
// the paper's Algorithms 1-3. A Strategy instance carries state across
// rounds (masks, residuals, freeze periods) and is therefore used for a
// single run.
#pragma once

#include <string>
#include <vector>

#include "ckpt/checkpointable.h"

namespace gluefl {

class SimEngine;
struct RoundRecord;
struct AsyncUpdate;  // fl/async_engine.h

/// Strategies are Checkpointable: save_state/restore_state serialize the
/// cross-round state (masks, residuals, freeze periods, sampler cohorts)
/// so `gluefl resume` replays the remaining rounds bit-identically. The
/// inherited defaults are no-ops, which is correct for stateless
/// strategies; every in-tree strategy overrides them explicitly.
class Strategy : public ckpt::Checkpointable {
 public:
  virtual ~Strategy() = default;

  virtual std::string name() const = 0;

  /// Called once before round 0.
  virtual void init(SimEngine& engine) { (void)engine; }

  /// Executes one communication round: sample -> download -> local train ->
  /// upload -> aggregate; must record the changed-position bitmap via
  /// engine.sync().record_round_changes(round, ...).
  virtual void run_round(SimEngine& engine, int round, RoundRecord& rec) = 0;
};

/// Async execution contract. An AsyncStrategy does not own the round loop
/// — the AsyncSimEngine drives dispatch, timing and the K-of-N buffer
/// trigger — it only decides how staleness discounts updates and how a
/// full buffer is folded into the global model.
class AsyncStrategy : public ckpt::Checkpointable {
 public:
  virtual ~AsyncStrategy() = default;

  virtual std::string name() const = 0;

  /// Called once before the first dispatch.
  virtual void init(SimEngine& engine) { (void)engine; }

  /// Folds one full buffer into engine.params()/stats(), producing
  /// aggregation `version` (w^{version} -> w^{version+1}); must record the
  /// changed-position bitmap via
  /// engine.sync().record_round_changes(version, ...). The buffer is
  /// discarded afterwards, so the strategy may move update payloads out of
  /// it (e.g. into the SparseDelta batch it hands to reduce_deltas).
  virtual void aggregate(SimEngine& engine, int version,
                         std::vector<AsyncUpdate>& buffer,
                         RoundRecord& rec) = 0;
};

}  // namespace gluefl
