// SimEngine: the cross-device FL simulator.
//
// Owns the global model state (flat trainable params + BatchNorm stats),
// the federated dataset and its cache of derived client shards, the client
// directory (per-client profiles and availability, dense or virtual) and
// the staleness tracker. Strategies drive each round through the context
// API below; the engine provides
//
//   * deterministic, parallel client-local SGD (real training on the
//     proxy model — accuracy curves are genuine, not modelled),
//   * the participation/straggler simulation: every invitee's round time is
//     download + compute + upload from its profile; the fastest
//     `need_sticky` sticky and `need_nonsticky` non-sticky finishers are
//     aggregated, and invited-but-dropped clients still pay (and are
//     charged) their download — reproducing the over-commitment behaviour
//     of Table 3,
//   * byte/time/accuracy metrics collection.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "agg/topology.h"
#include "common/rng.h"
#include "data/federated_dataset.h"
#include "fl/metrics.h"
#include "fl/run_hook.h"
#include "fl/sim_config.h"
#include "fl/strategy.h"
#include "fl/sync_tracker.h"
#include "net/client_directory.h"
#include "net/client_profile.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "sampling/sampler.h"

namespace gluefl {

/// Result of one client's local training.
struct LocalResult {
  std::vector<float> delta;       // w_i^{t,E} - w^t (trainable)
  std::vector<float> stat_delta;  // BN statistics delta (Appendix D)
  float loss = 0.0f;
  int n_samples = 0;
};

/// One client's local training: the client (its shard), the model it
/// starts from, its learning rate and its RNG stream. The base model is
/// borrowed: `params` (dim floats) and `stats` (stat_dim floats) must stay
/// valid and unchanged until SimEngine::train returns.
struct TrainJob {
  int client = 0;
  const float* params = nullptr;
  const float* stats = nullptr;
  double lr = 0.0;
  Rng rng{0};
};

/// Who actually participated after the straggler cutoff.
struct Participation {
  std::vector<int> sticky;     // included, from the sticky invitation list
  std::vector<int> nonsticky;  // included, from the non-sticky list
  std::vector<int> all() const;
  /// Download + compute seconds per included client, aligned with all()
  /// (sticky first). price_uplinks() adds the upload leg on top once the
  /// real frames exist.
  std::vector<double> ready_s;
};

class SimEngine {
 public:
  SimEngine(FederatedDataset dataset, ModelProxy proxy, NetworkEnv env,
            TrainConfig train_cfg, RunConfig run_cfg);
  ~SimEngine();  // out-of-line: Worker is an incomplete type here
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  SimEngine(SimEngine&&) = default;
  SimEngine& operator=(SimEngine&&) = delete;

  /// Runs a full training: resets global state, executes run_cfg.rounds
  /// rounds of `strategy`, evaluating every eval_every rounds. `hook` (may
  /// be null) observes every round boundary — the checkpoint seam.
  RunResult run(Strategy& strategy, RoundHook* hook = nullptr);

  /// Continues a restored run: executes rounds [next_round, rounds) of
  /// `strategy` on the CURRENT engine/strategy state (no reset, no init),
  /// appending to `prefix` — the restored record history. The caller
  /// (ckpt::restore_sync_run) must have restored params/stats/sync and the
  /// strategy state to the boundary `next_round` first.
  RunResult run_from(Strategy& strategy, int next_round, RunResult prefix,
                     RoundHook* hook = nullptr);

  /// Re-initializes params/stats/sync tracker to the run-start state.
  /// run() calls this; AsyncSimEngine::run() does the same, so one engine
  /// can execute many (sync or async) runs with paired noise.
  void reset_state();

  // ---- context API used by strategies ----
  size_t dim() const { return dim_; }
  size_t stat_dim() const { return stat_dim_; }
  /// Simulated population (RunConfig::population, defaulting to the
  /// dataset's client count). Virtual ids in [0, num_clients()) map onto
  /// dataset shards modulo the shard count.
  int num_clients() const { return static_cast<int>(population_); }
  int clients_per_round() const { return run_cfg_.clients_per_round; }
  const FederatedDataset& dataset() const { return dataset_; }
  const TrainConfig& train_config() const { return train_cfg_; }
  const RunConfig& run_config() const { return run_cfg_; }
  const NetworkEnv& env() const { return env_; }
  /// Per-client system profile, by value: profiles are derived on demand
  /// and cache eviction would invalidate references into the directory.
  ClientProfile profile(int client) const { return directory_->profile(client); }
  const ClientDirectory& directory() const { return *directory_; }

  std::vector<float>& params() { return params_; }
  const std::vector<float>& params() const { return params_; }
  std::vector<float>& stats() { return stats_; }
  const std::vector<float>& stats() const { return stats_; }

  /// FedAvg importance weight p_i. With the population equal to the
  /// dataset's client count this is exactly n_i / total samples; larger
  /// populations spread each shard's weight over its virtual replicas so
  /// weights still sum to 1 over the population.
  double client_weight(int client) const;

  /// Deterministic, config-derived estimate of the engine's peak resident
  /// bytes: model replicas, the test set, one training batch of
  /// `batch_clients` shards at the mean shard size, the per-client
  /// directory state, the sync tracker and, when `residual_rows` (the
  /// strategy keeps error-feedback residuals), one row per client it can
  /// train. Identical for a run and its resume by construction, so it can
  /// ride the JSON report without breaking byte-identity.
  size_t memory_estimate_bytes(int batch_clients, bool residual_rows) const;

  SyncTracker& sync() { return *sync_; }
  const SyncTracker& sync() const { return *sync_; }

  /// Hierarchical (edge -> cloud) topology, or nullptr when flat.
  const HierarchicalTopology* topology() const { return topology_.get(); }

  /// Wire bytes of the dense BatchNorm statistics payload.
  size_t stat_bytes() const;

  /// Deterministic RNG for (round, purpose).
  Rng round_rng(int round, uint64_t purpose) const;

  /// Deterministic RNG for async-execution streams; disjoint from every
  /// per-round stream used by the synchronous path.
  Rng async_rng(uint64_t purpose) const;

  /// Training stream of async dispatch `seq`: unique per dispatch, so a
  /// client re-dispatched at the same model version still sees fresh
  /// batch noise.
  Rng async_train_rng(uint64_t seq) const;

  bool client_available(int client, int round) const;
  AvailabilityFn availability_fn(int round);

  // ---- scenario fault injection (DESIGN.md §11) ----
  const scenario::ScenarioSpec& scenario() const { return run_cfg_.scenario; }
  /// True when client `client` crashes between download and upload in
  /// `round` (sync engine). Pure function of (seed, round, client).
  bool scenario_dropout(int round, int client) const;
  /// True when client `client` sends a Byzantine/corrupted update in
  /// `round` (sync engine). The uplink intake (fl/uplink.h) corrupts the
  /// client's frame and its server-side decode rejects it.
  bool scenario_byzantine(int round, int client) const;
  /// Async variants keyed by the dispatch sequence number, so the fate of
  /// an in-flight update can be recomputed after resume without widening
  /// the serialized event format.
  bool scenario_dropout_seq(uint64_t seq) const;
  bool scenario_byzantine_seq(uint64_t seq) const;

  /// Learning rate schedule (paper: decay 0.98 every 10 rounds).
  double lr_at(int round) const;

  /// Simulated FLOPs one client spends training for one round.
  double flops_per_client_round() const;

  /// Bytes-on-wire multiplier: real-model params / proxy params (1 when the
  /// proxy declares no real-model size). Applied uniformly to every payload
  /// for both transfer times and reported volumes, so the simulation moves
  /// bytes as if the full-size architecture were being shipped.
  double wire_scale() const { return wire_scale_; }

  /// Straggler / over-commitment simulation. `down_bytes_fn` gives the
  /// per-client download size; `up_bytes_fn` is the server's estimate of
  /// the upload size (the §5 formulas), which only orders the straggler
  /// cutoff. Fills the download, compute and participation fields of
  /// `rec` and marks every invitee synced at `round`. The upload leg is
  /// NOT priced here: the real frames cannot exist before the included
  /// clients have trained, so the caller prices them with price_uplinks()
  /// (strategies do so through uplink::Intake).
  Participation simulate_participation(
      int round, const CandidateSet& cand,
      const std::function<size_t(int)>& down_bytes_fn,
      const std::function<size_t(int)>& up_bytes_fn, RoundRecord& rec);

  /// Prices the upload leg of simulate_participation: accumulates
  /// up_bytes / up_time_s / wall_time_s (and, under a hierarchical
  /// topology, the per-edge partial-aggregate uplinks) from `up_bytes_fn`
  /// over the included clients.
  void price_uplinks(const Participation& part,
                     const std::function<size_t(int)>& up_bytes_fn,
                     RoundRecord& rec);

  /// Per-client downlink size function for `round`: the measured sync
  /// frame (the real mask codec run over the SyncTracker's stale-position
  /// union, plus the fp32 values it selects; 0 when the client is current)
  /// + `extra_bytes`, cached per last-synced round (every client at the
  /// same staleness shares one server-side encode). The caller
  /// supplies `extra_bytes` for whatever rides along (BN stats frame,
  /// strategy mask frames).
  std::function<size_t(int)> down_bytes_fn(int round, size_t extra_bytes);

  /// Trains every job locally (in parallel), each from its own base
  /// model. Results are indexed like `jobs`. Deterministic regardless of
  /// the thread count.
  std::vector<LocalResult> train(const std::vector<TrainJob>& jobs);

  /// The synchronous round's batch: trains `clients` from the current
  /// global model at round `round`'s learning rate and streams.
  std::vector<LocalResult> local_train(const std::vector<int>& clients,
                                       int round);

  /// Test-set evaluation of the current global model.
  EvalResult evaluate();

 private:
  struct Worker;  // per-thread training context

  RunResult run_rounds(Strategy& strategy, int first_round, RunResult result,
                       RoundHook* hook);
  void train_one(Worker& w, const ClientShard& shard, const TrainJob& job,
                 LocalResult& out);

  FederatedDataset dataset_;
  ModelProxy proxy_;
  NetworkEnv env_;
  TrainConfig train_cfg_;
  RunConfig run_cfg_;

  size_t dim_ = 0;
  size_t stat_dim_ = 0;
  std::vector<float> params_;
  std::vector<float> stats_;

  int64_t population_ = 0;
  std::unique_ptr<ClientDirectory> directory_;
  std::unique_ptr<HierarchicalTopology> topology_;
  std::unique_ptr<SyncTracker> sync_;
  Rng master_rng_;
  double wire_scale_ = 1.0;
  int num_threads_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace gluefl
