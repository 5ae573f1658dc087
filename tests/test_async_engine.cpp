// AsyncSimEngine behaviour: K-of-N buffer trigger, staleness discounting,
// byte/time accounting, determinism across thread counts, training only
// the updates that are aggregated, and the dispatch order of a churning
// population whose pool runs short.
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/check.h"
#include "data/presets.h"
#include "fl/async_engine.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "scenario/scenario.h"
#include "strategies/async_fedbuff.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace gluefl {
namespace {

using testing::Fnv1a;
using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

SimEngine make_engine(int rounds = 8, int k = 6, uint64_t seed = 42,
                      int threads = 1) {
  auto cfg = tiny_run_config(rounds, k, seed);
  cfg.num_threads = threads;
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(), cfg);
}

AsyncConfig async_cfg(int buffer = 4, int concurrency = 12) {
  AsyncConfig cfg;
  cfg.buffer_size = buffer;
  cfg.concurrency = concurrency;
  return cfg;
}

AsyncFedBuffConfig fedbuff_cfg(
    StalenessDiscount discount = StalenessDiscount::kPolynomial,
    double alpha = 0.5) {
  AsyncFedBuffConfig cfg;
  cfg.discount = discount;
  cfg.alpha = alpha;
  return cfg;
}

// ---------------------------------------------------------------- config

TEST(AsyncEngine, RejectsInvalidConfig) {
  auto eng = make_engine();
  EXPECT_THROW(AsyncSimEngine(eng, async_cfg(/*buffer=*/0)), CheckError);
  EXPECT_THROW(AsyncSimEngine(eng, async_cfg(4, /*concurrency=*/0)),
               CheckError);
  // Concurrency above the population (tiny_spec has 60 clients).
  EXPECT_THROW(AsyncSimEngine(eng, async_cfg(4, 61)), CheckError);
}

TEST(AsyncFedBuff, RejectsInvalidConfig) {
  AsyncFedBuffConfig bad = fedbuff_cfg();
  bad.alpha = -0.1;
  EXPECT_THROW(AsyncFedBuffStrategy{bad}, CheckError);
  bad = fedbuff_cfg();
  bad.server_lr = 0.0;
  EXPECT_THROW(AsyncFedBuffStrategy{bad}, CheckError);
}

// ------------------------------------------------------- staleness weights

TEST(AsyncFedBuff, ConstantDiscountIgnoresStaleness) {
  AsyncFedBuffStrategy s(fedbuff_cfg(StalenessDiscount::kConstant));
  EXPECT_DOUBLE_EQ(s.staleness_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(s.staleness_weight(17), 1.0);
}

TEST(AsyncFedBuff, PolynomialDiscountMatchesFormula) {
  AsyncFedBuffStrategy s(fedbuff_cfg(StalenessDiscount::kPolynomial, 0.5));
  EXPECT_DOUBLE_EQ(s.staleness_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(s.staleness_weight(3), std::pow(4.0, -0.5));
  EXPECT_DOUBLE_EQ(s.staleness_weight(8), 1.0 / 3.0);
  // Monotone non-increasing in tau.
  for (int tau = 1; tau < 20; ++tau) {
    EXPECT_LE(s.staleness_weight(tau), s.staleness_weight(tau - 1));
  }
}

TEST(AsyncFedBuff, MaxStalenessZeroesWeight) {
  AsyncFedBuffConfig cfg = fedbuff_cfg(StalenessDiscount::kConstant);
  cfg.max_staleness = 3;
  AsyncFedBuffStrategy s(cfg);
  EXPECT_DOUBLE_EQ(s.staleness_weight(3), 1.0);
  EXPECT_DOUBLE_EQ(s.staleness_weight(4), 0.0);
}

TEST(AsyncFedBuff, NegativeStalenessClampsToFresh) {
  AsyncFedBuffStrategy s(fedbuff_cfg(StalenessDiscount::kPolynomial, 1.0));
  EXPECT_DOUBLE_EQ(s.staleness_weight(-1), 1.0);
}

// ---------------------------------------------------------- K-of-N trigger

TEST(AsyncEngine, AggregatesExactlyOnBufferFill) {
  auto eng = make_engine(/*rounds=*/6);
  AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/4, /*concurrency=*/10));
  AsyncFedBuffStrategy strategy(fedbuff_cfg());
  const RunResult res = async_eng.run(strategy);
  ASSERT_EQ(res.rounds.size(), 6u);
  EXPECT_EQ(res.strategy, "async-fedbuff");
  for (const auto& r : res.rounds) {
    EXPECT_EQ(r.num_included, 4);  // every aggregation folded exactly K
    EXPECT_GE(r.num_invited, 0);
    EXPECT_TRUE(std::isfinite(r.train_loss));
    EXPECT_DOUBLE_EQ(r.changed_frac, 1.0);  // dense updates
  }
  // Dispatch conservation: the initial fill plus one replacement per fold
  // means invitations across the run are >= aggregated updates.
  int invited = 0, included = 0;
  for (const auto& r : res.rounds) {
    invited += r.num_invited;
    included += r.num_included;
  }
  EXPECT_GE(invited, included);
}

TEST(AsyncEngine, StalenessAppearsWhenConcurrencyExceedsBuffer) {
  auto eng = make_engine(/*rounds=*/8);
  // N >> K: most in-flight clients span at least one aggregation.
  AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/3, /*concurrency=*/20));
  AsyncFedBuffStrategy strategy(fedbuff_cfg());
  const RunResult res = async_eng.run(strategy);
  double max_stale = 0.0;
  for (const auto& r : res.rounds) {
    EXPECT_GE(r.mean_staleness, 0.0);
    max_stale = std::max(max_stale, r.mean_staleness);
  }
  EXPECT_GT(max_stale, 0.0);
}

TEST(AsyncEngine, FirstAggregationIsAlwaysFresh) {
  // Every update folded by aggregation 0 was necessarily dispatched at
  // version 0, so the first buffer has staleness identically 0 — only
  // later rounds can see stale stragglers from earlier waves.
  auto eng = make_engine(/*rounds=*/5);
  AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/6, /*concurrency=*/6));
  AsyncFedBuffStrategy strategy(fedbuff_cfg());
  const RunResult res = async_eng.run(strategy);
  ASSERT_EQ(res.rounds.size(), 5u);
  EXPECT_DOUBLE_EQ(res.rounds[0].mean_staleness, 0.0);
  for (const auto& r : res.rounds) {
    EXPECT_GE(r.mean_staleness, 0.0);
  }
}

// ------------------------------------------------------------- accounting

TEST(AsyncEngine, BytesAndTimesAreAccounted) {
  auto eng = make_engine(/*rounds=*/4);
  AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/4, /*concurrency=*/8));
  AsyncFedBuffStrategy strategy(fedbuff_cfg());
  const RunResult res = async_eng.run(strategy);
  double last_wall = 0.0;
  for (const auto& r : res.rounds) {
    EXPECT_GT(r.down_bytes, 0.0);
    EXPECT_GT(r.up_bytes, 0.0);
    EXPECT_GT(r.wall_time_s, 0.0);
    EXPECT_GE(r.down_time_s, 0.0);
    EXPECT_GT(r.up_time_s, 0.0);
    EXPECT_GT(r.compute_time_s, 0.0);
    last_wall += r.wall_time_s;
  }
  EXPECT_GT(last_wall, 0.0);
}

TEST(AsyncEngine, SyncTrackerStaysConsecutive) {
  auto eng = make_engine(/*rounds=*/5);
  AsyncSimEngine async_eng(eng, async_cfg());
  AsyncFedBuffStrategy strategy(fedbuff_cfg());
  const RunResult res = async_eng.run(strategy);
  ASSERT_EQ(res.rounds.size(), 5u);
  // All 5 aggregations recorded their changed bitmaps consecutively, so a
  // hypothetical client synced at 0 needs the full dense union at 5.
  EXPECT_EQ(eng.sync().changed_union(0, 5), eng.dim());
}

TEST(AsyncEngine, TrainingImprovesOverInitialModel) {
  auto eng = make_engine(/*rounds=*/12);
  const double init_acc = eng.evaluate().accuracy;
  AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/6, /*concurrency=*/12));
  AsyncFedBuffStrategy strategy(fedbuff_cfg());
  const RunResult res = async_eng.run(strategy);
  EXPECT_GT(res.best_accuracy(), init_acc);
}

// ------------------------------------------------------------ determinism

TEST(AsyncEngine, DeterministicAcrossThreadCounts) {
  auto e1 = make_engine(6, 6, 42, /*threads=*/1);
  auto e4 = make_engine(6, 6, 42, /*threads=*/4);
  AsyncSimEngine a1(e1, async_cfg(/*buffer=*/4, /*concurrency=*/12));
  AsyncSimEngine a4(e4, async_cfg(/*buffer=*/4, /*concurrency=*/12));
  AsyncFedBuffStrategy s1(fedbuff_cfg());
  AsyncFedBuffStrategy s4(fedbuff_cfg());
  const RunResult r1 = a1.run(s1);
  const RunResult r4 = a4.run(s4);
  EXPECT_EQ(e1.params(), e4.params());  // bit-identical final model
  ASSERT_EQ(r1.rounds.size(), r4.rounds.size());
  for (size_t i = 0; i < r1.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.rounds[i].wall_time_s, r4.rounds[i].wall_time_s);
    EXPECT_DOUBLE_EQ(r1.rounds[i].down_bytes, r4.rounds[i].down_bytes);
    EXPECT_DOUBLE_EQ(r1.rounds[i].mean_staleness,
                     r4.rounds[i].mean_staleness);
    if (!std::isnan(r1.rounds[i].test_acc)) {
      EXPECT_DOUBLE_EQ(r1.rounds[i].test_acc, r4.rounds[i].test_acc);
    }
  }
}

TEST(AsyncEngine, RerunOnSameEngineIsReproducible) {
  auto eng = make_engine(5);
  AsyncSimEngine async_eng(eng, async_cfg());
  AsyncFedBuffStrategy s1(fedbuff_cfg());
  AsyncFedBuffStrategy s2(fedbuff_cfg());
  const RunResult r1 = async_eng.run(s1);
  const std::vector<float> params_after_first = eng.params();
  const RunResult r2 = async_eng.run(s2);
  EXPECT_EQ(eng.params(), params_after_first);  // reset_state between runs
  ASSERT_EQ(r1.rounds.size(), r2.rounds.size());
  EXPECT_DOUBLE_EQ(r1.best_accuracy(), r2.best_accuracy());
}

TEST(AsyncEngine, DifferentDiscountsDiverge) {
  auto eng = make_engine(/*rounds=*/8);
  AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/3, /*concurrency=*/20));
  AsyncFedBuffStrategy constant(fedbuff_cfg(StalenessDiscount::kConstant));
  AsyncFedBuffStrategy poly(
      fedbuff_cfg(StalenessDiscount::kPolynomial, 2.0));
  async_eng.run(constant);
  const std::vector<float> params_const = eng.params();
  async_eng.run(poly);
  // Heavy polynomial discounting reweights stale updates, so the final
  // models must differ (the dispatch/timing schedule is identical).
  EXPECT_NE(eng.params(), params_const);
}

// ------------------------------------------- training only what aggregates

/// Telemetry on (counters only) for one scope.
struct TelemetryOn {
  TelemetryOn() {
    telemetry::reset();
    telemetry::configure(telemetry::Options{});
  }
  ~TelemetryOn() { telemetry::reset(); }
};

struct Totals {
  uint64_t invited = 0;
  uint64_t included = 0;
};

Totals totals(const RunResult& res) {
  Totals t;
  for (const RoundRecord& r : res.rounds) {
    t.invited += static_cast<uint64_t>(r.num_invited);
    t.included += static_cast<uint64_t>(r.num_included);
  }
  return t;
}

TEST(AsyncEngine, TrainsOnlyTheUpdatesItAggregates) {
  // Every aggregated update derives one shard and encodes and decodes one
  // frame; the updates still in flight when the run ends derive and
  // encode nothing.
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TelemetryOn on;
    auto eng = make_engine(/*rounds=*/6, 6, 42, threads);
    AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/4, /*concurrency=*/12));
    AsyncFedBuffStrategy strategy(fedbuff_cfg());
    const Totals t = totals(async_eng.run(strategy));
    EXPECT_EQ(t.included, 6u * 4u);
    EXPECT_GT(t.invited, t.included);
    EXPECT_EQ(telemetry::value(telemetry::kWireEncodeFrames), t.included);
    EXPECT_EQ(telemetry::value(telemetry::kWireDecodeFrames), t.included);
    EXPECT_EQ(telemetry::value(telemetry::kDataShardDerived), t.included);
  }
}

TEST(AsyncEngine, DropoutsAndDeadlineMissesAreNeverTrained) {
  // The benchmark's async shape at OpenImage scale 0.05 under the hostile
  // scenario: a dropout or a deadline miss never reaches the buffer, so it
  // derives no shard and encodes no frame. A Byzantine update trains and
  // encodes, and its decode is rejected.
  TelemetryOn on;
  const SyntheticSpec spec = openimage_spec(0.05);
  const int k = preset_clients_per_round(spec);
  RunConfig rc = tiny_run_config(/*rounds=*/3, k, 42);
  rc.overcommit = 1.3;
  rc.use_availability = true;
  rc.scenario = scenario::load_scenario("hostile");
  TrainConfig train;
  train.lr0 = 0.05;
  SimEngine eng(make_synthetic_dataset(spec),
                make_proxy("shufflenet", spec.feature_dim, spec.num_classes),
                make_env("edge"), train, rc);
  AsyncSimEngine async_eng(eng, async_cfg(/*buffer=*/k, /*concurrency=*/3 * k));
  AsyncFedBuffStrategy strategy(fedbuff_cfg());
  const Totals t = totals(async_eng.run(strategy));
  const uint64_t dropped =
      telemetry::value(telemetry::kScenarioDropouts) +
      telemetry::value(telemetry::kScenarioDeadlineDrops);
  EXPECT_GT(telemetry::value(telemetry::kScenarioDropouts), 0u);
  EXPECT_GT(telemetry::value(telemetry::kScenarioDeadlineDrops), 0u);
  EXPECT_GT(telemetry::value(telemetry::kScenarioFramesRejected), 0u);
  EXPECT_GT(t.invited, t.included + dropped);
  EXPECT_EQ(telemetry::value(telemetry::kWireEncodeFrames), t.included);
  EXPECT_EQ(telemetry::value(telemetry::kWireDecodeFrames), t.included);
  EXPECT_EQ(telemetry::value(telemetry::kDataShardDerived), t.included);
}

// ------------------------------------------------------ short dispatch pool
//
// Half the population online, each client changing state with probability
// 1/2 at every version, and 48 of 60 clients in flight: fills come up short
// of the free slots, folds hand clients back to the pool within a version,
// and every version change re-forms the pool while clients are in flight.
// The pins hold the dispatch order where the pool, not the free slots,
// bounds a fill.

constexpr int kPoolRounds = 12;
constexpr int kPoolBoundary = 6;
constexpr uint64_t kPoolRecordsHash = 0xcf8eeca6b9ddba3aull;
constexpr uint64_t kPoolParamsHash = 0x9728c61a0879a479ull;

SimEngine make_churn_engine(int threads) {
  NetworkEnv env = make_edge_env();
  env.availability = 0.5;
  env.mean_on_rounds = 2.0;
  RunConfig cfg = tiny_run_config(kPoolRounds, 6, 42);
  cfg.use_availability = true;
  cfg.num_threads = threads;
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(), env,
                   tiny_train_config(), cfg);
}

AsyncConfig churn_cfg() {
  return async_cfg(/*buffer=*/4, /*concurrency=*/48);
}

uint64_t records_hash(const RunResult& res) {
  Fnv1a f;
  for (const RoundRecord& r : res.rounds) {
    f.add(r.round);
    f.add(r.down_bytes);
    f.add(r.up_bytes);
    f.add(r.down_time_s);
    f.add(r.up_time_s);
    f.add(r.compute_time_s);
    f.add(r.wall_time_s);
    f.add(r.train_loss);
    f.add(r.test_acc);
    f.add(r.num_invited);
    f.add(r.num_included);
    f.add(r.mean_staleness);
    f.add(r.changed_frac);
    f.add(r.mask_overlap);
  }
  return f.h;
}

uint64_t params_hash(const std::vector<float>& params) {
  Fnv1a f;
  f.add(params);
  return f.h;
}

// Counts, at each aggregation boundary, the states the pool upkeep has to
// get right, and snapshots the run at kPoolBoundary.
struct PoolProbe final : RoundHook {
  const ckpt::Checkpointable* strategy = nullptr;
  // The fill before this boundary left slots free (the fold freed one).
  int short_fills = 0;
  // A client in flight at the previous boundary folded in this version
  // and was dispatched again before it ended.
  int redispatched = 0;
  // An in-flight client that the next version's pool must leave out: it
  // is online at that version.
  int in_flight_online_next = 0;
  std::set<int> prev_in_flight;
  ckpt::Snapshot snap;
  bool captured = false;

  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* st) override {
    if (st->free_slots > 1) ++short_fills;
    std::set<int> in_flight;
    for (const AsyncInFlight& f : st->events) {
      in_flight.insert(f.client);
      if (f.version == round && prev_in_flight.count(f.client) != 0) {
        ++redispatched;
      }
      if (round + 1 < kPoolRounds &&
          engine.client_available(f.client, round + 1)) {
        ++in_flight_online_next;
      }
    }
    prev_in_flight = std::move(in_flight);
    if (round + 1 == kPoolBoundary) {
      snap = ckpt::snapshot_of(engine, kPoolBoundary, partial, "async-fedbuff",
                               *strategy, st, {{"origin", "test"}});
      captured = true;
    }
  }
};

TEST(AsyncEngine, ShortPoolDispatchMatchesPins) {
  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto eng = make_churn_engine(threads);
    AsyncSimEngine async_eng(eng, churn_cfg());
    AsyncFedBuffStrategy strategy(fedbuff_cfg());
    PoolProbe probe;
    probe.strategy = &strategy;
    const RunResult res = async_eng.run(strategy, &probe);
    ASSERT_EQ(res.rounds.size(), static_cast<size_t>(kPoolRounds));
    EXPECT_GT(probe.short_fills, 0);
    EXPECT_GT(probe.redispatched, 0);
    EXPECT_GT(probe.in_flight_online_next, 0);
    EXPECT_EQ(records_hash(res), kPoolRecordsHash)
        << std::hex << records_hash(res);
    EXPECT_EQ(params_hash(eng.params()), kPoolParamsHash)
        << std::hex << params_hash(eng.params());
  }
}

TEST(AsyncEngine, ShortPoolResumeMatchesUninterruptedRun) {
  auto ref_eng = make_churn_engine(1);
  AsyncSimEngine ref_async(ref_eng, churn_cfg());
  AsyncFedBuffStrategy ref_strategy(fedbuff_cfg());
  PoolProbe probe;
  probe.strategy = &ref_strategy;
  const RunResult ref = ref_async.run(ref_strategy, &probe);
  ASSERT_TRUE(probe.captured);
  ASSERT_TRUE(probe.snap.has_async);

  auto res_eng = make_churn_engine(1);
  AsyncSimEngine res_async(res_eng, churn_cfg());
  AsyncFedBuffStrategy res_strategy(fedbuff_cfg());
  AsyncRunState state =
      ckpt::restore_async_run(probe.snap, res_eng, res_strategy);
  // The boundary follows a short fill and has clients in flight, so the
  // resumed run's first fill re-forms a pool that cannot cover its slots.
  EXPECT_GT(state.free_slots, 1);
  EXPECT_FALSE(state.events.empty());
  const RunResult res = res_async.resume(res_strategy, std::move(state),
                                         ckpt::history_result(probe.snap));
  EXPECT_EQ(records_hash(res), records_hash(ref));
  EXPECT_EQ(res_eng.params(), ref_eng.params());
  EXPECT_EQ(records_hash(res), kPoolRecordsHash);
}

}  // namespace
}  // namespace gluefl
