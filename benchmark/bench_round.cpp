// bench_round: one child process of the repository benchmark.
//
// benchmark/run.py starts this binary once per measured step and reads the
// JSON object it prints as its last stdout line. The steps are
//
//   bench_round setup  FLAGS   build the dataset, engine and strategy,
//                              report the set-up timings, exit
//   bench_round run    FLAGS   set up, then run every round back to back
//                              (a closed loop), timestamping each boundary
//   bench_round resume FLAGS   load the snapshot of boundary --resume-at,
//                              restore it and run the remaining rounds
//
// FLAGS are the `gluefl run` flags that differ between the workloads, with
// the same meaning, plus --resume-at B. The settings every workload shares
// (OpenImage, shufflenet, the edge env, the encoded wire, eval every 5
// rounds, one thread) are constants below. The engine, the strategy and
// the async options are built the way src/cli/cli.cpp builds them
// (make_cli_engine, make_strategy_for, resolve_async); `run.py --parity`
// checks these copies against the real `gluefl run` on the same settings.
//
// Checkpoints: with --checkpoint-every N the real ckpt::CheckpointHook
// saves inside the timed round loop, as in `gluefl run`. Without it, the
// run step still saves one snapshot at boundary --resume-at for the resume
// step, after that boundary's timestamp, so the save stays outside the
// timed intervals. Either way only the --resume-at snapshot and the newest
// one are kept on disk.
//
// With --trace FILE the program's own spans are recorded, plus spans from
// the forwarding wrappers below around Strategy::run_round,
// AsyncStrategy::aggregate and CheckpointHook::on_round_end, and one
// "bench.interval" span per timed round. run.py derives the per-layer
// metrics from that file.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "data/presets.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "scenario/scenario.h"
#include "strategies/factory.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"

namespace {

using namespace gluefl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Shared by every workload; run.py passes the same values to `gluefl run`
// for --parity. The dataset is OpenImage and the wire is encoded.
constexpr const char* kModel = "shufflenet";
constexpr const char* kEnv = "edge";
constexpr int kEvalEvery = 5;
constexpr int kThreads = 1;

struct Options {
  std::string mode;
  std::string exec = "sync";
  std::string strategy;
  std::string scenario;
  std::string checkpoint_dir;
  std::string events_path;
  std::string trace_path;
  double scale = 1.0;
  int rounds = 40;
  uint64_t seed = 42;
  int checkpoint_every = 0;
  int resume_at = 0;
};

long to_long(const std::string& key, const std::string& s, long lo, long hi) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || v < lo || v > hi) {
    throw std::invalid_argument("--" + key + " expects an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" + s + "'");
  }
  return v;
}

double to_double(const std::string& key, const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v)) {
    throw std::invalid_argument("--" + key + " expects a number, got '" + s + "'");
  }
  return v;
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: bench_round setup|run|resume [flags]");
  Options o;
  o.mode = argv[1];
  if (o.mode != "setup" && o.mode != "run" && o.mode != "resume") {
    throw std::invalid_argument("unknown mode '" + o.mode + "'");
  }
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected '--flag value', got '" + flag + "'");
    }
    const std::string key = flag.substr(2);
    const std::string v = argv[i + 1];
    if (key == "exec") o.exec = v;
    else if (key == "strategy") o.strategy = v;
    else if (key == "scenario") o.scenario = v;
    else if (key == "checkpoint-dir") o.checkpoint_dir = v;
    else if (key == "events") o.events_path = v;
    else if (key == "trace") o.trace_path = v;
    else if (key == "scale") o.scale = to_double(key, v);
    else if (key == "rounds") o.rounds = static_cast<int>(to_long(key, v, 1, 1000000));
    else if (key == "seed") o.seed = static_cast<uint64_t>(to_long(key, v, 0, std::numeric_limits<long>::max()));
    else if (key == "checkpoint-every") o.checkpoint_every = static_cast<int>(to_long(key, v, 1, 1000000));
    else if (key == "resume-at") o.resume_at = static_cast<int>(to_long(key, v, 1, 1000000));
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.exec != "sync" && o.exec != "async") throw std::invalid_argument("--exec expects sync or async");
  if (o.strategy.empty()) o.strategy = o.exec == "async" ? "async-fedbuff" : "gluefl";
  if (!(o.scale > 0.0 && o.scale <= 1.0)) throw std::invalid_argument("--scale must be in (0, 1]");
  if (o.mode != "setup" && (o.checkpoint_dir.empty() || o.resume_at >= o.rounds)) {
    throw std::invalid_argument("run/resume need --checkpoint-dir and --resume-at below --rounds");
  }
  return o;
}

// ---- engine, strategy and async options, as the CLI builds them ----

struct Setup {
  double synth_s = 0.0;        // make_synthetic_dataset
  double engine_init_s = 0.0;  // SimEngine constructor
  std::unique_ptr<SimEngine> engine;
  std::unique_ptr<Strategy> sync_strategy;
  std::unique_ptr<AsyncStrategy> async_strategy;
  AsyncConfig async_cfg;
};

/// The CLI's make_strategy_for for the strategies the workloads use: GlueFL
/// gets the calibrated config with its sticky group clamped to the
/// population.
std::unique_ptr<Strategy> make_sync_strategy(const std::string& name, int k,
                                             int num_clients) {
  if (name != "gluefl") return make_strategy(name, k, kModel);
  GlueFlConfig cfg = calibrated_gluefl_config(k, kModel);
  cfg.sticky_group_size = std::min(cfg.sticky_group_size, num_clients);
  cfg.sticky_per_round = std::min(cfg.sticky_per_round, k);
  return std::make_unique<GlueFlStrategy>(cfg);
}

Setup build(const Options& o) {
  Setup s;
  const SyntheticSpec spec = openimage_spec(o.scale);
  const int k = preset_clients_per_round(spec);
  TrainConfig train;
  train.lr0 = 0.05;
  RunConfig run;
  run.rounds = o.rounds;
  run.clients_per_round = k;
  run.overcommit = 1.3;
  run.eval_every = std::min(kEvalEvery, o.rounds);
  run.topk_accuracy = preset_topk(spec);
  run.seed = o.seed;
  run.use_availability = true;
  run.num_threads = kThreads;
  run.wire.mode = WireMode::kEncoded;
  if (!o.scenario.empty()) run.scenario = scenario::load_scenario(o.scenario);

  auto t0 = Clock::now();
  FederatedDataset data = make_synthetic_dataset(spec);
  s.synth_s = seconds_since(t0);
  t0 = Clock::now();
  s.engine = std::make_unique<SimEngine>(
      std::move(data), make_proxy(kModel, spec.feature_dim, spec.num_classes),
      make_env(kEnv), train, run);
  s.engine_init_s = seconds_since(t0);

  const int pop = s.engine->num_clients();
  if (o.exec == "async") {
    s.async_cfg.concurrency = std::min(3 * k, pop);
    s.async_cfg.buffer_size = std::min(k, s.async_cfg.concurrency);
    s.async_strategy = make_async_strategy(o.strategy, AsyncFedBuffConfig{});
  } else {
    s.sync_strategy = make_sync_strategy(o.strategy, k, pop);
  }
  return s;
}

// ---- forwarding wrappers: spans around the calls into each layer ----

class TimedStrategy final : public Strategy {
 public:
  explicit TimedStrategy(Strategy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void init(SimEngine& engine) override { inner_.init(engine); }
  void run_round(SimEngine& engine, int round, RoundRecord& rec) override {
    telemetry::Span span("strategies.round");
    inner_.run_round(engine, round, rec);
  }
  void save_state(ckpt::Writer& w) const override { inner_.save_state(w); }
  void restore_state(ckpt::Reader& r) override { inner_.restore_state(r); }

 private:
  Strategy& inner_;
};

class TimedAsyncStrategy final : public AsyncStrategy {
 public:
  explicit TimedAsyncStrategy(AsyncStrategy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void init(SimEngine& engine) override { inner_.init(engine); }
  void aggregate(SimEngine& engine, int version,
                 std::vector<AsyncUpdate>& buffer, RoundRecord& rec) override {
    telemetry::Span span("strategies.round");
    inner_.aggregate(engine, version, buffer, rec);
  }
  void save_state(ckpt::Writer& w) const override { inner_.save_state(w); }
  void restore_state(ckpt::Reader& r) override { inner_.restore_state(r); }

 private:
  AsyncStrategy& inner_;
};

double file_mb(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Timestamps every round boundary. A round's interval runs from the end
/// of the previous boundary's bookkeeping to this boundary, and includes
/// the checkpoint save when the workload checkpoints inside the loop.
class BoundaryHook final : public RoundHook {
 public:
  BoundaryHook(ckpt::CheckpointHook* ckpt, bool ckpt_in_loop, int keep_boundary,
               const std::string& dir)
      : ckpt_(ckpt),
        ckpt_in_loop_(ckpt_in_loop),
        keep_boundary_(keep_boundary),
        keep_path_(ckpt::checkpoint_path(dir, keep_boundary)) {}

  void start() {
    t_start_ = Clock::now();
    traced_ = telemetry::span_begin(&span_t0_);
  }

  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override {
    if (ckpt_in_loop_) save(engine, round, partial, async_state);
    intervals_ms_.push_back(seconds_since(t_start_) * 1e3);
    if (traced_) telemetry::span_end("bench.interval", span_t0_);
    if (!ckpt_in_loop_ && ckpt_ != nullptr && round + 1 == keep_boundary_) {
      loop_rss_mb_ = peak_rss_mb();
      save(engine, round, partial, async_state);
    }
    prune();
    if (async_state != nullptr) async_seq_ = async_state->seq;
    start();
  }

  const std::vector<double>& intervals_ms() const { return intervals_ms_; }
  const std::vector<double>& snapshot_mb() const { return snapshot_mb_; }
  uint64_t async_seq() const { return async_seq_; }
  /// Peak RSS of the round loop. With the one save outside the loop it is
  /// sampled just before that save, whose snapshot copies would otherwise
  /// dominate it, so it covers rounds [0, resume_at) only.
  double loop_rss_mb() const { return loop_rss_mb_ > 0.0 ? loop_rss_mb_ : peak_rss_mb(); }

 private:
  void save(SimEngine& engine, int round, const RunResult& partial,
            const AsyncRunState* async_state) {
    telemetry::Span span("ckpt.hook");
    ckpt_->on_round_end(engine, round, partial, async_state);
  }

  /// Keeps the resume snapshot and the newest one; deletes the rest.
  void prune() {
    if (ckpt_ == nullptr || ckpt_->last_path() == newest_) return;
    if (!newest_.empty() && newest_ != keep_path_) std::remove(newest_.c_str());
    newest_ = ckpt_->last_path();
    snapshot_mb_.push_back(file_mb(newest_));
  }

  ckpt::CheckpointHook* ckpt_;
  bool ckpt_in_loop_;
  int keep_boundary_;
  std::string keep_path_;
  std::string newest_;
  Clock::time_point t_start_;
  bool traced_ = false;
  double span_t0_ = 0.0;
  std::vector<double> intervals_ms_;
  std::vector<double> snapshot_mb_;
  uint64_t async_seq_ = 0;
  double loop_rss_mb_ = 0.0;
};

// ---- fingerprints and JSON output ----

class Fnv {
 public:
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ULL;
  }
  template <typename T>
  void pod(const T& v) { bytes(&v, sizeof(v)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Hash of the records [from, end) plus the final model and the sim-class
/// telemetry: equal only if the simulation took the same path bit for bit.
std::string fingerprint(const RunResult& res, size_t from, const SimEngine& engine) {
  Fnv f;
  for (size_t i = from; i < res.rounds.size(); ++i) {
    const RoundRecord& r = res.rounds[i];
    for (double v : {r.down_bytes, r.up_bytes, r.down_time_s, r.up_time_s,
                     r.compute_time_s, r.wall_time_s, r.train_loss, r.test_acc,
                     r.mean_staleness, r.changed_frac, r.mask_overlap}) {
      f.pod(v);
    }
    for (int v : {r.round, r.num_invited, r.num_included}) f.pod(v);
  }
  f.bytes(engine.params().data(), engine.params().size() * sizeof(float));
  f.bytes(engine.stats().data(), engine.stats().size() * sizeof(float));
  for (uint64_t v : telemetry::sim_values()) f.pod(v);
  return f.hex();
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& vs) {
  std::string s = "[";
  for (size_t i = 0; i < vs.size(); ++i) s += (i > 0 ? ", " : "") + num(vs[i]);
  return s + "]";
}

class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "{\"" : ", \"") + key + "\": " + raw;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return add(key, num(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return add(key, "\"" + v + "\"");
  }
  std::string done() const { return body_ + "}"; }

 private:
  std::string body_;
};

/// Per-round sanity inputs: [down_bytes, up_bytes, invited, included, loss, acc].
std::string records_json(const RunResult& res, size_t from) {
  std::string s = "[";
  for (size_t i = from; i < res.rounds.size(); ++i) {
    const RoundRecord& r = res.rounds[i];
    s += (i > from ? ", " : "") +
         num_list({r.down_bytes, r.up_bytes, static_cast<double>(r.num_invited),
                   static_cast<double>(r.num_included), r.train_loss, r.test_acc});
  }
  return s + "]";
}

/// The round-loop fields both steps report. `from` is the first round the
/// step itself executed; the tail fingerprint covers [resume_at, end).
/// Returns the clients included over [from, end).
double add_loop(JsonObject& j, const RunResult& res, size_t from, size_t resume_at,
                const BoundaryHook& hook, const SimEngine& engine) {
  double included = 0.0;
  for (size_t i = from; i < res.rounds.size(); ++i) included += res.rounds[i].num_included;
  j.add("rounds_done", static_cast<double>(res.rounds.size()))
      .add("intervals_ms", num_list(hook.intervals_ms()))
      .add("included", included)
      .add("records", records_json(res, from))
      .str("tail_fingerprint", fingerprint(res, resume_at, engine));
  return included;
}

int run_mode(const Options& o, Clock::time_point t_start) {
  // Both sinks off unless tracing: the configuration `gluefl run` uses.
  telemetry::reset();
  events::reset();
  telemetry::configure({o.trace_path, ""});
  if (!o.events_path.empty()) events::configure(o.events_path);
  Setup s = build(o);
  const double setup_s = seconds_since(t_start);
  JsonObject j;
  j.str("mode", o.mode).add("setup_s", setup_s).add("synth_s", s.synth_s)
      .add("engine_init_s", s.engine_init_s);
  if (o.mode == "setup") {
    std::cout << j.done() << "\n";
    return 0;
  }

  SimEngine& engine = *s.engine;
  const bool async = s.async_strategy != nullptr;
  const ckpt::Checkpointable& inner =
      async ? static_cast<const ckpt::Checkpointable&>(*s.async_strategy)
            : static_cast<const ckpt::Checkpointable&>(*s.sync_strategy);
  const ckpt::CkptOptions copts{o.checkpoint_every > 0 ? o.checkpoint_every : o.resume_at,
                                o.checkpoint_dir, 0};
  ckpt::CheckpointHook ckpt_hook(copts, {{"bench", o.strategy}}, o.strategy, inner);
  BoundaryHook hook(&ckpt_hook, o.checkpoint_every > 0, o.resume_at, o.checkpoint_dir);
  RunResult res;
  if (async) {
    AsyncSimEngine async_engine(engine, s.async_cfg);
    TimedAsyncStrategy timed(*s.async_strategy);
    hook.start();
    res = async_engine.run(timed, &hook);
  } else {
    TimedStrategy timed(*s.sync_strategy);
    hook.start();
    res = engine.run(timed, &hook);
  }
  events::finalize();
  telemetry::finalize();

  const RunTotals t = res.totals();
  const double included = add_loop(j, res, 0, static_cast<size_t>(o.resume_at), hook, engine);
  j.str("fingerprint", fingerprint(res, 0, engine))
      .add("trained", async ? static_cast<double>(hook.async_seq()) : included)
      .add("down_gb", t.down_gb).add("up_gb", t.up_gb).add("total_gb", t.total_gb)
      .add("download_hours", t.download_hours).add("wall_hours", t.wall_hours)
      .add("best_accuracy", res.best_accuracy())
      .add("loop_rss_mb", hook.loop_rss_mb())
      .add("encode_bytes", static_cast<double>(telemetry::value(telemetry::kWireEncodeBytes)))
      .add("rejected", static_cast<double>(telemetry::value(telemetry::kScenarioFramesRejected)))
      .add("dropouts", static_cast<double>(telemetry::value(telemetry::kScenarioDropouts)))
      .add("deadline_drops", static_cast<double>(telemetry::value(telemetry::kScenarioDeadlineDrops)))
      .add("snapshot_mb", num_list(hook.snapshot_mb()))
      .add("events_mb", o.events_path.empty() ? 0.0 : file_mb(o.events_path));
  std::cout << j.done() << "\n";
  return 0;
}

int resume_mode(const Options& o, Clock::time_point t_start) {
  // The order of `gluefl resume`: load, restore the sim counters, build the
  // engine, restore the run, continue.
  telemetry::reset();
  events::reset();
  telemetry::configure({o.trace_path, ""});
  auto t0 = Clock::now();
  const ckpt::Snapshot snap =
      ckpt::load_checkpoint(ckpt::checkpoint_path(o.checkpoint_dir, o.resume_at));
  const double load_ms = seconds_since(t0) * 1e3;
  if (snap.next_round != o.resume_at) {
    throw std::runtime_error("snapshot boundary does not match --resume-at");
  }
  telemetry::set_sim_values(snap.telemetry);
  t0 = Clock::now();
  Setup s = build(o);
  const double setup_s = seconds_since(t0);
  SimEngine& engine = *s.engine;

  t0 = Clock::now();
  AsyncRunState state;
  if (s.async_strategy != nullptr) {
    state = ckpt::restore_async_run(snap, engine, *s.async_strategy);
  } else {
    ckpt::restore_sync_run(snap, engine, *s.sync_strategy);
  }
  const double restore_ms = seconds_since(t0) * 1e3;
  const double resume_setup_s = seconds_since(t_start);

  BoundaryHook hook(nullptr, false, o.resume_at, o.checkpoint_dir);
  RunResult res;
  if (s.async_strategy != nullptr) {
    AsyncSimEngine async_engine(engine, s.async_cfg);
    TimedAsyncStrategy timed(*s.async_strategy);
    hook.start();
    res = async_engine.resume(timed, std::move(state), ckpt::history_result(snap), &hook);
  } else {
    TimedStrategy timed(*s.sync_strategy);
    hook.start();
    res = engine.run_from(timed, snap.next_round, ckpt::history_result(snap), &hook);
  }
  telemetry::finalize();

  JsonObject j;
  j.str("mode", o.mode).add("setup_s", setup_s).add("synth_s", s.synth_s)
      .add("engine_init_s", s.engine_init_s).add("load_ms", load_ms)
      .add("restore_ms", restore_ms).add("resume_setup_s", resume_setup_s);
  add_loop(j, res, static_cast<size_t>(o.resume_at), static_cast<size_t>(o.resume_at),
           hook, engine);
  std::cout << j.done() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  try {
    const Options o = parse_options(argc, argv);
    return o.mode == "resume" ? resume_mode(o, t_start) : run_mode(o, t_start);
  } catch (const std::exception& e) {
    std::cerr << "bench_round: " << e.what() << "\n";
    return 1;
  }
}
