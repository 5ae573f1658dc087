// Scenario layer (DESIGN.md §11): spec parsing + hardening, the
// corrupt-frame rejection guarantee, engine-level determinism under a
// scenario (across thread counts), Byzantine telemetry, the
// five-strategy scenario regression, and the CLI surface (--scenario,
// --dry-run eager validation, list --scenarios, resume byte-identity).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/check.h"
#include "common/rng.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "scenario/scenario.h"
#include "strategies/apf.h"
#include "strategies/async_fedbuff.h"
#include "strategies/fedavg.h"
#include "strategies/gluefl.h"
#include "strategies/stc.h"
#include "telemetry/telemetry.h"
#include "test_util.h"
#include "wire/codec.h"

namespace gluefl {
namespace {

using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

// ------------------------------------------------------------ parsing

TEST(ScenarioParse, MinimalAndFullSpecsRoundTrip) {
  const scenario::ScenarioSpec plain =
      scenario::parse_scenario_json("{\"name\": \"plain\"}");
  EXPECT_FALSE(plain.enabled());

  for (const auto& [name, json] : scenario::builtin_scenarios()) {
    const scenario::ScenarioSpec s = scenario::parse_scenario_json(json);
    EXPECT_TRUE(s.enabled()) << name;
    EXPECT_EQ(s.name, name);
    // Canonical JSON is a fixed point: parse(to_json(s)) == s.
    EXPECT_EQ(scenario::to_json(s), json) << name;
  }
}

TEST(ScenarioParse, RejectsMalformedSpecsWithOneLineErrors) {
  const char* bad[] = {
      // not JSON at all
      "not json",
      // missing required name
      "{}",
      // unknown top-level key
      "{\"name\": \"x\", \"surprise\": 1}",
      // unknown device-class key
      "{\"name\": \"x\", \"device_classes\": "
      "[{\"name\": \"a\", \"weight\": 1, \"bogus\": 2}]}",
      // NaN multiplier (rejected at the JSON or the finiteness layer)
      "{\"name\": \"x\", \"device_classes\": "
      "[{\"name\": \"a\", \"compute_mult\": nan}]}",
      // negative weight
      "{\"name\": \"x\", \"device_classes\": "
      "[{\"name\": \"a\", \"weight\": -1}]}",
      // zero compute multiplier (must be > 0)
      "{\"name\": \"x\", \"device_classes\": "
      "[{\"name\": \"a\", \"compute_mult\": 0}]}",
      // multiplier above the sanity cap
      "{\"name\": \"x\", \"device_classes\": "
      "[{\"name\": \"a\", \"up_mult\": 1e6}]}",
      // rates out of [0, 1)
      "{\"name\": \"x\", \"dropout_rate\": 1.0}",
      "{\"name\": \"x\", \"byzantine_rate\": -0.1}",
      // negative deadline
      "{\"name\": \"x\", \"deadline_s\": -5}",
      // amplitude out of [0, 1]
      "{\"name\": \"x\", \"availability\": "
      "{\"mode\": \"diurnal\", \"amplitude\": 1.5}}",
      // unknown availability mode
      "{\"name\": \"x\", \"availability\": {\"mode\": \"quantum\"}}",
      // unsorted trace rounds
      "{\"name\": \"x\", \"availability\": "
      "{\"mode\": \"trace\", \"points\": [[5, 0.5], [2, 0.9]]}}",
      // trace fraction out of range
      "{\"name\": \"x\", \"availability\": "
      "{\"mode\": \"trace\", \"points\": [[0, 1.5]]}}",
      // trace mode with no points
      "{\"name\": \"x\", \"availability\": {\"mode\": \"trace\"}}",
  };
  for (const char* text : bad) {
    try {
      scenario::parse_scenario_json(text);
      FAIL() << "accepted: " << text;
    } catch (const scenario::ScenarioError& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("scenario: ", 0), 0u) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;  // one line
    }
  }
}

TEST(ScenarioParse, LoadResolvesBuiltinsThenFiles) {
  EXPECT_EQ(scenario::load_scenario("hostile").name, "hostile");
  EXPECT_EQ(scenario::load_scenario("diurnal").name, "diurnal");
  EXPECT_THROW(scenario::load_scenario("no_such_scenario.json"),
               scenario::ScenarioError);

  const std::string path = "scenario_load_test.json";
  {
    std::ofstream f(path);
    f << "{\"name\": \"from-file\", \"dropout_rate\": 0.25}";
  }
  const scenario::ScenarioSpec s = scenario::load_scenario(path);
  EXPECT_EQ(s.name, "from-file");
  EXPECT_DOUBLE_EQ(s.dropout_rate, 0.25);
  std::filesystem::remove(path);
}

TEST(ScenarioParse, BundledExampleFilesMatchBuiltins) {
  // examples/scenarios/<name>.json ships the builtin specs verbatim so the
  // README can point at editable starting points.
  for (const auto& [name, json] : scenario::builtin_scenarios()) {
    const std::filesystem::path p =
        std::filesystem::path(GLUEFL_SOURCE_DIR) / "examples" / "scenarios" /
        (name + ".json");
    ASSERT_TRUE(std::filesystem::exists(p)) << p;
    std::ifstream f(p);
    std::stringstream ss;
    ss << f.rdbuf();
    const scenario::ScenarioSpec s = scenario::parse_scenario_json(ss.str());
    EXPECT_EQ(scenario::to_json(s), json) << name;
  }
}

// ------------------------------------------------- availability shapes

TEST(ScenarioAvailability, DiurnalOscillatesAroundBase) {
  scenario::ScenarioSpec s;
  s.availability = scenario::AvailabilityMode::kDiurnal;
  s.diurnal_period_rounds = 8;
  s.diurnal_amplitude = 0.5;
  double lo = 1.0, hi = 0.0;
  for (int r = 0; r < 8; ++r) {
    const double p = s.online_probability(r, 0.8);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    lo = std::min(lo, p);
    hi = std::max(hi, p);
    // Periodic: one full period later the probability repeats exactly.
    EXPECT_DOUBLE_EQ(p, s.online_probability(r + 8, 0.8)) << r;
  }
  EXPECT_LT(lo, 0.8);  // trough dips below the base ...
  EXPECT_GT(hi, 0.4);  // ... but the fleet never fully vanishes
}

TEST(ScenarioAvailability, TraceStepsThroughPoints) {
  scenario::ScenarioSpec s;
  s.availability = scenario::AvailabilityMode::kTrace;
  s.trace = {{0, 1.0}, {3, 0.2}, {6, 0.7}};
  EXPECT_DOUBLE_EQ(s.online_probability(0, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(s.online_probability(2, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(s.online_probability(3, 0.9), 0.2);
  EXPECT_DOUBLE_EQ(s.online_probability(5, 0.9), 0.2);
  EXPECT_DOUBLE_EQ(s.online_probability(100, 0.9), 0.7);
}

// ------------------------------------------- corrupt-frame guarantee

TEST(ScenarioCorruptFrame, DecoderAlwaysRejects) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t dim = 16 + static_cast<size_t>(trial) * 3;
    std::vector<float> dense(dim);
    for (float& v : dense) v = static_cast<float>(rng.normal());
    wire::WireEncoder enc(dim);
    enc.add_dense(dense.data(), dim);
    const std::vector<float> stats(4, 1.0f);
    enc.add_stats(stats.data(), stats.size());
    std::vector<uint8_t> frame = enc.finish();
    // Pre-corruption the frame decodes fine.
    EXPECT_NO_THROW(wire::WireDecoder(frame.data(), frame.size(), dim));
    scenario::corrupt_frame(frame);
    EXPECT_THROW(wire::WireDecoder(frame.data(), frame.size(), dim),
                 CheckError);
  }
  // Degenerate buffers become a 1-byte invalid frame.
  std::vector<uint8_t> tiny;
  scenario::corrupt_frame(tiny);
  ASSERT_EQ(tiny.size(), 1u);
  EXPECT_THROW(wire::WireDecoder(tiny.data(), tiny.size(), 8), CheckError);
}

// ---------------------------------------------- engine determinism

struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::reset();
    telemetry::configure(telemetry::Options{});
  }
  ~TelemetryGuard() { telemetry::reset(); }
};

scenario::ScenarioSpec harsh_spec() {
  // High rates so every fault path fires within a 6-round tiny run.
  return scenario::parse_scenario_json(
      "{\"name\": \"harsh\","
      " \"device_classes\": ["
      "{\"name\": \"slow\", \"weight\": 2, \"compute_mult\": 0.5,"
      " \"down_mult\": 0.5, \"up_mult\": 0.4},"
      "{\"name\": \"fast\", \"weight\": 1, \"compute_mult\": 2.0}],"
      " \"availability\": {\"mode\": \"diurnal\", \"period_rounds\": 4,"
      " \"amplitude\": 0.4},"
      " \"deadline_s\": 0.02, \"dropout_rate\": 0.2,"
      " \"byzantine_rate\": 0.3}");
}

SimEngine make_scenario_engine(int threads,
                               const scenario::ScenarioSpec& spec) {
  RunConfig rc = tiny_run_config(/*rounds=*/6, /*k=*/6, /*seed=*/11);
  rc.eval_every = 3;
  rc.num_threads = threads;
  rc.use_availability = true;
  rc.overcommit = 1.3;
  rc.scenario = spec;
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_edge_env(), tiny_train_config(), rc);
}

std::unique_ptr<Strategy> make_named_strategy(const std::string& name) {
  if (name == "fedavg") return std::make_unique<FedAvgStrategy>();
  if (name == "stc") {
    StcConfig c;
    c.q = 0.25;
    return std::make_unique<StcStrategy>(c);
  }
  if (name == "apf") {
    ApfConfig c;
    c.check_every = 2;
    c.base_freeze = 2;
    c.max_freeze = 8;
    return std::make_unique<ApfStrategy>(c);
  }
  GlueFlConfig g;
  g.q = 0.3;
  g.q_shr = 0.1;
  g.regen_every = 3;
  g.sticky_group_size = 20;
  g.sticky_per_round = 3;
  return std::make_unique<GlueFlStrategy>(g);
}

bool same_bits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, 8);
  std::memcpy(&y, &b, 8);
  return x == y;
}

void expect_identical_runs(const RunResult& ref, const RunResult& res,
                           const std::string& label) {
  ASSERT_EQ(ref.rounds.size(), res.rounds.size()) << label;
  for (size_t i = 0; i < ref.rounds.size(); ++i) {
    const RoundRecord& a = ref.rounds[i];
    const RoundRecord& b = res.rounds[i];
    EXPECT_TRUE(same_bits(a.down_bytes, b.down_bytes)) << label << " @" << i;
    EXPECT_TRUE(same_bits(a.up_bytes, b.up_bytes)) << label << " @" << i;
    EXPECT_TRUE(same_bits(a.wall_time_s, b.wall_time_s)) << label << " @" << i;
    EXPECT_TRUE(same_bits(a.train_loss, b.train_loss)) << label << " @" << i;
    EXPECT_TRUE(same_bits(a.test_acc, b.test_acc)) << label << " @" << i;
    EXPECT_EQ(a.num_invited, b.num_invited) << label << " @" << i;
    EXPECT_EQ(a.num_included, b.num_included) << label << " @" << i;
    EXPECT_TRUE(same_bits(a.changed_frac, b.changed_frac))
        << label << " @" << i;
  }
}

TEST(ScenarioEngine, RunsBitIdenticalAcrossThreadsAndPopulationModes) {
  const scenario::ScenarioSpec spec = harsh_spec();
  RunResult ref;
  std::vector<float> ref_params;
  std::vector<uint64_t> ref_tel;
  bool have_ref = false;
  for (const int threads : {1, 4, 8}) {
    const std::string label = "threads=" + std::to_string(threads);
    TelemetryGuard tg;
    SimEngine eng = make_scenario_engine(threads, spec);
    auto strat = make_named_strategy("gluefl");
    const RunResult r = eng.run(*strat);
    const std::vector<uint64_t> tel = telemetry::sim_values();
    if (!have_ref) {
      ref = r;
      ref_params = eng.params();
      ref_tel = tel;
      have_ref = true;
      // The harsh spec must actually exercise every fault path.
      EXPECT_GT(tel[telemetry::kScenarioDropouts], 0u);
      EXPECT_GT(tel[telemetry::kScenarioFramesRejected], 0u);
      EXPECT_GT(tel[telemetry::kScenarioDeadlineDrops], 0u);
      EXPECT_GT(tel[telemetry::kScenarioStragglerMs], 0u);
    } else {
      expect_identical_runs(ref, r, label);
      EXPECT_EQ(ref_params, eng.params()) << label;
      EXPECT_EQ(ref_tel, tel) << label;
    }
  }
}

TEST(ScenarioEngine, AsyncRunsBitIdenticalAcrossThreadsAndModes) {
  const scenario::ScenarioSpec spec = harsh_spec();
  RunResult ref;
  std::vector<float> ref_params;
  std::vector<uint64_t> ref_tel;
  bool have_ref = false;
  for (const int threads : {1, 4}) {
    const std::string label = "async threads=" + std::to_string(threads);
    TelemetryGuard tg;
    SimEngine eng = make_scenario_engine(threads, spec);
    AsyncConfig acfg;
    acfg.buffer_size = 3;
    acfg.concurrency = 9;
    AsyncSimEngine async(eng, acfg);
    AsyncFedBuffStrategy strat{AsyncFedBuffConfig{}};
    const RunResult r = async.run(strat);
    const std::vector<uint64_t> tel = telemetry::sim_values();
    if (!have_ref) {
      ref = r;
      ref_params = eng.params();
      ref_tel = tel;
      have_ref = true;
      EXPECT_GT(tel[telemetry::kScenarioDropouts], 0u);
      EXPECT_GT(tel[telemetry::kScenarioFramesRejected], 0u);
    } else {
      expect_identical_runs(ref, r, label);
      EXPECT_EQ(ref_params, eng.params()) << label;
      EXPECT_EQ(ref_tel, tel) << label;
    }
  }
}

TEST(ScenarioEngine, DeviceClassesReshapeProfilesDeterministically) {
  scenario::ScenarioSpec spec;
  spec.name = "classes-only";
  spec.device_classes = {{"throttled", 1.0, 0.25, 0.25, 0.25}};
  SimEngine base = make_scenario_engine(1, scenario::ScenarioSpec{});
  SimEngine shaped = make_scenario_engine(1, spec);
  // A single all-fleet class with 0.25x multipliers scales every profile.
  for (int c = 0; c < 20; ++c) {
    const ClientProfile a = base.directory().profile(c);
    const ClientProfile b = shaped.directory().profile(c);
    EXPECT_DOUBLE_EQ(b.gflops, a.gflops * 0.25) << c;
    EXPECT_DOUBLE_EQ(b.down_mbps, a.down_mbps * 0.25) << c;
    EXPECT_DOUBLE_EQ(b.up_mbps, a.up_mbps * 0.25) << c;
  }
}

// ----------------------------------- Byzantine rejection / regression

TEST(ScenarioRegression, ByzantineFramesRejectedAcrossAllStrategies) {
  // All five strategies under the harsh scenario: the run must finish, the
  // aggregate must stay finite, and rejected frames must be counted — by
  // the uplink intake, the one place every client frame is decoded.
  const scenario::ScenarioSpec spec = harsh_spec();
  for (const char* name : {"fedavg", "stc", "apf", "gluefl"}) {
    TelemetryGuard tg;
    SimEngine eng = make_scenario_engine(1, spec);
    auto strat = make_named_strategy(name);
    const RunResult r = eng.run(*strat);
    ASSERT_EQ(r.rounds.size(), 6u) << name;
    for (const float v : eng.params()) {
      ASSERT_TRUE(std::isfinite(v)) << name;
    }
    EXPECT_GT(telemetry::value(telemetry::kScenarioFramesRejected), 0u)
        << name;
  }
  // Async leg.
  TelemetryGuard tg;
  SimEngine eng = make_scenario_engine(1, spec);
  AsyncConfig acfg;
  acfg.buffer_size = 3;
  acfg.concurrency = 9;
  AsyncSimEngine async(eng, acfg);
  AsyncFedBuffStrategy strat{AsyncFedBuffConfig{}};
  const RunResult r = async.run(strat);
  ASSERT_EQ(r.rounds.size(), 6u);
  for (const float v : eng.params()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(telemetry::value(telemetry::kScenarioFramesRejected), 0u);
}

TEST(ScenarioRegression, ByzantineUpdatesDoNotMoveTheAggregate) {
  // byzantine_rate=1: every frame is rejected, so the model never moves
  // (fedavg has no server-side state besides the params).
  scenario::ScenarioSpec spec;
  spec.name = "all-byzantine";
  spec.byzantine_rate = 0.999999;
  TelemetryGuard tg;
  SimEngine eng = make_scenario_engine(1, spec);
  const std::vector<float> before = eng.params();
  auto strat = make_named_strategy("fedavg");
  eng.run(*strat);
  EXPECT_EQ(before, eng.params());
  EXPECT_GT(telemetry::value(telemetry::kScenarioFramesRejected), 0u);
}

}  // namespace
}  // namespace gluefl

// ------------------------------------------------------------- CLI layer

namespace gluefl::cli {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> argv(std::initializer_list<const char*> parts) {
  return std::vector<std::string>(parts.begin(), parts.end());
}

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

CliResult invoke(std::initializer_list<const char*> parts) {
  return invoke(argv(parts));
}

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

TEST(CliScenario, ListScenariosPrintsBundledSpecs) {
  const CliResult r = invoke({"list", "--scenarios"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hostile"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("diurnal"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"byzantine_rate\""), std::string::npos) << r.out;
}

TEST(CliScenario, UnknownScenarioFailsWithExitOne) {
  const CliResult r = invoke({"run", "--rounds", "1", "--scale", "0.02",
                              "--scenario", "definitely_missing.json"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("scenario:"), std::string::npos) << r.err;
  EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1) << r.err;
}

TEST(CliScenario, DryRunValidatesScenarioEagerly) {
  ScratchDir dir("cli_scenario_dryrun");
  const std::string bad = (dir.path / "bad.json").string();
  {
    std::ofstream f(bad);
    f << "{\"dropout_rate\": 2.0}";
  }
  const CliResult invalid = invoke({"run", "--rounds", "1", "--scale", "0.02",
                                    "--dry-run", "--scenario", bad.c_str()});
  EXPECT_EQ(invalid.code, 1);
  EXPECT_NE(invalid.err.find("scenario:"), std::string::npos) << invalid.err;

  const CliResult ok = invoke({"run", "--rounds", "1", "--scale", "0.02",
                               "--dry-run", "--scenario", "hostile"});
  EXPECT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find("dry-run"), std::string::npos) << ok.out;
}

TEST(CliScenario, RunEchoesScenarioInHeaderAndJson) {
  const CliResult r =
      invoke({"run", "--strategy", "gluefl", "--rounds", "2", "--scale",
              "0.02", "--eval-every", "2", "--scenario", "hostile"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scenario: hostile"), std::string::npos) << r.out;
  // The JSON block echoes the canonical spec verbatim.
  const std::string canon = [] {
    for (const auto& [name, json] : scenario::builtin_scenarios()) {
      if (name == "hostile") return json;
    }
    return std::string();
  }();
  ASSERT_FALSE(canon.empty());
  EXPECT_NE(r.out.find("\"scenario\": " + canon), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"scenario.frames_rejected\""), std::string::npos)
      << r.out;
}

TEST(CliScenario, RunWithoutScenarioEchoesNull) {
  const CliResult r = invoke({"run", "--strategy", "fedavg", "--rounds", "1",
                              "--scale", "0.02"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"scenario\": null"), std::string::npos) << r.out;
}

TEST(CliScenario, CrashThenResumeMidScenarioIsByteExact) {
  ScratchDir dir("cli_scenario_resume");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--scenario", "hostile", "--json",
              full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--scenario", "hostile",
              "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str(), "--crash-at-round", "3"});
  EXPECT_EQ(crashed.code, 3);
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  ASSERT_TRUE(fs::exists(ckpt));

  // resume reads the scenario from checkpoint meta — no --scenario flag.
  const CliResult resumed =
      invoke({"resume", ckpt.c_str(), "--json", resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_NE(sa.str().find("\"scenario\": {"), std::string::npos);
}

TEST(CliScenario, AsyncResumeMidScenarioIsByteExact) {
  ScratchDir dir("cli_scenario_async_resume");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--exec", "async", "--rounds", "4", "--scale", "0.02",
              "--eval-every", "1", "--scenario", "hostile", "--json",
              full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--exec", "async", "--rounds", "4", "--scale", "0.02",
              "--eval-every", "1", "--scenario", "hostile",
              "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str(), "--crash-at-round", "3"});
  EXPECT_EQ(crashed.code, 3);
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  ASSERT_TRUE(fs::exists(ckpt));

  const CliResult resumed =
      invoke({"resume", ckpt.c_str(), "--json", resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(CliScenario, ListRejectsScenariosCombinedWithMetrics) {
  const CliResult r = invoke({"list", "--scenarios", "--metrics"});
  EXPECT_EQ(r.code, 2);
}

}  // namespace
}  // namespace gluefl::cli
