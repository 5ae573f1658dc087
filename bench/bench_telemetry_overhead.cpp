// Telemetry overhead on the wire codec hot path.
//
// The telemetry subsystem promises that the DISABLED path costs one
// predicted null-check branch per instrumentation site (<1% on wire
// encode/decode, DESIGN.md §10). This bench measures that promise on the
// hottest instrumented loop a run takes — the fp32 wire encode+decode of a
// GlueFL-shaped upload, the encoding every run ships — in these arms:
//
//   disabled-a    telemetry off (g_state null): the shipped default
//   counters      counters enabled, tracing off (what CLI runs pay)
//   traced        counters + span tracer buffering Chrome events
//   recorder-off  flight-recorder hooks inline (g_sink null): the branch
//                 cost every run pays at the engine emission sites
//   recorder-on   --events sink attached, one 32-client round flushed per
//                 iteration (what recorded runs pay)
//   disabled-b    telemetry off again, a second identical arm
//
// Every repetition times each arm once, starting one arm later than the
// previous repetition, and each arm keeps its minimum; so drift in the
// host's speed reaches all arms alike instead of whichever ran last. The
// two disabled arms time the same code, so their relative delta is the
// measurement noise floor on this machine; the committed claim is that
// this bound — which contains the entire disabled-branch cost — stays
// under 1%. The other arms are reported against the faster disabled arm.
//
// Environment knobs:
//   GLUEFL_WIRE_DIM=n          model dimension override (CI smoke: 65536)
//   GLUEFL_TELEMETRY_REPS=n    timing repetitions (each arm's min is kept)
//   GLUEFL_TELEMETRY_ITERS=n   encode+decode iterations per repetition
//   GLUEFL_BENCH_JSON=FILE     machine-readable summary (perf trajectory)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/test_util.h"  // random_support: one sampler for tests+bench
#include "bench_common.h"
#include "common/rng.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"
#include "wire/codec.h"

using namespace gluefl;
using gluefl::testing::random_support;

namespace {

constexpr double kQShr = 0.16;
constexpr double kQUni = 0.04;
constexpr size_t kStatDim = 512;
constexpr int kBits = 32;  // fp32, the value encoding every run ships

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Payload {
  size_t dim = 0;
  std::vector<float> shared_vals;
  std::vector<uint32_t> shared_idx;
  uint32_t shared_id = 0;
  std::shared_ptr<const std::vector<uint32_t>> support;
  SparseVec uni;
  std::vector<float> stats;
};

/// One hot-path iteration: encode the payload at kBits, decode it back.
/// Identical byte streams every call, so all arms time exactly the same
/// work.
void encode_decode_once(const Payload& p) {
  wire::WireEncoder we(p.dim, kBits);
  we.add_shared(p.shared_vals.data(), p.shared_vals.size(), p.shared_id);
  we.add_unique(p.uni);
  we.add_stats(p.stats.data(), p.stats.size());
  const std::vector<uint8_t> buf = we.finish();

  wire::WireDecoder wd(buf.data(), buf.size(), p.dim);
  const SparseDelta shared = wd.take_shared(p.support, 1.0f, &p.shared_id);
  const SparseDelta unique = wd.take_unique(1.0f);
  const std::vector<float> stats = wd.take_stats();
  GLUEFL_CHECK(shared.val.size() == p.shared_vals.size() &&
               unique.val.size() == p.uni.val.size() &&
               stats.size() == p.stats.size());
}

/// The flight-recorder hook pattern one sync round stamps on the engine:
/// a participation record per client, an uplink back-fill, one flush.
/// With g_sink null every call is the single predicted branch the <1%
/// budget is about; with a sink attached this is the recorded-run cost.
constexpr int64_t kRecorderCohort = 32;

void recorder_round_once(int round) {
  for (int64_t c = 0; c < kRecorderCohort; ++c) {
    events::ClientEvent e;
    e.round = round;
    e.client = c;
    e.down_bytes = 1u << 20;
    e.down_s = 1.0;
    e.compute_s = 2.0;
    events::client(e);
    events::set_uplink(c, 1u << 18, 0.5);
  }
  events::RoundSummary s;
  s.round = round;
  s.num_invited = static_cast<int>(kRecorderCohort);
  s.num_included = static_cast<int>(kRecorderCohort);
  events::round_flush(s);
}

enum Arm {
  kDisabledA,
  kCounters,
  kTraced,
  kRecorderOff,
  kRecorderOn,
  kDisabledB,
  kNumArms
};

constexpr const char* kRecorderPath = "bench-telemetry-recorder.bin.tmp";

/// One repetition of `arm`: switch its telemetry on, time `iters`
/// iterations, and switch everything off again, so the next arm starts
/// from the shipped default. Returns the repetition's milliseconds and
/// adds the wire frames the counters arm counted to `frames`.
double time_once(Arm arm, const Payload& p, size_t iters, uint64_t* frames) {
  if (arm == kCounters) {
    telemetry::configure({});  // counters only
  } else if (arm == kTraced) {
    // Spans buffer in memory; reset() below drops the buffer unwritten
    // (the trace file is only created at finalize()).
    telemetry::Options topts;
    topts.trace_path = "bench-telemetry-unwritten-trace.json";
    telemetry::configure(topts);
  } else if (arm == kRecorderOn) {
    events::configure(kRecorderPath);
  }
  // The recorder arms layer the engine's per-round hook pattern on the
  // same codec loop: recorder-off pays only null-check branches and must
  // sit inside the same <1% budget; recorder-on buffers and frames real
  // records (abandon() drops them unwritten).
  const bool recorder = arm == kRecorderOff || arm == kRecorderOn;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    encode_decode_once(p);
    if (recorder) recorder_round_once(static_cast<int>(i));
  }
  const double ms = ms_since(t0);
  if (arm == kCounters) {
    *frames += telemetry::value(telemetry::kWireEncodeFrames);
  }
  telemetry::reset();
  if (arm == kRecorderOn) {
    events::abandon();
    std::remove(kRecorderPath);
  }
  return ms;
}

}  // namespace

int main() {
  const size_t dim = bench::env_positive("GLUEFL_WIRE_DIM", 2000000);
  const size_t reps = bench::env_positive("GLUEFL_TELEMETRY_REPS", 5, 1000);
  const size_t iters =
      bench::env_positive("GLUEFL_TELEMETRY_ITERS", 20, 100000);

  bench::print_header(
      "Telemetry overhead on the wire encode/decode hot path",
      "<1% disabled-path budget (DESIGN.md §10)",
      "fp32 GlueFL-shaped upload at dim=" + std::to_string(dim) + ", " +
          std::to_string(iters) + " iters x " + std::to_string(reps) +
          " reps per arm");

  Payload p;
  p.dim = dim;
  Rng rng(42);
  p.shared_idx = random_support(
      dim, static_cast<size_t>(kQShr * static_cast<double>(dim)), rng);
  p.shared_id = wire::support_id(p.shared_idx);
  p.support = std::make_shared<const std::vector<uint32_t>>(p.shared_idx);
  p.uni.idx = random_support(
      dim, static_cast<size_t>(kQUni * static_cast<double>(dim)), rng);
  p.uni.val.resize(p.uni.idx.size());
  for (auto& v : p.uni.val) v = static_cast<float>(rng.normal() * 1e-2);
  p.shared_vals.resize(p.shared_idx.size());
  for (auto& v : p.shared_vals) v = static_cast<float>(rng.normal() * 1e-2);
  p.stats.resize(kStatDim);
  for (auto& v : p.stats) v = static_cast<float>(rng.normal());

  telemetry::reset();
  events::reset();
  double best_ms[kNumArms];
  std::fill(best_ms, best_ms + kNumArms, 1e300);
  uint64_t frames = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (int j = 0; j < kNumArms; ++j) {
      const Arm arm = static_cast<Arm>((rep + static_cast<size_t>(j)) %
                                       kNumArms);
      best_ms[arm] = std::min(best_ms[arm], time_once(arm, p, iters, &frames));
    }
  }
  const double disabled_a_ms = best_ms[kDisabledA];
  const double counters_ms = best_ms[kCounters];
  const double traced_ms = best_ms[kTraced];
  const double recorder_off_ms = best_ms[kRecorderOff];
  const double recorder_on_ms = best_ms[kRecorderOn];
  const double disabled_b_ms = best_ms[kDisabledB];

  const double base_ms = std::min(disabled_a_ms, disabled_b_ms);
  const double disabled_overhead_pct =
      (std::max(disabled_a_ms, disabled_b_ms) / base_ms - 1.0) * 100.0;
  const double counters_overhead_pct = (counters_ms / base_ms - 1.0) * 100.0;
  const double traced_overhead_pct = (traced_ms / base_ms - 1.0) * 100.0;
  const double recorder_off_overhead_pct =
      (recorder_off_ms / base_ms - 1.0) * 100.0;
  const double recorder_on_overhead_pct =
      (recorder_on_ms / base_ms - 1.0) * 100.0;

  TablePrinter t;
  t.set_headers({"arm", "best (ms)", "vs disabled"});
  t.add_row({"disabled-a", fmt_double(disabled_a_ms, 2), "baseline"});
  t.add_row({"counters", fmt_double(counters_ms, 2),
             fmt_double(counters_overhead_pct, 2) + "%"});
  t.add_row({"traced", fmt_double(traced_ms, 2),
             fmt_double(traced_overhead_pct, 2) + "%"});
  t.add_row({"recorder-off", fmt_double(recorder_off_ms, 2),
             fmt_double(recorder_off_overhead_pct, 2) + "%"});
  t.add_row({"recorder-on", fmt_double(recorder_on_ms, 2),
             fmt_double(recorder_on_overhead_pct, 2) + "%"});
  t.add_row({"disabled-b", fmt_double(disabled_b_ms, 2),
             fmt_double(disabled_overhead_pct, 2) + "% (noise floor)"});
  std::cout << t.to_string();
  std::cout << "\ndisabled-path bound (A/B spread, contains the null-check "
               "cost): "
            << fmt_double(disabled_overhead_pct, 2) << "% — budget 1%\n"
            << "recorder-off bound (adds the flight-recorder hook branches): "
            << fmt_double(recorder_off_overhead_pct, 2) << "% — budget 1%\n"
            << "counters arm verified live: " << frames
            << " frames counted during timing\n";

  if (const char* path = std::getenv("GLUEFL_BENCH_JSON")) {
    std::ostringstream json;
    json.precision(10);
    json << "{\"schema\": \"gluefl.bench_telemetry.v2\", \"dim\": " << dim
         << ", \"bits\": " << kBits << ", \"iters\": " << iters
         << ", \"reps\": " << reps
         << ", \"disabled_a_ms\": " << disabled_a_ms
         << ", \"counters_ms\": " << counters_ms
         << ", \"traced_ms\": " << traced_ms
         << ", \"recorder_off_ms\": " << recorder_off_ms
         << ", \"recorder_on_ms\": " << recorder_on_ms
         << ", \"disabled_b_ms\": " << disabled_b_ms
         << ", \"disabled_overhead_pct\": " << disabled_overhead_pct
         << ", \"counters_overhead_pct\": " << counters_overhead_pct
         << ", \"traced_overhead_pct\": " << traced_overhead_pct
         << ", \"recorder_off_overhead_pct\": " << recorder_off_overhead_pct
         << ", \"recorder_on_overhead_pct\": " << recorder_on_overhead_pct
         << "}";
    std::ofstream f(path);
    GLUEFL_CHECK_MSG(f.good(), std::string("cannot open GLUEFL_BENCH_JSON "
                                           "file '") + path + "'");
    f << json.str() << "\n";
    std::cout << "\nJSON summary written to " << path << "\n";
  }
  return 0;
}
