#include "telemetry/telemetry.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>

#include "common/check.h"

namespace gluefl {
namespace telemetry {

namespace {

// Registry table. Order matches MetricId; the final row describes the
// mask run-length histogram (which lives in its own bucket array).
constexpr MetricDef kDefs[] = {
    {"wire.encode.frames", MetricKind::kCounter, MetricClass::kSim,
     "wire frames encoded (client uploads serialized)"},
    {"wire.encode.bytes", MetricKind::kCounter, MetricClass::kSim,
     "bytes produced by the wire encoder"},
    {"wire.decode.frames", MetricKind::kCounter, MetricClass::kSim,
     "wire frames decoded (frames parsed for aggregation)"},
    {"wire.decode.bytes", MetricKind::kCounter, MetricClass::kSim,
     "bytes consumed by the wire decoder"},
    {"wire.mask.frames", MetricKind::kCounter, MetricClass::kSim,
     "mask downlink frames priced via the RLE run walk (one per distinct "
     "staleness per round)"},
    {"wire.mask.runs", MetricKind::kCounter, MetricClass::kSim,
     "total RLE runs observed across priced mask frames"},
    {"scenario.deadline_drops", MetricKind::kCounter, MetricClass::kSim,
     "updates discarded because the client missed the reporting deadline"},
    {"scenario.dropouts", MetricKind::kCounter, MetricClass::kSim,
     "clients that crashed between download and upload (fault injection)"},
    {"scenario.frames_rejected", MetricKind::kCounter, MetricClass::kSim,
     "client frames the server rejected as malformed/Byzantine"},
    {"scenario.straggler_ms", MetricKind::kCounter, MetricClass::kSim,
     "cumulative simulated milliseconds stragglers ran past the deadline"},
    {"dir.profile.hits", MetricKind::kCounter, MetricClass::kProcess,
     "ClientDirectory profile LRU cache hits"},
    {"dir.profile.misses", MetricKind::kCounter, MetricClass::kProcess,
     "ClientDirectory profile LRU cache misses (profile re-derived)"},
    {"dir.profile.evictions", MetricKind::kCounter, MetricClass::kProcess,
     "ClientDirectory profile LRU evictions (re-derivation only)"},
    {"dir.chain.hits", MetricKind::kCounter, MetricClass::kProcess,
     "ClientDirectory availability-chain LRU cache hits"},
    {"dir.chain.misses", MetricKind::kCounter, MetricClass::kProcess,
     "ClientDirectory availability-chain LRU cache misses"},
    {"dir.chain.evictions", MetricKind::kCounter, MetricClass::kProcess,
     "ClientDirectory availability-chain LRU evictions"},
    {"data.shard.derived", MetricKind::kCounter, MetricClass::kProcess,
     "client shards derived from their streams (one per trained update)"},
    {"data.shard.fallbacks", MetricKind::kCounter, MetricClass::kProcess,
     "derived normals the float rounding test sent to the scalar "
     "Box-Muller"},
    {"ckpt.saves", MetricKind::kCounter, MetricClass::kProcess,
     "checkpoints written this process"},
    {"ckpt.loads", MetricKind::kCounter, MetricClass::kProcess,
     "checkpoints loaded this process"},
    {"ckpt.written_bytes", MetricKind::kCounter, MetricClass::kProcess,
     "checkpoint head plus residual-journal bytes written this process"},
    {"ckpt.save_ms", MetricKind::kCounter, MetricClass::kWall,
     "cumulative wall milliseconds spent saving checkpoints"},
    {"ckpt.load_ms", MetricKind::kCounter, MetricClass::kWall,
     "cumulative wall milliseconds spent loading checkpoints"},
    {"process.peak_rss_mb", MetricKind::kGauge, MetricClass::kWall,
     "peak resident set size of the process (getrusage), MB"},
    {"wire.mask.run_len", MetricKind::kHistogram, MetricClass::kSim,
     "histogram of mask RLE run lengths, bucketed by bit width"},
    // Flight-recorder digests (DESIGN.md §12), one row per DigestId —
    // keep this tail aligned with kDigestNames below.
    {"client.rtt_ms_log2", MetricKind::kHistogram, MetricClass::kSim,
     "per-participation round-trip time (down+compute+up), log2 ms buckets"},
    {"client.down_bytes_log2", MetricKind::kHistogram, MetricClass::kSim,
     "per-participation download frame bytes, log2 buckets"},
    {"client.up_bytes_log2", MetricKind::kHistogram, MetricClass::kSim,
     "per-participation upload frame bytes, log2 buckets"},
    {"async.staleness_log2", MetricKind::kHistogram, MetricClass::kSim,
     "async model-version staleness at aggregation, log2 buckets"},
};
constexpr int kNumDefs = static_cast<int>(sizeof(kDefs) / sizeof(kDefs[0]));
static_assert(kNumDefs == kNumScalarMetrics + 1 + kNumDigests,
              "registry table out of sync with MetricId/DigestId");

// Digest JSON keys, indexed by DigestId (same strings as the registry
// rows above — the table tail starts at kNumScalarMetrics + 1).
const char* digest_name(int d) { return kDefs[kNumScalarMetrics + 1 + d].name; }

struct TraceEvent {
  const char* name;
  char ph;          // 'X' complete
  int pid;
  int tid;
  double ts_us;
  double dur_us;    // complete events only
  std::string args; // pre-rendered JSON object, empty = omit
};

uint64_t peak_rss_mb_now() {
  struct rusage ru = {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<uint64_t>(ru.ru_maxrss) / 1024u;
}

std::string fmt_seconds(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

}  // namespace

namespace detail {

struct State {
  std::atomic<uint64_t> values[kNumScalarMetrics] = {};
  std::atomic<uint64_t> hist[kMaskRunBuckets] = {};
  std::atomic<uint64_t> digests[kNumDigests][kDigestBuckets] = {};

  bool trace_on = false;
  std::string trace_path;
  std::vector<TraceEvent> events;  // buffered, written at finalize
  std::mutex trace_mu;

  bool metrics_on = false;
  std::ofstream metrics_out;

  std::chrono::steady_clock::time_point t0;
  double sim_clock_s = 0.0;  // cumulative simulated wall time

  void clear() {
    for (auto& v : values) v.store(0, std::memory_order_relaxed);
    for (auto& v : hist) v.store(0, std::memory_order_relaxed);
    for (auto& row : digests) {
      for (auto& v : row) v.store(0, std::memory_order_relaxed);
    }
    trace_on = false;
    trace_path.clear();
    events.clear();
    metrics_on = false;
    if (metrics_out.is_open()) metrics_out.close();
    metrics_out.clear();
    sim_clock_s = 0.0;
  }
};

State* g_state = nullptr;

namespace {
State g_storage;
}  // namespace

void count_slow(int id, uint64_t delta) {
  g_state->values[id].fetch_add(delta, std::memory_order_relaxed);
}

void gauge_slow(int id, uint64_t value) {
  g_state->values[id].store(value, std::memory_order_relaxed);
}

void hist_slow(uint32_t run_len) {
  int b = 0;
  while ((run_len >> 1) != 0 && b < kMaskRunBuckets - 1) {
    run_len >>= 1;
    ++b;
  }
  g_state->hist[b].fetch_add(1, std::memory_order_relaxed);
  g_state->values[kMaskRuns].fetch_add(1, std::memory_order_relaxed);
}

void digest_slow(int digest, uint64_t v) {
  int b = 0;
  while ((v >> 1) != 0 && b < kDigestBuckets - 1) {
    v >>= 1;
    ++b;
  }
  g_state->digests[digest][b].fetch_add(1, std::memory_order_relaxed);
}

bool tracing_on() { return g_state->trace_on; }

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_state->t0)
      .count();
}

void span_emit(const char* name, double t0_us) {
  const double t1 = now_us();
  std::lock_guard<std::mutex> lock(g_state->trace_mu);
  g_state->events.push_back(
      TraceEvent{name, 'X', 1, 1, t0_us, t1 - t0_us, std::string()});
}

}  // namespace detail

const MetricDef* metric_defs() { return kDefs; }
int num_metric_defs() { return kNumDefs; }

void reset() {
  detail::g_state = nullptr;
  detail::g_storage.clear();
}

void configure(const Options& opts) {
  detail::State* s = &detail::g_storage;
  s->clear();
  s->t0 = std::chrono::steady_clock::now();
  s->trace_on = !opts.trace_path.empty();
  s->trace_path = opts.trace_path;
  detail::g_state = s;
  open_metrics(opts.metrics_path);
}

void open_metrics(const std::string& path) {
  detail::State* s = detail::g_state;
  if (s == nullptr || path.empty()) return;
  s->metrics_out.open(path);
  GLUEFL_CHECK_MSG(s->metrics_out.good(),
                   "cannot open --metrics file '" + path + "'");
  s->metrics_on = true;
}

void round_boundary(int round, double down_s, double compute_s, double up_s,
                    double wall_s) {
  detail::State* s = detail::g_state;
  if (s == nullptr) return;
  gauge_set(kPeakRssMb, peak_rss_mb_now());
  if (s->trace_on) {
    // Sim-time track (pid 2): the round on tid 1, its critical-path
    // phase decomposition laid out sequentially on tids 2..4.
    const double base = s->sim_clock_s * 1e6;
    std::lock_guard<std::mutex> lock(s->trace_mu);
    s->events.push_back(TraceEvent{"round", 'X', 2, 1, base, wall_s * 1e6,
                                   "{\"round\": " + std::to_string(round) +
                                       "}"});
    s->events.push_back(
        TraceEvent{"down", 'X', 2, 2, base, down_s * 1e6, std::string()});
    s->events.push_back(TraceEvent{"compute", 'X', 2, 3, base + down_s * 1e6,
                                   compute_s * 1e6, std::string()});
    s->events.push_back(TraceEvent{"up", 'X', 2, 4,
                                   base + (down_s + compute_s) * 1e6,
                                   up_s * 1e6, std::string()});
  }
  s->sim_clock_s += wall_s;
  if (s->metrics_on) {
    std::ostringstream line;
    line << "{\"round\": " << round
         << ", \"down_s\": " << fmt_seconds(down_s)
         << ", \"compute_s\": " << fmt_seconds(compute_s)
         << ", \"up_s\": " << fmt_seconds(up_s)
         << ", \"wall_s\": " << fmt_seconds(wall_s) << ", \"counters\": {";
    for (int i = 0; i < kNumScalarMetrics; ++i) {
      if (i > 0) line << ", ";
      line << "\"" << kDefs[i].name << "\": "
           << s->values[i].load(std::memory_order_relaxed);
    }
    line << "}, \"wire.mask.run_len\": " << mask_hist_json()
         << ", \"digests\": " << digests_json() << "}";
    s->metrics_out << line.str() << "\n";
  }
}

void finalize() {
  detail::State* s = detail::g_state;
  if (s == nullptr) return;
  gauge_set(kPeakRssMb, peak_rss_mb_now());
  if (s->metrics_on) {
    s->metrics_out.close();
    s->metrics_on = false;
  }
  if (!s->trace_on) return;
  s->trace_on = false;  // spans after finalize become no-ops
  std::ofstream f(s->trace_path);
  GLUEFL_CHECK_MSG(f.good(),
                   "cannot open --trace file '" + s->trace_path + "'");
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  // Track-group metadata first: pid 1 = wall clock, pid 2 = sim clock.
  f << "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
       "\"args\": {\"name\": \"wall\"}},\n";
  f << "{\"ph\": \"M\", \"pid\": 2, \"name\": \"process_name\", "
       "\"args\": {\"name\": \"sim\"}},\n";
  static const char* kSimTids[] = {"round", "down", "compute", "up"};
  for (int t = 0; t < 4; ++t) {
    f << "{\"ph\": \"M\", \"pid\": 2, \"tid\": " << (t + 1)
      << ", \"name\": \"thread_name\", \"args\": {\"name\": \"" << kSimTids[t]
      << "\"}},\n";
  }
  for (size_t i = 0; i < s->events.size(); ++i) {
    const TraceEvent& e = s->events[i];
    f << "{\"ph\": \"" << e.ph << "\", \"pid\": " << e.pid
      << ", \"tid\": " << e.tid << ", \"name\": \"" << e.name << "\""
      << ", \"ts\": " << fmt_seconds(e.ts_us);
    if (e.ph == 'X') f << ", \"dur\": " << fmt_seconds(e.dur_us);
    if (!e.args.empty()) f << ", \"args\": " << e.args;
    f << "}";
    if (i + 1 < s->events.size()) f << ",";
    f << "\n";
  }
  f << "]}\n";
  GLUEFL_CHECK_MSG(f.good(),
                   "error writing --trace file '" + s->trace_path + "'");
  s->events.clear();
}

uint64_t value(MetricId id) {
  detail::State* s = detail::g_state;
  if (s == nullptr) return 0;
  return s->values[id].load(std::memory_order_relaxed);
}

std::vector<uint64_t> mask_run_hist() {
  std::vector<uint64_t> out(kMaskRunBuckets, 0);
  detail::State* s = detail::g_state;
  if (s != nullptr) {
    for (int i = 0; i < kMaskRunBuckets; ++i) {
      out[static_cast<size_t>(i)] = s->hist[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::vector<uint64_t> sim_values() {
  std::vector<uint64_t> out(static_cast<size_t>(kNumSimValues), 0);
  detail::State* s = detail::g_state;
  if (s != nullptr) {
    for (int i = 0; i < kNumSimScalars; ++i) {
      out[static_cast<size_t>(i)] =
          s->values[i].load(std::memory_order_relaxed);
    }
    for (int i = 0; i < kMaskRunBuckets; ++i) {
      out[static_cast<size_t>(kNumSimScalars + i)] =
          s->hist[i].load(std::memory_order_relaxed);
    }
    for (int d = 0; d < kNumDigests; ++d) {
      for (int i = 0; i < kDigestBuckets; ++i) {
        out[static_cast<size_t>(kNumSimScalars + kMaskRunBuckets +
                                d * kDigestBuckets + i)] =
            s->digests[d][i].load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

void set_sim_values(const std::vector<uint64_t>& values) {
  detail::State* s = detail::g_state;
  if (s == nullptr) return;
  for (int i = 0; i < kNumSimScalars; ++i) {
    const size_t idx = static_cast<size_t>(i);
    s->values[i].store(idx < values.size() ? values[idx] : 0,
                       std::memory_order_relaxed);
  }
  for (int i = 0; i < kMaskRunBuckets; ++i) {
    const size_t idx = static_cast<size_t>(kNumSimScalars + i);
    s->hist[i].store(idx < values.size() ? values[idx] : 0,
                     std::memory_order_relaxed);
  }
  for (int d = 0; d < kNumDigests; ++d) {
    for (int i = 0; i < kDigestBuckets; ++i) {
      const size_t idx = static_cast<size_t>(kNumSimScalars + kMaskRunBuckets +
                                             d * kDigestBuckets + i);
      s->digests[d][i].store(idx < values.size() ? values[idx] : 0,
                             std::memory_order_relaxed);
    }
  }
}

std::string sim_counters_json() {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int i = 0; i < kNumSimScalars; ++i) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << kDefs[i].name << "\": " << value(static_cast<MetricId>(i));
  }
  os << "}";
  return os.str();
}

std::string mask_hist_json() {
  const std::vector<uint64_t> h = mask_run_hist();
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < h.size(); ++i) {
    if (i > 0) os << ", ";
    os << h[i];
  }
  os << "]";
  return os.str();
}

std::vector<uint64_t> digest_hist(DigestId digest) {
  std::vector<uint64_t> out(static_cast<size_t>(kDigestBuckets), 0);
  detail::State* s = detail::g_state;
  if (s != nullptr) {
    for (int i = 0; i < kDigestBuckets; ++i) {
      out[static_cast<size_t>(i)] =
          s->digests[digest][i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::string digests_json() {
  std::ostringstream os;
  os << "{";
  for (int d = 0; d < kNumDigests; ++d) {
    if (d > 0) os << ", ";
    os << "\"" << digest_name(d) << "\": [";
    const std::vector<uint64_t> h = digest_hist(static_cast<DigestId>(d));
    for (size_t i = 0; i < h.size(); ++i) {
      if (i > 0) os << ", ";
      os << h[i];
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

}  // namespace telemetry
}  // namespace gluefl
