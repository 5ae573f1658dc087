// Telemetry: a process-global metrics registry plus a scoped span tracer
// (DESIGN.md §10).
//
// The whole subsystem hangs off one pointer, `detail::g_state`, which is
// null until a CLI command configures it. Every hot-path hook — count(),
// Span, hist_mask_run() — is an inline null check and nothing else when
// telemetry is off, so library users and the benches pay one predicted
// branch per call site (measured in bench_telemetry_overhead; budget <1%
// on the PR-7 codec hot paths).
//
// Metrics carry a determinism class that decides where they may surface:
//
//   kSim      deterministic function of the simulated run: identical
//             across thread counts, tracing on/off, and resume (the
//             counters are checkpointed, format v3, and restored before
//             the tail runs). Only this class may appear in the
//             "telemetry" block of run/sweep/resume JSON summaries,
//             which are under a byte-identity contract.
//   kProcess  deterministic per process but not across resume (LRU
//             caches restart cold; a resumed run saves fewer
//             checkpoints). JSONL stream and `gluefl list --metrics`
//             only — never the JSON summary.
//   kWall     wall-clock / RSS measurements. JSONL and trace only.
//
// The tracer buffers Chrome trace-event JSON (chrome://tracing /
// Perfetto "JSON object format") and writes it at finalize(): pid 1 is
// the wall-time track group (scoped Spans around real work), pid 2 is
// the sim-time track group (per-round down/compute/up phases laid out on
// the simulated clock by round_boundary()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gluefl {
namespace telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };
enum class MetricClass { kSim, kProcess, kWall };

// Scalar metric slots. Order is the registry order: it fixes the JSON
// emission order, the JSONL field order, the `list --metrics` table, and
// the checkpoint layout of the sim-class prefix — append only.
enum MetricId : int {
  // -- sim class: checkpointed, allowed in JSON summaries --
  kWireEncodeFrames = 0,
  kWireEncodeBytes,
  kWireDecodeFrames,
  kWireDecodeBytes,
  kMaskFrames,
  kMaskRuns,
  // Scenario fault-injection paths (DESIGN.md §11): all four are pure
  // functions of the simulated run, so they belong to the checkpointed
  // sim prefix. Straggler time is held in integer milliseconds so the
  // counter stays an exact uint64 across resume.
  kScenarioDeadlineDrops,
  kScenarioDropouts,
  kScenarioFramesRejected,
  kScenarioStragglerMs,
  // -- process class: JSONL / list only --
  kDirProfileHits,
  kDirProfileMisses,
  kDirProfileEvictions,
  kDirChainHits,
  kDirChainMisses,
  kDirChainEvictions,
  kDataShardDerived,
  kDataShardFallbacks,
  kCkptSaves,
  kCkptLoads,
  kCkptWrittenBytes,
  // -- wall class: JSONL / trace only --
  kCkptSaveMs,
  kCkptLoadMs,
  kPeakRssMb,

  kNumScalarMetrics,
};

// The mask run-length histogram buckets runs by bit width: bucket b
// counts runs with floor(log2(len)) == b, so bucket 0 is length 1,
// bucket 3 is lengths 8..15, the last bucket collects the tail.
constexpr int kMaskRunBuckets = 16;

// Per-client digest histograms (DESIGN.md §12): fixed-bucket log2
// summaries of the flight-recorder's per-participation values, fed by the
// engines whether or not an --events sink is attached. Bucket b counts
// values v with floor(log2(max(v, 1))) == b; the last bucket collects
// the tail. All four are sim-class: pure functions of the simulated run,
// so they ride the checkpointed sim prefix (format v5) and the JSON
// summary's "telemetry" block.
enum DigestId : int {
  kDigestRttMs = 0,      // client round-trip (down+compute+up), whole ms
  kDigestDownBytes,      // per-participation download frame bytes
  kDigestUpBytes,        // per-participation upload frame bytes
  kDigestStaleness,      // async model-version staleness at aggregation
  kNumDigests,
};
constexpr int kDigestBuckets = 16;

// Sim-class values serialized into checkpoints: the sim scalar prefix,
// the mask histogram buckets, then the digest buckets row-major in
// DigestId order (all histograms are sim-class).
constexpr int kNumSimScalars = static_cast<int>(kScenarioStragglerMs) + 1;
constexpr int kNumSimValues =
    kNumSimScalars + kMaskRunBuckets + kNumDigests * kDigestBuckets;

struct MetricDef {
  const char* name;
  MetricKind kind;
  MetricClass cls;
  const char* desc;
};

/// Registry table: one entry per scalar MetricId followed by one entry
/// for the mask run-length histogram. Powers `gluefl list --metrics`.
const MetricDef* metric_defs();
int num_metric_defs();

namespace detail {
struct State;
extern State* g_state;  // null <=> telemetry fully disabled
void count_slow(int id, uint64_t delta);
void gauge_slow(int id, uint64_t value);
void hist_slow(uint32_t run_len);
void digest_slow(int digest, uint64_t v);
bool tracing_on();
double now_us();
void span_emit(const char* name, double t0_us);
}  // namespace detail

/// True when any telemetry (counters at minimum) is enabled.
inline bool enabled() { return detail::g_state != nullptr; }

/// Adds `delta` to a counter. One branch when disabled.
inline void count(MetricId id, uint64_t delta = 1) {
  if (detail::g_state != nullptr) detail::count_slow(id, delta);
}

/// Sets a gauge to `value`.
inline void gauge_set(MetricId id, uint64_t value) {
  if (detail::g_state != nullptr) detail::gauge_slow(id, value);
}

/// Records one mask RLE run of `run_len` bits (also bumps kMaskRuns).
inline void hist_mask_run(uint32_t run_len) {
  if (detail::g_state != nullptr) detail::hist_slow(run_len);
}

/// Adds one observation to a per-client digest histogram.
inline void digest_add(DigestId digest, uint64_t v) {
  if (detail::g_state != nullptr) detail::digest_slow(digest, v);
}

/// RAII wall-clock span on the wall track (pid 1). Emits a Chrome
/// complete ("X") event when tracing is on; a single branch otherwise.
class Span {
 public:
  explicit Span(const char* name) {
    if (detail::g_state != nullptr && detail::tracing_on()) {
      name_ = name;
      t0_us_ = detail::now_us();
      armed_ = true;
    }
  }
  ~Span() {
    if (armed_ && detail::g_state != nullptr) {
      detail::span_emit(name_, t0_us_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  double t0_us_ = 0.0;
  bool armed_ = false;
};

/// Manual span begin for spans that cannot be lexically scoped (e.g. the
/// encoder's ctor-to-finish window): sets *t0_us and returns true when
/// tracing is on. Pair with span_end().
inline bool span_begin(double* t0_us) {
  if (detail::g_state != nullptr && detail::tracing_on()) {
    *t0_us = detail::now_us();
    return true;
  }
  return false;
}

/// Manual span end; only call when the paired span_begin returned true.
inline void span_end(const char* name, double t0_us) {
  if (detail::g_state != nullptr) detail::span_emit(name, t0_us);
}

// ---- lifecycle (driven by the CLI; see run_cli) ----

struct Options {
  std::string trace_path;    // non-empty => buffer + write a Chrome trace
  std::string metrics_path;  // non-empty => per-round JSONL stream
};

/// Drops all state and disables telemetry (g_state back to null).
void reset();

/// Enables counters (always) plus the tracer / JSONL stream per
/// `opts`. Must be preceded by reset(); opens the metrics stream
/// immediately (the CLI validates paths eagerly before the run).
void configure(const Options& opts);

/// Opens (truncating) the per-round JSONL stream at `path` on a configured
/// registry, as configure does for Options::metrics_path; a no-op for an
/// empty path. `gluefl resume` opens it once the checkpoint is accepted.
void open_metrics(const std::string& path);

/// Round boundary: advances the simulated clock, lays the round's
/// down/compute/up phases on the sim-time track (pid 2), and appends a
/// cumulative JSONL record when --metrics is active. Coordinator-thread
/// only, called once per completed round by both engines.
void round_boundary(int round, double down_s, double compute_s, double up_s,
                    double wall_s);

/// Samples the peak-RSS gauge and flushes the trace / closes the JSONL
/// stream. Counters stay readable (the CLI emits the JSON block after).
void finalize();

// ---- readback ----

/// Current value of one scalar metric (0 when disabled).
uint64_t value(MetricId id);

/// Histogram bucket counts (kMaskRunBuckets entries; zeros if disabled).
std::vector<uint64_t> mask_run_hist();

/// One digest's bucket counts (kDigestBuckets entries; zeros if disabled).
std::vector<uint64_t> digest_hist(DigestId digest);

// ---- checkpoint integration (sim class only; ckpt format v3) ----

/// Always returns kNumSimValues entries (zeros when disabled): the sim
/// scalar counters followed by the mask-run histogram buckets.
std::vector<uint64_t> sim_values();

/// Restores the sim-class prefix (resume). No-op when disabled; entries
/// beyond kNumSimValues are ignored, missing entries are zeros.
void set_sim_values(const std::vector<uint64_t>& values);

/// Renders the sim-class counters as a JSON object fragment
/// `{"wire.encode.frames": N, ...}` in registry order — the only
/// metrics allowed into the byte-identity JSON summaries.
std::string sim_counters_json();

/// Renders the mask run-length histogram as a JSON array `[n0, n1, ...]`.
std::string mask_hist_json();

/// Renders the four digest histograms as one JSON object
/// `{"client.rtt_ms_log2": [...], ...}` in DigestId order.
std::string digests_json();

}  // namespace telemetry
}  // namespace gluefl
