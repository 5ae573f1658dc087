// Scenario layer (DESIGN.md §11): one config object that composes the
// fleet-shaping axes the paper holds fixed — device-class mixes, diurnal /
// trace-driven availability, mid-round dropouts and reporting deadlines,
// and Byzantine clients whose frames the server must reject.
//
// A ScenarioSpec is parsed from a JSON file (`--scenario FILE`) or resolved
// from a bundled builtin by name (`--scenario hostile`). The spec is pure
// data: every layer below (ClientDirectory, SimEngine, AsyncSimEngine, the
// strategies) derives its per-entity behaviour from the spec plus forked
// Rng streams, so 1/4/8-thread runs stay bit-identical and resume stays
// byte-identical (the canonical JSON rides the checkpoint meta).
//
// Determinism contract: everything here is a pure function of the spec and
// the (client, round) or dispatch-seq coordinates — no hidden state.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gluefl::scenario {

/// One device tier in the fleet mix. Multipliers scale the per-client
/// profile the net layer derives: gflops *= compute_mult, down/up_mbps *=
/// down_mult/up_mult. Classes are assigned per entity by weight.
struct DeviceClass {
  std::string name;
  double weight = 1.0;        // relative share, > 0
  double compute_mult = 1.0;  // (0, 1000]
  double down_mult = 1.0;     // (0, 1000]
  double up_mult = 1.0;       // (0, 1000]
};

enum class AvailabilityMode {
  kStationary,  // keep the env's two-state Markov chains (default)
  kDiurnal,     // sinusoidal online probability over a day-length period
  kTrace,       // step function through (round, online_frac) points
};

struct TracePoint {
  int round = 0;
  double online_frac = 1.0;  // [0, 1]
};

struct ScenarioSpec {
  std::string name = "none";
  std::vector<DeviceClass> device_classes;  // empty = uniform fleet

  AvailabilityMode availability = AvailabilityMode::kStationary;
  int diurnal_period_rounds = 24;  // > 0
  double diurnal_amplitude = 0.0;  // [0, 1]: trough = base * (1 - amplitude)
  std::vector<TracePoint> trace;   // strictly increasing rounds

  double deadline_s = 0.0;      // per-round reporting deadline; 0 = off
  double dropout_rate = 0.0;    // [0, 1): crash between download and upload
  double byzantine_rate = 0.0;  // [0, 1): frames the server must reject

  /// True when any axis deviates from the paper's baseline behaviour.
  bool enabled() const {
    return !device_classes.empty() ||
           availability != AvailabilityMode::kStationary || deadline_s > 0.0 ||
           dropout_rate > 0.0 || byzantine_rate > 0.0;
  }

  /// Online probability at `round` under diurnal/trace availability, given
  /// the environment's base availability. Stationary mode never calls this.
  double online_probability(int round, double base_availability) const;
};

/// One-line scenario config errors; the CLI maps these to exit 1 (runtime
/// failure), distinct from flag-usage errors (exit 2).
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& msg)
      : std::runtime_error("scenario: " + msg) {}
};

/// Parses and validates a spec from JSON text. Rejects unknown keys,
/// NaN / negative / out-of-range multipliers and rates, and unsorted trace
/// timestamps with a one-line ScenarioError.
ScenarioSpec parse_scenario_json(const std::string& text);

/// Resolves `name_or_path`: a builtin name first ("hostile", "diurnal"),
/// otherwise a JSON file path. Throws ScenarioError on unreadable files or
/// invalid specs.
ScenarioSpec load_scenario(const std::string& name_or_path);

/// Canonical single-line JSON for a spec: deterministic key order and
/// number formatting, so the string can be echoed verbatim in run/sweep/
/// resume summaries and round-tripped through checkpoint meta
/// (parse(to_json(s)) == s field-for-field).
std::string to_json(const ScenarioSpec& spec);

/// Bundled example specs as (name, canonical JSON) pairs; `gluefl list
/// --scenarios` prints these and load_scenario resolves the names.
const std::vector<std::pair<std::string, std::string>>& builtin_scenarios();

/// Deterministically corrupts an encoded wire frame so the decoder is
/// guaranteed to reject it (flips the version byte — WireDecoder fails
/// closed on version mismatches). Used by the uplink intake's Byzantine
/// fault injection (fl/uplink.h); tiny/empty buffers become a 1-byte
/// invalid frame.
void corrupt_frame(std::vector<uint8_t>& frame);

}  // namespace gluefl::scenario
