// Uplink intake: the one path every client update frame takes from the
// client's WireEncoder to the aggregate (DESIGN.md §7, §11).
//
// A strategy builds one WireEncoder per client and adds the sections that
// client transmits. The intake owns everything after that: it finishes the
// frame, records its measured size, corrupts it when the scenario makes the
// client Byzantine, and decodes it on the server side. A frame that fails
// to decode is rejected whole. It is counted under
// telemetry::kScenarioFramesRejected, its fold never runs, and its upload
// is still priced, because the bytes crossed the wire.
//
// The synchronous strategies use one Intake per round. The async engine
// splits the same path in two: seal() at dispatch, where the frame enters
// the in-flight state, and open() at the aggregation that folds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "wire/codec.h"

namespace gluefl {

class SimEngine;
struct Participation;
struct RoundRecord;

namespace uplink {

/// Receives the validated decoder of an accepted frame; moves its sections
/// into the strategy's aggregation batch.
using Fold = std::function<void(wire::WireDecoder&)>;

/// Client half: finishes `enc` (the encoder is spent) and returns the frame
/// the client transmits, corrupted when `byzantine`.
std::vector<uint8_t> seal(wire::WireEncoder&& enc, bool byzantine);

/// Server half: decodes `frame` against the model dimension and calls
/// `fold`. A frame that fails validation is counted as rejected and
/// `fold` is not called. Returns whether the frame was accepted.
bool open(const std::vector<uint8_t>& frame, size_t dim, const Fold& fold);

/// One synchronous round's uplinks.
class Intake {
 public:
  Intake(SimEngine& engine, int round) : engine_(engine), round_(round) {}

  /// Seals `client`'s frame (Byzantine per the scenario draw for this
  /// round), records its size and opens it. A rejected frame upgrades the
  /// client's flight-recorder fate to kByzantine instead of reaching
  /// `fold`.
  void submit(int client, wire::WireEncoder&& enc, const Fold& fold);

  /// Prices the included clients' uploads at their measured frame sizes.
  /// A client that submitted nothing (APF with every coordinate frozen)
  /// prices a zero-byte upload.
  void price(const Participation& part, RoundRecord& rec) const;

 private:
  SimEngine& engine_;
  int round_;
  std::map<int, size_t> measured_;  // client -> frame bytes
};

}  // namespace uplink
}  // namespace gluefl
