#include "fl/uplink.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "fl/engine.h"
#include "scenario/scenario.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"

namespace gluefl::uplink {

std::vector<uint8_t> seal(wire::WireEncoder&& enc, bool byzantine) {
  std::vector<uint8_t> frame = enc.finish();
  if (byzantine) scenario::corrupt_frame(frame);
  return frame;
}

bool open(const std::vector<uint8_t>& frame, size_t dim, const Fold& fold) {
  std::optional<wire::WireDecoder> wd;
  try {
    // The constructor validates the whole frame, so a corrupt one throws
    // before any section can reach the strategy's batch.
    wd.emplace(frame.data(), frame.size(), dim);
  } catch (const CheckError&) {
    telemetry::count(telemetry::kScenarioFramesRejected);
    return false;
  }
  fold(*wd);
  return true;
}

void Intake::submit(int client, wire::WireEncoder&& enc, const Fold& fold) {
  const std::vector<uint8_t> frame =
      seal(std::move(enc), engine_.scenario_byzantine(round_, client));
  measured_[client] = frame.size();
  if (!open(frame, engine_.dim(), fold)) events::mark_byzantine(client);
}

void Intake::price(const Participation& part, RoundRecord& rec) const {
  engine_.price_uplinks(
      part,
      [this](int c) {
        const auto it = measured_.find(c);
        return it != measured_.end() ? it->second : size_t{0};
      },
      rec);
}

}  // namespace gluefl::uplink
