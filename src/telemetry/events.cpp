#include "telemetry/events.h"

#include <algorithm>
#include <fstream>

#include "ckpt/io.h"
#include "common/check.h"

namespace gluefl {
namespace events {

namespace {

constexpr uint8_t kClientRecord = 1;
constexpr uint8_t kRoundRecord = 2;
// Records are a few dozen bytes; anything past this is corrupt framing.
constexpr uint64_t kMaxRecordBytes = 4096;

void encode_client(ckpt::Writer& w, const ClientEvent& e) {
  w.varint(static_cast<uint64_t>(e.round));
  w.varint(static_cast<uint64_t>(e.client));
  w.u8(static_cast<uint8_t>(e.fate));
  w.u8(e.sticky ? 1 : 0);
  // +1 so "-1 = scenario defines no classes" stays varint-friendly.
  w.varint(static_cast<uint64_t>(e.device_class + 1));
  w.varint(e.down_bytes);
  w.varint(e.up_bytes);
  w.f64(e.down_s);
  w.f64(e.compute_s);
  w.f64(e.up_s);
  // +1 so "-1 = never synced" stays varint-friendly.
  w.varint(static_cast<uint64_t>(e.staleness + 1));
}

ClientEvent decode_client(ckpt::Reader& r) {
  ClientEvent e;
  e.round = static_cast<int>(r.varint_max(ckpt::kIntCap, "events round"));
  e.client =
      static_cast<int64_t>(r.varint_max(ckpt::kIntCap, "events client id"));
  const uint8_t fate = r.u8();
  if (fate > static_cast<uint8_t>(Fate::kByzantine)) {
    throw ckpt::CkptError("events: unknown client fate " +
                          std::to_string(fate));
  }
  e.fate = static_cast<Fate>(fate);
  const uint8_t sticky = r.u8();
  if (sticky > 1) {
    throw ckpt::CkptError("events: invalid sticky flag " +
                          std::to_string(sticky));
  }
  e.sticky = sticky != 0;
  e.device_class =
      static_cast<int>(r.varint_max(65536, "events device class")) - 1;
  e.down_bytes = r.varint();
  e.up_bytes = r.varint();
  e.down_s = r.f64();
  e.compute_s = r.f64();
  e.up_s = r.f64();
  e.staleness =
      static_cast<int>(r.varint_max(ckpt::kIntCap, "events staleness")) - 1;
  return e;
}

void encode_round(ckpt::Writer& w, const RoundSummary& s) {
  w.varint(static_cast<uint64_t>(s.round));
  w.varint(static_cast<uint64_t>(s.num_invited));
  w.varint(static_cast<uint64_t>(s.num_included));
  w.f64(s.down_bytes);
  w.f64(s.up_bytes);
  w.f64(s.down_time_s);
  w.f64(s.compute_time_s);
  w.f64(s.up_time_s);
  w.f64(s.wall_time_s);
  w.f64(s.mask_overlap);
}

RoundSummary decode_round(ckpt::Reader& r) {
  RoundSummary s;
  s.round = static_cast<int>(r.varint_max(ckpt::kIntCap, "events round"));
  s.num_invited =
      static_cast<int>(r.varint_max(ckpt::kIntCap, "events invited count"));
  s.num_included =
      static_cast<int>(r.varint_max(ckpt::kIntCap, "events included count"));
  s.down_bytes = r.f64();
  s.up_bytes = r.f64();
  s.down_time_s = r.f64();
  s.compute_time_s = r.f64();
  s.up_time_s = r.f64();
  s.wall_time_s = r.f64();
  s.mask_overlap = r.f64();
  return s;
}

}  // namespace

namespace detail {

struct Sink {
  std::ofstream out;
  std::string path;
  std::vector<ClientEvent> pending;  // current round, emission order
  // Rounds flushed but not yet committed to the file. Committing only at
  // checkpoint saves (and at normal completion) keeps the on-disk log
  // checkpoint-consistent: a crash loses exactly the rounds resume replays.
  std::vector<uint8_t> segment;

  void clear() {
    if (out.is_open()) out.close();
    out.clear();
    path.clear();
    pending.clear();
    segment.clear();
  }
};

Sink* g_sink = nullptr;

namespace {
Sink g_storage;

ClientEvent* find_pending(int64_t client) {
  auto& p = g_sink->pending;
  // Back-to-front: async folds may legitimately queue the same client
  // twice in one aggregation window; patches target the latest emission.
  for (auto it = p.rbegin(); it != p.rend(); ++it) {
    if (it->client == client) return &*it;
  }
  return nullptr;
}

void write_record(uint8_t type, ckpt::Writer&& payload) {
  const std::vector<uint8_t> bytes = payload.take();
  ckpt::Writer frame;
  frame.u8(type);
  frame.varint(bytes.size());
  frame.bytes(bytes.data(), bytes.size());
  frame.u32(ckpt::crc32(bytes.data(), bytes.size()));
  const std::vector<uint8_t> framed = frame.take();
  g_sink->segment.insert(g_sink->segment.end(), framed.begin(), framed.end());
}

void commit_segment() {
  Sink* s = g_sink;
  if (s->segment.empty()) return;
  s->out.write(reinterpret_cast<const char*>(s->segment.data()),
               static_cast<std::streamsize>(s->segment.size()));
  s->out.flush();
  GLUEFL_CHECK_MSG(s->out.good(),
                   "error writing --events file '" + s->path + "'");
  s->segment.clear();
}
}  // namespace

void client_slow(const ClientEvent& e) { g_sink->pending.push_back(e); }

void mark_byzantine_slow(int64_t client) {
  ClientEvent* e = find_pending(client);
  if (e != nullptr && e->fate == Fate::kCompleted) e->fate = Fate::kByzantine;
}

void set_uplink_slow(int64_t client, uint64_t up_bytes, double up_s) {
  ClientEvent* e = find_pending(client);
  if (e != nullptr) {
    e->up_bytes = up_bytes;
    e->up_s = up_s;
  }
}

void round_flush_slow(const RoundSummary& summary) {
  auto& p = g_sink->pending;
  // Canonical on-disk order: client id, stably — emission order (which is
  // deterministic but tied to engine internals) breaks ties for async
  // duplicates only.
  std::stable_sort(p.begin(), p.end(),
                   [](const ClientEvent& a, const ClientEvent& b) {
                     return a.client < b.client;
                   });
  for (const ClientEvent& e : p) {
    ckpt::Writer w;
    encode_client(w, e);
    write_record(kClientRecord, std::move(w));
  }
  p.clear();
  ckpt::Writer w;
  encode_round(w, summary);
  write_record(kRoundRecord, std::move(w));
}

}  // namespace detail

void reset() {
  detail::g_sink = nullptr;
  detail::g_storage.clear();
}

void configure(const std::string& path) {
  detail::Sink* s = &detail::g_storage;
  s->clear();
  s->out.open(path, std::ios::binary);
  GLUEFL_CHECK_MSG(s->out.good(),
                   "cannot open --events file '" + path + "'");
  s->path = path;
  detail::g_sink = s;
}

void checkpoint_commit() {
  if (detail::g_sink != nullptr) detail::commit_segment();
}

void finalize() {
  detail::Sink* s = detail::g_sink;
  if (s == nullptr) return;
  // An un-flushed partial round would only exist if the process died
  // between a strategy step and the boundary; boundaries always flush, so
  // drop anything pending rather than write a half-round.
  s->pending.clear();
  detail::commit_segment();
  s->out.close();
  GLUEFL_CHECK_MSG(!s->out.fail(),
                   "error writing --events file '" + s->path + "'");
  detail::g_sink = nullptr;
}

void abandon() {
  detail::Sink* s = detail::g_sink;
  if (s == nullptr) return;
  s->pending.clear();
  s->segment.clear();  // rounds past the last checkpoint die with the run
  s->out.close();
  detail::g_sink = nullptr;
}

namespace {

void parse_records(ckpt::Reader& r, EventLog& log, size_t& record) {
  while (r.remaining() > 0) {
    ++record;
    const uint8_t type = r.u8();
    if (type != kClientRecord && type != kRoundRecord) {
      throw ckpt::CkptError("events: record " + std::to_string(record) +
                            " has unknown type " + std::to_string(type) +
                            " — not an event log, or corrupt");
    }
    const uint64_t len = r.varint_max(kMaxRecordBytes, "events record length");
    const uint8_t* payload = r.bytes(static_cast<size_t>(len));
    const uint32_t crc = r.u32();
    if (ckpt::crc32(payload, static_cast<size_t>(len)) != crc) {
      throw ckpt::CkptError("events: record " + std::to_string(record) +
                            " failed its CRC check — log is corrupt");
    }
    ckpt::Reader pr(payload, static_cast<size_t>(len));
    if (type == kClientRecord) {
      log.clients.push_back(decode_client(pr));
    } else {
      log.rounds.push_back(decode_round(pr));
    }
    pr.expect_end("events record");
  }
}

}  // namespace

EventLog read_log(const std::string& path) {
  const uint64_t size = ckpt::regular_file_size(path, "events: log");
  std::ifstream f(path, std::ios::binary);
  std::vector<uint8_t> data(static_cast<size_t>(size));
  f.read(reinterpret_cast<char*>(data.data()),
         static_cast<std::streamsize>(data.size()));
  if (!f || f.gcount() != static_cast<std::streamsize>(data.size())) {
    throw ckpt::CkptError("events: log '" + path + "' cannot be read");
  }

  EventLog log;
  ckpt::Reader r(data.data(), data.size());
  size_t record = 0;
  try {
    parse_records(r, log, record);
  } catch (const ckpt::CkptError& e) {
    // The io-layer primitives report truncation in checkpoint terms;
    // re-frame as an event-log failure, one line, keeping the detail.
    const std::string what = e.what();
    if (what.rfind("events:", 0) == 0) throw;
    throw ckpt::CkptError("events: '" + path + "' record " +
                          std::to_string(record) +
                          " is truncated or corrupt (" + what + ")");
  }
  return log;
}

}  // namespace events
}  // namespace gluefl
