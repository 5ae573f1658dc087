#include "telemetry/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "common/json.h"
#include "common/table.h"

namespace gluefl {
namespace events {

using json::jnum;

namespace {

std::string class_label(int device_class) {
  if (device_class < 0) return "unclassed";
  return "class " + std::to_string(device_class);
}

}  // namespace

Report build_report(const EventLog& log, int top_k) {
  Report r;
  r.num_rounds = static_cast<int>(log.rounds.size());
  r.participations = static_cast<int>(log.clients.size());

  std::map<int64_t, ClientStat> by_client;
  std::map<int, ClassStat> by_class;
  std::map<int, FaultRound> faults;
  // round -> sticky cohort, only rounds where one exists. std::map keeps
  // the consecutive-round iteration in order even if records arrive from
  // concatenated resume segments.
  std::map<int, std::set<int64_t>> sticky;

  for (const ClientEvent& e : log.clients) {
    ClientStat& cs = by_client[e.client];
    cs.client = e.client;
    cs.device_class = e.device_class;
    ++cs.participations;
    ClassStat& ks = by_class[e.device_class];
    ks.device_class = e.device_class;
    ++ks.participations;
    switch (e.fate) {
      case Fate::kCompleted:
        ++cs.completed; ++ks.completed; ++r.completed;
        break;
      case Fate::kDeadlineDrop:
        ++cs.deadline_drops; ++ks.deadline_drops; ++r.deadline_drops;
        faults[e.round].deadline_drops++;
        break;
      case Fate::kDropout:
        ++cs.dropouts; ++ks.dropouts; ++r.dropouts;
        faults[e.round].dropouts++;
        break;
      case Fate::kByzantine:
        ++cs.byzantine; ++ks.byzantine; ++r.byzantine;
        faults[e.round].byzantine++;
        break;
    }
    cs.down_bytes += e.down_bytes;
    cs.up_bytes += e.up_bytes;
    ks.down_bytes += e.down_bytes;
    ks.up_bytes += e.up_bytes;
    const double rtt = e.down_s + e.compute_s + e.up_s;
    cs.total_s += rtt;
    ks.total_s += rtt;
    if (rtt > cs.max_rtt_s) {
      cs.max_rtt_s = rtt;
      cs.max_rtt_round = e.round;
    }
    if (e.sticky) sticky[e.round].insert(e.client);
  }
  r.num_clients = static_cast<int>(by_client.size());

  // Straggler attribution: total simulated client time, descending;
  // client id breaks ties so the list is stable.
  std::vector<ClientStat> all;
  all.reserve(by_client.size());
  for (const auto& kv : by_client) all.push_back(kv.second);
  std::sort(all.begin(), all.end(),
            [](const ClientStat& a, const ClientStat& b) {
              if (a.total_s != b.total_s) return a.total_s > b.total_s;
              return a.client < b.client;
            });
  if (top_k >= 0 && static_cast<int>(all.size()) > top_k) {
    all.resize(static_cast<size_t>(top_k));
  }
  r.stragglers = std::move(all);

  for (const auto& kv : by_class) r.classes.push_back(kv.second);

  // Sticky churn: fraction of each round's cohort that was not in the
  // previous recorded cohort.
  r.sticky_rounds = static_cast<int>(sticky.size());
  if (!sticky.empty()) {
    double size_sum = 0.0;
    double churn_sum = 0.0;
    int churn_n = 0;
    const std::set<int64_t>* prev = nullptr;
    for (const auto& kv : sticky) {
      size_sum += static_cast<double>(kv.second.size());
      if (prev != nullptr) {
        int joined = 0;
        for (const int64_t c : kv.second) {
          if (prev->count(c) == 0) ++joined;
        }
        churn_sum += static_cast<double>(joined) /
                     static_cast<double>(kv.second.size());
        ++churn_n;
      }
      prev = &kv.second;
    }
    r.mean_sticky = size_sum / static_cast<double>(sticky.size());
    r.mean_churn = churn_n > 0 ? churn_sum / churn_n : 0.0;
  }

  if (!log.rounds.empty()) {
    double sum = 0.0;
    r.overlap_min = log.rounds.front().mask_overlap;
    r.overlap_max = log.rounds.front().mask_overlap;
    for (const RoundSummary& s : log.rounds) {
      sum += s.mask_overlap;
      r.overlap_min = std::min(r.overlap_min, s.mask_overlap);
      r.overlap_max = std::max(r.overlap_max, s.mask_overlap);
    }
    r.overlap_mean = sum / static_cast<double>(log.rounds.size());
  }

  for (const auto& kv : faults) {
    FaultRound f = kv.second;
    f.round = kv.first;
    r.faults.push_back(f);
  }
  return r;
}

std::string render_report_text(const Report& r) {
  std::ostringstream out;
  out << "Flight recorder report\n";
  out << "  rounds: " << r.num_rounds << "  clients: " << r.num_clients
      << "  participations: " << r.participations << "\n";
  out << "  fates: " << r.completed << " completed, " << r.deadline_drops
      << " deadline-dropped, " << r.dropouts << " dropped out, "
      << r.byzantine << " byzantine-rejected\n";

  if (!r.stragglers.empty()) {
    TablePrinter t;
    t.set_headers({"client", "class", "parts", "done", "total time",
                   "worst rtt", "@round", "down", "up"});
    for (const ClientStat& c : r.stragglers) {
      t.add_row({std::to_string(c.client), class_label(c.device_class),
                 std::to_string(c.participations),
                 std::to_string(c.completed), fmt_seconds(c.total_s),
                 fmt_seconds(c.max_rtt_s), std::to_string(c.max_rtt_round),
                 fmt_bytes(static_cast<double>(c.down_bytes)),
                 fmt_bytes(static_cast<double>(c.up_bytes))});
    }
    out << "\ntop stragglers (by total simulated client time):\n"
        << t.to_string();
  }

  if (!r.classes.empty()) {
    TablePrinter t;
    t.set_headers({"device class", "parts", "done", "deadline", "dropout",
                   "byz", "down", "up", "total time"});
    for (const ClassStat& k : r.classes) {
      t.add_row({class_label(k.device_class),
                 std::to_string(k.participations),
                 std::to_string(k.completed),
                 std::to_string(k.deadline_drops),
                 std::to_string(k.dropouts), std::to_string(k.byzantine),
                 fmt_bytes(static_cast<double>(k.down_bytes)),
                 fmt_bytes(static_cast<double>(k.up_bytes)),
                 fmt_seconds(k.total_s)});
    }
    out << "\ndevice classes:\n" << t.to_string();
  }

  out << "\nsticky cohort: ";
  if (r.sticky_rounds == 0) {
    out << "none recorded\n";
  } else {
    out << r.sticky_rounds << " rounds, mean size "
        << fmt_double(r.mean_sticky, 1) << ", mean churn "
        << fmt_percent(r.mean_churn) << "\n";
  }
  out << "mask overlap: mean " << fmt_percent(r.overlap_mean) << " (min "
      << fmt_percent(r.overlap_min) << ", max " << fmt_percent(r.overlap_max)
      << ")\n";

  if (!r.faults.empty()) {
    TablePrinter t;
    t.set_headers({"round", "deadline", "dropout", "byz"});
    for (const FaultRound& f : r.faults) {
      t.add_row({std::to_string(f.round), std::to_string(f.deadline_drops),
                 std::to_string(f.dropouts), std::to_string(f.byzantine)});
    }
    out << "\nscenario fault timeline:\n" << t.to_string();
  } else {
    out << "\nscenario fault timeline: no faults recorded\n";
  }
  return out.str();
}

std::string render_report_json(const Report& r) {
  std::ostringstream os;
  os << "{\"schema\": \"gluefl.report.v1\"";
  os << ", \"rounds\": " << r.num_rounds
     << ", \"clients\": " << r.num_clients
     << ", \"participations\": " << r.participations;
  os << ", \"fates\": {\"completed\": " << r.completed
     << ", \"deadline_drop\": " << r.deadline_drops
     << ", \"dropout\": " << r.dropouts
     << ", \"byzantine\": " << r.byzantine << "}";
  os << ", \"stragglers\": [";
  for (size_t i = 0; i < r.stragglers.size(); ++i) {
    const ClientStat& c = r.stragglers[i];
    if (i != 0) os << ", ";
    os << "{\"client\": " << c.client
       << ", \"device_class\": " << c.device_class
       << ", \"participations\": " << c.participations
       << ", \"completed\": " << c.completed
       << ", \"deadline_drop\": " << c.deadline_drops
       << ", \"dropout\": " << c.dropouts
       << ", \"byzantine\": " << c.byzantine
       << ", \"down_bytes\": " << c.down_bytes
       << ", \"up_bytes\": " << c.up_bytes
       << ", \"total_s\": " << jnum(c.total_s)
       << ", \"max_rtt_s\": " << jnum(c.max_rtt_s)
       << ", \"max_rtt_round\": " << c.max_rtt_round << "}";
  }
  os << "]";
  os << ", \"device_classes\": [";
  for (size_t i = 0; i < r.classes.size(); ++i) {
    const ClassStat& k = r.classes[i];
    if (i != 0) os << ", ";
    os << "{\"device_class\": " << k.device_class
       << ", \"participations\": " << k.participations
       << ", \"completed\": " << k.completed
       << ", \"deadline_drop\": " << k.deadline_drops
       << ", \"dropout\": " << k.dropouts
       << ", \"byzantine\": " << k.byzantine
       << ", \"down_bytes\": " << k.down_bytes
       << ", \"up_bytes\": " << k.up_bytes
       << ", \"total_s\": " << jnum(k.total_s) << "}";
  }
  os << "]";
  os << ", \"sticky\": {\"rounds\": " << r.sticky_rounds
     << ", \"mean_size\": " << jnum(r.mean_sticky)
     << ", \"mean_churn\": " << jnum(r.mean_churn) << "}";
  os << ", \"mask_overlap\": {\"mean\": " << jnum(r.overlap_mean)
     << ", \"min\": " << jnum(r.overlap_min)
     << ", \"max\": " << jnum(r.overlap_max) << "}";
  os << ", \"faults\": [";
  for (size_t i = 0; i < r.faults.size(); ++i) {
    const FaultRound& f = r.faults[i];
    if (i != 0) os << ", ";
    os << "{\"round\": " << f.round
       << ", \"deadline_drop\": " << f.deadline_drops
       << ", \"dropout\": " << f.dropouts
       << ", \"byzantine\": " << f.byzantine << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace events
}  // namespace gluefl
