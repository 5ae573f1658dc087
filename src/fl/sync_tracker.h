// Staleness-aware downstream accounting — the mechanism behind the paper's
// central observation (§2.3, Fig. 2b).
//
// The server records, for every round, the bitmap of model positions its
// aggregation changed. A client that last synchronized at round t0 and is
// invited at round t must download the NEW VALUES of every position in the
// union of the changed-bitmaps of rounds t0 .. t-1 (plus a position
// encoding so it knows which values arrived). Under masking the per-round
// bitmap is small, but the union grows with staleness — which is exactly
// why masking alone fails to save downstream bandwidth once client
// sampling makes most clients stale.
//
// Per-client state is sparse over the population: only clients that have
// ever synced occupy an entry, so memory is O(participants), not O(N) —
// a virtual million-client population costs nothing until clients are
// actually invited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "compress/bitmask.h"

namespace gluefl {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

class SyncTracker {
 public:
  /// `window`: how many rounds of changed-bitmaps to retain; clients staler
  /// than the window are charged a full-model download.
  SyncTracker(int64_t num_clients, size_t dim, size_t window = 4096);

  size_t dim() const { return dim_; }

  /// Records the positions changed by round `round`'s aggregation
  /// (w^{round} -> w^{round+1}). Rounds must be recorded consecutively
  /// starting from 0.
  void record_round_changes(int round, const BitMask& changed);

  /// Number of positions `client` must download to reach w^{round}.
  /// Full dim when the client has never synced (or fell off the window).
  size_t stale_positions(int client, int round) const;

  /// The union bitmap itself: every position the client must download.
  /// All-ones when the client never synced (or fell off the window),
  /// all-zeros when it is current. This is what the server would actually
  /// serialize in the sync payload; the engine runs the real mask codec
  /// over it to measure downlink bytes (wire::encoded_sync_bytes).
  BitMask stale_mask(int client, int round) const;

  /// Rounds since the client last synced; -1 if never.
  int staleness(int client, int round) const;

  /// Union size of the changed-position bitmaps of rounds [from, to) —
  /// what a hypothetical client synced at `from` must download at `to`
  /// (Fig. 2b plots this as a fraction of the model versus to - from).
  /// Both rounds must still be inside the retention window.
  size_t changed_union(int from, int to) const;

  /// Marks that `client` now holds w^{round}.
  void mark_synced(int client, int round);

  int last_synced_round(int client) const;

  /// Number of clients that have ever synced (the sparse-map occupancy).
  size_t participants() const { return last_sync_.size(); }

  /// Approximate bytes of per-client state currently resident.
  size_t resident_bytes() const;

  /// Checkpoint section: the sparse id -> last-sync map (count-prefixed,
  /// id-sorted pairs) plus the retained changed-bitmap window (masks ride
  /// the wire mask codec). restore_state requires a tracker constructed
  /// with the same num_clients / dim and rejects mismatches as CkptError.
  void save_state(ckpt::Writer& w) const;
  void restore_state(ckpt::Reader& r);

 private:
  int last_sync_of(int client) const;

  int64_t num_clients_;
  size_t dim_;
  size_t window_;
  // round whose model the client holds; absent = never synced.
  std::unordered_map<int, int> last_sync_;
  std::deque<BitMask> changes_;  // changes_[i] belongs to round first_round_ + i
  int first_round_ = 0;
  int next_round_ = 0;           // next round to be recorded
};

}  // namespace gluefl
