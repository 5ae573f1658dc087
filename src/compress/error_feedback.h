// Per-client error compensation (§3.3 of the paper, Eq. 7).
//
// Clients remember the part of their update that compression discarded
// (h_i = Delta_i - compressed(Delta_i)) and add it back before compressing
// the next update. Under sticky sampling the aggregation weight of a client
// changes between participations, so GlueFL RE-SCALES the stored residual:
//
//     Delta_i  <-  Delta_i + (nu_{phi(t)} / nu_t) * h_i          (REC)
//
// where nu_{phi(t)} is the weight the client had when h_i was stored and
// nu_t its current weight. Mode kRaw reproduces the paper's "EC" ablation
// (no re-scaling, shown to break convergence in Fig. 11); kNone disables
// compensation entirely.
//
// Residuals are allocated lazily: with cross-device populations only a
// small subset of clients ever participates, and sticky sampling keeps
// re-using them, so memory stays ~O(participants) * dim.
//
// Checkpoints keep the rows in the directory's residual journal, not in
// the strategy blob (DESIGN.md §8). Every store() stamps its row with a
// rising commit stamp, so a commit can write just the rows stored since
// the previous one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace gluefl {

namespace ckpt {
class CrcIn;
class CrcOut;
}  // namespace ckpt

/// One client's residual h_i, the weight nu it was stored with, and the
/// commit stamp of that store (0 for a row restored from a checkpoint).
/// h is shared, never copied, between a store and the snapshots taken of
/// it or restored into it; store() copies a shared h before writing it.
struct ResidualRow {
  std::shared_ptr<std::vector<float>> h;
  double nu = 1.0;
  uint64_t stamp = 0;
};

/// Residual rows by ascending client id: the unit the checkpoint journal
/// stores.
struct ResidualRows {
  size_t dim = 0;
  std::map<int, ResidualRow> rows;
};

/// Journal payload over the rows a record holds — every row for a base,
/// those stamped after `since` for a delta (DESIGN.md §8):
///   dim varint | count varint | (client varint, nu f64, h f32s)*
/// with client ids strictly ascending. residual_payload_bytes is its exact
/// size; write_residual_payload streams it row by row.
size_t residual_payload_bytes(const ResidualRows& rows, bool base,
                              uint64_t since);
void write_residual_payload(const ResidualRows& rows, bool base,
                            uint64_t since, ckpt::CrcOut& out);
/// Reads one payload into `into`, newest record first: a client `into`
/// already holds keeps its row (its bytes are still read and checksummed).
/// The first payload sets into.dim and every later one must match it.
/// Non-ascending ids and wrong dims fail as CkptError.
void read_residual_payload(ckpt::CrcIn& in, ResidualRows& into);

class ErrorFeedback {
 public:
  enum class Mode { kNone, kRaw, kRescaled };

  /// Resident bytes of a stored row beside its dim floats: the map node,
  /// the shared h's control block and its allocator headers.
  static constexpr size_t kRowOverheadBytes = 128;

  ErrorFeedback(Mode mode, size_t dim);

  Mode mode() const { return mode_; }
  size_t dim() const { return dim_; }

  /// Adds the (re-scaled) stored residual of `client` into `delta`.
  /// `nu_now` is the client's aggregation weight in the current round.
  void apply(int client, double nu_now, float* delta) const;

  /// Stores the new residual for `client` together with its current weight.
  void store(int client, double nu_now, const float* residual);

  bool has(int client) const { return store_.rows.count(client) != 0; }
  size_t num_tracked_clients() const { return store_.rows.size(); }

  const ResidualRows& rows() const { return store_; }
  /// Commit stamp of the newest store (0 before any).
  uint64_t stamp() const { return stamp_; }
  /// Replaces every row with a checkpoint's, sharing their h; CkptError on
  /// a dim mismatch.
  void restore_rows(const ResidualRows& rows);

 private:
  Mode mode_;
  size_t dim_;
  ResidualRows store_;
  uint64_t stamp_ = 0;
};

}  // namespace gluefl
