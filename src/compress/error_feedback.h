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
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace gluefl {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

class ErrorFeedback {
 public:
  enum class Mode { kNone, kRaw, kRescaled };

  ErrorFeedback(Mode mode, size_t dim);

  Mode mode() const { return mode_; }
  size_t dim() const { return dim_; }

  /// Adds the (re-scaled) stored residual of `client` into `delta`.
  /// `nu_now` is the client's aggregation weight in the current round.
  void apply(int client, double nu_now, float* delta) const;

  /// Stores the new residual for `client` together with its current weight.
  void store(int client, double nu_now, const float* residual);

  bool has(int client) const { return store_.count(client) != 0; }
  size_t num_tracked_clients() const { return store_.size(); }

  /// Checkpoint section: every tracked residual with its stored weight,
  /// serialized in ascending client order so identical state writes
  /// identical bytes regardless of hash-map iteration order. restore_state
  /// rejects ids that are not strictly ascending (CkptError).
  void save_state(ckpt::Writer& w) const;
  void restore_state(ckpt::Reader& r);
  /// Exact byte size of the save_state section (save_state reserves it).
  size_t state_bytes() const;

 private:
  struct Entry {
    std::vector<float> h;
    double nu = 1.0;
  };
  Mode mode_;
  size_t dim_;
  std::unordered_map<int, Entry> store_;
};

}  // namespace gluefl
