// Checkpointable: the contract a component implements to ride in a
// snapshot (DESIGN.md §8).
//
// save_state serializes everything the component carries ACROSS round
// boundaries; restore_state reads exactly the same bytes back into a
// freshly-initialized instance. The pairing invariant — for any reachable
// state s, restore(save(s)) followed by N rounds must be bit-identical to
// just running N more rounds from s — is what makes `gluefl resume`
// deterministic, and is enforced by tests/test_ckpt.cpp for every
// strategy.
//
// Both Strategy and AsyncStrategy inherit this with no-op defaults, so a
// stateless strategy (FedAvg, async-fedbuff) participates for free and a
// user-defined strategy outside this tree keeps compiling; the in-tree
// strategies override both methods explicitly.
//
// Error-feedback residuals are the one exception to save_state: a
// component that keeps them exposes them through residuals(), and the
// checkpoint directory's journal stores their rows (DESIGN.md §8), so a
// commit writes only the rows stored since the previous one.
#pragma once

namespace gluefl {
class ErrorFeedback;
struct ResidualRows;
}  // namespace gluefl

namespace gluefl::ckpt {

class Writer;
class Reader;

class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  /// Serializes all cross-round state into `w`. Must write the same byte
  /// sequence restore_state consumes.
  virtual void save_state(Writer& w) const { (void)w; }

  /// Restores state saved by save_state. Called on a freshly init()-ed
  /// instance built from the same configuration; must consume the section
  /// exactly and throw CkptError (or CheckError) on malformed input.
  virtual void restore_state(Reader& r) { (void)r; }

  /// The error-feedback residuals the component keeps, or null if none.
  virtual const ErrorFeedback* residuals() const { return nullptr; }

  /// Replaces the residual rows with a checkpoint's, after restore_state.
  /// Only called when residuals() is non-null.
  virtual void restore_residuals(const ResidualRows& rows) { (void)rows; }
};

}  // namespace gluefl::ckpt
