#include "compress/error_feedback.h"

#include <algorithm>

#include "ckpt/io.h"
#include "common/check.h"
#include "tensor/ops.h"

namespace gluefl {

ErrorFeedback::ErrorFeedback(Mode mode, size_t dim) : mode_(mode), dim_(dim) {
  GLUEFL_CHECK(dim > 0);
}

void ErrorFeedback::apply(int client, double nu_now, float* delta) const {
  if (mode_ == Mode::kNone) return;
  const auto it = store_.find(client);
  if (it == store_.end()) return;
  double coef = 1.0;
  if (mode_ == Mode::kRescaled) {
    GLUEFL_CHECK_MSG(nu_now > 0.0, "aggregation weight must be positive");
    coef = it->second.nu / nu_now;
  }
  axpy(static_cast<float>(coef), it->second.h.data(), delta, dim_);
}

void ErrorFeedback::store(int client, double nu_now, const float* residual) {
  if (mode_ == Mode::kNone) return;
  Entry& e = store_[client];
  e.h.assign(residual, residual + dim_);
  e.nu = nu_now;
}

size_t ErrorFeedback::state_bytes() const {
  const size_t entry_bytes = 8 + ckpt::varint_size(dim_) + 4 * dim_;
  size_t bytes = ckpt::varint_size(dim_) + ckpt::varint_size(store_.size());
  for (const auto& [client, entry] : store_) {
    (void)entry;
    bytes += ckpt::varint_size(static_cast<uint64_t>(client)) + entry_bytes;
  }
  return bytes;
}

void ErrorFeedback::save_state(ckpt::Writer& w) const {
  w.reserve(state_bytes());
  w.varint(dim_);
  std::vector<int> clients;
  clients.reserve(store_.size());
  for (const auto& [client, entry] : store_) {
    (void)entry;
    clients.push_back(client);
  }
  std::sort(clients.begin(), clients.end());
  w.varint(clients.size());
  for (const int c : clients) {
    const Entry& e = store_.at(c);
    w.varint(static_cast<uint64_t>(c));
    w.f64(e.nu);
    w.f32s(e.h.data(), e.h.size());
  }
}

void ErrorFeedback::restore_state(ckpt::Reader& r) {
  const uint64_t dim = r.varint();
  if (dim != dim_) {
    throw ckpt::CkptError("checkpoint error-feedback dim mismatch (" +
                          std::to_string(dim) + " vs " + std::to_string(dim_) +
                          ")");
  }
  const uint64_t n = r.varint_max(ckpt::kIntCap, "residual count");
  store_.clear();
  int64_t prev = -1;
  for (uint64_t i = 0; i < n; ++i) {
    const int c =
        static_cast<int>(r.varint_max(ckpt::kIntCap, "client id"));
    // save_state writes ids strictly ascending; anything else (a repeat
    // would overwrite an earlier residual) is not a state it could write.
    if (c <= prev) {
      throw ckpt::CkptError(
          "checkpoint residual client ids are not strictly ascending");
    }
    prev = c;
    Entry e;
    e.nu = r.f64();
    e.h = r.f32s();
    if (e.h.size() != dim_) {
      throw ckpt::CkptError("checkpoint residual has the wrong dim");
    }
    store_.emplace(c, std::move(e));
  }
}

}  // namespace gluefl
