#include "compress/error_feedback.h"

#include "ckpt/io.h"
#include "common/check.h"
#include "tensor/ops.h"

namespace gluefl {

namespace {

bool holds(const ResidualRow& row, bool base, uint64_t since) {
  return base || row.stamp > since;
}

}  // namespace

size_t residual_payload_bytes(const ResidualRows& rows, bool base,
                              uint64_t since) {
  const size_t row_bytes = 8 + ckpt::varint_size(rows.dim) + 4 * rows.dim;
  size_t count = 0;
  size_t bytes = ckpt::varint_size(rows.dim);
  for (const auto& [client, row] : rows.rows) {
    if (!holds(row, base, since)) continue;
    ++count;
    bytes += ckpt::varint_size(static_cast<uint64_t>(client)) + row_bytes;
  }
  return bytes + ckpt::varint_size(count);
}

void write_residual_payload(const ResidualRows& rows, bool base,
                            uint64_t since, ckpt::CrcOut& out) {
  size_t count = 0;
  for (const auto& [client, row] : rows.rows) {
    (void)client;
    count += holds(row, base, since) ? 1 : 0;
  }
  ckpt::Writer w;
  w.varint(rows.dim);
  w.varint(count);
  for (const auto& [client, row] : rows.rows) {
    if (!holds(row, base, since)) continue;
    w.varint(static_cast<uint64_t>(client));
    w.f64(row.nu);
    w.varint(rows.dim);
    out.put(w);
    out.put_f32(row.h->data(), rows.dim);
  }
  out.put(w);
}

void read_residual_payload(ckpt::CrcIn& in, ResidualRows& into) {
  const uint64_t dim = in.varint_max(ckpt::kIntCap, "residual dim");
  if (into.rows.empty() && into.dim == 0) {
    into.dim = static_cast<size_t>(dim);
  } else if (dim != into.dim) {
    throw ckpt::CkptError("checkpoint journal records disagree on the "
                          "residual dim (" + std::to_string(dim) + " vs " +
                          std::to_string(into.dim) + ")");
  }
  // Every row carries 4 * dim bytes of h, so the bytes left bound the
  // count before anything is allocated.
  const uint64_t n =
      in.varint_max(in.remaining() / (4 * dim + 10), "residual count");
  int64_t prev = -1;
  for (uint64_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(in.varint_max(ckpt::kIntCap, "client id"));
    // Writers emit ids strictly ascending; anything else (a repeat would
    // overwrite an earlier residual) is not a state they could write.
    if (c <= prev) {
      throw ckpt::CkptError(
          "checkpoint residual client ids are not strictly ascending");
    }
    prev = c;
    const double nu = in.f64();
    if (in.varint() != dim) {
      throw ckpt::CkptError("checkpoint residual has the wrong dim");
    }
    const auto [it, fresh] = into.rows.try_emplace(c);
    if (!fresh) {
      in.skip(4 * dim);
      continue;
    }
    it->second.nu = nu;
    it->second.h = std::make_shared<std::vector<float>>(dim);
    in.get_f32(it->second.h->data(), dim);
  }
}

ErrorFeedback::ErrorFeedback(Mode mode, size_t dim) : mode_(mode), dim_(dim) {
  GLUEFL_CHECK(dim > 0);
  store_.dim = dim;
}

void ErrorFeedback::apply(int client, double nu_now, float* delta) const {
  if (mode_ == Mode::kNone) return;
  const auto it = store_.rows.find(client);
  if (it == store_.rows.end()) return;
  double coef = 1.0;
  if (mode_ == Mode::kRescaled) {
    GLUEFL_CHECK_MSG(nu_now > 0.0, "aggregation weight must be positive");
    coef = it->second.nu / nu_now;
  }
  axpy(static_cast<float>(coef), it->second.h->data(), delta, dim_);
}

void ErrorFeedback::store(int client, double nu_now, const float* residual) {
  if (mode_ == Mode::kNone) return;
  ResidualRow& row = store_.rows[client];
  if (row.h != nullptr && row.h.use_count() == 1) {
    row.h->assign(residual, residual + dim_);
  } else {
    row.h = std::make_shared<std::vector<float>>(residual, residual + dim_);
  }
  row.nu = nu_now;
  row.stamp = ++stamp_;
}

void ErrorFeedback::restore_rows(const ResidualRows& rows) {
  if (rows.dim != dim_) {
    throw ckpt::CkptError("checkpoint error-feedback dim mismatch (" +
                          std::to_string(rows.dim) + " vs " +
                          std::to_string(dim_) + ")");
  }
  for (const auto& [client, row] : rows.rows) {
    if (row.h == nullptr || row.h->size() != dim_) {
      throw ckpt::CkptError("checkpoint residual of client " +
                            std::to_string(client) + " has the wrong dim");
    }
  }
  store_ = rows;
  for (auto& [client, row] : store_.rows) {
    (void)client;
    row.stamp = 0;
  }
}

}  // namespace gluefl
