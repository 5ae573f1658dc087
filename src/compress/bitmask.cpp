#include "compress/bitmask.h"

#include <algorithm>

#include "common/check.h"

namespace gluefl {

BitMask::BitMask(size_t n) : n_(n), words_((n + 63) / 64, 0) {}

void BitMask::set(size_t i) {
  GLUEFL_CHECK(i < n_);
  words_[i / 64] |= (uint64_t{1} << (i % 64));
}

void BitMask::reset(size_t i) {
  GLUEFL_CHECK(i < n_);
  words_[i / 64] &= ~(uint64_t{1} << (i % 64));
}

bool BitMask::test(size_t i) const {
  GLUEFL_CHECK(i < n_);
  return (words_[i / 64] >> (i % 64)) & 1;
}

void BitMask::clear() { std::fill(words_.begin(), words_.end(), 0); }

void BitMask::set_all() {
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  // Clear padding bits past n_.
  const size_t rem = n_ % 64;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

size_t BitMask::count() const {
  size_t c = 0;
  for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
  return c;
}

bool BitMask::any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

void BitMask::check_compatible(const BitMask& other) const {
  GLUEFL_CHECK_MSG(n_ == other.n_, "BitMask domain size mismatch");
}

BitMask& BitMask::operator|=(const BitMask& other) {
  check_compatible(other);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitMask& BitMask::operator&=(const BitMask& other) {
  check_compatible(other);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitMask& BitMask::and_not(const BitMask& other) {
  check_compatible(other);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

void BitMask::flip() {
  for (auto& w : words_) w = ~w;
  const size_t rem = n_ % 64;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

bool BitMask::operator==(const BitMask& other) const {
  return n_ == other.n_ && words_ == other.words_;
}

BitMask BitMask::from_indices(size_t n, const std::vector<uint32_t>& idx) {
  BitMask m(n);
  for (uint32_t i : idx) m.set(i);
  return m;
}

std::vector<uint32_t> BitMask::to_indices() const {
  std::vector<uint32_t> out;
  out.reserve(count());
  for_each_set([&out](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
  return out;
}

size_t BitMask::select(size_t p) const {
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    const auto c = static_cast<size_t>(__builtin_popcountll(bits));
    if (p < c) {
      for (; p > 0; --p) bits &= bits - 1;
      return w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
    }
    p -= c;
  }
  GLUEFL_CHECK_MSG(false, "BitMask::select past the last set bit");
  return n_;
}

size_t BitMask::intersection_count(const BitMask& a, const BitMask& b) {
  a.check_compatible(b);
  size_t c = 0;
  for (size_t i = 0; i < a.words_.size(); ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a.words_[i] & b.words_[i]));
  }
  return c;
}

}  // namespace gluefl
