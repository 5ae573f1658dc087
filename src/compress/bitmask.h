// Fixed-size bitmap over flat parameter indices.
//
// Masks are the central data structure of GlueFL: the shared mask M_t, the
// per-round changed-position sets recorded by the SyncTracker, and the APF
// frozen set are all BitMasks. Word-parallel union/intersection keep the
// staleness accounting cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gluefl {

class BitMask {
 public:
  BitMask() = default;
  explicit BitMask(size_t n);

  size_t size() const { return n_; }
  bool empty_domain() const { return n_ == 0; }

  void set(size_t i);
  void reset(size_t i);
  bool test(size_t i) const;
  /// Clears all bits (domain size unchanged).
  void clear();
  /// Sets all bits.
  void set_all();
  /// Number of set bits.
  size_t count() const;
  bool any() const;

  BitMask& operator|=(const BitMask& other);
  BitMask& operator&=(const BitMask& other);
  /// this &= ~other
  BitMask& and_not(const BitMask& other);
  /// Flips every bit.
  void flip();

  bool operator==(const BitMask& other) const;

  static BitMask from_indices(size_t n, const std::vector<uint32_t>& idx);
  std::vector<uint32_t> to_indices() const;
  /// The p-th set bit in ascending order (to_indices()[p]) by a popcount
  /// scan over the words; p must be below count().
  size_t select(size_t p) const;

  /// |a & b| without materializing the intersection.
  static size_t intersection_count(const BitMask& a, const BitMask& b);

  /// Calls f(index) for every set bit in ascending order.
  template <typename F>
  void for_each_set(F&& f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        f(w * 64 + static_cast<size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Wire size of the bitmap encoding in bytes.
  size_t wire_bytes() const { return (n_ + 7) / 8; }

  /// Read-only word view: bit i is bit i % 64 of word i / 64, and the
  /// padding bits past size() are always clear.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;

  void check_compatible(const BitMask& other) const;
};

}  // namespace gluefl
