#include "compress/topk.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.h"

namespace gluefl {

namespace {

// Radix select over 32-bit keys in three digits, most significant first:
// key bits 31..21, then 20..10, then 9..0.
constexpr int kHiShift = 21;
constexpr int kMidShift = 10;
constexpr size_t kHiBuckets = size_t{1} << 11;
constexpr size_t kMidBuckets = size_t{1} << 11;
constexpr size_t kLoBuckets = size_t{1} << 10;

// A coordinate's rank key: its IEEE bits with the sign cleared, plus one.
// Key order is |x| order for every non-NaN float (-0 and +0 share a key),
// a NaN ranks above +inf, and 0 stays free to mean "excluded by the mask".
inline uint32_t magnitude_key(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits & 0x7FFFFFFFu) + 1u;
}

// Every coordinate's key plus the histogram of their top digits, filled in
// the one pass that reads x.
struct Keys {
  explicit Keys(size_t n) : key(n) {}
  void add(size_t i, uint32_t k) {
    key[i] = k;
    ++hi[k >> kHiShift];
  }
  std::vector<uint32_t> key;
  std::array<uint32_t, kHiBuckets> hi{};
};

// Returns the bucket holding the `rank`-th largest key (1-based) and leaves
// in `rank` that key's rank within the bucket. Needs rank <= sum(hist).
template <size_t B>
uint32_t descend(const std::array<uint32_t, B>& hist, size_t& rank) {
  size_t b = B - 1;
  while (hist[b] < rank) {
    rank -= hist[b];
    --b;
  }
  return static_cast<uint32_t>(b);
}

// Keeps the k largest keys (k <= the number of non-zero keys), ties at the
// threshold going to the lowest indices, and emits them in index order.
SparseVec select(const float* x, const Keys& keys, size_t k) {
  SparseVec out;
  if (k == 0) return out;
  size_t rank = k;
  const uint32_t hi = descend(keys.hi, rank);
  // Only the threshold's top-digit bucket goes on to the lower digits.
  std::vector<uint32_t> members;
  members.reserve(keys.hi[hi]);
  std::array<uint32_t, kMidBuckets> mid_hist{};
  for (const uint32_t key : keys.key) {
    if ((key >> kHiShift) == hi) {
      members.push_back(key);
      ++mid_hist[(key >> kMidShift) & (kMidBuckets - 1)];
    }
  }
  const uint32_t mid = descend(mid_hist, rank);
  std::array<uint32_t, kLoBuckets> lo_hist{};
  for (const uint32_t key : members) {
    if (((key >> kMidShift) & (kMidBuckets - 1)) == mid) {
      ++lo_hist[key & (kLoBuckets - 1)];
    }
  }
  const uint32_t lo = descend(lo_hist, rank);
  const uint32_t threshold = (hi << kHiShift) | (mid << kMidShift) | lo;

  // Every key above the threshold is kept, plus the first `rank` equal to it.
  out.idx.resize(k);
  out.val.resize(k);
  size_t ties = rank;
  for (size_t i = 0, taken = 0; taken < k; ++i) {
    const uint32_t key = keys.key[i];
    if (key < threshold) continue;
    if (key == threshold) {
      if (ties == 0) continue;
      --ties;
    }
    out.idx[taken] = static_cast<uint32_t>(i);
    out.val[taken] = x[i];
    ++taken;
  }
  return out;
}

}  // namespace

SparseVec top_k_abs(const float* x, size_t n, size_t k) {
  Keys keys(n);
  for (size_t i = 0; i < n; ++i) keys.add(i, magnitude_key(x[i]));
  return select(x, keys, std::min(k, n));
}

SparseVec top_k_abs_masked(const float* x, size_t n, size_t k,
                           const BitMask& allowed) {
  GLUEFL_CHECK(allowed.size() == n);
  Keys keys(n);
  const std::vector<uint64_t>& words = allowed.words();
  for (size_t w = 0; w < words.size(); ++w) {
    const uint64_t bits = words[w];
    const size_t end = std::min(n, w * 64 + 64);
    for (size_t i = w * 64; i < end; ++i) {
      const uint32_t on = static_cast<uint32_t>(bits >> (i % 64)) & 1u;
      keys.add(i, magnitude_key(x[i]) & (0u - on));
    }
  }
  return select(x, keys, std::min(k, allowed.count()));
}

void scatter_add(const SparseVec& s, float scale, float* out) {
  for (size_t i = 0; i < s.idx.size(); ++i) {
    out[s.idx[i]] += scale * s.val[i];
  }
}

}  // namespace gluefl
