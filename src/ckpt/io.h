// Binary snapshot primitives for the checkpoint subsystem (DESIGN.md §8).
//
// Writer/Reader share the wire codec's byte conventions — little-endian
// fixed-width integers, LEB128 varints, IEEE bit patterns for floats — so
// a checkpoint is read with the same discipline as an update frame: every
// read is bounds-checked and malformed input fails as CkptError, never as
// out-of-bounds access or a silently-trusted huge allocation.
//
// Layering: this header depends only on common/check.h. Stateful
// components (SyncTracker, ErrorFeedback, StickySampler, AsyncRunState,
// the strategies) implement save_state(Writer&)/restore_state(Reader&)
// against these primitives; ckpt/checkpoint.h assembles the sections into
// the CRC-guarded snapshot file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gluefl::ckpt {

/// Thrown for any malformed, truncated, corrupt or version-mismatched
/// checkpoint input. Messages are one clean line (no file:line noise) so
/// the CLI can surface them verbatim.
class CkptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes,
/// computed slicing-by-8; the value is the bytewise definition's.
uint32_t crc32(const uint8_t* data, size_t size);

/// Bytes Writer::varint(v) appends (1..10).
inline size_t varint_size(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Ceiling for varint_max on values destined for an `int`: INT_MAX, so a
/// hostile 2^31 can never pass the guard and wrap to INT_MIN in the cast.
inline constexpr uint64_t kIntCap = (uint64_t{1} << 31) - 1;

class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void varint(uint64_t v);
  /// IEEE bit patterns: NaNs (RoundRecord's unevaluated accuracies) and
  /// negative zeros round-trip exactly.
  void f32(float v);
  void f64(double v);
  void bytes(const uint8_t* data, size_t n);
  /// varint length + raw bytes.
  void str(const std::string& s);
  void blob(const std::vector<uint8_t>& b);
  /// varint count + raw f32 bit patterns.
  void f32s(const float* v, size_t n);
  /// Makes room for `more` bytes past the current size (a no-op when the
  /// buffer already has it), so a large section whose size is known up
  /// front is appended without regrowing, and recopying, the buffer.
  void reserve(size_t more) { buf_.reserve(buf_.size() + more); }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), left_(size) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  uint64_t varint();
  /// varint that must fit the given ceiling (guards element counts against
  /// hostile lengths BEFORE any allocation happens).
  uint64_t varint_max(uint64_t max, const char* what);
  float f32();
  double f64();
  const uint8_t* bytes(size_t n);
  std::string str();
  std::vector<uint8_t> blob();
  std::vector<float> f32s();

  size_t remaining() const { return left_; }
  /// Fails unless the section was consumed exactly.
  void expect_end(const char* what) const;

 private:
  void need(size_t n) const;

  const uint8_t* p_;
  size_t left_;
};

}  // namespace gluefl::ckpt
