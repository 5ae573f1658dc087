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
#include <iosfwd>
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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes;
/// the value is the bytewise definition's. On a CPU with PCLMULQDQ a
/// carry-less-multiply fold takes the whole 16-byte blocks of an input of
/// 64 bytes or more, and slicing-by-8 the rest (DESIGN.md §8). Passing the
/// CRC of the bytes that precede `data` as `crc` continues it, so
/// crc32(b, nb, crc32(a, na)) is the CRC of a followed by b.
uint32_t crc32(const uint8_t* data, size_t size, uint32_t crc = 0);

namespace detail {
/// crc32 by slicing-by-8 alone, on every CPU: the tests' oracle for the
/// fold.
uint32_t crc32_portable(const uint8_t* data, size_t size, uint32_t crc = 0);
}  // namespace detail

/// Size of the regular file at `path`. A missing or unreadable path, or
/// one that is not a regular file (a directory, a FIFO), fails as one
/// CkptError line naming `what`, so no reader sizes a buffer from an
/// unchecked tellg().
uint64_t regular_file_size(const std::string& path, const std::string& what);

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
  void clear() { buf_.clear(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Streams bytes into an std::ostream, folding each one into a running
/// CRC-32 and a byte count. The residual journal puts a record's small
/// fields through a Writer and its rows straight from memory, so no copy
/// of a whole record ever exists (DESIGN.md §8).
class CrcOut {
 public:
  explicit CrcOut(std::ostream& os) : os_(os) {}

  void put(const uint8_t* data, size_t n);
  /// Puts the bytes staged in `w`, then clears it.
  void put(Writer& w);
  /// `n` raw f32 bit patterns, little-endian (no count).
  void put_f32(const float* v, size_t n);

  uint32_t crc() const { return crc_; }
  uint64_t count() const { return count_; }

 private:
  std::ostream& os_;
  uint32_t crc_ = 0;
  uint64_t count_ = 0;
};

/// Reads an std::istream with Reader's discipline — every read is checked
/// against a byte limit, and truncation fails as CkptError — while folding
/// each byte into a running CRC-32. Large arrays land straight in the
/// caller's memory.
class CrcIn {
 public:
  CrcIn(std::istream& is, uint64_t limit) : is_(is), left_(limit) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  uint64_t varint();
  uint64_t varint_max(uint64_t max, const char* what);
  double f64();
  /// `n` raw little-endian f32 bit patterns (no count) into `dst`.
  void get_f32(float* dst, size_t n);
  /// Reads and checksums `n` bytes without keeping them.
  void skip(size_t n);

  uint64_t remaining() const { return left_; }
  /// Narrows the limit to the next `n` bytes; they must fit the current one.
  void limit(uint64_t n);
  uint32_t crc() const { return crc_; }

 private:
  void get(uint8_t* dst, size_t n);

  std::istream& is_;
  uint64_t left_;
  uint32_t crc_ = 0;
  std::vector<uint8_t> scratch_;
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
