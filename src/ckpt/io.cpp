#include "ckpt/io.h"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>

#if defined(GLUEFL_CKPT_PCLMUL)
#include "ckpt/crc32_fold.h"
#endif

namespace gluefl::ckpt {

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial: t[0] is the
// classic bytewise table, and t[j][b] is the CRC register after byte b is
// followed by j zero bytes, so eight bytes fold in with eight lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t j = 1; j < 8; ++j) {
    for (size_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}

uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Slicing-by-8 over the CRC register `c` (between the pre- and
// post-inversion): eight bytes per step, then a bytewise tail.
uint32_t slice8(const uint8_t* data, size_t size, uint32_t c) {
  static const CrcTables t = make_crc_tables();
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const uint32_t lo = c ^ load_le32(data + i);
    const uint32_t hi = load_le32(data + i + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < size; ++i) c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c;
}

[[noreturn]] void fail(const std::string& msg) { throw CkptError(msg); }

/// LEB128 decode over any byte source; shared by Reader and CrcIn.
template <typename NextByte>
uint64_t read_varint(NextByte next) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const uint8_t b = next();
    // Same guard as the wire codec: the 10th byte only has one payload bit
    // left in a u64 — out-of-range varints must not alias to small values.
    if (shift >= 63 && (b & 0x7e) != 0) fail("varint overflows 64 bits");
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  fail("varint overflows 64 bits");
}

uint64_t checked_max(uint64_t v, uint64_t max, const char* what) {
  if (v > max) {
    fail(std::string("implausible ") + what + " in checkpoint (" +
         std::to_string(v) + " > " + std::to_string(max) + ")");
  }
  return v;
}

}  // namespace

uint32_t crc32(const uint8_t* data, size_t size, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
#if defined(GLUEFL_CKPT_PCLMUL)
  // crc32_pclmul.cpp is built with -mpclmul, which adds PCLMULQDQ to the
  // x86-64 baseline (SSE2), so PCLMULQDQ is the one extension to check.
  static const bool has_fold = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  // The fold takes the whole 16-byte blocks and hands slicing-by-8 the
  // register and the last 0..15 bytes.
  if (has_fold && size >= 64) {
    const size_t n = size & ~size_t{15};
    c = detail::crc32_fold_pclmul(data, n, c);
    data += n;
    size -= n;
  }
#endif
  return slice8(data, size, c) ^ 0xFFFFFFFFu;
}

namespace detail {

uint32_t crc32_portable(const uint8_t* data, size_t size, uint32_t crc) {
  return slice8(data, size, crc ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

}  // namespace detail

uint64_t regular_file_size(const std::string& path, const std::string& what) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec || !fs::exists(st)) fail(what + " '" + path + "' cannot be read");
  if (!fs::is_regular_file(st)) {
    fail(what + " '" + path + "' is not a regular file");
  }
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) fail(what + " '" + path + "' cannot be read");
  return static_cast<uint64_t>(size);
}

void Writer::u16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v & 0xff));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Writer::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::varint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Writer::f32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  u32(bits);
}

void Writer::f64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}

void Writer::bytes(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void Writer::str(const std::string& s) {
  varint(s.size());
  bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void Writer::blob(const std::vector<uint8_t>& b) {
  varint(b.size());
  bytes(b.data(), b.size());
}

void Writer::f32s(const float* v, size_t n) {
  varint(n);
  // The format is little-endian IEEE bit patterns, which on LE hosts is
  // exactly the in-memory layout — one bulk insert instead of 4n
  // push_backs (the model tensor rides this on the round-boundary hot
  // path).
  if constexpr (std::endian::native == std::endian::little) {
    const uint8_t* raw = reinterpret_cast<const uint8_t*>(v);
    buf_.insert(buf_.end(), raw, raw + n * 4);
  } else {
    for (size_t i = 0; i < n; ++i) f32(v[i]);
  }
}

void Reader::need(size_t n) const {
  if (n > left_) fail("truncated checkpoint data");
}

uint8_t Reader::u8() {
  need(1);
  --left_;
  return *p_++;
}

uint16_t Reader::u16() {
  need(2);
  const uint16_t v = static_cast<uint16_t>(p_[0] | (p_[1] << 8));
  p_ += 2;
  left_ -= 2;
  return v;
}

uint32_t Reader::u32() {
  need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  left_ -= 4;
  return v;
}

uint64_t Reader::u64() {
  need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  left_ -= 8;
  return v;
}

uint64_t Reader::varint() {
  return read_varint([this] { return u8(); });
}

uint64_t Reader::varint_max(uint64_t max, const char* what) {
  return checked_max(varint(), max, what);
}

float Reader::f32() {
  const uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

double Reader::f64() {
  const uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

const uint8_t* Reader::bytes(size_t n) {
  need(n);
  const uint8_t* q = p_;
  p_ += n;
  left_ -= n;
  return q;
}

std::string Reader::str() {
  // A length never exceeds what is physically left, so hostile varints
  // fail before the allocation they would have sized.
  const size_t n = static_cast<size_t>(varint_max(left_, "string length"));
  const uint8_t* q = bytes(n);
  return std::string(reinterpret_cast<const char*>(q), n);
}

std::vector<uint8_t> Reader::blob() {
  const size_t n = static_cast<size_t>(varint_max(left_, "blob length"));
  const uint8_t* q = bytes(n);
  return std::vector<uint8_t>(q, q + n);
}

std::vector<float> Reader::f32s() {
  const size_t n =
      static_cast<size_t>(varint_max(left_ / 4, "float-array length"));
  std::vector<float> out(n);
  if constexpr (std::endian::native == std::endian::little) {
    // An empty array has no buffer; memcpy must not see its null data().
    const uint8_t* src = bytes(n * 4);
    if (n != 0) std::memcpy(out.data(), src, n * 4);
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = f32();
  }
  return out;
}

void Reader::expect_end(const char* what) const {
  if (left_ != 0) {
    fail(std::string("trailing bytes after ") + what + " section");
  }
}

void CrcOut::put(const uint8_t* data, size_t n) {
  os_.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n));
  crc_ = crc32(data, n, crc_);
  count_ += n;
}

void CrcOut::put(Writer& w) {
  put(w.buffer().data(), w.size());
  w.clear();
}

void CrcOut::put_f32(const float* v, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    put(reinterpret_cast<const uint8_t*>(v), n * 4);
  } else {
    Writer w;
    for (size_t i = 0; i < n; ++i) w.f32(v[i]);
    put(w);
  }
}

void CrcIn::get(uint8_t* dst, size_t n) {
  if (n > left_) fail("truncated checkpoint data");
  is_.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (is_.gcount() != static_cast<std::streamsize>(n)) {
    fail("truncated checkpoint data");
  }
  crc_ = crc32(dst, n, crc_);
  left_ -= n;
}

uint8_t CrcIn::u8() {
  uint8_t b = 0;
  get(&b, 1);
  return b;
}

uint32_t CrcIn::u32() {
  uint8_t b[4];
  get(b, 4);
  return load_le32(b);
}

uint64_t CrcIn::u64() {
  uint8_t b[8];
  get(b, 8);
  return static_cast<uint64_t>(load_le32(b)) |
         static_cast<uint64_t>(load_le32(b + 4)) << 32;
}

uint64_t CrcIn::varint() {
  return read_varint([this] { return u8(); });
}

uint64_t CrcIn::varint_max(uint64_t max, const char* what) {
  return checked_max(varint(), max, what);
}

double CrcIn::f64() {
  const uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

void CrcIn::get_f32(float* dst, size_t n) {
  if (n > left_ / 4) fail("truncated checkpoint data");
  uint8_t* raw = reinterpret_cast<uint8_t*>(dst);
  get(raw, n * 4);
  if constexpr (std::endian::native != std::endian::little) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t bits = load_le32(raw + 4 * i);
      std::memcpy(dst + i, &bits, 4);
    }
  }
}

void CrcIn::skip(size_t n) {
  if (n > left_) fail("truncated checkpoint data");
  scratch_.resize(n);
  get(scratch_.data(), n);
}

void CrcIn::limit(uint64_t n) {
  if (n > left_) fail("truncated checkpoint data");
  left_ = n;
}

}  // namespace gluefl::ckpt
