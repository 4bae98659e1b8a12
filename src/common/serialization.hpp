// Byte-oriented serialization for messages and debugger commands.
//
// The wire format is simple and explicit: little-endian fixed-width
// integers, LEB128 varints for counts, length-prefixed strings.  Every
// payload that crosses a channel in this library is encoded through
// ByteWriter and decoded through ByteReader, which does strict bounds
// checking and reports malformed input through Result rather than UB.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace ddbg {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  // Encode into an existing buffer, appending after its current contents
  // (e.g. a pooled frame that already holds a length-prefix placeholder).
  // The writer must not outlive `external`; take() is owning-mode only.
  explicit ByteWriter(Bytes& external) : out_(&external) {}

  // Every primitive below grows the buffer once per field (not once per
  // byte) and writes through a raw pointer; the bytes are the same as a
  // byte-at-a-time append.

  void u8(std::uint8_t v) { buf().push_back(v); }

  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  // Unsigned LEB128.
  void varint(std::uint64_t v) {
    Bytes& b = buf();
    const std::size_t at = b.size();
    b.resize(at + varint_size(v));
    put_varint(b.data() + at, v);
  }

  // values.size() consecutive varints (no count prefix): one growth for
  // the whole run, so a vector clock costs one capacity check, not one
  // per byte.
  void varints(std::span<const std::uint64_t> values) {
    Bytes& b = buf();
    const std::size_t at = b.size();
    b.resize(at + values.size() * kMaxVarintBytes);
    std::uint8_t* const out = b.data() + at;
    std::size_t n = 0;
    for (const std::uint64_t v : values) n += put_varint(out + n, v);
    b.resize(at + n);
  }

  void str(std::string_view s) {
    varint(s.size());
    buf().insert(buf().end(), s.begin(), s.end());
  }

  void bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    buf().insert(buf().end(), data.begin(), data.end());
  }

  [[nodiscard]] Bytes take() && { return std::move(own_); }
  [[nodiscard]] const Bytes& buffer() const {
    return out_ != nullptr ? *out_ : own_;
  }
  // In external mode this includes whatever the buffer held before the
  // writer was attached.
  [[nodiscard]] std::size_t size() const { return buffer().size(); }

 private:
  // Longest unsigned LEB128 encoding of a u64.
  static constexpr std::size_t kMaxVarintBytes = 10;

  [[nodiscard]] Bytes& buf() { return out_ != nullptr ? *out_ : own_; }

  // Bytes in v's LEB128 encoding: one per started 7 bits, 1 for zero.
  static std::size_t varint_size(std::uint64_t v) {
    return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
  }

  // Writes v's LEB128 bytes at `out` (room for kMaxVarintBytes); returns
  // how many it wrote.
  static std::size_t put_varint(std::uint8_t* out, std::uint64_t v) {
    std::size_t n = 0;
    while (v >= 0x80) {
      out[n++] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    out[n++] = static_cast<std::uint8_t>(v);
    return n;
  }

  template <typename T>
  void append_le(T v) {
    Bytes& b = buf();
    const std::size_t at = b.size();
    b.resize(at + sizeof(T));
    std::uint8_t* const out = b.data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  Bytes own_;
  Bytes* out_ = nullptr;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8() {
    if (pos_ + 1 > data_.size()) return underflow("u8");
    return data_[pos_++];
  }

  [[nodiscard]] Result<std::uint16_t> u16() { return read_le<std::uint16_t>(); }
  [[nodiscard]] Result<std::uint32_t> u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] Result<std::uint64_t> u64() { return read_le<std::uint64_t>(); }

  [[nodiscard]] Result<std::int64_t> i64() {
    auto r = u64();
    if (!r.ok()) return r.error();
    return static_cast<std::int64_t>(r.value());
  }

  [[nodiscard]] Result<double> f64() {
    auto r = u64();
    if (!r.ok()) return r.error();
    double v;
    std::uint64_t bits = r.value();
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] Result<std::uint64_t> varint() {
    std::uint64_t v = 0;
    if (const VarintFault fault = get_varint(v); fault != VarintFault::kNone) {
      return varint_error(fault);
    }
    return v;
  }

  // Reads out.size() consecutive varints (the counterpart of
  // ByteWriter::varints), with varint()'s checks and error texts.  Size
  // `out` from count() so a hostile count cannot force a large allocation.
  [[nodiscard]] Status varints(std::span<std::uint64_t> out) {
    for (std::uint64_t& v : out) {
      if (const VarintFault fault = get_varint(v);
          fault != VarintFault::kNone) {
        return varint_error(fault);
      }
    }
    return Status::ok_status();
  }

  [[nodiscard]] Result<std::string> str() {
    auto len = varint();
    if (!len.ok()) return len.error();
    // Compare against remaining(): `pos_ + len` wraps for lengths near
    // UINT64_MAX and would pass the check.
    if (len.value() > remaining()) return underflow("str");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                    len.value());
    pos_ += len.value();
    return out;
  }

  [[nodiscard]] Result<Bytes> bytes() {
    auto len = varint();
    if (!len.ok()) return len.error();
    if (len.value() > remaining()) return underflow("bytes");
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len.value()));
    pos_ += len.value();
    return out;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  // Read an element count and validate it against the remaining buffer
  // (every element occupies at least one byte), so malicious counts cannot
  // drive huge allocations before the per-element reads fail.
  [[nodiscard]] Result<std::uint64_t> count() {
    auto n = varint();
    if (!n.ok()) return n.error();
    if (n.value() > remaining()) {
      return Error(ErrorCode::kParseError, "count exceeds buffer");
    }
    return n;
  }

 private:
  enum class VarintFault : std::uint8_t {
    kNone,
    kUnderflow,
    kTooLong,
    kOverflow,
  };

  // Decodes one varint into `out` and advances past it; on a fault the
  // position is left wherever the scan stopped (callers then discard the
  // reader's result).
  VarintFault get_varint(std::uint64_t& out) {
    if (pos_ < data_.size() && data_[pos_] < 0x80) {
      out = data_[pos_++];
      return VarintFault::kNone;
    }
    std::uint64_t result = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) return VarintFault::kUnderflow;
      if (shift >= 64) return VarintFault::kTooLong;
      const std::uint8_t byte = data_[pos_++];
      if (shift == 63 && (byte & 0x7e) != 0) {
        // Tenth byte: only its low bit lands inside a u64.  Shifting the
        // rest away would silently accept a value that doesn't round-trip.
        return VarintFault::kOverflow;
      }
      result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        out = result;
        return VarintFault::kNone;
      }
      shift += 7;
    }
  }

  Error varint_error(VarintFault fault) const {
    switch (fault) {
      case VarintFault::kTooLong:
        return Error(ErrorCode::kParseError, "varint too long");
      case VarintFault::kOverflow:
        return Error(ErrorCode::kParseError, "varint overflows 64 bits");
      case VarintFault::kUnderflow:
      case VarintFault::kNone:
        break;
    }
    return underflow("varint");
  }

  template <typename T>
  Result<T> read_le() {
    if (sizeof(T) > remaining()) return underflow("fixed int");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  Error underflow(const char* what) const {
    return Error(ErrorCode::kParseError,
                 std::string("buffer underflow reading ") + what);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ddbg
