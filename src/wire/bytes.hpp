#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace bba::wire {

/// ZigZag mapping: interleaves negative values into the unsigned range so
/// small-magnitude signed quantities stay short under varint coding.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Append-only sink for wire encoding. Writes are infallible (the backing
/// vector grows); all multi-byte fixed-width integers are little-endian so
/// the format is byte-order independent.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u32le(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
  }

  /// LEB128 base-128 varint: 7 value bits per byte, high bit = continue.
  /// 1–10 bytes for a 64-bit value.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  /// ZigZag-mapped varint for signed quantities.
  void svarint(std::int64_t v) { varint(zigzag(v)); }

  void u64le(std::uint64_t v) {
    u32le(static_cast<std::uint32_t>(v));
    u32le(static_cast<std::uint32_t>(v >> 32));
  }

  /// IEEE-754 doubles/floats, bit pattern little-endian (exact round
  /// trip; used by the dataset serializer, not the quantized V2V path).
  void f64le(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64le(bits);
  }
  void f32le(float v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u32le(bits);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] std::vector<std::uint8_t>& buffer() { return out_; }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked cursor over immutable bytes. Every read either succeeds
/// and advances, or returns false and leaves the cursor where it was — the
/// reader never reads out of bounds and never throws, which is what makes
/// the decoders built on it safe on adversarial input.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }

  [[nodiscard]] bool u32le(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = static_cast<std::uint32_t>(data_[pos_]) |
        static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
        static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
        static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return true;
  }

  /// Strict varint decode: at most 10 bytes, and the 10th byte may only
  /// carry the single bit 64-bit values have left — overlong or overflowing
  /// encodings are rejected rather than silently wrapped.
  [[nodiscard]] bool varint(std::uint64_t& v) {
    std::uint64_t acc = 0;
    const std::size_t start = pos_;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (remaining() < 1) {
        pos_ = start;
        return false;
      }
      const std::uint8_t b = data_[pos_++];
      if (shift == 63 && (b & 0x7E) != 0) {
        pos_ = start;
        return false;
      }
      acc |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        v = acc;
        return true;
      }
    }
    pos_ = start;
    return false;
  }

  [[nodiscard]] bool svarint(std::int64_t& v) {
    std::uint64_t raw = 0;
    if (!varint(raw)) return false;
    v = unzigzag(raw);
    return true;
  }

  [[nodiscard]] bool u64le(std::uint64_t& v) {
    std::uint32_t lo = 0, hi = 0;
    if (remaining() < 8) return false;
    (void)u32le(lo);
    (void)u32le(hi);
    v = static_cast<std::uint64_t>(lo) |
        (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }

  [[nodiscard]] bool f64le(double& v) {
    std::uint64_t bits = 0;
    if (!u64le(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  [[nodiscard]] bool f32le(float& v) {
    std::uint32_t bits = 0;
    if (!u32le(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  [[nodiscard]] bool skip(std::size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace bba::wire
