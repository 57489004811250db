// The byte codec every binary format in the tree is written and read
// with: NCCKPT01 checkpoints, NCBLOB01 artifact blobs, NCSTAT01 stats,
// NCWIRE01 frames, serve job payloads, campaign chunk blobs and the
// cached-result codecs (cache/codec.hpp).
//
// Conventions (DESIGN.md section 13): integers are fixed-width
// little-endian regardless of host order; f64 travels as its IEEE bit
// pattern; a variable-length field is a u64 length followed by its
// bytes, and the reader checks every length and count against the
// bytes it still holds before it allocates; checksums are 64-bit
// FNV-1a.
//
// Header-only and dependency-free on purpose: obs, robust, fabsim and
// core sit below the cache module in the link order and still use it
// (so does cache/hash.hpp, for fnv1a).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nanocost::cache {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;

/// 64-bit FNV-1a over `n` bytes, continuing from the running hash `h`,
/// so one checksum can cover ranges that are not contiguous:
/// fnv1a(b, nb, fnv1a(a, na)) is the hash of a followed by b.
template <typename Byte>
  requires(sizeof(Byte) == 1)
[[nodiscard]] constexpr std::uint64_t fnv1a(const Byte* data, std::size_t n,
                                            std::uint64_t h = kFnv1aOffsetBasis) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint8_t>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// FNV-1a over a string; constexpr, so fault-site names and key tags
/// hash at compile time.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s,
                                            std::uint64_t h = kFnv1aOffsetBasis) noexcept {
  return fnv1a(s.data(), s.size(), h);
}

/// Thrown by ByteReader on truncation, an impossible count, trailing
/// bytes or a field value its struct cannot hold; the message names the
/// byte offset.  Each format's public entry point converts it to the
/// error type it documents.
class DecodeError final : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends little-endian fields to a growing byte vector.
class ByteWriter final {
 public:
  void reserve(std::size_t n) { out_.reserve(n); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  /// One byte, 0 or 1.
  void flag(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Sign-extended to all 8 bytes: job payloads carry i32 fields that way.
  void i32(std::int32_t v) { i64(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Bytes with no length prefix (magics, payloads framed elsewhere).
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + n);
  }
  /// u64 length followed by the raw bytes.
  void bytes(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    raw(v.data(), v.size());
  }
  /// u64 length followed by the raw characters.
  void str(std::string_view v) {
    u64(v.size());
    raw(v.data(), v.size());
  }

  /// Everything written so far, for checksums over a prefix.
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> out_;
};

/// Reads ByteWriter's fields back from bytes it does not own, which
/// must outlive it.  Every read checks the bytes remaining first and
/// throws DecodeError instead of reading past the end, so a malformed
/// input never decodes silently and a corrupt length never drives an
/// allocation.
class ByteReader final {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& blob)
      : ByteReader(blob.data(), blob.size()) {}

  [[nodiscard]] std::uint8_t u8() { return *take(1); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  [[nodiscard]] std::uint64_t u64() { return get(8); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  // Checked narrowing reads.  A field wider on the wire than in its
  // struct holds a malformed input when its value does not fit, not a
  // number to truncate: decoding it must fail rather than hand the
  // caller a different value than the one sent.  `field` names it in
  // the error, with the value and its byte offset.

  /// Counterpart of ByteWriter::i32(): an i64 that must fit int32_t.
  [[nodiscard]] std::int32_t i32(const char* field) {
    const std::size_t at = pos_;
    const std::int64_t v = i64();
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
      throw_out_of_range(field, std::to_string(v), at, "does not fit 32 bits");
    }
    return static_cast<std::int32_t>(v);
  }
  /// A u64 that must fit std::uint32_t.
  [[nodiscard]] std::uint32_t u64_as_u32(const char* field) {
    const std::size_t at = pos_;
    const std::uint64_t v = u64();
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw_out_of_range(field, std::to_string(v), at, "does not fit 32 bits");
    }
    return static_cast<std::uint32_t>(v);
  }
  /// Counterpart of ByteWriter::flag(): one byte that must be 0 or 1.
  [[nodiscard]] bool flag(const char* field) {
    const std::size_t at = pos_;
    const std::uint8_t v = u8();
    if (v > 1) throw_out_of_range(field, std::to_string(v), at, "is neither 0 nor 1");
    return v == 1;
  }

  /// The next `n` bytes, with no length prefix; the pointer stays valid
  /// as long as the underlying bytes do.
  [[nodiscard]] const std::uint8_t* raw(std::uint64_t n) { return take(n); }
  /// Counterpart of ByteWriter::bytes().
  [[nodiscard]] std::vector<std::uint8_t> bytes() {
    const std::uint64_t n = u64();
    const std::uint8_t* p = take(n);
    return std::vector<std::uint8_t>(p, p + n);
  }
  /// Counterpart of ByteWriter::str().
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    return std::string(reinterpret_cast<const char*>(take(n)), static_cast<std::size_t>(n));
  }
  /// A u64 element count, rejected unless that many elements of at
  /// least `min_entry_bytes` (>= 1) each fit in the bytes remaining, so
  /// sizing a container by it is safe.
  [[nodiscard]] std::size_t count(std::size_t min_entry_bytes) {
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    if (n > remaining() / min_entry_bytes) {
      throw DecodeError("blob declares " + std::to_string(n) + " entries at byte " +
                        std::to_string(at) + ", more than its " +
                        std::to_string(remaining()) + " remaining bytes can hold");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

  /// Throws unless every byte was consumed.
  void expect_end() const {
    if (remaining() != 0) {
      throw DecodeError("blob has " + std::to_string(remaining()) + " trailing bytes after byte " +
                        std::to_string(pos_));
    }
  }

 private:
  const std::uint8_t* take(std::uint64_t n) {
    if (n > remaining()) throw_truncated(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += static_cast<std::size_t>(n);
    return p;
  }

  [[noreturn]] static void throw_out_of_range(const char* field, const std::string& value,
                                              std::size_t at, const char* why) {
    throw DecodeError(std::string(field) + " " + value + " at byte " + std::to_string(at) + " " +
                      why);
  }

  [[noreturn]] void throw_truncated(std::uint64_t n) const {
    throw DecodeError("blob truncated at byte " + std::to_string(pos_) + " (needs " +
                      std::to_string(n) + ", has " + std::to_string(remaining()) + ")");
  }

  std::uint64_t get(int width) {
    const std::uint8_t* p = take(static_cast<std::uint64_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace nanocost::cache
