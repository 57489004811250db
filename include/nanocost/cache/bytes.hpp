// The byte codec every binary format in the tree is written and read
// with: NCCKPT02 checkpoints, NCBLOB01 artifact blobs, NCSTAT01 stats,
// NCWIRE01 frames, serve job payloads, campaign chunk blobs and the
// cached-result codecs (cache/codec.hpp).
//
// Conventions (DESIGN.md section 13): integers are fixed-width
// little-endian regardless of host order; f64 travels as its IEEE bit
// pattern; a variable-length field is a u64 length followed by its
// bytes, and the reader checks every length and count against the
// bytes it still holds before it allocates; checksums are checksum64
// (XXH64), chained through its seed.  FNV-1a hashes names: key tags,
// entry points and fault sites (and the NCBLOB01 payload, a format
// nothing in src/ writes).
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

/// 64-bit FNV-1a over `n` bytes, continuing from the running hash `h`:
/// fnv1a(b, nb, fnv1a(a, na)) is the hash of a followed by b.  It
/// hashes names; sealed bytes are checksummed with checksum64 below.
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

namespace detail {

inline constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

// Words are assembled byte by byte, little-endian: the value depends
// neither on alignment nor on host byte order, and compilers fold each
// pattern into one load on little-endian hosts.
[[nodiscard]] constexpr std::uint64_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(p[0]) | static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 | static_cast<std::uint64_t>(p[3]) << 24;
}

[[nodiscard]] constexpr std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return load_le32(p) | load_le32(p + 4) << 32;
}

[[nodiscard]] constexpr std::uint64_t xx_round(std::uint64_t acc, std::uint64_t lane) noexcept {
  return std::rotl(acc + lane * kXxPrime2, 31) * kXxPrime1;
}

[[nodiscard]] constexpr std::uint64_t xx_merge(std::uint64_t h, std::uint64_t acc) noexcept {
  return (h ^ xx_round(0, acc)) * kXxPrime1 + kXxPrime4;
}

}  // namespace detail

/// The checksum of every sealed format (the record, wire frames, stats
/// blobs): XXH64 of `n` bytes under `seed`, as the public XXH64 spec
/// defines it, so any independent XXH64 reproduces it (the empty input
/// at seed 0 is 0xEF46DB3751D8E999).  A checksum over ranges that are
/// not contiguous chains through the seed:
/// checksum64(b, nb, checksum64(a, na)).
[[nodiscard]] constexpr std::uint64_t checksum64(const std::uint8_t* data, std::size_t n,
                                                 std::uint64_t seed = 0) noexcept {
  using namespace detail;
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + n;
  std::uint64_t h = seed + kXxPrime5;
  if (n >= 32) {
    // Four lanes over each 32-byte stripe, then folded into one.
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xx_round(v1, load_le64(p));
      v2 = xx_round(v2, load_le64(p + 8));
      v3 = xx_round(v3, load_le64(p + 16));
      v4 = xx_round(v4, load_le64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xx_merge(h, v1);
    h = xx_merge(h, v2);
    h = xx_merge(h, v3);
    h = xx_merge(h, v4);
  }
  h += static_cast<std::uint64_t>(n);
  // The tail: 8-byte words, at most one 4-byte word, then single bytes.
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ xx_round(0, load_le64(p)), 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le32(p) * kXxPrime1), 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kXxPrime5), 11) * kXxPrime1;
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
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
