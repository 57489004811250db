// In-repo 128-bit content hash for cache keys and artifact addresses.
//
// Cache correctness in this codebase rests on "equal inputs collide by
// construction": two processes (possibly on different machines) must
// derive the same digest from the same canonical byte serialization,
// forever.  That rules out std::hash (unspecified, per-process) and any
// third-party dependency; instead we pin the exact MurmurHash3-style
// x64/128 construction below as part of the repository's on-disk
// format, golden-vectored by tests/cache_test.cpp so an accidental
// change to the mixing breaks loudly instead of silently orphaning
// every stored artifact.
//
// Header-only on purpose (it needs only cache/bytes.hpp's fnv1a): the
// low-level stores (robust/artifact_store.hpp) and fabsim's
// configuration digest sit below the cache module in the link order and
// still need Digest128 and KeyBuilder.
#pragma once

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "nanocost/cache/bytes.hpp"

namespace nanocost::cache {

/// Version of the key schema *and* of the kernels' observable outputs.
/// Every digest-derived address (cache keys, artifact-blob chunk keys)
/// folds this in; bump it whenever any kernel changes observable output
/// (a new RNG consumption order, a reassociated reduction, a changed
/// default) and every old key -- in memory or on disk -- misses instead
/// of serving stale bytes.  See cache/key.hpp for the full
/// canonicalization and invalidation policy.
inline constexpr std::uint32_t kKeySchemaVersion = 2;

/// A 128-bit digest.  Ordered and hashable so it can key maps directly.
struct Digest128 final {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] friend constexpr bool operator==(Digest128, Digest128) noexcept = default;
  [[nodiscard]] friend constexpr auto operator<=>(Digest128, Digest128) noexcept = default;

  /// Lowercase fixed-width hex, hi first: the artifact filename form.
  [[nodiscard]] std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t word = i < 8 ? hi : lo;
      const int shift = 8 * (7 - (i & 7));
      const auto byte = static_cast<unsigned>((word >> shift) & 0xFF);
      out[static_cast<std::size_t>(2 * i)] = kDigits[byte >> 4];
      out[static_cast<std::size_t>(2 * i + 1)] = kDigits[byte & 0xF];
    }
    return out;
  }
};

/// std::unordered_map adapter; the digest is already uniform, so the
/// hash is just a lane (mixed with the other so sharding on hi bits and
/// bucketing inside a shard stay independent).
struct DigestHash final {
  [[nodiscard]] std::size_t operator()(const Digest128& d) const noexcept {
    return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9E3779B97F4A7C15ULL));
  }
};

namespace detail {

[[nodiscard]] constexpr std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

/// The x64 finalizer: full avalanche over one word.
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace detail

/// Incremental 128-bit hash (the MurmurHash3 x64/128 construction with
/// a fixed seed).  Feed bytes in any increments; the digest depends
/// only on the concatenated byte stream.
class Hash128 final {
 public:
  Hash128() = default;

  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    total_ += n;
    // Top up a partial 16-byte block first.
    if (pending_ > 0) {
      const std::size_t need = 16 - pending_;
      const std::size_t take = n < need ? n : need;
      std::memcpy(block_ + pending_, p, take);
      pending_ += take;
      p += take;
      n -= take;
      if (pending_ == 16) {
        mix_block(block_);
        pending_ = 0;
      }
    }
    while (n >= 16) {
      mix_block(p);
      p += 16;
      n -= 16;
    }
    if (n > 0) {
      std::memcpy(block_, p, n);
      pending_ = n;
    }
  }

  void update(std::string_view s) { update(s.data(), s.size()); }

  void update_u64(std::uint64_t v) {
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    update(buf, 8);
  }

  /// Digest of everything fed so far; the hasher itself is unchanged,
  /// so callers may keep appending after peeking.
  [[nodiscard]] Digest128 digest() const {
    std::uint64_t h1 = h1_;
    std::uint64_t h2 = h2_;
    // Tail: the pending partial block, zero-padded by construction.
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    for (std::size_t i = 0; i < pending_; ++i) {
      const auto b = static_cast<std::uint64_t>(block_[i]);
      if (i < 8) {
        k1 |= b << (8 * i);
      } else {
        k2 |= b << (8 * (i - 8));
      }
    }
    if (pending_ > 8) {
      k2 *= kC2;
      k2 = detail::rotl64(k2, 33);
      k2 *= kC1;
      h2 ^= k2;
    }
    if (pending_ > 0) {
      k1 *= kC1;
      k1 = detail::rotl64(k1, 31);
      k1 *= kC2;
      h1 ^= k1;
    }
    h1 ^= total_;
    h2 ^= total_;
    h1 += h2;
    h2 += h1;
    h1 = detail::fmix64(h1);
    h2 = detail::fmix64(h2);
    h1 += h2;
    h2 += h1;
    return Digest128{h1, h2};
  }

 private:
  static constexpr std::uint64_t kC1 = 0x87C37B91114253D5ULL;
  static constexpr std::uint64_t kC2 = 0x4CF5AD432745937FULL;
  /// Fixed seed: part of the pinned format (never change without
  /// bumping the key schema version in cache/key.hpp).
  static constexpr std::uint64_t kSeed = 0x6E616E6F636F7374ULL;  // "nanocost"

  void mix_block(const std::uint8_t* p) noexcept {
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    for (int i = 0; i < 8; ++i) {
      k1 |= static_cast<std::uint64_t>(p[i]) << (8 * i);
      k2 |= static_cast<std::uint64_t>(p[8 + i]) << (8 * i);
    }
    k1 *= kC1;
    k1 = detail::rotl64(k1, 31);
    k1 *= kC2;
    h1_ ^= k1;
    h1_ = detail::rotl64(h1_, 27);
    h1_ += h2_;
    h1_ = h1_ * 5 + 0x52DCE729;
    k2 *= kC2;
    k2 = detail::rotl64(k2, 33);
    k2 *= kC1;
    h2_ ^= k2;
    h2_ = detail::rotl64(h2_, 31);
    h2_ += h1_;
    h2_ = h2_ * 5 + 0x38495AB5;
  }

  std::uint64_t h1_ = kSeed;
  std::uint64_t h2_ = kSeed;
  std::uint64_t total_ = 0;
  std::uint8_t block_[16] = {};
  std::size_t pending_ = 0;
};

/// One-shot convenience.
[[nodiscard]] inline Digest128 hash128(const void* data, std::size_t n) {
  Hash128 h;
  h.update(data, n);
  return h.digest();
}

[[nodiscard]] inline Digest128 hash128(std::string_view s) {
  return hash128(s.data(), s.size());
}

/// Builds one canonical key.  Field order is part of the schema: append
/// fields in declaration order of the input struct.
class KeyBuilder final {
 public:
  /// `entry_point` names the computation (e.g. "core.monte_carlo_cost");
  /// two entry points never share keys even on identical inputs.
  explicit KeyBuilder(std::string_view entry_point) {
    hash_.update("NCKEY");
    hash_.update_u64(kKeySchemaVersion);
    hash_.update_u64(fnv1a(entry_point));
  }

  KeyBuilder& f64(std::string_view tag, double v) {
    field(kF64, tag);
    hash_.update_u64(std::bit_cast<std::uint64_t>(v));
    return *this;
  }
  KeyBuilder& u64(std::string_view tag, std::uint64_t v) {
    field(kU64, tag);
    hash_.update_u64(v);
    return *this;
  }
  KeyBuilder& i64(std::string_view tag, std::int64_t v) {
    field(kI64, tag);
    hash_.update_u64(static_cast<std::uint64_t>(v));
    return *this;
  }
  KeyBuilder& i32(std::string_view tag, std::int32_t v) {
    field(kI32, tag);
    hash_.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    return *this;
  }
  KeyBuilder& boolean(std::string_view tag, bool v) {
    field(kBool, tag);
    const std::uint8_t b = v ? 1 : 0;
    hash_.update(&b, 1);
    return *this;
  }
  KeyBuilder& str(std::string_view tag, std::string_view v) {
    field(kStr, tag);
    hash_.update_u64(v.size());
    hash_.update(v);
    return *this;
  }
  /// Embeds a sub-digest (e.g. a recursively hashed layout cell).
  KeyBuilder& sub(std::string_view tag, const Digest128& d) {
    field(kSub, tag);
    hash_.update_u64(d.hi);
    hash_.update_u64(d.lo);
    return *this;
  }

  [[nodiscard]] Digest128 digest() const { return hash_.digest(); }

 private:
  enum TypeCode : std::uint8_t { kF64 = 1, kU64, kI64, kI32, kBool, kStr, kSub };

  void field(TypeCode code, std::string_view tag) {
    const auto c = static_cast<std::uint8_t>(code);
    hash_.update(&c, 1);
    hash_.update_u64(fnv1a(tag));
  }

  Hash128 hash_;
};

}  // namespace nanocost::cache
