#pragma once
// Shared corruption-matrix harness: every strict byte format in the
// repo (NCCKPT02 checkpoints, NCBLOB01 artifact blobs, NCWIRE01
// frames) is held to one uniform standard.  Truncation at every
// boundary, a single bit flip anywhere, trailing garbage, and an
// oversized declared length must each be *rejected with a diagnostic*
// -- never accepted, misparsed, or turned into a giant allocation.
//
// The harness drives the mutations; the caller supplies the format's
// load semantics as a callback returning whether the mutated bytes
// were rejected (and with what diagnostic).  Format-specific exception
// taxonomies live in the callback -- e.g. NCCKPT02 reports magic or
// header damage as CheckpointMismatch but body damage as
// CheckpointCorrupt, and both count as rejection.  Anything the
// callback does not catch propagates as a loud test failure, which is
// exactly what an unexpected exception type deserves.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace nanocost::testing {

/// What one mutated-bytes load attempt produced.
struct CorruptionVerdict final {
  bool rejected = false;    ///< the loader refused the bytes by throwing
  std::string diagnostic;   ///< the exception's message (must be non-empty)
};

/// Given candidate bytes, attempt a full strict load and report the
/// verdict.  File-backed formats write the bytes to their file first;
/// stream formats parse the bytes to exhaustion (so trailing garbage
/// after a valid prefix is still observed).
using CorruptionLoadFn =
    std::function<CorruptionVerdict(const std::vector<std::uint8_t>&)>;

struct CorruptionMatrixOptions final {
  /// Truncation boundaries are visited at this stride (runtime knob;
  /// stride 1 visits literally every boundary).
  std::size_t truncate_stride = 3;
  /// Shortest truncated prefix to test.  Default 1: a zero-byte input
  /// is a format-specific edge (an empty stream is a legal frame
  /// boundary for NCWIRE01), so the matrix starts at one byte.
  std::size_t min_keep = 1;
  /// Bit-flip positions are visited at this stride.
  std::size_t flip_stride = 5;
  /// Which bit to flip at each position.
  std::uint8_t flip_mask = 0x10;
  /// Byte offsets of little-endian u64 length fields.  Each is
  /// overwritten with 2^62 and must be rejected -- before any
  /// allocation of that size is attempted.
  std::vector<std::size_t> u64_length_offsets{};
};

/// Run the full matrix against `good` (which must load cleanly as-is).
/// Every cell must come back rejected with a non-empty diagnostic.
inline void run_corruption_matrix(const std::vector<std::uint8_t>& good,
                                  const CorruptionLoadFn& load,
                                  const CorruptionMatrixOptions& opts = {}) {
  // Sanity: pristine bytes must load, or every "rejection" below is
  // vacuous.
  {
    const CorruptionVerdict v = load(good);
    ASSERT_FALSE(v.rejected) << "pristine bytes were rejected: " << v.diagnostic;
  }
  ASSERT_GE(good.size(), 2u) << "matrix needs at least two bytes to mutate";

  const auto expect_rejected = [&load](const std::vector<std::uint8_t>& bytes,
                                       const std::string& cell) {
    const CorruptionVerdict v = load(bytes);
    EXPECT_TRUE(v.rejected) << cell << " was accepted";
    if (v.rejected) {
      EXPECT_FALSE(v.diagnostic.empty()) << cell << " was rejected without a diagnostic";
    }
  };

  // Truncation at every boundary.
  for (std::size_t keep = opts.min_keep; keep < good.size();
       keep += opts.truncate_stride) {
    const std::vector<std::uint8_t> cut(good.begin(),
                                        good.begin() + static_cast<std::ptrdiff_t>(keep));
    expect_rejected(cut, "truncation to " + std::to_string(keep) + " of " +
                             std::to_string(good.size()) + " bytes");
  }

  // Single bit flip anywhere -- whatever field it lands on (magic,
  // version, type, length, payload, checksum) the loader must refuse.
  for (std::size_t at = 0; at < good.size(); at += opts.flip_stride) {
    std::vector<std::uint8_t> flipped = good;
    flipped[at] = static_cast<std::uint8_t>(flipped[at] ^ opts.flip_mask);
    expect_rejected(flipped, "bit flip at byte " + std::to_string(at));
  }

  // Trailing garbage after an otherwise intact payload.
  {
    std::vector<std::uint8_t> padded = good;
    for (const char c : {'j', 'u', 'n', 'k'}) {
      padded.push_back(static_cast<std::uint8_t>(c));
    }
    expect_rejected(padded, "trailing garbage");
  }

  // Oversized declared length: 2^62 must be rejected up front, not fed
  // to a multi-gigabyte allocation.
  for (const std::size_t off : opts.u64_length_offsets) {
    ASSERT_LE(off + 8, good.size()) << "length-field offset out of range";
    std::vector<std::uint8_t> huge = good;
    for (std::size_t i = 0; i < 8; ++i) huge[off + i] = 0;
    huge[off + 7] = 0x40;  // little-endian 2^62
    expect_rejected(huge, "oversized length field at offset " + std::to_string(off));
  }
}

}  // namespace nanocost::testing
