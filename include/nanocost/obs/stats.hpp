// NCSTAT01: the portable binary encoding of a MetricsSnapshot, plus the
// snapshot math remote scrapers need (quantiles, deltas).
//
// The serve daemon answers a kStatsRequest with this blob, so it is a
// *wire format* and held to the NCCKPT01/NCWIRE01 strictness standard:
// versioned magic, per-entry field tags, every declared length validated
// against the remaining bytes before any allocation, trailing bytes
// rejected, and a trailing fnv1a checksum so a single bit flip anywhere
// after the magic is caught.  One NCSTAT01 blob (the byte codec's
// conventions, cache/bytes.hpp and DESIGN.md section 13):
//
//   magic   "NCSTAT01"                      8 bytes
//   u32     version (kStatVersion)
//   u64     counter count,   each: u8 tag 0x01, str name, u64 value
//   u64     gauge count,     each: u8 tag 0x02, str name, f64 value (IEEE bits)
//   u64     histogram count, each: u8 tag 0x03, str name,
//             u64 pair count (<= kHistogramBuckets),
//             pairs of (u64 bucket index, u64 count), indices strictly
//             ascending, one per non-empty bucket of the layout,
//             u64 count, u64 sum, u64 min, u64 max
//   u64     fnv1a over everything after the magic (version .. last max)
//
// There is no layout id: the version pins obs/metrics.hpp's layout, so
// changing the layout is another version bump.
//
// Quantile estimation locates the target rank q*count in its bucket,
// interpolates linearly across the bucket's inclusive [lower, upper],
// and clamps to the histogram's exact [min, max].  The estimate and the
// exact order statistic share that bucket, so they differ by less than
// 1/8 of the exact value, and not at all below 16 (DESIGN.md section 15
// states the rule).
//
// Deltas subtract an older scrape from a newer one so scrapers can
// compute rates; the daemon itself never resets counters on scrape.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nanocost/obs/metrics.hpp"

namespace nanocost::obs {

inline constexpr char kStatMagic[8] = {'N', 'C', 'S', 'T', 'A', 'T', '0', '1'};
inline constexpr std::uint32_t kStatVersion = 2;
/// Decode-side sanity cap: a corrupt name length past it is rejected
/// before any allocation is attempted.
inline constexpr std::uint64_t kMaxStatNameBytes = 4096;

/// Thrown on any structural damage to an NCSTAT01 blob.  The message
/// names the offense and where: the field for a bad tag, cap, bucket
/// index or checksum, the byte offset for truncation, an impossible
/// count or trailing bytes.
class StatError final : public std::runtime_error {
 public:
  explicit StatError(const std::string& what) : std::runtime_error(what) {}
};

/// Serializes a snapshot.  Throws StatError on a malformed snapshot (a
/// histogram without kHistogramBuckets counts) -- encode never produces
/// bytes decode would reject.
[[nodiscard]] std::vector<std::uint8_t> encode_stats(const MetricsSnapshot& snap);

/// Strict decode; throws StatError on truncation, bad magic/version,
/// unknown field tags, corrupt lengths, a bucket index out of the layout
/// or out of order, an empty bucket pair, trailing bytes, or a checksum
/// mismatch.
[[nodiscard]] MetricsSnapshot decode_stats(const std::vector<std::uint8_t>& blob);

/// Estimated value at quantile `q` in [0, 1] (clamped).  0 on an empty
/// histogram; see the interpolation rule above.
[[nodiscard]] double histogram_quantile(const HistogramSnapshot& h, double q) noexcept;

struct HistogramQuantiles final {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};
[[nodiscard]] HistogramQuantiles histogram_quantiles(const HistogramSnapshot& h) noexcept;

/// The change from `older` to `newer`: counters and histogram
/// buckets/count/sum subtract (a shrunk value means the server
/// restarted, and the newer value is reported whole); gauges and
/// histogram min/max are levels/lifetime extremes and pass through from
/// `newer`.  Metrics absent from `older` are treated as previously
/// zero; metrics absent from `newer` are dropped.
[[nodiscard]] MetricsSnapshot delta_stats(const MetricsSnapshot& newer,
                                          const MetricsSnapshot& older);

}  // namespace nanocost::obs
