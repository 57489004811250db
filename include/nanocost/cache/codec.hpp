// Byte codec for entry-point results.
//
// The three cached results (cache/cached.hpp) travel through the
// in-memory LRU as flat little-endian byte blobs, and the served
// replies carry the same bytes.  fabsim::LotResult is not cached: its
// codec is the served campaign's result format and the bytes behind
// the fabline example's lot digest.  Flat bytes, because the result
// structs hold std::vectors and unit wrappers whose in-memory
// representation is neither contiguous nor portable.  The encoding is
// the identity on information: decode(encode(r)) reproduces r field
// for field, floats by IEEE bit pattern, so "cache hit equals cold
// recompute" can be checked by memcmp on encoded bytes
// (tests/cache_test.cpp does exactly that).
//
// Layout per type: fields in struct declaration order, written with
// the shared byte codec (cache/bytes.hpp states its conventions);
// vectors as a u64 count followed by elements.  The encoding is
// versioned implicitly through cache/key.hpp's kKeySchemaVersion --
// keys and blobs invalidate together.  Decoders throw std::runtime_error
// (the codec's DecodeError) on truncation or trailing bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/fabsim/simulator.hpp"

namespace nanocost::cache {

// ---- Result codecs ------------------------------------------------------
// One encode/decode pair per result type: the three cached results,
// then the served campaign's lot.

[[nodiscard]] std::vector<std::uint8_t> encode(const core::RiskResult& r);
[[nodiscard]] core::RiskResult decode_risk_result(const std::vector<std::uint8_t>& blob);

[[nodiscard]] std::vector<std::uint8_t> encode(const core::RobustOptimum& r);
[[nodiscard]] core::RobustOptimum decode_robust_optimum(const std::vector<std::uint8_t>& blob);

[[nodiscard]] std::vector<std::uint8_t> encode(const std::vector<core::SweepPoint>& r);
[[nodiscard]] std::vector<core::SweepPoint> decode_sweep_points(
    const std::vector<std::uint8_t>& blob);

[[nodiscard]] std::vector<std::uint8_t> encode(const fabsim::LotResult& r);
[[nodiscard]] fabsim::LotResult decode_lot_result(const std::vector<std::uint8_t>& blob);

}  // namespace nanocost::cache
