// Canonical parameter hashing for the deterministic entry points.
//
// A cache key must equal exactly when the computation's observable
// output equals, and must differ whenever any input that shapes the
// output differs.  PRs 1-6 made every major entry point a pure
// function of its full input struct (bitwise thread-count- and
// SIMD-level-invariant), so the key is simply a versioned, field-tagged
// byte serialization of those inputs fed through the in-repo 128-bit
// hash (cache/hash.hpp):
//
//   key = H( magic, schema version, fnv1a(entry-point name),
//            [type code, fnv1a(tag), value bytes]* )
//
// Canonicalization rules (DESIGN.md section 13):
//   * every field is written explicitly, tagged with the hash of its
//     name -- no struct memcpy, so padding bytes and layout never leak
//     into the key, and reordering or renaming fields changes it loudly;
//   * floating-point values hash by IEEE-754 bit pattern (bit_cast),
//     so +0.0 / -0.0 and NaN payloads are distinct, exactly like the
//     kernels see them;
//   * integers serialize little-endian at fixed width regardless of
//     host; bools as one byte;
//   * aggregate inputs (the fab configuration) hash their full
//     content, not an identity or pointer.
//
// kKeySchemaVersion is the invalidation lever: bump it whenever any
// kernel changes observable output (a new RNG consumption order, a
// reassociated reduction, a changed default), and every old key -- in
// memory or on disk -- misses instead of serving stale bytes.
#pragma once

#include <cstdint>

#include "nanocost/cache/hash.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/core/transistor_cost.hpp"
#include "nanocost/fabsim/simulator.hpp"

namespace nanocost::cache {

// kKeySchemaVersion -- the invalidation lever described above -- and
// KeyBuilder live in cache/hash.hpp next to the pinned hash
// construction, so modules below this one in the link order (the
// artifact tier, fabsim's configuration digest) can use them too.

// ---- Entry-point keys ---------------------------------------------------
// One function per keyed entry point: the three cached spellings
// (cache/cached.hpp) and the fab-lot run the serve daemon coalesces on
// (serve::job_key).  Each hashes the complete input closure of the
// computation, config structs recursively.

/// eq. (4) log sweep: core::sweep_eq4.
[[nodiscard]] Digest128 sweep_eq4_key(const core::Eq4Inputs& inputs, double lo, double hi,
                                      int steps);

/// Monte-Carlo risk propagation: core::monte_carlo_cost.
[[nodiscard]] Digest128 monte_carlo_cost_key(const core::UncertainInputs& inputs, double s_d,
                                             int samples, std::uint64_t seed,
                                             double die_budget);

/// Robust density sweep: core::robust_sd.
[[nodiscard]] Digest128 robust_sd_key(const core::UncertainInputs& inputs, double quantile,
                                      double lo, double hi, int steps, int samples,
                                      std::uint64_t seed);

/// Fabline lot simulation: fabsim::FabSimulator::run.  Hashes the full
/// simulator configuration (FabConfig::digest: wafer, die, size
/// distribution, defect field, representative pattern) plus the run
/// shape.
[[nodiscard]] Digest128 fabsim_run_key(const fabsim::FabConfig& config, std::int64_t n_wafers,
                                       std::uint64_t seed);

}  // namespace nanocost::cache
