// Runtime SIMD lane selection for the SoA batch kernels.
//
// Every batched kernel in the repo (rng_batch, defect sampling, the
// wafer-map site lookup, the kill-probability LUT, the risk sample
// pricer, the HPWL pin scan) ships a scalar path plus SSE2/AVX2 lanes
// that are *bitwise identical* to it -- the vector lanes restrict
// themselves to IEEE-exact operations (add/sub/mul/div/sqrt/min/max/
// floor and integer arithmetic), which evaluate lane-wise exactly like
// their scalar counterparts, and everything transcendental stays on
// scalar libm in all paths.  The
// level picked here therefore changes *speed only*, never results:
// the PR 1-5 determinism contracts (thread-count invariance, cancel
// frontiers, checkpoint resume) hold at any level.
//
// Selection order: NANOCOST_SIMD=scalar|sse2|avx2 if set (clamped to
// what the CPU supports; a malformed value gets one stderr diagnostic,
// like NANOCOST_METRICS), else the best level cpuid reports.
#pragma once

#include <cstdint>

namespace nanocost::exec {

/// Instruction-set tiers the batch kernels dispatch over, ordered so
/// numeric comparison means capability comparison.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// The best level this CPU supports (ignores the env override).
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The level batch kernels run at: min(detected, NANOCOST_SIMD
/// override).  Resolved once per process and cached.
[[nodiscard]] SimdLevel simd_level() noexcept;

/// "scalar" / "sse2" / "avx2" -- for logs and BENCH_perf.json.
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

}  // namespace nanocost::exec
