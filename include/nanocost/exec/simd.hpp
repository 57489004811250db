// Runtime SIMD lane selection for the SoA batch kernels.
//
// Every batched kernel in the repo (rng_batch, defect sampling, the
// wafer-map site lookup, the kill-probability LUT, the risk sample
// pricer) has two paths: the scalar oracle, which is also the only
// path off x86, and an AVX2 lane that is *bitwise identical* to it --
// the lane restricts itself to IEEE-exact operations (add/sub/mul/div/
// sqrt/min/max/floor and integer arithmetic), which evaluate lane-wise
// exactly like their scalar counterparts, and everything
// transcendental stays on scalar libm in both paths.  The
// level picked here therefore changes *speed only*, never results:
// the PR 1-5 determinism contracts (thread-count invariance, cancel
// frontiers, checkpoint resume) hold at either level.
//
// Selection order: NANOCOST_SIMD=scalar|avx2 if set (clamped to what
// the CPU supports; a malformed value gets one stderr diagnostic, like
// NANOCOST_METRICS), else the best level cpuid reports.
#pragma once

#include <cstdint>

// The x86 gate of every vector lane: GCC and Clang on x86 compile the
// AVX2 lanes through a per-function target attribute, whatever the
// baseline -march, and the lane runs only where cpuid reports AVX2.
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define NANOCOST_X86_SIMD 1
#define NANOCOST_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace nanocost::exec {

/// Instruction-set tiers the batch kernels dispatch over, ordered so
/// numeric comparison means capability comparison.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// The best level this CPU supports (ignores the env override).
[[nodiscard]] SimdLevel detected_simd_level() noexcept;

/// The level batch kernels run at: min(detected, NANOCOST_SIMD
/// override).  Resolved once per process and cached.
[[nodiscard]] SimdLevel simd_level() noexcept;

/// "scalar" / "avx2" -- for logs and BENCH_perf.json.
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

}  // namespace nanocost::exec
