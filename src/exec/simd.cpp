#include "nanocost/exec/simd.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>

namespace nanocost::exec {

namespace {

#if defined(NANOCOST_X86_SIMD)
SimdLevel probe_cpu() noexcept {
  return __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}
#else
SimdLevel probe_cpu() noexcept { return SimdLevel::kScalar; }
#endif

/// Parses NANOCOST_SIMD and clamps to what the CPU can run.  Exactly
/// one diagnostic on a malformed value (the NANOCOST_METRICS pattern);
/// the override then falls back to auto-detection.
SimdLevel resolve_level() noexcept {
  const SimdLevel detected = probe_cpu();
  const char* env = std::getenv("NANOCOST_SIMD");
  if (env == nullptr) return detected;
  const std::string_view v(env);
  SimdLevel wanted = detected;
  if (v == "scalar") {
    wanted = SimdLevel::kScalar;
  } else if (v == "avx2") {
    wanted = SimdLevel::kAvx2;
  } else if (!v.empty()) {
    std::fprintf(stderr,
                 "nanocost: NANOCOST_SIMD='%s' is not a recognised level "
                 "(use scalar/avx2); using auto-detection\n",
                 env);
    return detected;
  }
  if (wanted > detected) {
    std::fprintf(stderr,
                 "nanocost: NANOCOST_SIMD='%s' exceeds what this CPU supports; "
                 "clamping to %s\n",
                 env, simd_level_name(detected));
    return detected;
  }
  return wanted;
}

}  // namespace

SimdLevel detected_simd_level() noexcept { return probe_cpu(); }

SimdLevel simd_level() noexcept {
  // std::once keeps the env parse (and its diagnostic) single-shot even
  // when the first calls race on the worker pool.
  static SimdLevel level = SimdLevel::kScalar;
  static std::once_flag once;
  std::call_once(once, [] { level = resolve_level(); });
  return level;
}

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

}  // namespace nanocost::exec
