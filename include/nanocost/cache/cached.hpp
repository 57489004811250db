// Cached spellings of the three entry points that have cached callers:
// the served eq4 sweep (serve::execute), and the risk Monte-Carlo and
// robust sweep whose warm hits perf_micro times.
//
// Each *_cached function is observably identical to its plain
// counterpart -- PRs 1-6 made every one of these a pure function of
// its inputs, bitwise invariant under thread count and SIMD level, so
// a hit can return the memoized bytes without qualifying the answer.
// Keys come from cache/key.hpp (and deliberately exclude the thread
// pool and SIMD level: they do not shape the result); values round-trip
// through cache/codec.hpp and live in the process-wide sharded LRU
// (cache/lru.hpp).
//
// On a miss the plain function runs (on the caller's pool as usual),
// the encoded result is inserted, and the *computed* value is returned
// directly -- a miss is never slower than the uncached call by more
// than the encode.  Telemetry: cache.hits / cache.misses /
// cache.insert_bytes counters, and a "cache.lookup" span when tracing.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::cache {

/// core::sweep_eq4, memoized.
[[nodiscard]] std::vector<core::SweepPoint> sweep_eq4_cached(const core::Eq4Inputs& inputs,
                                                             double lo, double hi, int steps,
                                                             exec::ThreadPool* pool = nullptr);

/// core::monte_carlo_cost, memoized.
[[nodiscard]] core::RiskResult monte_carlo_cost_cached(const core::UncertainInputs& inputs,
                                                       double s_d, int samples = 4000,
                                                       std::uint64_t seed = 1,
                                                       double die_budget = 0.0,
                                                       exec::ThreadPool* pool = nullptr);

/// core::robust_sd, memoized.
[[nodiscard]] core::RobustOptimum robust_sd_cached(const core::UncertainInputs& inputs,
                                                   double quantile, double lo, double hi,
                                                   int steps, int samples = 2000,
                                                   std::uint64_t seed = 1,
                                                   exec::ThreadPool* pool = nullptr);

}  // namespace nanocost::cache
