#include "nanocost/cache/cached.hpp"

#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/key.hpp"
#include "nanocost/cache/lru.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"

namespace nanocost::cache {

namespace {

struct CacheMetrics {
  obs::Counter& hits = obs::counter("cache.hits");
  obs::Counter& misses = obs::counter("cache.misses");
  obs::Counter& insert_bytes = obs::counter("cache.insert_bytes");
};

/// The one hit-or-compute shape every cached spelling instantiates:
/// lookup, decode on hit; compute, encode, insert, return the computed
/// value on miss.  `compute` runs outside any lock.
template <typename Decode, typename Compute>
auto hit_or_compute(const Digest128& key, Decode decode, Compute compute) {
  std::vector<std::uint8_t> blob;
  bool hit = false;
  {
    obs::ObsSpan span("cache.lookup");
    span.arg("key_hi", key.hi);
    hit = global_result_cache().lookup(key, blob);
    span.arg("hit", hit ? 1 : 0);
  }
  if (hit) {
    if (auto* m = obs::metrics_table<CacheMetrics>()) m->hits.add();
    return decode(blob);
  }
  auto result = compute();
  std::vector<std::uint8_t> encoded = encode(result);
  const std::size_t bytes = encoded.size();
  global_result_cache().insert(key, encoded);
  if (auto* m = obs::metrics_table<CacheMetrics>()) {
    m->misses.add();
    m->insert_bytes.add(static_cast<std::uint64_t>(bytes));
  }
  return result;
}

}  // namespace

std::vector<core::SweepPoint> sweep_eq4_cached(const core::Eq4Inputs& inputs, double lo,
                                               double hi, int steps, exec::ThreadPool* pool) {
  return hit_or_compute(
      sweep_eq4_key(inputs, lo, hi, steps),
      [](const std::vector<std::uint8_t>& blob) { return decode_sweep_points(blob); },
      [&] { return core::sweep_eq4(inputs, lo, hi, steps, pool); });
}

core::RiskResult monte_carlo_cost_cached(const core::UncertainInputs& inputs, double s_d,
                                         int samples, std::uint64_t seed, double die_budget,
                                         exec::ThreadPool* pool) {
  return hit_or_compute(
      monte_carlo_cost_key(inputs, s_d, samples, seed, die_budget),
      [](const std::vector<std::uint8_t>& blob) { return decode_risk_result(blob); },
      [&] { return core::monte_carlo_cost(inputs, s_d, samples, seed, die_budget, pool); });
}

core::RobustOptimum robust_sd_cached(const core::UncertainInputs& inputs, double quantile,
                                     double lo, double hi, int steps, int samples,
                                     std::uint64_t seed, exec::ThreadPool* pool) {
  return hit_or_compute(
      robust_sd_key(inputs, quantile, lo, hi, steps, samples, seed),
      [](const std::vector<std::uint8_t>& blob) { return decode_robust_optimum(blob); },
      [&] { return core::robust_sd(inputs, quantile, lo, hi, steps, samples, seed, pool); });
}

}  // namespace nanocost::cache
