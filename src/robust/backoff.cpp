#include "nanocost/robust/backoff.hpp"

#include <chrono>
#include <thread>

#include "nanocost/exec/seed.hpp"
#include "nanocost/robust/metrics.hpp"

namespace nanocost::robust {

double BackoffPolicy::delay_ms(int attempt) const noexcept {
  if (base_ms <= 0.0 || attempt < 0) return 0.0;
  // Repeated multiplication (not pow) so the jitter-free schedule is
  // bit-exact with the historical base * 2^attempt ladder.
  double delay = base_ms;
  for (int i = 0; i < attempt; ++i) {
    delay *= multiplier;
    if (cap_ms > 0.0 && delay >= cap_ms) {
      delay = cap_ms;
      break;
    }
  }
  if (jitter > 0.0) {
    // Deterministic draw: hash (seed, attempt) through splitmix64 and
    // map the top 53 bits onto [0, 1).
    const std::uint64_t bits = exec::splitmix64(
        seed + (static_cast<std::uint64_t>(attempt) + 1) * exec::kGoldenGamma);
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    delay *= 1.0 - jitter + 2.0 * jitter * u;
  }
  if (cap_ms > 0.0 && delay > cap_ms) delay = cap_ms;
  return delay;
}

bool BackoffPolicy::overruns_budget(int attempt, const CancelToken& token) const noexcept {
  if (!token.valid()) return false;
  if (token.expired()) return true;
  const double delay = delay_ms(attempt);
  return delay > 0.0 && delay >= token.remaining_ms();
}

double backoff_sleep(const BackoffPolicy& policy, int attempt) {
  const double delay = policy.delay_ms(attempt);
  if (delay > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
    if (auto* m = obs::metrics_table<RobustMetrics>()) {
      m->backoff_sleep_ms.record(static_cast<std::uint64_t>(delay));
    }
  }
  return delay;
}

}  // namespace nanocost::robust
