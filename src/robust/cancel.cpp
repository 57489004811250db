#include "nanocost/robust/cancel.hpp"

#include <atomic>
#include <chrono>
#include <limits>

#include "nanocost/robust/metrics.hpp"

namespace nanocost::robust {

namespace detail {

/// Shared state of one token.
struct CancelState final {
  std::atomic<bool> tripped{false};
  /// steady-clock ns of the first trip (the deadline instant for
  /// deadline trips, the cancel() call for manual ones); 0 = not
  /// tripped.  Written once, under the tripped latch.
  std::atomic<std::uint64_t> trip_ns{0};
  std::uint64_t deadline_ns = 0;  ///< steady-clock ns; 0 = no deadline
};

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latches the trip flag and records the trip instant exactly once.
/// For deadline trips the recorded instant is the deadline itself, not
/// the moment some loop noticed it -- cancel latency must not credit
/// the poller for observing late.
void trip(CancelState& state, std::uint64_t when_ns) noexcept {
  if (!state.tripped.exchange(true, std::memory_order_relaxed)) {
    std::uint64_t expected = 0;
    state.trip_ns.compare_exchange_strong(expected, when_ns, std::memory_order_relaxed);
  }
}

}  // namespace

}  // namespace detail

CancelToken CancelToken::manual() {
  return CancelToken(std::make_shared<detail::CancelState>());
}

CancelToken CancelToken::with_deadline(double budget_ms) {
  auto state = std::make_shared<detail::CancelState>();
  const double ns = budget_ms * 1e6;
  const std::uint64_t now = detail::steady_now_ns();
  // A non-positive budget means "already due"; deadline_ns must stay
  // nonzero to remain distinguishable from "no deadline".
  state->deadline_ns =
      ns > 0.0 ? now + static_cast<std::uint64_t>(ns) : (now > 1 ? now - 1 : 1);
  return CancelToken(std::move(state));
}

void CancelToken::cancel() const noexcept {
  if (state_ != nullptr) detail::trip(*state_, detail::steady_now_ns());
}

bool CancelToken::expired() const noexcept {
  if (state_ == nullptr) return false;
  if (state_->tripped.load(std::memory_order_relaxed)) return true;
  if (state_->deadline_ns != 0 && detail::steady_now_ns() >= state_->deadline_ns) {
    detail::trip(*state_, state_->deadline_ns);
    return true;
  }
  return false;
}

double CancelToken::remaining_ms() const noexcept {
  if (expired()) return 0.0;
  if (state_ == nullptr || state_->deadline_ns == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const std::uint64_t now = detail::steady_now_ns();
  return now >= state_->deadline_ns ? 0.0
                                    : static_cast<double>(state_->deadline_ns - now) * 1e-6;
}

std::uint64_t CancelToken::trip_time_ns() const noexcept {
  return state_ != nullptr ? state_->trip_ns.load(std::memory_order_relaxed) : 0;
}

void note_cancel_observed(const CancelToken& token) noexcept {
  auto* m = obs::metrics_table<RobustMetrics>();
  if (m == nullptr) return;
  const std::uint64_t trip = token.trip_time_ns();
  if (trip == 0) return;
  m->cancelled_loops.add();
  const std::uint64_t now = detail::steady_now_ns();
  m->cancel_latency_us.record(now > trip ? (now - trip) / 1000 : 0);
}

}  // namespace nanocost::robust
