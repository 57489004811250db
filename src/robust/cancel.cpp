#include "nanocost/robust/cancel.hpp"

#include <chrono>
#include <limits>

#include "nanocost/obs/metrics.hpp"

namespace nanocost::robust {

namespace detail {

std::atomic<int> g_active_scopes{0};

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

thread_local CancelToken t_ambient;

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

Deadline Deadline::in_ms(double budget_ms) noexcept {
  const double ns = budget_ms * 1e6;
  const std::uint64_t now = detail::steady_now_ns();
  // A non-positive budget means "already due"; at_ns must stay nonzero
  // to remain distinguishable from "no deadline".
  if (!(ns > 0.0)) return Deadline{now > 1 ? now - 1 : 1};
  return Deadline{now + static_cast<std::uint64_t>(ns)};
}

bool Deadline::passed() const noexcept {
  return at_ns != 0 && detail::steady_now_ns() >= at_ns;
}

double Deadline::remaining_ms() const noexcept {
  if (at_ns == 0) return std::numeric_limits<double>::infinity();
  const std::uint64_t now = detail::steady_now_ns();
  return now >= at_ns ? 0.0 : static_cast<double>(at_ns - now) * 1e-6;
}

CancelToken CancelToken::manual() {
  return CancelToken(std::make_shared<detail::CancelState>());
}

CancelToken CancelToken::with_deadline(double budget_ms) {
  return with_deadline(Deadline::in_ms(budget_ms));
}

CancelToken CancelToken::with_deadline(Deadline deadline) {
  auto state = std::make_shared<detail::CancelState>();
  state->deadline_ns = deadline.at_ns;
  return CancelToken(std::move(state));
}

CancelToken CancelToken::child() const {
  auto state = std::make_shared<detail::CancelState>();
  state->parent = state_;
  return CancelToken(std::move(state));
}

CancelToken CancelToken::child_with_deadline(double budget_ms) const {
  auto state = std::make_shared<detail::CancelState>();
  state->parent = state_;
  state->deadline_ns = Deadline::in_ms(budget_ms).at_ns;
  return CancelToken(std::move(state));
}

void CancelToken::cancel() const noexcept {
  if (state_ != nullptr) detail::trip(*state_, detail::steady_now_ns());
}

bool CancelToken::expired() const noexcept {
  for (detail::CancelState* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->tripped.load(std::memory_order_relaxed)) return true;
    if (s->deadline_ns != 0 && detail::steady_now_ns() >= s->deadline_ns) {
      detail::trip(*s, s->deadline_ns);
      return true;
    }
  }
  return false;
}

double CancelToken::remaining_ms() const noexcept {
  if (expired()) return 0.0;
  double remaining = std::numeric_limits<double>::infinity();
  for (const detail::CancelState* s = state_.get(); s != nullptr; s = s->parent.get()) {
    const double r = Deadline{s->deadline_ns}.remaining_ms();
    if (r < remaining) remaining = r;
  }
  return remaining;
}

std::uint64_t CancelToken::trip_time_ns() const noexcept {
  std::uint64_t earliest = 0;
  for (const detail::CancelState* s = state_.get(); s != nullptr; s = s->parent.get()) {
    const std::uint64_t t = s->trip_ns.load(std::memory_order_relaxed);
    if (t != 0 && (earliest == 0 || t < earliest)) earliest = t;
  }
  return earliest;
}

CancelScope::CancelScope(CancelToken token) {
  if (!token.valid()) return;
  saved_ = detail::t_ambient;
  detail::t_ambient = std::move(token);
  detail::g_active_scopes.fetch_add(1, std::memory_order_relaxed);
  installed_ = true;
}

CancelScope::~CancelScope() {
  if (!installed_) return;
  detail::t_ambient = std::move(saved_);
  detail::g_active_scopes.fetch_sub(1, std::memory_order_relaxed);
}

CancelToken current_cancel_token() noexcept {
  // Fast path: no scope anywhere in the process -- one relaxed load.
  if (detail::g_active_scopes.load(std::memory_order_relaxed) == 0) return {};
  return detail::t_ambient;
}

void note_cancel_observed(const CancelToken& token) noexcept {
  if (!obs::metrics_enabled()) return;
  const std::uint64_t trip = token.trip_time_ns();
  if (trip == 0) return;
  static obs::Counter& loops = obs::counter("robust.cancelled_loops");
  loops.add();
  static obs::Histogram& latency = obs::histogram("robust.cancel_latency_us");
  const std::uint64_t now = detail::steady_now_ns();
  latency.record(now > trip ? (now - trip) / 1000 : 0);
}

}  // namespace nanocost::robust
