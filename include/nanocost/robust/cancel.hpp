// Cooperative cancellation and time budgets.
//
// A CancelToken is a shared trip flag plus an optional absolute
// deadline.  Kernels never get preempted: they poll the token at chunk
// boundaries (exec/parallel.hpp) and stop claiming work once it trips,
// so a cancelled loop always stops on a chunk boundary -- the *chunk
// frontier* -- and its partial output is a pure function of that
// frontier, bitwise-identical to a fresh run truncated there at any
// thread count.
//
// Expiry is latched: the first observation of a passed deadline trips
// the flag permanently, and the trip time is recorded once, so cancel
// latency (trip to loop return) is measurable
// (robust.cancel_latency_us).
//
// A token reaches a kernel one way: as an argument, the last one of
// every deadline-aware entry point (`parallel_reduce`,
// `FabSimulator::run_partial`, `monte_carlo_cost_partial`, ...,
// `CampaignOptions::cancel`).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

namespace nanocost::robust {

namespace detail {
struct CancelState;
}  // namespace detail

/// Shared cancellation handle.  Copies observe the same flag.  A
/// default-constructed token is *invalid*: it never trips, and the
/// chunk loops (exec/parallel.hpp) never poll it.
class CancelToken final {
 public:
  CancelToken() = default;

  /// A token that trips only via cancel().
  [[nodiscard]] static CancelToken manual();
  /// A token that trips `budget_ms` from now (<= 0: already due), or
  /// earlier via cancel().
  [[nodiscard]] static CancelToken with_deadline(double budget_ms);

  /// Trips the flag.  No-op on an invalid token.  Idempotent.
  void cancel() const noexcept;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// True once the token tripped (manually or by deadline).  Latches
  /// deadline expiry as a side effect.  Invalid tokens are never
  /// expired.
  [[nodiscard]] bool expired() const noexcept;
  /// Milliseconds until the deadline; +inf when there is none, 0 once
  /// expired.
  [[nodiscard]] double remaining_ms() const noexcept;
  /// steady-clock ns of the trip; 0 if not tripped.
  [[nodiscard]] std::uint64_t trip_time_ns() const noexcept;

 private:
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

/// Records cancel-latency observability for a loop that just noticed
/// `token` tripped: bumps robust.cancelled_loops and records trip-to-now
/// in the robust.cancel_latency_us histogram.  No-op when metrics are
/// off or the token has not tripped.
void note_cancel_observed(const CancelToken& token) noexcept;

}  // namespace nanocost::robust
