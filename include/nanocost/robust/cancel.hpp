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
// Tokens form a hierarchy: child tokens trip when the parent trips (a
// request-level budget fans out to per-phase budgets that can only be
// tighter), but cancelling a child never touches the parent.  Expiry is
// latched: the first observation of a passed deadline trips the flag
// permanently, and the trip time is recorded once, so cancel latency
// (trip to loop return) is measurable (robust.cancel_latency_us).
//
// Tokens reach kernels two ways: explicitly (CampaignOptions::cancel)
// or ambiently through a thread-local CancelScope that deadline-aware
// entry points (`FabSimulator::run_partial`, `monte_carlo_cost_partial`,
// ...) snapshot on entry.  With no scope installed anywhere in the
// process, that snapshot costs one relaxed atomic load -- the same
// three-state gating budget as fault injection and metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace nanocost::robust {

namespace detail {

/// Shared state of one token; children hold a strong ref to the parent
/// chain, so a parent outlives every token that can observe it.
struct CancelState final {
  std::shared_ptr<CancelState> parent;
  std::atomic<bool> tripped{false};
  /// steady-clock ns of the first trip (the deadline instant for
  /// deadline trips, the cancel() call for manual ones); 0 = not
  /// tripped.  Written once, under the tripped latch.
  std::atomic<std::uint64_t> trip_ns{0};
  std::uint64_t deadline_ns = 0;  ///< steady-clock ns; 0 = no deadline
};

/// Count of CancelScopes alive across all threads; the one relaxed
/// load current_cancel_token() pays when no deadline is anywhere.
extern std::atomic<int> g_active_scopes;

[[nodiscard]] std::uint64_t steady_now_ns() noexcept;

}  // namespace detail

/// An absolute point on the steady clock; the value type deadlines are
/// carried around as (CancelToken::with_deadline stores one).
struct Deadline final {
  std::uint64_t at_ns = 0;  ///< steady-clock ns; 0 = no deadline

  /// A deadline `budget_ms` from now (<= 0: already passed).
  [[nodiscard]] static Deadline in_ms(double budget_ms) noexcept;
  [[nodiscard]] static constexpr Deadline none() noexcept { return {}; }
  [[nodiscard]] bool unset() const noexcept { return at_ns == 0; }
  [[nodiscard]] bool passed() const noexcept;
  /// Milliseconds left; +inf when unset, 0 when passed.
  [[nodiscard]] double remaining_ms() const noexcept;
};

/// Shared cancellation handle.  Copies observe the same flag.  A
/// default-constructed token is *invalid*: it never trips, and the
/// chunk loops (exec/parallel.hpp) never poll it.
class CancelToken final {
 public:
  CancelToken() = default;

  /// A token that trips only via cancel().
  [[nodiscard]] static CancelToken manual();
  /// A token that trips `budget_ms` from now (or at `deadline`).
  [[nodiscard]] static CancelToken with_deadline(double budget_ms);
  [[nodiscard]] static CancelToken with_deadline(Deadline deadline);

  /// A child: trips when this token trips or when cancel()ed itself;
  /// cancelling the child leaves this token untouched.  Children of an
  /// invalid token are independent roots.
  [[nodiscard]] CancelToken child() const;
  /// A child with its own (necessarily tighter-or-equal effective)
  /// deadline `budget_ms` from now.
  [[nodiscard]] CancelToken child_with_deadline(double budget_ms) const;

  /// Trips the flag.  No-op on an invalid token.  Idempotent.
  void cancel() const noexcept;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// True once this token or any ancestor tripped (manually or by
  /// deadline).  Latches deadline expiry as a side effect.  Invalid
  /// tokens are never expired.
  [[nodiscard]] bool expired() const noexcept;
  /// Milliseconds until the tightest deadline in the chain; +inf when
  /// no deadline exists, 0 once expired.
  [[nodiscard]] double remaining_ms() const noexcept;
  /// steady-clock ns of the earliest trip in the chain; 0 if none.
  [[nodiscard]] std::uint64_t trip_time_ns() const noexcept;

 private:
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

/// RAII install of `token` as the calling thread's ambient token;
/// deadline-aware kernels snapshot it via current_cancel_token().
/// Scopes nest (the previous ambient token is restored on destruction);
/// installing an invalid token is a no-op scope.
class CancelScope final {
 public:
  explicit CancelScope(CancelToken token);
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  CancelToken saved_;
  bool installed_ = false;
};

/// The calling thread's ambient token (invalid when no CancelScope is
/// active).  One relaxed atomic load when no scope exists process-wide.
[[nodiscard]] CancelToken current_cancel_token() noexcept;

/// Records cancel-latency observability for a loop that just noticed
/// `token` tripped: bumps robust.cancelled_loops and records trip-to-now
/// in the robust.cancel_latency_us histogram.  No-op when metrics are
/// off or the token has not tripped.
void note_cancel_observed(const CancelToken& token) noexcept;

}  // namespace nanocost::robust
