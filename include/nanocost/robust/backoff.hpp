// Exponential-backoff-with-budget policy.
//
// The serve retry client (serve::ResilientClient) makes three decisions
// between attempts:
//
//   1. how long to sleep before attempt N (exponential, optionally
//      capped, optionally jittered),
//   2. whether that sleep even fits in the remaining deadline budget
//      ("abandon instead of sleeping into a guaranteed expiry"), and
//   3. how to make the schedule *deterministic* so fault-injection
//      tests replay bit-for-bit.
//
// The jitter is seeded: delay_ms(attempt) is a pure function of
// (policy, attempt), derived from splitmix64, so two processes with the
// same policy produce the same schedule.  jitter == 0 keeps the exact
// base * multiplier^attempt ladder.
#pragma once

#include <cstdint>

#include "nanocost/robust/cancel.hpp"

namespace nanocost::robust {

struct BackoffPolicy {
  /// Delay before the first retry (attempt 0 -> base_ms).  <= 0
  /// disables backoff entirely: delay_ms() is always 0.
  double base_ms = 0.0;
  /// Upper clamp on any single delay; 0 means uncapped.
  double cap_ms = 0.0;
  /// Growth factor per attempt (2.0 = classic doubling).
  double multiplier = 2.0;
  /// Jitter fraction in [0, 1): the delay is scaled by a deterministic
  /// factor drawn from [1 - jitter, 1 + jitter).  0 = no jitter.
  double jitter = 0.0;
  /// Seed for the jitter draw; same seed => same schedule.
  std::uint64_t seed = 0;

  /// Delay before retry `attempt` (0-based), in milliseconds.  Pure:
  /// same (policy, attempt) always yields the same value.
  [[nodiscard]] double delay_ms(int attempt) const noexcept;

  /// True when sleeping delay_ms(attempt) cannot pay off: the token's
  /// deadline has already passed, or the sleep is at least as long as
  /// the remaining budget.  A caller that sees true should abandon the
  /// retry (leaving the work pending for a resume with fresh budget)
  /// instead of sleeping into a guaranteed expiry.  Tokens without a
  /// deadline never overrun.
  [[nodiscard]] bool overruns_budget(int attempt, const CancelToken& token) const noexcept;
};

/// Sleeps for delay_ms(attempt) (no-op when it is 0) and records the
/// slept duration in the `robust.backoff_sleep_ms` histogram when
/// metrics are enabled.  Returns the delay actually slept, in ms.
double backoff_sleep(const BackoffPolicy& policy, int attempt);

}  // namespace nanocost::robust
