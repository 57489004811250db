// Deterministic fault injection for long Monte-Carlo campaigns.
//
// Every parallel workload in nanocost derives per-unit state (RNG
// streams, output slots) from the unit index alone, so the only way to
// *test* the failure paths honestly is to schedule faults the same way:
// a fault at site S for unit i on attempt a fires iff a pure hash of
// (plan seed, S, i, a) falls under the configured rate.  The schedule is
// therefore bitwise-identical at any thread count, and a retried unit
// sees a fresh draw (transient faults heal; persistent ones ignore the
// attempt and keep firing until the unit is quarantined).
//
// Injection sites are named constants (`fabsim.wafer`, `risk.sample`,
// `exec.chunk`, `route.pass`, ...) compiled into the hot paths.  When no
// plan is installed the whole machinery is one relaxed atomic load and a
// predictable branch per site evaluation -- measured indistinguishable
// from the pre-injection binaries (see EXPERIMENTS.md).
//
// Plans come from code (`install_fault_plan`) or from the environment:
//   NANOCOST_FAULTS="fabsim.wafer=1e-3:throw:persistent;risk.sample=2e-3:nan"
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nanocost/cache/bytes.hpp"

namespace nanocost::robust {

/// What happens when a scheduled fault fires.
enum class FaultKind : std::uint8_t {
  kThrow,    ///< inject() throws FaultInjected
  kNaN,      ///< observe() returns quiet NaN instead of the real value
  kLatency,  ///< inject() sleeps `latency_us` (a deterministic straggler)
};

/// One site's fault configuration.
struct FaultSpec final {
  double rate = 0.0;  ///< per-evaluation firing probability in [0, 1]
  FaultKind kind = FaultKind::kThrow;
  /// Transient faults mix the retry attempt into the schedule hash, so a
  /// retried unit usually heals; persistent faults fire on every attempt.
  bool transient = true;
  std::uint32_t latency_us = 200;  ///< sleep for kLatency faults
};

/// Thrown by inject() when a kThrow fault fires.  Carries the site name
/// and unit index so degradation layers can report exactly what failed.
class FaultInjected final : public std::runtime_error {
 public:
  FaultInjected(const char* site, std::uint64_t index);
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] std::uint64_t index() const noexcept { return index_; }

 private:
  std::string site_;
  std::uint64_t index_ = 0;
};

/// A named injection point.  Construct as a constexpr constant next to
/// the code that evaluates it.  The name's FNV-1a hash resolves at
/// compile time, so the slow path does integer compares, never string
/// compares.
struct FaultSite final {
  const char* name;
  std::uint64_t hash;
  constexpr explicit FaultSite(const char* n) : name(n), hash(cache::fnv1a(n)) {}
};

/// A set of site -> FaultSpec rules plus the schedule seed.
class FaultPlan final {
 public:
  FaultPlan() = default;

  FaultPlan& add(std::string_view site, FaultSpec spec);
  FaultPlan& seed(std::uint64_t s) noexcept {
    seed_ = s;
    return *this;
  }

  /// Parses the NANOCOST_FAULTS grammar:
  ///   plan  := entry (';' entry)*
  ///   entry := site '=' rate (':' flag)*        | 'seed' '=' integer
  ///   flag  := 'throw' | 'nan' | 'latency' | 'persistent' | 'transient'
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static FaultPlan parse(std::string_view text);

  [[nodiscard]] bool empty() const noexcept { return sites_.empty(); }
  [[nodiscard]] std::uint64_t schedule_seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultSpec* find(std::uint64_t site_hash) const noexcept;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    FaultSpec spec;
  };
  std::uint64_t seed_ = 0x0FA417;
  // A handful of sites at most: linear scan beats any map.
  std::vector<Entry> sites_;
};

/// Installs `plan` process-wide (an empty plan disables injection).
/// Not safe to call concurrently with in-flight injected work; install
/// before launching a campaign.
void install_fault_plan(FaultPlan plan);

/// Disables injection (equivalent to installing an empty plan).
void clear_fault_plan();

/// The retry attempt ambient to the current thread; campaign engines set
/// it around each chunk attempt so transient-fault schedules can heal.
class AttemptScope final {
 public:
  explicit AttemptScope(std::uint32_t attempt) noexcept;
  ~AttemptScope();
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;

  [[nodiscard]] static std::uint32_t current() noexcept;

 private:
  std::uint32_t saved_ = 0;
};

namespace detail {

/// 0 = not yet initialised (env not read), 1 = disabled, 2 = enabled.
extern std::atomic<int> g_fault_state;

/// Reads NANOCOST_FAULTS once and settles g_fault_state; returns whether
/// injection is enabled.
bool init_fault_state_from_env();

/// Full schedule evaluation; only reached when a plan is installed.
/// Throws / sleeps as configured; returns true when the value at this
/// site should be poisoned to NaN.
bool inject_slow(const FaultSite& site, std::uint64_t index);

}  // namespace detail

/// True when a non-empty fault plan is active.  The off path is a single
/// relaxed load plus compare.
[[nodiscard]] inline bool faults_enabled() noexcept {
  const int s = detail::g_fault_state.load(std::memory_order_relaxed);
  if (s == 0) [[unlikely]] {
    return detail::init_fault_state_from_env();
  }
  return s == 2;
}

/// The injection point for control-flow sites.  May throw FaultInjected
/// or sleep; NaN faults at control-flow sites are no-ops (use observe()
/// where a value crosses the site).
inline void inject(const FaultSite& site, std::uint64_t index) {
  if (!faults_enabled()) return;
  (void)detail::inject_slow(site, index);
}

/// The injection point for value sites: returns `value`, or quiet NaN
/// when a kNaN fault fires here.  Throw/latency faults behave as in
/// inject().
[[nodiscard]] inline double observe(const FaultSite& site, std::uint64_t index, double value) {
  if (!faults_enabled()) return value;
  return detail::inject_slow(site, index)
             ? std::numeric_limits<double>::quiet_NaN()
             : value;
}

}  // namespace nanocost::robust
