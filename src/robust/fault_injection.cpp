#include "nanocost/robust/fault_injection.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "nanocost/exec/seed.hpp"

namespace nanocost::robust {

namespace {

std::mutex& plan_mutex() {
  static std::mutex mu;
  return mu;
}

/// The installed plan.  Replaced plans are retired into a keep-alive
/// list instead of freed: an injected worker may still be reading the
/// old plan when a new one is installed, and plans are tiny.
std::shared_ptr<const FaultPlan>& plan_slot() {
  static std::shared_ptr<const FaultPlan> plan;
  return plan;
}
std::vector<std::shared_ptr<const FaultPlan>>& retired_plans() {
  static std::vector<std::shared_ptr<const FaultPlan>> retired;
  return retired;
}
std::atomic<const FaultPlan*> g_plan{nullptr};

thread_local std::uint32_t t_attempt = 0;

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

double parse_rate(std::string_view text) {
  const std::string buf(text);
  char* end = nullptr;
  const double rate = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument("fault rate must be a number in [0, 1], got '" + buf + "'");
  }
  return rate;
}

}  // namespace

FaultInjected::FaultInjected(const char* site, std::uint64_t index)
    : std::runtime_error(std::string("injected fault at ") + site + " unit " +
                         std::to_string(index)),
      site_(site),
      index_(index) {}

FaultPlan& FaultPlan::add(std::string_view site, FaultSpec spec) {
  if (!(spec.rate >= 0.0 && spec.rate <= 1.0)) {
    throw std::invalid_argument("fault rate must lie in [0, 1]");
  }
  const std::uint64_t h = cache::fnv1a(site);
  for (Entry& e : sites_) {
    if (e.hash == h) {
      e.spec = spec;
      return *this;
    }
  }
  sites_.push_back(Entry{h, spec});
  return *this;
}

const FaultSpec* FaultPlan::find(std::uint64_t site_hash) const noexcept {
  for (const Entry& e : sites_) {
    if (e.hash == site_hash) return &e.spec;
  }
  return nullptr;
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t sep = std::min(text.find(';', pos), text.size());
    std::string_view entry = trim(text.substr(pos, sep - pos));
    pos = sep + 1;
    if (entry.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("fault plan entry needs 'site=rate', got '" +
                                  std::string(entry) + "'");
    }
    const std::string_view site = trim(entry.substr(0, eq));
    std::string_view rest = trim(entry.substr(eq + 1));
    if (site.empty()) {
      throw std::invalid_argument("fault plan entry needs 'site=rate', got '" +
                                  std::string(entry) + "'");
    }
    if (site == "seed") {
      std::uint64_t s = 0;
      const auto [p, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), s);
      if (ec != std::errc{} || p != rest.data() + rest.size()) {
        throw std::invalid_argument("fault plan seed must be an integer, got '" +
                                    std::string(rest) + "'");
      }
      plan.seed(s);
      continue;
    }
    const std::size_t colon = std::min(rest.find(':'), rest.size());
    FaultSpec spec;
    spec.rate = parse_rate(rest.substr(0, colon));
    rest = colon < rest.size() ? rest.substr(colon + 1) : std::string_view{};
    while (!rest.empty()) {
      const std::size_t c = std::min(rest.find(':'), rest.size());
      const std::string_view flag = trim(rest.substr(0, c));
      if (flag == "throw") {
        spec.kind = FaultKind::kThrow;
      } else if (flag == "nan") {
        spec.kind = FaultKind::kNaN;
      } else if (flag == "latency") {
        spec.kind = FaultKind::kLatency;
      } else if (flag == "persistent") {
        spec.transient = false;
      } else if (flag == "transient") {
        spec.transient = true;
      } else {
        throw std::invalid_argument("unknown fault flag '" + std::string(flag) + "'");
      }
      rest = c < rest.size() ? rest.substr(c + 1) : std::string_view{};
    }
    plan.add(site, spec);
  }
  return plan;
}

void install_fault_plan(FaultPlan plan) {
  const bool enabled = !plan.empty();
  std::lock_guard<std::mutex> lk(plan_mutex());
  auto next = std::make_shared<const FaultPlan>(std::move(plan));
  if (plan_slot()) retired_plans().push_back(plan_slot());
  plan_slot() = next;
  g_plan.store(enabled ? next.get() : nullptr, std::memory_order_release);
  detail::g_fault_state.store(enabled ? 2 : 1, std::memory_order_release);
}

void clear_fault_plan() { install_fault_plan(FaultPlan{}); }

AttemptScope::AttemptScope(std::uint32_t attempt) noexcept : saved_(t_attempt) {
  t_attempt = attempt;
}
AttemptScope::~AttemptScope() { t_attempt = saved_; }
std::uint32_t AttemptScope::current() noexcept { return t_attempt; }

namespace detail {

std::atomic<int> g_fault_state{0};

bool init_fault_state_from_env() {
  std::lock_guard<std::mutex> lk(plan_mutex());
  const int settled = g_fault_state.load(std::memory_order_acquire);
  if (settled != 0) return settled == 2;
  FaultPlan plan;
  if (const char* env = std::getenv("NANOCOST_FAULTS")) {
    try {
      plan = FaultPlan::parse(env);
    } catch (const std::exception& e) {
      // A malformed plan must not take down (or silently alter) the
      // engine from a hot-path gate: report once and run clean.
      std::fprintf(stderr, "nanocost: NANOCOST_FAULTS rejected: %s; fault injection disabled\n",
                   e.what());
      plan = FaultPlan{};
    }
  }
  const bool enabled = !plan.empty();
  auto next = std::make_shared<const FaultPlan>(std::move(plan));
  plan_slot() = next;
  g_plan.store(enabled ? next.get() : nullptr, std::memory_order_release);
  g_fault_state.store(enabled ? 2 : 1, std::memory_order_release);
  return enabled;
}

bool inject_slow(const FaultSite& site, std::uint64_t index) {
  const FaultPlan* plan = g_plan.load(std::memory_order_acquire);
  if (plan == nullptr) return false;
  const FaultSpec* spec = plan->find(site.hash);
  if (spec == nullptr || spec->rate <= 0.0) return false;

  // The schedule: a pure hash of (plan seed, site, unit index, attempt)
  // mapped to [0, 1).  Thread count, chunk order, and wall clock never
  // enter, so faulty campaigns replay bitwise.
  const std::uint64_t attempt = spec->transient ? AttemptScope::current() : 0;
  const std::uint64_t mixed = exec::splitmix64(
      plan->schedule_seed() ^ site.hash ^
      exec::SeedSequence::for_task(index, attempt));
  const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  if (u >= spec->rate) return false;

  switch (spec->kind) {
    case FaultKind::kThrow:
      throw FaultInjected(site.name, index);
    case FaultKind::kNaN:
      return true;
    case FaultKind::kLatency:
      std::this_thread::sleep_for(std::chrono::microseconds(spec->latency_us));
      return false;
  }
  return false;
}

}  // namespace detail

}  // namespace nanocost::robust
