#include "nanocost/place/placer.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/seed.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/place/hpwl_cache.hpp"

namespace nanocost::place {

using netlist::Net;
using netlist::Netlist;

Placement::Placement(std::int32_t rows, std::int32_t cols, std::int32_t gate_count)
    : rows_(rows), cols_(cols) {
  if (rows_ < 1 || cols_ < 1) {
    throw std::invalid_argument("placement grid needs rows >= 1 and cols >= 1");
  }
  if (gate_count > site_count()) {
    throw std::invalid_argument("placement grid too small: " + std::to_string(gate_count) +
                                " gates, " + std::to_string(site_count()) + " sites");
  }
  site_of_gate_.assign(static_cast<std::size_t>(gate_count), -1);
  gate_of_site_.assign(static_cast<std::size_t>(site_count()), -1);
}

void Placement::assign(std::int32_t gate, std::int32_t site) {
  if (gate_of_site_.at(static_cast<std::size_t>(site)) != -1) {
    throw std::invalid_argument("site already occupied");
  }
  const std::int32_t old_site = site_of_gate_.at(static_cast<std::size_t>(gate));
  if (old_site >= 0) gate_of_site_[static_cast<std::size_t>(old_site)] = -1;
  site_of_gate_[static_cast<std::size_t>(gate)] = site;
  gate_of_site_[static_cast<std::size_t>(site)] = gate;
}

void Placement::swap_sites(std::int32_t site_a, std::int32_t site_b) {
  std::int32_t ga = gate_of_site_.at(static_cast<std::size_t>(site_a));
  std::int32_t gb = gate_of_site_.at(static_cast<std::size_t>(site_b));
  gate_of_site_[static_cast<std::size_t>(site_a)] = gb;
  gate_of_site_[static_cast<std::size_t>(site_b)] = ga;
  if (ga >= 0) site_of_gate_[static_cast<std::size_t>(ga)] = site_b;
  if (gb >= 0) site_of_gate_[static_cast<std::size_t>(gb)] = site_a;
}

Placement Placement::ordered(const Netlist& netlist, std::int32_t rows, std::int32_t cols) {
  Placement p(rows, cols, netlist.gate_count());
  for (std::int32_t g = 0; g < netlist.gate_count(); ++g) {
    p.assign(g, g);
  }
  return p;
}

Placement Placement::random(const Netlist& netlist, std::int32_t rows, std::int32_t cols,
                            std::uint64_t seed) {
  Placement p(rows, cols, netlist.gate_count());
  std::vector<std::int32_t> sites(static_cast<std::size_t>(p.site_count()));
  for (std::int32_t s = 0; s < p.site_count(); ++s) sites[static_cast<std::size_t>(s)] = s;
  // In-repo Fisher-Yates (std::shuffle's draw sequence is
  // implementation-defined, so it is not reproducible across standard
  // libraries).
  exec::SplitMix64 rng(seed);
  for (std::int32_t i = p.site_count() - 1; i > 0; --i) {
    const std::int32_t j = exec::bounded_i32(rng, i + 1);
    std::swap(sites[static_cast<std::size_t>(i)], sites[static_cast<std::size_t>(j)]);
  }
  for (std::int32_t g = 0; g < netlist.gate_count(); ++g) {
    p.assign(g, sites[static_cast<std::size_t>(g)]);
  }
  return p;
}

namespace {

/// HPWL of one net under a placement.
double net_hpwl(const Net& net, const Placement& p, double row_weight) {
  std::int32_t min_c = std::numeric_limits<std::int32_t>::max();
  std::int32_t max_c = std::numeric_limits<std::int32_t>::min();
  std::int32_t min_r = min_c, max_r = max_c;
  int pins = 0;
  const auto visit = [&](std::int32_t gate) {
    const std::int32_t c = p.col_of(gate);
    const std::int32_t r = p.row_of(gate);
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
    min_r = std::min(min_r, r);
    max_r = std::max(max_r, r);
    ++pins;
  };
  if (net.driver_gate >= 0) visit(net.driver_gate);
  for (const std::int32_t sink : net.sink_gates) visit(sink);
  if (pins < 2) return 0.0;
  return static_cast<double>(max_c - min_c) +
         row_weight * static_cast<double>(max_r - min_r);
}

}  // namespace

double total_hpwl(const Netlist& netlist, const Placement& placement, double row_weight) {
  double total = 0.0;
  for (const Net& net : netlist.nets()) {
    total += net_hpwl(net, placement, row_weight);
  }
  return total;
}

double total_weighted_hpwl(const Netlist& netlist, const Placement& placement,
                           const std::vector<double>& net_weights, double row_weight) {
  double total = 0.0;
  for (std::int32_t n = 0; n < netlist.net_count(); ++n) {
    const double w = static_cast<std::size_t>(n) < net_weights.size()
                         ? net_weights[static_cast<std::size_t>(n)]
                         : 1.0;
    total += w * net_hpwl(netlist.nets()[static_cast<std::size_t>(n)], placement,
                          row_weight);
  }
  return total;
}

namespace {

struct PlaceMetrics {
  obs::Counter& anneals = obs::counter("place.anneals");
  obs::Counter& moves_tried = obs::counter("place.moves_tried");
  obs::Counter& moves_accepted = obs::counter("place.moves_accepted");
  obs::Counter& rejects_write_free = obs::counter("place.rejects_write_free");
};

/// NANOCOST_PLACE_CHECK: unset or 0 = off, otherwise the
/// cross-validation move interval.  Read at each anneal, so a process
/// may switch it between anneals; a value that is not a non-negative
/// integer means off, with one diagnostic per process.
std::int64_t place_check_interval() {
  const char* env = std::getenv("NANOCOST_PLACE_CHECK");
  if (env == nullptr || *env == '\0') return 0;
  const char* end = env + std::strlen(env);
  std::int64_t interval = 0;
  const auto [ptr, ec] = std::from_chars(env, end, interval);
  if (ec == std::errc{} && ptr == end && interval >= 0) return interval;
  static std::once_flag diagnosed;
  std::call_once(diagnosed, [env] {
    std::fprintf(stderr,
                 "nanocost: NANOCOST_PLACE_CHECK='%s' is not a move interval (0 = off); "
                 "cross-check off\n",
                 env);
  });
  return 0;
}

PlaceResult anneal_impl(const Netlist& netlist, std::int32_t rows, std::int32_t cols,
                        const AnnealParams& params, const std::vector<double>* net_weights,
                        const Placement* start = nullptr) {
  if (!(params.cooling > 0.0 && params.cooling < 1.0)) {
    throw std::invalid_argument("cooling factor must be in (0, 1)");
  }
  if (!(params.stop_temperature_fraction > 0.0)) {
    throw std::invalid_argument("stop temperature fraction must be > 0");
  }
  if (!std::isfinite(params.initial_temperature)) {
    throw std::invalid_argument("initial temperature must be finite (0 or below = auto)");
  }
  if (start != nullptr && (start->rows() != rows || start->cols() != cols ||
                           start->gate_count() != netlist.gate_count())) {
    throw std::invalid_argument("warm-start placement does not match the grid/netlist");
  }
  obs::ObsSpan anneal_span("place.anneal");
  Placement placement = start != nullptr ? *start : Placement::ordered(netlist, rows, cols);

  const auto objective = [&](const Placement& p) {
    return net_weights != nullptr
               ? total_weighted_hpwl(netlist, p, *net_weights, params.row_weight)
               : total_hpwl(netlist, p, params.row_weight);
  };

  // The incremental per-net bounding-box cache; its construction-time
  // total is bitwise-equal to the full recomputation (same per-net
  // values, same summation order).
  HpwlCache cache(netlist, placement, params.row_weight, net_weights);
  const double initial = cache.total();
  double current = initial;
  double temperature = params.initial_temperature > 0.0
                           ? params.initial_temperature
                           : std::max(initial / std::max(netlist.gate_count(), 1), 1.0);
  const double stop = temperature * params.stop_temperature_fraction;

  PlaceResult result{std::move(placement), initial, initial, 0, 0};
  if (netlist.gate_count() < 2) return result;

  exec::SplitMix64 rng(params.seed);
  const std::int32_t gate_count = netlist.gate_count();
  const std::int32_t site_count = result.placement.site_count();
  const std::int64_t check_every = place_check_interval();

  // Flat occupancy + site-coordinate tables: the loop never touches
  // the Placement (bounds-checked, divides per access); the winning
  // layout is written back once at the end.
  std::vector<std::int32_t> site_of(static_cast<std::size_t>(gate_count));
  std::vector<std::int32_t> gate_of(static_cast<std::size_t>(site_count), -1);
  for (std::int32_t g = 0; g < gate_count; ++g) {
    const std::int32_t s = result.placement.site_of(g);
    site_of[static_cast<std::size_t>(g)] = s;
    gate_of[static_cast<std::size_t>(s)] = g;
  }
  struct SiteRC {
    std::int32_t r, c;
  };
  std::vector<SiteRC> site_rc(static_cast<std::size_t>(site_count));
  for (std::int32_t s = 0; s < site_count; ++s) {
    site_rc[static_cast<std::size_t>(s)] = SiteRC{s / cols, s % cols};
  }
  const auto rebuild_placement = [&]() {
    Placement p(rows, cols, gate_count);
    for (std::int32_t g = 0; g < gate_count; ++g) {
      p.assign(g, site_of[static_cast<std::size_t>(g)]);
    }
    return p;
  };

  // With unit weights and an integral row weight every delta is an
  // integer-valued double, so each level's acceptance probabilities
  // exp(-d/T) can be tabulated once instead of calling exp per move;
  // the table reproduces std::exp(-delta/T) bit-for-bit, so accept
  // decisions (and results) are unchanged.
  const bool integer_deltas =
      net_weights == nullptr && params.row_weight == std::floor(params.row_weight);
  std::vector<double> accept_table;
  std::int64_t tried = 0;
  std::int64_t accepted = 0;

  while (temperature > stop) {
    obs::ObsSpan level_span("place.level");
    // exp(-delta/T) below this delta/T is ~1e-14: reject without
    // drawing (the acceptance probability is unobservably small).
    const double certain_reject = 32.0 * temperature;
    if (integer_deltas) {
      const auto entries = static_cast<std::size_t>(std::min(certain_reject, 65536.0)) + 1;
      accept_table.resize(entries);
      for (std::size_t d = 0; d < entries; ++d) {
        accept_table[d] = std::exp(-static_cast<double>(d) / temperature);
      }
    }
    const std::int64_t moves =
        static_cast<std::int64_t>(params.moves_per_temperature_per_gate) * gate_count;
    for (std::int64_t m = 0; m < moves; ++m) {
      const auto [gate, to] = exec::bounded_i32_pair(rng, gate_count, site_count);
      const std::int32_t from = site_of[static_cast<std::size_t>(gate)];
      if (to == from) continue;
      const std::int32_t other = gate_of[static_cast<std::size_t>(to)];

      const SiteRC rc = site_rc[static_cast<std::size_t>(to)];
      const double delta = cache.peek_swap(gate, rc.r, rc.c, other);
      ++tried;
      bool accept;
      if (delta <= 0.0) {
        accept = true;
      } else if (delta >= certain_reject) {
        accept = false;
      } else {
        const auto di = static_cast<std::size_t>(delta);
        const double threshold =
            integer_deltas && static_cast<double>(di) == delta && di < accept_table.size()
                ? accept_table[di]
                : std::exp(-delta / temperature);
        accept = exec::uniform_unit(rng) < threshold;
      }
      if (accept) {
        cache.commit();
        site_of[static_cast<std::size_t>(gate)] = to;
        gate_of[static_cast<std::size_t>(to)] = gate;
        gate_of[static_cast<std::size_t>(from)] = other;
        if (other >= 0) site_of[static_cast<std::size_t>(other)] = from;
        current += delta;
        ++accepted;
      } else {
        cache.discard();
      }
      if (check_every > 0 && tried % check_every == 0) {
        const double exact = objective(rebuild_placement());
        const double cached = cache.resum();
        if (std::abs(cached - exact) > 1e-6 * std::max(std::abs(exact), 1.0)) {
          throw std::logic_error("NANOCOST_PLACE_CHECK: incremental HPWL cache (" +
                                 std::to_string(cached) + ") diverged from recompute (" +
                                 std::to_string(exact) + ")");
        }
      }
    }
    // The accepted-move accumulator drifts over millions of += delta;
    // resync it from the cache's exact box re-sum each cooling step.
    const double resynced = cache.resum();
    assert(std::abs(current - resynced) <=
           1e-6 * std::max(std::abs(resynced), 1.0) + 1e-9);
    current = resynced;
    temperature *= params.cooling;
  }
  (void)current;
  result.moves_tried = tried;
  result.moves_accepted = accepted;
  result.placement = rebuild_placement();
  result.final_hpwl = objective(result.placement);
  // Totals are folded in once per anneal, not per move: the 54 ns/move
  // inner loop stays untouched even with metrics on.
  anneal_span.arg("tried", static_cast<std::uint64_t>(tried));
  anneal_span.arg("accepted", static_cast<std::uint64_t>(accepted));
  if (auto* m = obs::metrics_table<PlaceMetrics>()) {
    m->anneals.add();
    m->moves_tried.add(static_cast<std::uint64_t>(tried));
    m->moves_accepted.add(static_cast<std::uint64_t>(accepted));
    m->rejects_write_free.add(static_cast<std::uint64_t>(tried - accepted));
  }
  return result;
}

}  // namespace

PlaceResult anneal_place(const Netlist& netlist, std::int32_t rows, std::int32_t cols,
                         const AnnealParams& params) {
  return anneal_impl(netlist, rows, cols, params, nullptr);
}

MultistartResult anneal_place_multistart(const Netlist& netlist, std::int32_t rows,
                                         std::int32_t cols, std::int32_t starts,
                                         const AnnealParams& params,
                                         exec::ThreadPool* pool) {
  if (starts < 1) throw std::invalid_argument("multi-start needs starts >= 1");
  obs::ObsSpan span("place.multistart");
  span.arg("starts", static_cast<std::uint64_t>(starts));
  std::vector<std::optional<PlaceResult>> results(static_cast<std::size_t>(starts));
  // One task per start; each start's seed and initial placement are
  // pure functions of (params.seed, start index), so the fan-out is
  // bitwise thread-count-invariant.
  exec::parallel_for(pool, starts, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      obs::ObsSpan start_span("place.start");
      start_span.arg("start", static_cast<std::uint64_t>(i));
      AnnealParams task = params;
      task.seed = exec::SeedSequence::for_task(params.seed, static_cast<std::uint64_t>(i));
      if (i == 0) {
        results[static_cast<std::size_t>(i)] = anneal_impl(netlist, rows, cols, task, nullptr);
      } else {
        const Placement random_start =
            Placement::random(netlist, rows, cols, exec::splitmix64(task.seed));
        results[static_cast<std::size_t>(i)] =
            anneal_impl(netlist, rows, cols, task, nullptr, &random_start);
      }
    }
  });

  std::vector<double> hpwls;
  hpwls.reserve(static_cast<std::size_t>(starts));
  std::int32_t best = 0;
  for (std::int32_t i = 0; i < starts; ++i) {
    const PlaceResult& r = *results[static_cast<std::size_t>(i)];
    hpwls.push_back(r.final_hpwl);
    // (final_hpwl, start index) tie-break: strictly-better wins, the
    // lowest index keeps ties.
    if (r.final_hpwl < results[static_cast<std::size_t>(best)]->final_hpwl) best = i;
  }
  return MultistartResult{std::move(*results[static_cast<std::size_t>(best)]), best, starts,
                          std::move(hpwls)};
}

PlaceResult anneal_place_weighted(const Netlist& netlist, std::int32_t rows,
                                  std::int32_t cols, const std::vector<double>& net_weights,
                                  const AnnealParams& params) {
  return anneal_impl(netlist, rows, cols, params, &net_weights);
}

PlaceResult anneal_refine_weighted(const Netlist& netlist, const Placement& start,
                                   const std::vector<double>& net_weights,
                                   const AnnealParams& params) {
  if (start.gate_count() != netlist.gate_count()) {
    throw std::invalid_argument("warm-start placement does not match the netlist");
  }
  // Refinement: a cool schedule around the existing solution rather
  // than a melt-and-refreeze, so unrelated structure survives.
  AnnealParams refine = params;
  if (refine.initial_temperature <= 0.0) {
    const double scale =
        total_weighted_hpwl(netlist, start, net_weights, params.row_weight) /
        std::max(netlist.gate_count(), 1);
    refine.initial_temperature = std::max(scale * 0.1, 1e-6);
  }
  return anneal_impl(netlist, start.rows(), start.cols(), refine, &net_weights, &start);
}

}  // namespace nanocost::place
