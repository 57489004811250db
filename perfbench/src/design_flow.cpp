// design_flow: one caller in a closed loop runs seeded netlists through
// multi-start annealing placement, global routing and post-placement STA
// with direct library calls on the global pool.  Designs span a few gate
// counts and localities; nets with more than 8 pins take the SIMD pin-scan
// path of the placer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "layers.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/route/router.hpp"
#include "nanocost/timing/sta.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace netlist = nanocost::netlist;
namespace place = nanocost::place;

constexpr std::int32_t kGateCounts[] = {500, 1000, 2000};
constexpr double kLocalities[] = {0.5, 0.85};
constexpr std::int32_t kStarts = 4;
constexpr int kSetupRepeats = 7;

struct Design final {
  netlist::Netlist nl;
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  place::AnnealParams params;
  std::unique_ptr<nanocost::timing::TimingAnalyzer> sta;
  double first_hpwl = -1.0;  ///< the first run's result; every rerun must repeat it

  explicit Design(netlist::Netlist n) : nl(std::move(n)) {}
};

struct FlowSample final {
  double flow_ms = 0.0;
  double place_ms = 0.0;
  double route_us = 0.0;
  double sta_us = 0.0;
  std::int32_t gates = 0;
};

class FlowWorkload final {
 public:
  FlowWorkload(const Args& args, Result& result) : args_(args), result_(result) {}

  void run() {
    e2e_.setup_s = median_setup_s(
        kSetupRepeats, [this] { designs_.clear(); }, [this](int) { set_up(); });

    MetricsWindow window;
    std::vector<FlowSample> samples;
    double trace_overhead = 0.0;
    if (args_.trace) {
      // Untraced and traced quarters alternate, so drift during the run
      // does not pose as tracing overhead.
      std::vector<double> quarter_ms[2];
      for (int quarter = 0; quarter < 4; ++quarter) {
        const bool traced = quarter % 2 == 1;
        set_tracing(traced);
        const std::vector<FlowSample> part = measure(args_.seconds / 4.0);
        set_tracing(false);
        for (const FlowSample& f : part) quarter_ms[traced].push_back(f.flow_ms);
        samples.insert(samples.end(), part.begin(), part.end());
      }
      trace_overhead = overhead_pct(median(quarter_ms[1]), median(quarter_ms[0]));
    } else {
      samples = measure(args_.seconds);
    }
    window.close();

    double hpwl_total = 0.0;
    for (const auto& d : designs_) hpwl_total += d->first_hpwl;
    std::fprintf(stdout,
                 "design_flow: flows attempted %llu succeeded %llu failed %llu, hpwl_total %.1f\n",
                 static_cast<unsigned long long>(result_.attempted),
                 static_cast<unsigned long long>(result_.attempted - result_.failed),
                 static_cast<unsigned long long>(result_.failed), hpwl_total);
    if (args_.trace) {
      std::vector<double> place_ms, route_us, sta_us;
      for (const FlowSample& s : samples) {
        place_ms.push_back(s.place_ms);
        route_us.push_back(s.route_us);
        sta_us.push_back(s.sta_us);
      }
      const double tried = window.counter("place.moves_tried");
      double place_ns = 0.0;
      for (const double ms : place_ms) place_ns += ms * 1e6;
      result_.set("place.multistart_ms", mean(place_ms), "ms");
      result_.set("place.ns_per_move", ratio(place_ns, tried), "ns");
      result_.set("place.accept_ratio", ratio(window.counter("place.moves_accepted"), tried),
                  "ratio");
      result_.set("place.write_free_reject_ratio",
                  ratio(window.counter("place.rejects_write_free"), tried), "ratio");
      result_.set("place.hpwl_total", hpwl_total, "sites");
      result_.set("route.route_us", mean(route_us), "us");
      result_.set("timing.sta_us", mean(sta_us), "us");
      result_.set("exec.dispatch_mean_us", window.histogram_mean("exec.dispatch_us"), "us");
      result_.set("trace.overhead_pct", trace_overhead, "%");
    } else {
      double gates = 0.0;
      double seconds = 0.0;
      std::vector<double> flow_ms;
      std::vector<double> signoff_ms;
      for (const FlowSample& s : samples) {
        flow_ms.push_back(s.flow_ms);
        signoff_ms.push_back(s.route_us / 1e3 + s.sta_us / 1e3);
        gates += s.gates;
        seconds += s.flow_ms / 1e3;
      }
      e2e_.op_a = pooled(flow_ms);
      e2e_.op_b = pooled(signoff_ms);
      e2e_.throughput_per_s = gates / seconds;
      report_end_to_end(e2e_, result_);
    }
  }

 private:
  const Args& args_;
  Result& result_;
  EndToEnd e2e_;
  std::vector<std::unique_ptr<Design>> designs_;

  /// Netlists, grids and timing analyzers for every design, then one
  /// warm-up flow on the smallest.
  void set_up() {
    InputRng rng(mix_seed(args_.seed, 3));
    for (const std::int32_t gates : kGateCounts) {
      for (const double locality : kLocalities) {
        netlist::GeneratorParams gen;
        gen.gate_count = gates;
        gen.locality = locality;
        gen.seed = rng.next();
        std::unique_ptr<Design> d;
        {
          Span span("netlist.generate", "netlist");
          d = std::make_unique<Design>(netlist::generate_random_logic(gen));
        }
        d->cols = static_cast<std::int32_t>(std::ceil(std::sqrt(gates * 2.4)));
        d->rows = static_cast<std::int32_t>(std::ceil(gates * 1.2 / static_cast<double>(d->cols)));
        d->params.seed = rng.next();
        d->sta = std::make_unique<nanocost::timing::TimingAnalyzer>(d->nl);
        designs_.push_back(std::move(d));
      }
    }
    (void)flow(*designs_.front(), /*count=*/false);
  }

  /// Whole rotations over every design until `seconds` have passed, so
  /// each design weighs the same in the percentiles.
  std::vector<FlowSample> measure(double seconds) {
    std::vector<FlowSample> samples;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end) {
      for (const auto& d : designs_) samples.push_back(flow(*d, /*count=*/true));
    }
    return samples;
  }

  /// place -> route -> STA on one design, checked: the reported HPWL must
  /// equal a recount from the placement, and repeat the design's first run.
  FlowSample flow(Design& d, bool count) {
    FlowSample s;
    s.gates = d.nl.gate_count();
    Span span("flow", "bench");
    const std::int64_t t0 = now_ns();
    const place::MultistartResult placed = [&] {
      Span place_span("place.multistart", "place");
      return place::anneal_place_multistart(d.nl, d.rows, d.cols, kStarts, d.params);
    }();
    const std::int64_t t1 = now_ns();
    const nanocost::route::RouteResult routed = [&] {
      Span route_span("route.route", "route");
      return nanocost::route::route(d.nl, placed.best.placement);
    }();
    const std::int64_t t2 = now_ns();
    const nanocost::timing::TimingResult timed = [&] {
      Span sta_span("timing.sta", "timing");
      return d.sta->analyze_placed(placed.best.placement);
    }();
    const std::int64_t t3 = now_ns();
    s.flow_ms = ns_to_ms(t3 - t0);
    s.place_ms = ns_to_ms(t1 - t0);
    s.route_us = ns_to_us(t2 - t1);
    s.sta_us = ns_to_us(t3 - t2);

    const double reported = placed.best.final_hpwl;
    const double recount = place::total_hpwl(d.nl, placed.best.placement, d.params.row_weight);
    bool ok = std::abs(reported - recount) <= 1e-9 * std::max(1.0, std::abs(recount)) &&
              routed.connections_routed > 0 && std::isfinite(timed.critical_path_ps) &&
              timed.critical_path_ps > 0.0;
    if (d.first_hpwl < 0.0) d.first_hpwl = reported;
    ok = ok && reported == d.first_hpwl;
    if (count) {
      ++result_.attempted;
      if (!ok) {
        result_.mismatch("flow on " + std::to_string(s.gates) +
                         " gates: HPWL recount, rerun or route/STA check failed");
      }
    }
    return s;
  }
};

}  // namespace

void run_design_flow(const Args& args, Result& result) {
  FlowWorkload workload(args, result);
  workload.run();
}

}  // namespace perfbench
