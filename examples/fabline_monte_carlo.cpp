// Fabline Monte Carlo: bring up a synthetic fab for one product --
// defects, wafer maps, yield learning -- and reconcile what the line
// *measures* with what the analytic models *predict*, then roll the
// run into per-die economics.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "nanocost/cache/codec.hpp"
#include "nanocost/cache/hash.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/fabsim/economics.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/report/campaign_report.hpp"
#include "nanocost/report/table.hpp"
#include "nanocost/report/wafer_view.hpp"
#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/route/router.hpp"
#include "nanocost/timing/sta.hpp"
#include "nanocost/units/format.hpp"
#include "nanocost/yield/models.hpp"

namespace {

/// A finite decimal millisecond count > 0 and nothing else: "nan", "1x"
/// and "-5" are refused, not read as a zero or partial budget.
bool parse_positive_ms(const char* text, double& out) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) || value <= 0.0) return false;
  out = value;
  return true;
}

/// With `--trace`/`--metrics` the campaign demo also runs a small
/// place -> route -> STA pass, so one trace shows the whole engine:
/// exec batches, fabsim wafers, robust waves, and physical design.
/// `budget` bounds the router's rip-up passes.
void run_physical_design_sample(const nanocost::robust::CancelToken& budget) {
  using namespace nanocost;
  netlist::GeneratorParams gen;
  gen.gate_count = 300;
  gen.seed = 11;
  const netlist::Netlist logic = netlist::generate_random_logic(gen);
  place::AnnealParams anneal;
  anneal.seed = 11;
  const place::PlaceResult placed = place::anneal_place(logic, 15, 20, anneal);
  const route::RouteResult routed = route::route(logic, placed.placement, {}, budget);
  timing::TimingAnalyzer sta(logic);
  const timing::TimingResult estimated = sta.analyze_estimated(15.0 * 20.0);
  const timing::TimingResult actual = sta.analyze_placed(placed.placement);
  std::printf(
      "physical-design sample: hpwl %.0f, wirelength %lld edges, "
      "critical path %.0f ps (estimated %.0f ps)\n",
      placed.final_hpwl, static_cast<long long>(routed.total_wirelength_edges),
      actual.critical_path_ps, estimated.critical_path_ps);
}

/// The campaign demos' fab: 200 mm wafers, 13 mm dies, clustered defects.
nanocost::fabsim::FabSimulator demo_simulator() {
  using namespace nanocost;
  using namespace nanocost::units::literals;
  defect::DefectFieldParams field;
  field.density_per_cm2 = 0.6;
  field.clustered = true;
  field.cluster_alpha = 2.0;
  return fabsim::FabSimulator(fabsim::FabConfig{
      geometry::WaferSpec::mm200(), geometry::DieSize{13.0_mm, 13.0_mm},
      defect::DefectSizeDistribution::for_feature_size(0.25_um), field,
      defect::WireArray{0.25_um, 0.25_um, 100.0_um, 50}});
}

/// A fresh private directory for a demo's campaign record.
std::string make_scratch_tier() {
  std::string dir = (std::filesystem::temp_directory_path() / "fabline_tier.XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) throw std::runtime_error("mkdtemp failed: " + dir);
  return dir;
}

/// `--faults`: inject deterministic wafer faults and show graceful
/// degradation; `--resume`: kill the campaign mid-run, resume it from its
/// record in a temporary (or the `--cache-dir`) artifact tier, and verify
/// the lot is bitwise what an uninterrupted run produces.  `--cache-dir
/// <path>`: enable the content-addressed artifact tier -- a second
/// invocation against the same directory serves every chunk from disk
/// and reproduces the lot bitwise (the "lot digest" line is the proof).
/// All run the campaign engine instead of phases 1-3, under `budget`.
int run_campaign_demo(bool with_faults, bool with_resume, const std::string& cache_dir,
                      const nanocost::robust::CancelToken& budget) {
  using namespace nanocost;

  std::puts("=== Fault-tolerant fabline campaign ===\n");
  const fabsim::FabSimulator sim = demo_simulator();
  const std::int64_t n_wafers = 200;
  const std::uint64_t seed = 7;
  const fabsim::FabLotCampaign task(sim, n_wafers, seed);

  if (with_faults && std::getenv("NANOCOST_FAULTS") == nullptr) {
    // 1% of wafer touches throw, and retries do not heal them -- the
    // schedule is a pure function of (seed, site, wafer), so every run
    // of this demo loses the same wafers.
    robust::install_fault_plan(
        robust::FaultPlan::parse("fabsim.wafer=1e-2:throw:persistent;seed=17"));
    std::puts("fault plan: fabsim.wafer=1e-2:throw:persistent (seed 17)\n");
  }

  robust::CampaignOptions options;
  options.artifact_dir = cache_dir;
  options.cancel = budget;
  if (!cache_dir.empty()) {
    std::printf("artifact tier: %s\n\n", cache_dir.c_str());
  }
  robust::CampaignResult result;
  if (with_resume) {
    if (cache_dir.empty()) options.artifact_dir = make_scratch_tier();
    options.max_chunks_this_run = 20;  // simulate a kill mid-campaign
    const robust::CampaignResult killed = robust::run_campaign(task, options);
    std::printf("killed after %lld/%lld chunks (record in %s)\n",
                static_cast<long long>(killed.completed_chunks),
                static_cast<long long>(killed.total_chunks), options.artifact_dir.c_str());
    options.max_chunks_this_run = 0;
    result = robust::run_campaign(task, options);
    std::printf("resumed: %lld chunks restored from the artifact tier, %lld recomputed\n\n",
                static_cast<long long>(result.artifact_hits),
                static_cast<long long>(result.completed_chunks - result.artifact_hits));
    if (cache_dir.empty()) std::filesystem::remove_all(options.artifact_dir);
  } else {
    result = robust::run_campaign(task, options);
  }

  std::fputs(report::render_campaign(result, "wafer").c_str(), stdout);
  if (obs::trace_enabled() || obs::metrics_enabled()) run_physical_design_sample(budget);
  const fabsim::PartialLot partial = task.assemble(result);
  std::printf("\nassembled lot: %lld/%lld wafers, measured yield %.4f\n",
              static_cast<long long>(partial.completed_wafers),
              static_cast<long long>(n_wafers), partial.lot.yield());
  if (!cache_dir.empty()) {
    // Hit/miss totals plus a content digest of the assembled lot: two
    // invocations against a warm directory must print the same digest
    // (the CI cache smoke compares these lines verbatim).
    const std::vector<std::uint8_t> encoded = cache::encode(partial.lot);
    std::printf("artifact tier: %lld hits, %lld stores, %lld recomputed\n",
                static_cast<long long>(result.artifact_hits),
                static_cast<long long>(result.artifact_stores),
                static_cast<long long>(result.completed_chunks - result.artifact_hits));
    std::printf("lot digest: %s\n",
                cache::hash128(encoded.data(), encoded.size()).hex().c_str());
  }

  if (with_resume && partial.completeness == 1.0) {
    // The money property: kill + resume reproduces the uninterrupted
    // lot bitwise (wafer streams depend only on the wafer index).
    robust::clear_fault_plan();
    const fabsim::LotResult direct = sim.run(n_wafers, seed);
    const bool identical = direct.good_dies == partial.lot.good_dies &&
                           direct.total_dies == partial.lot.total_dies &&
                           direct.fault_histogram == partial.lot.fault_histogram;
    std::printf("bitwise vs uninterrupted run: %s\n", identical ? "IDENTICAL" : "MISMATCH");
    return identical ? 0 : 1;
  }
  return 0;
}

/// `--deadline-ms N`: run a lot big enough that the wall-clock budget
/// trips mid-campaign, show the graceful degradation (typed partial
/// result, persisted frontier), then resume from a temporary tier with
/// no deadline (only `budget`) and verify the lot is bitwise what an
/// undisturbed run gives.
int run_deadline_demo(double deadline_ms, const nanocost::robust::CancelToken& budget) {
  using namespace nanocost;

  std::puts("=== Deadline-bounded fabline campaign ===\n");
  const fabsim::FabSimulator sim = demo_simulator();
  // Big enough that tens of milliseconds cannot finish it.
  const std::int64_t n_wafers = 20000;
  const std::uint64_t seed = 7;
  const fabsim::FabLotCampaign task(sim, n_wafers, seed);

  robust::CampaignOptions options;
  options.artifact_dir = make_scratch_tier();
  options.cancel = robust::CancelToken::with_deadline(deadline_ms);
  const robust::CampaignResult bounded = robust::run_campaign(task, options);
  const fabsim::PartialLot cut = task.assemble(bounded);
  std::printf("deadline run (%.0f ms): completeness %.4f (expired %s), frontier %lld chunks\n",
              deadline_ms, bounded.completeness(), bounded.expired ? "yes" : "no",
              static_cast<long long>(cut.frontier_chunks));
  std::fputs(report::render_campaign(bounded, "wafer").c_str(), stdout);

  options.cancel = budget;  // resume under --budget alone (unbounded without it)
  const robust::CampaignResult full = robust::run_campaign(task, options);
  std::printf("\nresumed: %lld chunks restored from the artifact tier, %lld recomputed\n",
              static_cast<long long>(full.artifact_hits),
              static_cast<long long>(full.completed_chunks - full.artifact_hits));
  std::filesystem::remove_all(options.artifact_dir);

  const fabsim::PartialLot partial = task.assemble(full);
  std::printf("assembled lot: %lld/%lld wafers, measured yield %.4f\n",
              static_cast<long long>(partial.completed_wafers),
              static_cast<long long>(n_wafers), partial.lot.yield());
  if (partial.completeness == 1.0) {
    robust::clear_fault_plan();
    const fabsim::LotResult direct = sim.run(n_wafers, seed);
    const bool identical = direct.good_dies == partial.lot.good_dies &&
                           direct.total_dies == partial.lot.total_dies &&
                           direct.fault_histogram == partial.lot.fault_histogram;
    std::printf("bitwise vs undisturbed run: %s\n", identical ? "IDENTICAL" : "MISMATCH");
    return identical ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nanocost;
  using namespace nanocost::units::literals;

  bool with_faults = false;
  bool with_resume = false;
  bool with_metrics = false;
  double deadline_ms = 0.0;
  double budget_ms = 0.0;
  std::string trace_file;
  std::string cache_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) with_faults = true;
    if (std::strcmp(argv[i], "--resume") == 0) with_resume = true;
    if (std::strcmp(argv[i], "--metrics") == 0) with_metrics = true;
    if (std::strcmp(argv[i], "--cache-dir") == 0) {
      if (i + 1 >= argc) {
        std::fputs("--cache-dir needs a directory path\n", stderr);
        return 2;
      }
      cache_dir = argv[++i];
    }
    if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (i + 1 >= argc) {
        std::fputs("--deadline-ms needs a millisecond budget\n", stderr);
        return 2;
      }
      if (!parse_positive_ms(argv[++i], deadline_ms)) {
        std::fputs("--deadline-ms needs a positive millisecond budget\n", stderr);
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--budget") == 0) {
      if (i + 1 >= argc) {
        std::fputs("--budget needs a millisecond budget\n", stderr);
        return 2;
      }
      if (!parse_positive_ms(argv[++i], budget_ms)) {
        std::fputs("--budget needs a positive millisecond budget\n", stderr);
        return 2;
      }
    }
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fputs("--trace needs an output file path\n", stderr);
        return 2;
      }
      trace_file = argv[++i];
    }
  }
  if (with_metrics) obs::set_metrics_enabled(true);
  if (!trace_file.empty()) obs::start_trace(trace_file);

  // `--budget M` bounds the invocation's deadline-aware paths only: the
  // token goes to the campaign waves, the mature lot and the router's
  // rip-up passes, which stop early instead of overrunning.  The main
  // demo's ramp (phase 1) takes no token and always runs to completion.
  robust::CancelToken budget_token;
  if (budget_ms > 0.0) {
    budget_token = robust::CancelToken::with_deadline(budget_ms);
    std::printf("global budget: %g ms (bounds the campaign waves, the mature lot and the "
                "route passes; the ramp runs to completion)\n\n",
                budget_ms);
  }

  const auto finish = [&](int rc) {
    if (with_metrics) std::fputs(obs::render_metrics_text().c_str(), stdout);
    if (!trace_file.empty()) {
      if (!obs::stop_trace()) return rc == 0 ? 1 : rc;
      std::printf("trace written to %s\n", trace_file.c_str());
    }
    return rc;
  };

  if (deadline_ms > 0.0) {
    return finish(run_deadline_demo(deadline_ms, budget_token));
  }
  if (with_faults || with_resume || with_metrics || !trace_file.empty() ||
      !cache_dir.empty()) {
    return finish(run_campaign_demo(with_faults, with_resume, cache_dir, budget_token));
  }

  std::puts("=== Fabline Monte Carlo: one product, cradle to economics ===\n");

  // The product: a 13 x 13 mm die (1.69 cm^2, ~10M transistors at
  // s_d = 270 on 0.25 um) on 200 mm wafers.
  const geometry::WaferSpec wafer = geometry::WaferSpec::mm200();
  const geometry::DieSize die{13.0_mm, 13.0_mm};
  const geometry::WaferMap map(wafer, die);
  std::printf("wafer map: %lld complete dies per 200 mm wafer (%.0f%% area utilization)\n\n",
              static_cast<long long>(map.die_count()), map.area_utilization() * 100.0);

  // The process: clustered defects (alpha = 2), edge-heavy radial
  // profile, 0.25 um killer-size distribution.
  defect::DefectFieldParams field;
  field.density_per_cm2 = 0.6;
  field.clustered = true;
  field.cluster_alpha = 2.0;
  field.radial = defect::RadialProfile{1.5, 2.0};
  const fabsim::FabSimulator sim(fabsim::FabConfig{
      wafer, die, defect::DefectSizeDistribution::for_feature_size(0.25_um), field,
      defect::WireArray{0.25_um, 0.25_um, 100.0_um, 50}});

  // Phase 1: process bring-up.  Defect density learns down the curve.
  const yield::LearningCurve curve{2.4, 0.3, 4000.0};
  std::puts("--- ramp: 16k wafers through the learning curve ---");
  report::Table ramp({"cumulative wafers", "D0 [/cm^2]", "measured yield", "good dies"});
  const auto checkpoints = sim.run_ramp(curve, 16000, 4000, 2026);
  std::int64_t cumulative = 0;
  for (const auto& lot : checkpoints) {
    cumulative += static_cast<std::int64_t>(lot.wafers.size());
    ramp.add_row({std::to_string(cumulative),
                  units::format_fixed(curve.density_at(static_cast<double>(cumulative)), 2),
                  units::format_percent(units::Probability::clamped(lot.yield())),
                  std::to_string(lot.good_dies)});
  }
  std::fputs(ramp.to_string().c_str(), stdout);

  // Phase 2: mature production.  Compare measurement against models.
  std::puts("\n--- mature line vs analytic models ---");
  fabsim::FabConfig mature = sim.config();
  mature.field.density_per_cm2 = curve.floor_density();
  const fabsim::FabSimulator mature_sim(mature);
  // Deadline-aware: under --budget an expired clock truncates the lot
  // at the chunk frontier instead of overrunning; with no budget this
  // is bitwise sim.run(500, 7).
  fabsim::PartialLot mature_lot = mature_sim.run_partial(500, 7, nullptr, budget_token);
  if (mature_lot.cancelled) {
    std::printf("global budget expired mid-lot: keeping the %lld completed wafers\n",
                static_cast<long long>(mature_lot.completed_wafers));
    if (mature_lot.completed_wafers < 1) {
      std::puts("no wafer completed before the budget expired; stopping here.");
      return 0;
    }
    mature_lot.lot.wafers.resize(static_cast<std::size_t>(mature_lot.completed_wafers));
  }
  const fabsim::LotResult& lot = mature_lot.lot;
  const double lambda = mature_sim.analytic_mean_faults();

  // One wafer, as the prober sees it ('o' good, 'X' killed).
  const auto faults = mature_sim.snapshot_faults(99);
  std::puts("one mature wafer:");
  std::fputs(report::render_good_bad(
                 mature_sim.wafer_map(),
                 [&](std::int64_t site) { return faults[static_cast<std::size_t>(site)] == 0; })
                 .c_str(),
             stdout);
  report::Table models({"source", "yield"});
  models.add_row({"Monte-Carlo fab (500 wafers)",
                  units::format_fixed(lot.yield(), 4)});
  models.add_row({"negative binomial (alpha=2)",
                  units::format_fixed(yield::NegativeBinomialYield{2.0}.yield(lambda).value(), 4)});
  models.add_row({"Poisson", units::format_fixed(yield::PoissonYield{}.yield(lambda).value(), 4)});
  models.add_row({"Murphy", units::format_fixed(yield::MurphyYield{}.yield(lambda).value(), 4)});
  std::fputs(models.to_string().c_str(), stdout);
  std::printf("(mean faults per die lambda = %.3f; wafer-to-wafer yield sigma = %.3f)\n",
              lambda, lot.yield_stddev());

  // Phase 3: economics of the whole run, eq. (1) with measured values.
  std::puts("\n--- run economics (eq. (1), measured N_ch and Y) ---");
  const cost::WaferCostModel wafer_model{0.25_um, wafer, 24};
  const double run_wafers = 100000.0;
  const auto econ = fabsim::price_lot(lot, wafer_model, 1e7, run_wafers);
  std::printf("wafer cost at %s-wafer run volume: %s (%s/cm^2)\n",
              units::format_si(run_wafers).c_str(),
              units::format_money(econ.wafer_cost).c_str(),
              units::format_fixed(wafer_model.cost_per_cm2(run_wafers).value(), 2).c_str());
  std::printf("measured yield %.1f%%  =>  %s per good die, %s per good transistor\n",
              econ.measured_yield * 100.0,
              units::format_money(econ.cost_per_good_die).c_str(),
              units::format_money(econ.cost_per_good_transistor).c_str());
  return 0;
}
