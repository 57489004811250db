// Microbenchmarks (google-benchmark): throughput of the heavy kernels --
// layout flattening + transistor counting, pattern extraction, wafer-map
// construction, Monte-Carlo wafer simulation, and cost-model evaluation.
//
// The custom main() first times the two parallel hot paths (fabsim lot,
// risk Monte-Carlo) at 1/2/8/hardware threads and writes the results to
// BENCH_perf.json (ns/op + speedup vs serial) so the perf trajectory is
// machine-trackable across PRs; then the google-benchmark suite runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "nanocost/exec/simd.hpp"

#include "nanocost/cache/cached.hpp"
#include "nanocost/cache/lru.hpp"
#include "nanocost/core/generalized_cost.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/geometry/wafer_map.hpp"
#include "nanocost/layout/counting.hpp"
#include "nanocost/layout/generators.hpp"
#include "nanocost/netlist/generator.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/regularity/extractor.hpp"
#include "nanocost/route/router.hpp"
#include "nanocost/timing/sta.hpp"

namespace {

using namespace nanocost;

fabsim::FabSimulator make_fabsim() {
  defect::DefectFieldParams field;
  field.density_per_cm2 = 0.5;
  return fabsim::FabSimulator{fabsim::FabConfig{
      geometry::WaferSpec::mm200(),
      geometry::DieSize{units::Millimeters{12.0}, units::Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(units::Micrometers{0.25}), field,
      defect::WireArray{units::Micrometers{0.25}, units::Micrometers{0.25},
                        units::Micrometers{100.0}, 50}}};
}

core::UncertainInputs make_risk_inputs() {
  core::UncertainInputs inputs;
  inputs.nominal.transistors_per_chip = 1e7;
  inputs.nominal.n_wafers = 10000.0;
  return inputs;
}

void BM_TransistorCountFlat(benchmark::State& state) {
  layout::Library lib;
  const auto n = static_cast<std::int32_t>(state.range(0));
  const layout::Cell* sram = layout::make_sram_array(lib, n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::count_transistors_flat(*sram));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 6);
}
BENCHMARK(BM_TransistorCountFlat)->Arg(32)->Arg(64)->Arg(128);

void BM_TransistorCountHierarchical(benchmark::State& state) {
  layout::Library lib;
  const auto n = static_cast<std::int32_t>(state.range(0));
  const layout::Cell* sram = layout::make_sram_array(lib, n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout::count_transistors_hierarchical(*sram));
  }
}
BENCHMARK(BM_TransistorCountHierarchical)->Arg(128)->Arg(1024);

void BM_PatternExtraction(benchmark::State& state) {
  layout::Library lib;
  layout::StdCellBlockParams params;
  params.rows = static_cast<std::int32_t>(state.range(0));
  params.row_width_lambda = 512;
  const layout::Cell* block = layout::make_stdcell_block(lib, params);
  regularity::ExtractorParams ep;
  ep.window = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(regularity::extract_patterns(*block, ep));
  }
}
BENCHMARK(BM_PatternExtraction)->Arg(8)->Arg(32);

void BM_PatternExtractionOrientationInvariant(benchmark::State& state) {
  layout::Library lib;
  layout::StdCellBlockParams params;
  params.rows = 16;
  params.row_width_lambda = 512;
  const layout::Cell* block = layout::make_stdcell_block(lib, params);
  regularity::ExtractorParams ep;
  ep.window = 64;
  ep.orientation_invariant = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(regularity::extract_patterns(*block, ep));
  }
}
BENCHMARK(BM_PatternExtractionOrientationInvariant);

void BM_WaferMap(benchmark::State& state) {
  const geometry::WaferSpec wafer = geometry::WaferSpec::mm300();
  const geometry::DieSize die{units::Millimeters{static_cast<double>(state.range(0))},
                              units::Millimeters{static_cast<double>(state.range(0))}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::WaferMap(wafer, die));
  }
}
BENCHMARK(BM_WaferMap)->Arg(5)->Arg(10)->Arg(20);

void BM_FabSimWafer(benchmark::State& state) {
  const fabsim::FabSimulator sim = make_fabsim();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(1, seed++));
  }
}
BENCHMARK(BM_FabSimWafer);

void BM_FabSimLot(benchmark::State& state) {
  const fabsim::FabSimulator sim = make_fabsim();
  exec::ThreadPool pool(static_cast<int>(state.range(0)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(16, seed++, &pool));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_FabSimLot)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_RiskMonteCarlo(benchmark::State& state) {
  const core::UncertainInputs inputs = make_risk_inputs();
  exec::ThreadPool pool(static_cast<int>(state.range(0)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::monte_carlo_cost(inputs, 300.0, 4000, seed++, 0.0, &pool));
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_RiskMonteCarlo)->Arg(1)->Arg(2)->Arg(8);

void BM_RobustSd(benchmark::State& state) {
  const core::UncertainInputs inputs = make_risk_inputs();
  exec::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::robust_sd(inputs, 0.9, 120.0, 1500.0, 16, 500, 1, &pool));
  }
}
BENCHMARK(BM_RobustSd)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_GeneralizedEvaluate(benchmark::State& state) {
  core::ProductScenario scenario;
  scenario.transistors = 1e7;
  const core::GeneralizedCostModel model(scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(300.0));
  }
}
BENCHMARK(BM_GeneralizedEvaluate);

void BM_OptimalSd(benchmark::State& state) {
  core::Eq4Inputs inputs;
  inputs.n_wafers = 5000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_sd_eq4(inputs));
  }
}
BENCHMARK(BM_OptimalSd);

void BM_AnnealPlace(benchmark::State& state) {
  netlist::GeneratorParams gen;
  gen.gate_count = static_cast<std::int32_t>(state.range(0));
  gen.locality = 0.4;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);
  const auto cols = static_cast<std::int32_t>(std::ceil(std::sqrt(gen.gate_count * 2.4)));
  const auto rows = static_cast<std::int32_t>(
      std::ceil(gen.gate_count * 1.2 / static_cast<double>(cols)));
  place::AnnealParams params;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    params.seed = seed++;
    benchmark::DoNotOptimize(place::anneal_place(nl, rows, cols, params));
  }
}
BENCHMARK(BM_AnnealPlace)->Arg(200)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_GlobalRoute(benchmark::State& state) {
  netlist::GeneratorParams gen;
  gen.gate_count = 1000;
  gen.locality = 0.4;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);
  const place::PlaceResult placed = place::anneal_place(nl, 20, 60, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::route(nl, placed.placement));
  }
}
BENCHMARK(BM_GlobalRoute);

void BM_StaticTiming(benchmark::State& state) {
  netlist::GeneratorParams gen;
  gen.gate_count = 2000;
  const netlist::Netlist nl = netlist::generate_random_logic(gen);
  const place::PlaceResult placed = place::anneal_place(nl, 25, 96, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::analyze_placed(nl, placed.placement));
  }
}
BENCHMARK(BM_StaticTiming);

// ---- BENCH_perf.json: parallel hot-path timings -------------------------

struct TimedCase {
  std::string name;
  int threads = 1;
  double ns_per_op = 0.0;
  double speedup_vs_serial = 1.0;
  /// ns_per_op / baseline ns_per_op for the same (name, threads) in the
  /// committed BENCH_perf.json; 0 when the baseline lacks the case.
  double baseline_ratio = 0.0;
  /// Non-zero obs counter totals of one instrumented (untimed) run;
  /// captured once per case name -- totals are thread-count-invariant.
  std::vector<std::pair<std::string, std::uint64_t>> obs_counters;
};

/// "model name" line of /proc/cpuinfo -- perf numbers are only
/// comparable on the same part, and the perf gate keys on this.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        const char* p = colon + 1;
        while (*p == ' ' || *p == '\t') ++p;
        model = p;
        while (!model.empty() && (model.back() == '\n' || model.back() == '\r')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// One baseline sample from a committed BENCH_perf.json.
struct BaselineCase {
  std::string name;
  int threads = 0;
  double ns_per_op = 0.0;
};

/// Tolerant line-oriented scan of a committed BENCH_perf.json (any
/// schema version: every writer emits one case per line with name /
/// threads / ns_per_op leading).  A real JSON parser is deliberately
/// not required for a file this tool itself writes.
std::vector<BaselineCase> load_baseline(const char* path) {
  std::vector<BaselineCase> out;
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return out;
  char line[1024];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    BaselineCase c;
    char name[128];
    if (std::sscanf(line, " {\"name\": \"%127[^\"]\", \"threads\": %d, \"ns_per_op\": %lf",
                    name, &c.threads, &c.ns_per_op) == 3) {
      c.name = name;
      out.push_back(std::move(c));
    }
  }
  std::fclose(f);
  return out;
}

/// Runs `work` once with metrics on (timing is done separately, with
/// metrics off, so the timed numbers stay uninstrumented) and returns
/// the non-zero counter totals.
template <typename Work>
std::vector<std::pair<std::string, std::uint64_t>> collect_obs_counters(Work&& work) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  work();
  obs::set_metrics_enabled(false);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : obs::snapshot_metrics().counters) {
    if (value > 0) out.emplace_back(name, value);
  }
  obs::reset_metrics();
  return out;
}

/// Shortest span one timing sample covers.  A sub-millisecond op is
/// repeated within the sample until the sample spans this long, so one
/// scheduler hiccup or one cold cache line is spread over many calls
/// instead of deciding the sample; an op of 1 ms or more runs once.
constexpr auto kMinSampleSpan = std::chrono::milliseconds(1);

/// Median-of-`reps` wall time per invocation of `fn`, in nanoseconds,
/// each sample averaging the calls made in at least kMinSampleSpan.
/// The median is robust against the one-sided noise a shared machine
/// injects (interrupts, frequency dips) without rewarding a single
/// lucky run the way best-of does.
template <typename Fn>
double time_ns(Fn&& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    std::int64_t calls = 0;
    const auto t0 = std::chrono::steady_clock::now();
    auto t1 = t0;
    do {
      fn();
      ++calls;
      t1 = std::chrono::steady_clock::now();
    } while (t1 - t0 < kMinSampleSpan);
    samples.push_back(static_cast<double>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
                      static_cast<double>(calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Benchmark repetitions per case; the median of these is reported.
constexpr int kBenchReps = 5;

std::vector<int> bench_thread_counts() {
  std::vector<int> counts{1, 2, 8, exec::ThreadPool::default_thread_count()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// Times serial `work()` (no thread ladder) and appends one case.
template <typename Work>
void run_serial(const std::string& name, std::vector<TimedCase>& cases, Work&& work) {
  TimedCase c;
  c.name = name;
  c.ns_per_op = time_ns(work, kBenchReps);
  c.obs_counters = collect_obs_counters(work);
  cases.push_back(std::move(c));
  std::printf("  %-24s threads=%-3d  %12.0f ns/op\n", name.c_str(), 1,
              cases.back().ns_per_op);
}

/// Times `work(pool)` across the thread ladder and appends one case per
/// thread count, with speedup relative to the 1-thread run.
template <typename Work>
void run_ladder(const std::string& name, std::vector<TimedCase>& cases, Work&& work) {
  double serial_ns = 0.0;
  for (const int threads : bench_thread_counts()) {
    exec::ThreadPool pool(threads);
    const double ns = time_ns([&] { work(pool); }, kBenchReps);
    TimedCase c;
    if (threads == 1) {
      serial_ns = ns;
      c.obs_counters = collect_obs_counters([&] { work(pool); });
    }
    c.name = name;
    c.threads = threads;
    c.ns_per_op = ns;
    c.speedup_vs_serial = serial_ns > 0.0 ? serial_ns / ns : 1.0;
    cases.push_back(std::move(c));
    std::printf("  %-24s threads=%-3d  %12.0f ns/op  speedup %.2fx\n", name.c_str(),
                threads, ns, cases.back().speedup_vs_serial);
  }
}

void write_bench_json() {
  std::puts("=== parallel hot paths (writes BENCH_perf.json) ===");
  std::vector<TimedCase> cases;

  const fabsim::FabSimulator sim = make_fabsim();
  run_ladder("fabsim_lot_200w", cases,
             [&](exec::ThreadPool& pool) { benchmark::DoNotOptimize(sim.run(200, 42, &pool)); });

  const core::UncertainInputs inputs = make_risk_inputs();
  run_ladder("risk_mc_20000", cases, [&](exec::ThreadPool& pool) {
    benchmark::DoNotOptimize(core::monte_carlo_cost(inputs, 300.0, 20000, 1, 0.0, &pool));
  });
  run_ladder("robust_sd_24x2000", cases, [&](exec::ThreadPool& pool) {
    benchmark::DoNotOptimize(core::robust_sd(inputs, 0.9, 120.0, 1500.0, 24, 2000, 1, &pool));
  });

  // Warm-hit latency of the cached spellings: one prewarm miss fills
  // the LRU, then every timed iteration is a pure hit (key hash +
  // lookup + decode).  The perf gate checks these against the cold
  // cases above for the >= 50x warm-hit contract.
  {
    exec::ThreadPool pool(1);
    benchmark::DoNotOptimize(
        cache::monte_carlo_cost_cached(inputs, 300.0, 20000, 1, 0.0, &pool));
    run_serial("risk_mc_20000_cached", cases, [&] {
      benchmark::DoNotOptimize(
          cache::monte_carlo_cost_cached(inputs, 300.0, 20000, 1, 0.0, &pool));
    });
    benchmark::DoNotOptimize(
        cache::robust_sd_cached(inputs, 0.9, 120.0, 1500.0, 24, 2000, 1, &pool));
    run_serial("robust_sd_24x2000_cached", cases, [&] {
      benchmark::DoNotOptimize(
          cache::robust_sd_cached(inputs, 0.9, 120.0, 1500.0, 24, 2000, 1, &pool));
    });
  }

  // Physical-design kernels: multi-start placement across the ladder,
  // then the serial incremental router and STA.
  netlist::GeneratorParams gen;
  gen.gate_count = 500;
  gen.locality = 0.4;
  const netlist::Netlist place_nl = netlist::generate_random_logic(gen);
  run_ladder("anneal_place_500", cases, [&](exec::ThreadPool& pool) {
    benchmark::DoNotOptimize(place::anneal_place_multistart(place_nl, 25, 35, 4, {}, &pool));
  });

  gen.gate_count = 1000;
  const netlist::Netlist route_nl = netlist::generate_random_logic(gen);
  const place::PlaceResult routed_place = place::anneal_place(route_nl, 20, 60, {});
  run_serial("global_route", cases, [&] {
    benchmark::DoNotOptimize(route::route(route_nl, routed_place.placement));
  });

  gen.gate_count = 2000;
  const netlist::Netlist sta_nl = netlist::generate_random_logic(gen);
  const place::PlaceResult sta_place = place::anneal_place(sta_nl, 25, 96, {});
  timing::TimingAnalyzer sta(sta_nl);
  run_serial("sta_post_place", cases, [&] {
    benchmark::DoNotOptimize(sta.analyze_placed(sta_place.placement));
  });

  // Annotate each case with its ratio against the committed baseline
  // (NANOCOST_BENCH_BASELINE overrides the default path, which assumes
  // the benchmark runs from a build directory one level under the
  // repo).  The perf gate consumes these ratios.
  const char* baseline_env = std::getenv("NANOCOST_BENCH_BASELINE");
  const char* baseline_path =
      (baseline_env != nullptr && baseline_env[0] != '\0') ? baseline_env
                                                           : "../BENCH_perf.json";
  const std::vector<BaselineCase> baseline = load_baseline(baseline_path);
  for (TimedCase& c : cases) {
    for (const BaselineCase& b : baseline) {
      if (b.name == c.name && b.threads == c.threads && b.ns_per_op > 0.0) {
        c.baseline_ratio = c.ns_per_op / b.ns_per_op;
        break;
      }
    }
  }

  std::FILE* f = std::fopen("BENCH_perf.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_perf.json\n");
    return;
  }
  // On a 1-core machine every thread count degenerates to serial
  // execution, so the speedup columns carry no information.
  std::fprintf(f, "{\n  \"schema_version\": 3,\n  \"hardware_concurrency\": %d,\n",
               exec::ThreadPool::default_thread_count());
  std::fprintf(f, "  \"cpu_model\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "  \"compiler\": \"%s\",\n", __VERSION__);
  std::fprintf(f, "  \"simd_level\": \"%s\",\n",
               exec::simd_level_name(exec::simd_level()));
  std::fprintf(f, "  \"bench_reps\": %d,\n", kBenchReps);
  if (exec::ThreadPool::default_thread_count() == 1) {
    std::fprintf(f, "  \"meaningless_speedup\": true,\n");
  }
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %d, \"ns_per_op\": %.0f, "
                 "\"speedup_vs_serial\": %.3f",
                 cases[i].name.c_str(), cases[i].threads, cases[i].ns_per_op,
                 cases[i].speedup_vs_serial);
    if (cases[i].baseline_ratio > 0.0) {
      std::fprintf(f, ", \"baseline_ratio\": %.3f", cases[i].baseline_ratio);
    }
    if (!cases[i].obs_counters.empty()) {
      std::fprintf(f, ", \"obs\": {");
      for (std::size_t k = 0; k < cases[i].obs_counters.size(); ++k) {
        std::fprintf(f, "%s\"%s\": %llu", k > 0 ? ", " : "",
                     cases[i].obs_counters[k].first.c_str(),
                     static_cast<unsigned long long>(cases[i].obs_counters[k].second));
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::puts("wrote BENCH_perf.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  write_bench_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
