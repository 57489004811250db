// perfbench_driver: runs one benchmark workload for one seed and prints
// its result as the last line of standard output.
//
//   perfbench_driver --workload serve_light|serve_campaign|design_flow
//                    --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, writes the benchmark-side spans as Chrome trace JSON
// to .bench_out/, and reports each layer's self time.  The metric names
// and units here are the ones BENCHMARK.json declares.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "nanocost/obs/metrics.hpp"
#include "trace.hpp"

namespace {

using perfbench::Result;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"op_a_p50_ms", "ms"},      {"op_a_p90_ms", "ms"},
    {"op_b_p50_ms", "ms"},     {"op_b_p90_ms", "ms"},      {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const char* const kLayers[] = {"serve", "obs",   "core",  "cache", "exec",    "fabsim",
                               "robust", "place", "route", "timing", "netlist", "bench"};

/// Every per-layer metric.  A workload that does not reach a layer leaves
/// its traffic metrics at 0; the probes report on every workload.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"serve.request_mean_us", "us"},
      {"serve.transport_mean_us", "us"},
      {"serve.coalesced_ratio", "ratio"},
      {"wire.codec_ns", "ns"},
      {"core.eq4_sweep_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.hit_ns", "ns"},
      {"core.risk_mc_us.4000", "us"},
      {"core.risk_mc_us.20000", "us"},
      {"core.risk_summarize_us", "us"},
      {"exec.fanout_us", "us"},
      {"exec.dispatch_mean_us", "us"},
      {"obs.scrape_us", "us"},
      {"obs.scrape_bytes", "bytes"},
      {"fabsim.wafer_us.dense", "us"},
      {"fabsim.wafer_us.sparse", "us"},
      {"fabsim.defects_per_wafer", "count"},
      {"robust.blob_store_us", "us"},
      {"robust.blob_load_us", "us"},
      {"robust.blob_bytes", "bytes"},
      {"robust.checkpoint_save_us", "us"},
      {"robust.checkpoint_load_us", "us"},
      {"robust.checkpoint_bytes", "bytes"},
      {"robust.replay_hit_ratio", "ratio"},
      {"cache.lot_encode_us", "us"},
      {"place.multistart_ms", "ms"},
      {"place.ns_per_move", "ns"},
      {"place.accept_ratio", "ratio"},
      {"place.write_free_reject_ratio", "ratio"},
      {"place.hpwl_total", "sites"},
      {"route.route_us", "us"},
      {"timing.sta_us", "us"},
      {"gen.late_p99_us", "us"},
      {"gen.late_max_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  for (const char* layer : kLayers) m.emplace_back(std::string("self_ms.") + layer, "ms");
  return m;
}

/// Fills metrics the workload did not reach with 0 and rejects names
/// outside the declared set, so the printed set always matches
/// BENCHMARK.json.
bool complete(Result& result, const std::vector<std::pair<std::string, std::string>>& declared) {
  std::set<std::string> names;
  for (const auto& [name, unit] : declared) {
    names.insert(name);
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      result.set(name, 0.0, unit);
    } else if (it->second.second != unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, declared %s\n", name.c_str(),
                   it->second.second.c_str(), unit.c_str());
      return false;
    }
  }
  for (const auto& [name, metric] : result.metrics) {
    if (names.count(name) == 0) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1\n",
                 e.what());
    return 2;
  }
  if (!perfbench::release_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // Metrics on, as in the daemon.
  nanocost::obs::set_metrics_enabled(true);
  const std::string stamp = perfbench::stamp_json();
  std::fprintf(stdout, "stamp %s\n", stamp.c_str());

  Result result;
  try {
    if (args.workload == "serve_light") {
      perfbench::run_serve_light(args, result);
    } else if (args.workload == "serve_campaign") {
      perfbench::run_serve_campaign(args, result);
    } else if (args.workload == "design_flow") {
      perfbench::run_design_flow(args, result);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    if (args.trace) {
      perfbench::set_tracing(true);
      perfbench::run_layer_probes(args.seed, result);
      perfbench::set_tracing(false);
      const std::vector<perfbench::SpanRecord> spans = perfbench::recorded_spans();
      for (const auto& [layer, ms] : perfbench::self_time_ms(spans)) {
        result.set("self_ms." + layer, ms, "ms");
      }
      std::filesystem::create_directories(".bench_out");
      const std::string path =
          ".bench_out/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
      if (!perfbench::write_chrome_trace(path, spans, stamp)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      } else {
        std::fprintf(stdout, "trace: %zu spans written to %s\n", spans.size(), path.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    perfbench::remove_scratch_dir();
    return 1;
  }
  perfbench::remove_scratch_dir();
  if (!complete(result, args.trace ? per_layer_metrics() : kEndToEnd)) return 1;
  std::fprintf(stdout, "%s\n", result.json().c_str());
  std::fflush(stdout);
  return 0;
}
