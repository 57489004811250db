#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "nanocost/exec/simd.hpp"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0) || args.seconds > 600.0) {
        throw std::invalid_argument("--seconds must lie in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t InputRng::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double InputRng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t label) noexcept {
  InputRng rng(seed ^ (label * 0xD1B54A32D192ED03ull));
  return rng.next();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

void Result::mismatch(const std::string& what) {
  std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
  correct = false;
  ++failed;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": {\"value\": ";
    out += json_number(metric.first);
    out += ", \"unit\": \"";
    out += json_escape(metric.second);
    out += "\"}";
  }
  out += "}}";
  return out;
}

bool release_build() noexcept { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

std::string stamp_json() {
  const auto level = nanocost::exec::simd_level();
  return "{\"cpu\": \"" + json_escape(cpu_model()) + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) + ", \"simd\": \"" +
         nanocost::exec::simd_level_name(level) + "\", \"compiler\": \"" +
         json_escape(PERFBENCH_COMPILER) + "\", \"build_type\": \"" +
         json_escape(PERFBENCH_BUILD_TYPE) + "\"}";
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss keeps the high-water mark
  // of the launcher that forked this process, VmHWM starts at exec.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

const std::string& scratch_dir() {
  static const std::string dir = [] {
    const std::string d = ".bench_out/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

void remove_scratch_dir() {
  std::error_code ec;
  std::filesystem::remove_all(".bench_out/run-" + std::to_string(::getpid()), ec);
}

std::string kept_dir(const std::string& name) {
  return ".bench_out/kept/" + std::to_string(::getpid()) + "-" + name;
}

Tail pooled(const std::vector<double>& ms) { return Tail{median(ms), quantile(ms, 0.9)}; }

Tail windowed(const std::vector<TimedSample>& samples, std::int64_t window_ns) {
  if (samples.empty()) return {};
  std::int64_t first = samples.front().at_ns;
  for (const TimedSample& s : samples) first = std::min(first, s.at_ns);
  std::map<std::int64_t, std::vector<double>> windows;
  for (const TimedSample& s : samples) windows[(s.at_ns - first) / window_ns].push_back(s.ms);
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> all;
  for (const auto& [index, ms] : windows) {
    all.insert(all.end(), ms.begin(), ms.end());
    if (ms.size() < 20) continue;
    p50.push_back(median(ms));
    p90.push_back(quantile(ms, 0.9));
  }
  if (p50.empty()) return pooled(all);
  return Tail{median(p50), median(p90)};
}

void report_end_to_end(const EndToEnd& e2e, Result& result) {
  result.set("setup_s", e2e.setup_s, "s");
  result.set("op_a_p50_ms", e2e.op_a.p50, "ms");
  result.set("op_a_p90_ms", e2e.op_a.p90, "ms");
  result.set("op_b_p50_ms", e2e.op_b.p50, "ms");
  result.set("op_b_p90_ms", e2e.op_b.p90, "ms");
  result.set("throughput_per_s", e2e.throughput_per_s, "1/s");
  result.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
