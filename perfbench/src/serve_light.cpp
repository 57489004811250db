// serve_light: an open loop of eq4 sweeps and risk jobs against an
// in-process Server over persistent Unix-socket connections.
//
// Tenants are independent, so arrivals follow a seeded Poisson schedule
// and one sender thread pipelines them across the connections without
// waiting for replies; one receiver thread polls all connections.  Every
// request is timed from when it was due.  The offered load climbs a fixed
// ladder of rates; op A (eq4) and op B (risk) latencies come from the
// first rung, the reference rate.  An operator connection scrapes
// Client::stats() once a second throughout.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "layers.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/serve/client.hpp"
#include "nanocost/serve/server.hpp"
#include "scrape.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace serve = nanocost::serve;
namespace core = nanocost::core;
namespace units = nanocost::units;

// Offered load, req/s.  The first rung is the reference rate; the ladder
// stops at the first rung that misses the limits.
constexpr double kLadder[] = {1000.0, 2000.0, 3000.0};
constexpr double kReferenceShare = 0.6;  ///< share of --seconds spent at the reference rate
/// Op A/B quantiles are taken per window of the reference rung and the
/// median across windows reported.
constexpr std::int64_t kWindowNs = 2'000'000'000;
// The fixed latency limits (p90, from due time) a rung must meet.  They
// sit well above what a rung below capacity shows (eq4 ~0.2-1.5 ms, risk
// ~1-2 ms on a 4-core VM), so a host slowdown does not read as lost
// capacity while a saturated rung, whose backlog grows without bound,
// still misses them.
constexpr double kEq4LimitMs = 10.0;
constexpr double kRiskLimitMs = 50.0;
/// A rung whose responses trail its last due time by more than this has
/// a growing backlog.
constexpr double kMaxDrainMs = 250.0;
// Generator validity.  Single sends run late whenever the server's kernels
// hold every core, and latency is timed from the due time to count that;
// the generator has fallen behind only when its typical send is late or
// it froze outright.
constexpr double kMaxLateP50Us = 250.0;
constexpr double kMaxLateUs = 50'000.0;

constexpr int kConnections = 3;
constexpr int kSetupRepeats = 7;
// Traffic mix: hot eq4 keys (LRU hits, coalescing), unique eq4 inputs
// (misses), and risk jobs at 4000 samples.  20000-sample jobs stay out of
// the open loop: each holds every core of a 4-core box for milliseconds,
// and with even 0.5% of them the whole run's eq4 and risk latencies
// flipped between two regimes about 2x apart from one run to the next.
// The probes time the 20000-sample kernel directly.
constexpr double kHotShare = 0.775;
constexpr double kUniqueShare = 0.2;
constexpr int kHotKeys = 16;
constexpr int kRiskKeys = 8;
constexpr int kRiskSamples = 4000;
constexpr int kVerifyEvery = 8;  ///< about one eq4 response in this many is checked

enum Kind : std::uint8_t { kHot = 0, kUnique = 1, kRisk = 2 };

serve::Eq4Job random_eq4(InputRng& rng) {
  serve::Eq4Job job;
  job.inputs.yield = units::Probability(rng.range(0.6, 0.95));
  job.inputs.manufacturing_cost = units::CostPerArea(rng.range(5.0, 12.0));
  job.inputs.transistors_per_chip = rng.range(2e6, 5e7);
  job.inputs.n_wafers = rng.range(1e4, 1e5);
  return job;
}

serve::RiskJob random_risk(InputRng& rng) {
  serve::RiskJob job;
  job.inputs.nominal = random_eq4(rng).inputs;
  job.s_d = rng.range(400.0, 2000.0);
  job.samples = kRiskSamples;
  job.seed = rng.next() | 1;
  return job;
}

int connect_unix_fd(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

/// One load connection: a Client that only submits, and a second
/// descriptor of the same socket the receiver reads responses from, so
/// sends pipeline while replies are in flight.
struct LoadConn final {
  std::unique_ptr<serve::Client> client;
  std::unique_ptr<serve::FdStream> rx;
  int rx_fd = -1;
};

/// One set-up: the server, its load connections and the operator's.
struct Rig final {
  std::unique_ptr<serve::Server> server;
  std::vector<LoadConn> load;
  std::unique_ptr<serve::Client> op;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    load.clear();
    op.reset();
    if (server) (void)server->shutdown();
  }
};

struct Request final {
  Kind kind = kHot;
  bool verify = false;
  int key = 0;  ///< hot or risk key, or index into the unique jobs
  int conn = 0;
  std::int64_t due_ns = 0;  ///< offset from the rung start until stamped
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  serve::ResponseStatus status = serve::ResponseStatus::kError;
  bool answered = false;
  std::vector<std::uint8_t> bytes;  ///< kept for the correctness check
};

struct RungStats final {
  double rate = 0.0;
  std::vector<double> eq4_ms;
  std::vector<double> risk_ms;
  std::vector<TimedSample> eq4;   ///< eq4_ms stamped with due times
  std::vector<TimedSample> risk;  ///< risk_ms stamped with due times
  std::vector<double> late_us;
  std::vector<double> rtt_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double achieved_rps = 0.0;
  double drain_ms = 0.0;
  bool valid = true;
  bool pass = false;
};

class LightWorkload final {
 public:
  LightWorkload(const Args& args, Result& result) : args_(args), result_(result) {}

  void run() {
    e2e_.setup_s = median_setup_s(
        kSetupRepeats, [this] { rig_.reset(); }, [this](int i) { set_up(i); });

    OperatorScraper scraper(*rig_->op);
    MetricsWindow window;
    if (args_.trace) {
      // Untraced and traced quarters alternate at the reference rate, so
      // drift during the run does not pose as tracing overhead.
      std::vector<double> eq4_ms[2];
      for (int quarter = 0; quarter < 4; ++quarter) {
        const bool traced = quarter % 2 == 1;
        set_tracing(traced);
        rungs_.push_back(run_rung(kLadder[0], args_.seconds / 4.0));
        set_tracing(false);
        eq4_ms[traced].insert(eq4_ms[traced].end(), rungs_.back().eq4_ms.begin(),
                              rungs_.back().eq4_ms.end());
      }
      trace_overhead_pct_ = overhead_pct(median(eq4_ms[1]), median(eq4_ms[0]));
    } else {
      const double rest = args_.seconds * (1.0 - kReferenceShare) /
                          static_cast<double>(std::size(kLadder) - 1);
      for (std::size_t i = 0; i < std::size(kLadder); ++i) {
        rungs_.push_back(run_rung(kLadder[i], i == 0 ? args_.seconds * kReferenceShare : rest));
        if (!rungs_.back().pass) break;
      }
    }
    window.close();
    scraper.stop();
    scrape_us_ = scraper.mean_us();
    scrape_bytes_ = scraper.mean_bytes();
    rig_.reset();

    verify();
    for (const RungStats& r : rungs_) {
      result_.attempted += r.attempted;
      result_.failed += r.failed;
      std::fprintf(stdout,
                   "serve_light rung %.0f req/s: attempted %llu succeeded %llu failed %llu "
                   "achieved %.1f req/s "
                   "eq4 p50/p90 %.3f/%.3f ms risk p50/p90 %.3f/%.3f ms late p99/max %.0f/%.0f us "
                   "late p50 %.0f us drain %.1f ms %s%s\n",
                   r.rate, static_cast<unsigned long long>(r.attempted),
                   static_cast<unsigned long long>(r.attempted - r.failed),
                   static_cast<unsigned long long>(r.failed), r.achieved_rps, median(r.eq4_ms),
                   quantile(r.eq4_ms, 0.9), median(r.risk_ms), quantile(r.risk_ms, 0.9),
                   quantile(r.late_us, 0.99), quantile(r.late_us, 1.0), median(r.late_us), r.drain_ms,
                   r.pass ? "meets limits" : "misses limits",
                   r.valid ? "" : " (INVALID: generator fell behind)");
    }
    if (scraper.failed()) result_.mismatch("operator stats() scrape failed");
    const RungStats& ref = rungs_.front();
    if (!ref.valid) {
      std::fprintf(stdout, "serve_light: run INVALID, the generator fell behind at the reference rate\n");
      result_.correct = false;
    }
    if (args_.trace) {
      report_layers(window);
    } else {
      e2e_.op_a = windowed(ref.eq4, kWindowNs);
      e2e_.op_b = windowed(ref.risk, kWindowNs);
      for (const RungStats& r : rungs_) {
        if (r.pass) e2e_.throughput_per_s = r.achieved_rps;
      }
      report_end_to_end(e2e_, result_);
    }
  }

 private:
  const Args& args_;
  Result& result_;
  EndToEnd e2e_;
  std::unique_ptr<Rig> rig_;
  std::vector<serve::Eq4Job> hot_;
  std::vector<serve::RiskJob> risk_;
  std::vector<serve::Eq4Job> unique_;
  std::vector<Request> requests_;  ///< every measured request, all rungs
  std::vector<RungStats> rungs_;
  std::uint64_t next_id_ = 1;
  double scrape_us_ = 0.0;
  double scrape_bytes_ = 0.0;
  double trace_overhead_pct_ = 0.0;

  /// Inputs, server, connections, handshakes and a warm-up round of every
  /// request family.
  void set_up(int repeat) {
    InputRng rng(mix_seed(args_.seed, 1));
    hot_.clear();
    risk_.clear();
    for (int i = 0; i < kHotKeys; ++i) hot_.push_back(random_eq4(rng));
    for (int i = 0; i < kRiskKeys; ++i) risk_.push_back(random_risk(rng));

    auto rig = std::make_unique<Rig>();
    rig->server = std::make_unique<serve::Server>(serve::ServerOptions{});
    const std::string path = scratch_dir() + "/light-" + std::to_string(repeat) + ".sock";
    rig->server->listen_unix(path);
    for (int c = 0; c < kConnections; ++c) {
      LoadConn conn;
      const int fd = connect_unix_fd(path);
      conn.rx_fd = ::dup(fd);
      if (conn.rx_fd < 0) {
        ::close(fd);
        throw std::runtime_error("dup() failed");
      }
      conn.client = std::make_unique<serve::Client>(fd, fd);
      conn.rx = std::make_unique<serve::FdStream>(conn.rx_fd, conn.rx_fd);
      (void)conn.client->handshake("tenant-" + std::to_string(c));
      rig->load.push_back(std::move(conn));
    }
    rig->op = std::make_unique<serve::Client>(serve::Client::connect_unix(path));
    (void)rig->op->handshake("operator");

    // Warm-up: every hot and risk key once, plus unique eq4 inputs, so the
    // LRU holds the hot set and the pools have run.
    InputRng warm(mix_seed(args_.seed, 2));
    for (int i = 0; i < kHotKeys + kRiskKeys + 32; ++i) {
      serve::Client& client = *rig->load[static_cast<std::size_t>(i % kConnections)].client;
      std::uint64_t id = 0;
      if (i < kHotKeys) {
        id = client.submit(hot_[static_cast<std::size_t>(i)]);
      } else if (i < kHotKeys + kRiskKeys) {
        id = client.submit(risk_[static_cast<std::size_t>(i - kHotKeys)]);
      } else {
        id = client.submit(random_eq4(warm));
      }
      const serve::Response r = client.wait(id);
      if (r.status != serve::ResponseStatus::kOk) {
        throw std::runtime_error("warm-up request failed: " + r.message);
      }
    }
    (void)rig->op->stats();
    rig_ = std::move(rig);
  }

  /// The Poisson schedule of one rung, appended to requests_.
  std::size_t schedule(double rate, double seconds) {
    InputRng rng(mix_seed(args_.seed, 100 + static_cast<std::uint64_t>(rate)));
    const std::size_t first = requests_.size();
    double t = 0.0;
    int conn = 0;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= seconds) break;
      Request req;
      req.due_ns = static_cast<std::int64_t>(t * 1e9);
      req.conn = conn;
      conn = (conn + 1) % kConnections;
      const double u = rng.uniform();
      if (u < kHotShare) {
        req.kind = kHot;
        req.key = static_cast<int>(rng.next() % kHotKeys);
        req.verify = rng.next() % kVerifyEvery == 0;
      } else if (u < kHotShare + kUniqueShare) {
        req.kind = kUnique;
        req.key = static_cast<int>(unique_.size());
        unique_.push_back(random_eq4(rng));
        req.verify = rng.next() % kVerifyEvery == 0;
      } else {
        req.kind = kRisk;
        req.key = static_cast<int>(rng.next() % kRiskKeys);
        req.verify = true;
      }
      requests_.push_back(std::move(req));
    }
    return first;
  }

  RungStats run_rung(double rate, double seconds) {
    const std::size_t first = schedule(rate, seconds);
    const std::size_t count = requests_.size() - first;
    const std::uint64_t id_base = next_id_;
    next_id_ += count;
    std::atomic<bool> receive_failed{false};

    const std::int64_t start = now_ns() + 2'000'000;  // 2 ms to start both threads
    std::thread receiver([&] {
      try {
        receive(first, count, id_base);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: receive failed: %s\n", e.what());
        receive_failed.store(true);
      }
    });
    try {
      for (std::size_t i = 0; i < count; ++i) {
        Request& req = requests_[first + i];
        req.due_ns += start;
        const auto due = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(req.due_ns));
        std::this_thread::sleep_until(due);
        req.sent_ns = now_ns();
        serve::Client& client = *rig_->load[static_cast<std::size_t>(req.conn)].client;
        if (req.kind == kRisk) {
          serve::RiskJob job = risk_[static_cast<std::size_t>(req.key)];
          job.request_id = id_base + i;
          (void)client.submit(job);
        } else {
          serve::Eq4Job job = req.kind == kHot ? hot_[static_cast<std::size_t>(req.key)]
                                               : unique_[static_cast<std::size_t>(req.key)];
          job.request_id = id_base + i;
          (void)client.submit(job);
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: send failed: %s\n", e.what());
    }
    receiver.join();

    RungStats s;
    s.rate = rate;
    s.attempted = count;
    std::int64_t last_recv = start;
    std::int64_t last_due = start;
    for (std::size_t i = 0; i < count; ++i) {
      const Request& req = requests_[first + i];
      last_due = std::max(last_due, req.due_ns);
      if (req.sent_ns != 0) s.late_us.push_back(ns_to_us(req.sent_ns - req.due_ns));
      if (!req.answered || req.status != serve::ResponseStatus::kOk) {
        ++s.failed;
        continue;
      }
      last_recv = std::max(last_recv, req.recv_ns);
      s.rtt_us.push_back(ns_to_us(req.recv_ns - req.sent_ns));
      record_span(req.kind == kRisk ? "serve.risk" : "serve.eq4", "serve", req.sent_ns, req.recv_ns);
      const double ms = ns_to_ms(req.recv_ns - req.due_ns);
      (req.kind == kRisk ? s.risk_ms : s.eq4_ms).push_back(ms);
      (req.kind == kRisk ? s.risk : s.eq4).push_back(TimedSample{req.due_ns, ms});
    }
    s.achieved_rps = static_cast<double>(count - s.failed) / (ns_to_ms(last_recv - start) / 1e3);
    s.drain_ms = ns_to_ms(last_recv - last_due);
    s.valid = median(s.late_us) <= kMaxLateP50Us && quantile(s.late_us, 1.0) <= kMaxLateUs &&
              !receive_failed.load();
    s.pass = s.valid && s.failed == 0 && quantile(s.eq4_ms, 0.9) <= kEq4LimitMs &&
             quantile(s.risk_ms, 0.9) <= kRiskLimitMs && s.drain_ms <= kMaxDrainMs;
    return s;
  }

  /// Reads every response of one rung from all connections.
  void receive(std::size_t first, std::size_t count, std::uint64_t id_base) {
    std::vector<pollfd> fds;
    for (const LoadConn& c : rig_->load) fds.push_back(pollfd{c.rx_fd, POLLIN, 0});
    std::size_t received = 0;
    std::int64_t last_progress = now_ns();
    while (received < count) {
      const int pr = ::poll(fds.data(), fds.size(), 100);
      if (pr < 0 && errno != EINTR) throw std::runtime_error("poll() failed");
      if (pr <= 0) {
        if (now_ns() - last_progress > 30'000'000'000) throw std::runtime_error("responses stalled");
        continue;
      }
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        std::optional<serve::Frame> frame = serve::read_frame(*rig_->load[c].rx);
        if (!frame || frame->type != serve::FrameType::kResponse) {
          throw std::runtime_error("unexpected frame or closed connection");
        }
        serve::Response r = serve::decode_response(frame->payload);
        const std::int64_t t = now_ns();
        if (r.request_id < id_base || r.request_id >= id_base + count) {
          throw std::runtime_error("response for an unknown request id");
        }
        Request& req = requests_[first + (r.request_id - id_base)];
        req.recv_ns = t;
        req.status = r.status;
        req.answered = true;
        if (req.verify) req.bytes = std::move(r.result);
        ++received;
        last_progress = t;
      }
    }
  }

  /// Served bytes against direct library calls made here: the sampled eq4
  /// responses, and every risk response against its key's direct result.
  void verify() {
    std::vector<std::vector<std::uint8_t>> risk_direct(risk_.size());
    for (std::size_t k = 0; k < risk_.size(); ++k) {
      Span span("core.monte_carlo_cost", "core");
      const serve::RiskJob& j = risk_[k];
      risk_direct[k] = nanocost::cache::encode(
          core::monte_carlo_cost(j.inputs, j.s_d, j.samples, j.seed, j.die_budget));
    }
    std::size_t checked = 0;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const Request& req = requests_[i];
      if (!req.verify || !req.answered || req.status != serve::ResponseStatus::kOk) continue;
      std::vector<std::uint8_t> direct;
      if (req.kind == kRisk) {
        direct = risk_direct[static_cast<std::size_t>(req.key)];
      } else {
        Span span("core.sweep_eq4", "core");
        const serve::Eq4Job& j = req.kind == kHot ? hot_[static_cast<std::size_t>(req.key)]
                                                  : unique_[static_cast<std::size_t>(req.key)];
        direct = nanocost::cache::encode(core::sweep_eq4(j.inputs, j.lo, j.hi, j.steps));
      }
      ++checked;
      if (direct != req.bytes) {
        result_.mismatch("served " + std::string(req.kind == kRisk ? "risk" : "eq4") +
                         " bytes differ from the direct call (request " + std::to_string(i) + ")");
      }
    }
    std::fprintf(stdout, "serve_light: checked %zu served responses against direct library bytes\n",
                 checked);
  }

  void report_layers(MetricsWindow& window) {
    std::vector<double> rtt;
    std::vector<double> late;
    for (const RungStats& r : rungs_) {
      rtt.insert(rtt.end(), r.rtt_us.begin(), r.rtt_us.end());
      late.insert(late.end(), r.late_us.begin(), r.late_us.end());
    }
    const double server_us = window.histogram_mean("serve.request_us");
    result_.set("serve.request_mean_us", server_us, "us");
    result_.set("serve.transport_mean_us", mean(rtt) - server_us, "us");
    result_.set("serve.coalesced_ratio",
                ratio(window.counter("serve.coalesced"), window.counter("serve.requests")), "ratio");
    const double hits = window.counter("cache.hits");
    result_.set("cache.hit_ratio", ratio(hits, hits + window.counter("cache.misses")), "ratio");
    result_.set("exec.dispatch_mean_us", window.histogram_mean("exec.dispatch_us"), "us");
    result_.set("obs.scrape_us", scrape_us_, "us");
    result_.set("obs.scrape_bytes", scrape_bytes_, "bytes");
    result_.set("gen.late_p99_us", quantile(late, 0.99), "us");
    result_.set("gen.late_max_us", quantile(late, 1.0), "us");
    result_.set("trace.overhead_pct", trace_overhead_pct_, "%");
  }
};

}  // namespace

void run_serve_light(const Args& args, Result& result) {
  LightWorkload workload(args, result);
  workload.run();
}

}  // namespace perfbench
