// serve_campaign: two tenants in a closed loop submit Monte-Carlo lot
// campaigns (clustered defects) to an in-process Server with an artifact
// directory.  Lots mix a dense shape, bound by the fabsim
// kernel, and a sparse one, bound by artifact writes.  The cold phase
// starts on a fresh directory, so it computes and writes; then the server
// shuts down, a new one starts on the same directory, and the replay phase
// resubmits the same lots, so it reads.
//
// Each tenant cycles dense, dense, sparse, so op A's and op B's p50 fall
// among the dense lots and their p90 among the sparse ones, each well
// inside its cluster.  Every cold wafer writes a quarter of a blob file,
// so the cold phase is a fixed number of small lots: a file system that
// creates and deletes 10^5 files a minute slows down for minutes
// afterwards, and a benchmark that does so measures its own history.
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "layers.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/serve/client.hpp"
#include "nanocost/serve/server.hpp"
#include "scrape.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace serve = nanocost::serve;

constexpr int kTenants = 2;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kColdLotsPerTenant = 24;
/// Replay passes repeat until --seconds have passed, at most this many:
/// the server keeps every campaign's outcome, so memory grows per replay.
constexpr int kMaxReplayPasses = 40;
/// Replay quantiles are taken per window of a few passes and the median
/// across windows reported, so a host hiccup during one pass does not
/// move the run's figure.
constexpr std::int64_t kReplayWindowNs = 250'000'000;
constexpr std::int64_t kDenseWafers = 200;
constexpr std::int64_t kSparseWafers = 1000;

serve::CampaignJob lot_job(bool dense, std::uint64_t seed) {
  serve::CampaignJob job;
  job.clustered = true;
  job.seed = seed;
  if (dense) {
    job.wafer_diameter_mm = 300.0;
    job.defect_density_per_cm2 = 3.0;
    job.n_wafers = kDenseWafers;
  } else {
    job.n_wafers = kSparseWafers;
  }
  return job;
}

struct Lot final {
  serve::CampaignJob job;
  bool dense = false;
  bool traced = false;  ///< submitted cold while tracing was on
  double cold_ms = 0.0;
  bool cold_ok = false;
  std::vector<double> replay_ms;  ///< one per successful replay pass
  std::vector<TimedSample> replays_at;  ///< replay_ms stamped with submit times
  std::uint64_t replays = 0;
  std::uint64_t replay_failed = 0;
  std::uint64_t replay_hits = 0;  ///< chunks restored, summed over passes
  std::vector<std::uint8_t> cold_bytes;
};

/// Commits the checkout filesystem's dirty pages (untimed hygiene, so one
/// run's blob writes are not flushed during the next).
void flush_filesystem() {
  const int fd = ::open(".", O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

/// The server on one artifact directory plus each tenant's connection and
/// the operator's.
struct Rig final {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> tenants;
  std::unique_ptr<serve::Client> op;

  Rig(const std::string& artifact_dir, const std::string& socket) {
    serve::ServerOptions options;
    options.artifact_dir = artifact_dir;
    server = std::make_unique<serve::Server>(options);
    server->listen_unix(socket);
    for (int t = 0; t < kTenants; ++t) {
      tenants.push_back(std::make_unique<serve::Client>(serve::Client::connect_unix(socket)));
      (void)tenants.back()->handshake("tenant-" + std::to_string(t));
    }
    op = std::make_unique<serve::Client>(serve::Client::connect_unix(socket));
    (void)op->handshake("operator");
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    tenants.clear();
    op.reset();
    (void)server->shutdown();
  }
};

std::int64_t chunk_count(const serve::CampaignJob& job) {
  const std::int64_t grain = nanocost::fabsim::FabLotCampaign::kGrain;
  return (job.n_wafers + grain - 1) / grain;
}

class CampaignWorkload final {
 public:
  CampaignWorkload(const Args& args, Result& result) : args_(args), result_(result) {}

  void run() {
    // Earlier runs' blob writes would otherwise be committed during this one.
    flush_filesystem();
    e2e_.setup_s = median_setup_s(
        kSetupRepeats,
        [this] { rig_.reset(); },
        [this](int i) { set_up(i); });

    MetricsWindow window;
    OperatorScraper scraper(*rig_->op);
    const std::int64_t replay_end = now_ns() + static_cast<std::int64_t>(args_.seconds * 1e9);
    if (args_.trace) {
      // Untraced and traced quarters alternate, so drift during the run
      // does not pose as tracing overhead.  Replays run traced.
      for (int quarter = 0; quarter < 4; ++quarter) {
        set_tracing(quarter % 2 == 1);
        cold_phase(kColdLotsPerTenant / 4);
      }
    } else {
      cold_phase(kColdLotsPerTenant);
    }
    scraper.stop();
    scrape_us_ = scraper.mean_us();
    scrape_bytes_ = scraper.mean_bytes();
    scrape_failed_ = scraper.failed();

    // Restart on the same directory: nothing survives but the disk.
    rig_.reset();
    rig_ = std::make_unique<Rig>(dir_, scratch_dir() + "/replay.sock");
    for (int pass = 0; pass < kMaxReplayPasses && (pass == 0 || now_ns() < replay_end); ++pass) {
      replay_pass();
    }
    set_tracing(false);
    window.close();
    rig_.reset();

    verify();
    account();
    if (args_.trace) {
      std::vector<double> cold_ms[2];
      for (const auto& lots : lots_) {
        for (const Lot& lot : lots) cold_ms[lot.traced].push_back(lot.cold_ms);
      }
      report_layers(window, overhead_pct(median(cold_ms[1]), median(cold_ms[0])));
    } else {
      std::vector<double> cold_ms;
      std::vector<TimedSample> replays;
      for (const auto& lots : lots_) {
        for (const Lot& lot : lots) {
          if (lot.cold_ok) cold_ms.push_back(lot.cold_ms);
          replays.insert(replays.end(), lot.replays_at.begin(), lot.replays_at.end());
        }
      }
      e2e_.op_a = pooled(cold_ms);
      e2e_.op_b = windowed(replays, kReplayWindowNs);
      e2e_.throughput_per_s = cold_wafers_ / cold_wall_s_;
      report_end_to_end(e2e_, result_);
    }
    flush_filesystem();
  }

 private:
  const Args& args_;
  Result& result_;
  EndToEnd e2e_;
  std::string dir_;
  std::unique_ptr<Rig> rig_;
  std::vector<Lot> lots_[kTenants];
  double cold_wafers_ = 0.0;
  double cold_wall_s_ = 0.0;
  double scrape_us_ = 0.0;
  double scrape_bytes_ = 0.0;
  bool scrape_failed_ = false;

  /// A fresh artifact directory, the server, the connections and
  /// handshakes, and one warm-up lot of each shape (the first lots on a
  /// fresh directory run several times slower than the rest).
  void set_up(int repeat) {
    dir_ = kept_dir("artifacts-" + std::to_string(repeat));
    rig_ = std::make_unique<Rig>(dir_, scratch_dir() + "/cold-" + std::to_string(repeat) + ".sock");
    for (int shape = 0; shape < 2; ++shape) {
      serve::Client& client = *rig_->tenants[static_cast<std::size_t>(shape)];
      const serve::Response r =
          client.wait(client.submit(lot_job(shape == 0, mix_seed(args_.seed, 900 + shape))));
      if (r.status != serve::ResponseStatus::kOk) {
        throw std::runtime_error("warm-up lot failed: " + r.message);
      }
    }
    (void)rig_->op->stats();
  }

  /// Each tenant submits `lots_each` lots, the next when the previous one
  /// returns, cycling dense, dense, sparse (tenant 1 one step ahead).
  void cold_phase(std::size_t lots_each) {
    const std::int64_t start = now_ns();
    std::atomic<std::int64_t> last_done{start};
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back([this, t, lots_each, &last_done] {
        std::vector<Lot>& lots = lots_[t];
        serve::Client& client = *rig_->tenants[static_cast<std::size_t>(t)];
        for (std::size_t i = 0; i < lots_each; ++i) {
          Lot lot;
          lot.dense = (lots.size() + static_cast<std::size_t>(t)) % 3 != 2;
          lot.traced = tracing();
          lot.job = lot_job(lot.dense,
                            mix_seed(args_.seed, 1000 + static_cast<std::uint64_t>(t) * 1'000'000 +
                                                     lots.size()));
          try {
            Span span(lot.dense ? "serve.campaign.dense" : "serve.campaign.sparse", "serve");
            const std::int64_t t0 = now_ns();
            serve::Response r = client.wait(client.submit(lot.job));
            const std::int64_t t1 = now_ns();
            lot.cold_ms = ns_to_ms(t1 - t0);
            lot.cold_ok = r.status == serve::ResponseStatus::kOk && r.completeness == 1.0;
            lot.cold_bytes = std::move(r.result);
            std::int64_t prev = last_done.load();
            while (prev < t1 && !last_done.compare_exchange_weak(prev, t1)) {
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: lot failed: %s\n", e.what());
          }
          lots.push_back(std::move(lot));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    cold_wafers_ = 0.0;
    for (const auto& lots : lots_) {
      for (const Lot& lot : lots) {
        if (lot.cold_ok) cold_wafers_ += static_cast<double>(lot.job.n_wafers);
      }
    }
    cold_wall_s_ += ns_to_ms(last_done.load() - start) / 1e3;
  }

  /// Every tenant resubmits its cold lots in order; each must come back
  /// byte-equal to its cold result.
  void replay_pass() {
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back([this, t] {
        serve::Client& client = *rig_->tenants[static_cast<std::size_t>(t)];
        for (Lot& lot : lots_[t]) {
          ++lot.replays;
          try {
            Span span(lot.dense ? "serve.replay.dense" : "serve.replay.sparse", "serve");
            const std::int64_t t0 = now_ns();
            const serve::Response r = client.wait(client.submit(lot.job));
            const double ms = ns_to_ms(now_ns() - t0);
            lot.replay_hits += r.artifact_hits;
            if (r.status != serve::ResponseStatus::kOk || r.completeness != 1.0 ||
                !lot.cold_ok || r.result != lot.cold_bytes) {
              ++lot.replay_failed;
              std::fprintf(stderr, "perfbench: replayed lot differs from its cold result\n");
            } else {
              lot.replay_ms.push_back(ms);
              lot.replays_at.push_back(TimedSample{t0, ms});
            }
          } catch (const std::exception& e) {
            ++lot.replay_failed;
            std::fprintf(stderr, "perfbench: replay failed: %s\n", e.what());
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  /// The first lot of each shape against a direct FabSimulator::run.
  void verify() {
    for (int shape = 0; shape < 2; ++shape) {
      const Lot* lot = nullptr;
      for (const auto& lots : lots_) {
        for (const Lot& l : lots) {
          if (l.dense == (shape == 0) && l.cold_ok && lot == nullptr) lot = &l;
        }
      }
      if (lot == nullptr) {
        result_.mismatch("no completed lot of a shape to check");
        continue;
      }
      std::vector<std::uint8_t> direct;
      {
        Span span("fabsim.run", "fabsim");
        direct = nanocost::cache::encode(
            serve::make_simulator(lot->job).run(lot->job.n_wafers, lot->job.seed));
      }
      if (direct != lot->cold_bytes) {
        result_.mismatch(std::string("served ") + (lot->dense ? "dense" : "sparse") +
                         " lot bytes differ from a direct FabSimulator::run");
      }
    }
    if (scrape_failed_) result_.mismatch("operator stats() scrape failed");
  }

  void account() {
    std::uint64_t cold = 0;
    std::uint64_t cold_failed = 0;
    std::uint64_t replays = 0;
    std::uint64_t replay_failed = 0;
    std::vector<double> cold_ms[2];
    std::vector<double> replay_ms[2];
    for (const auto& lots : lots_) {
      for (const Lot& lot : lots) {
        ++cold;
        if (!lot.cold_ok) ++cold_failed;
        replays += lot.replays;
        replay_failed += lot.replay_failed;
        cold_ms[lot.dense].push_back(lot.cold_ms);
        replay_ms[lot.dense].insert(replay_ms[lot.dense].end(), lot.replay_ms.begin(),
                                    lot.replay_ms.end());
      }
    }
    result_.attempted += cold + replays;
    result_.failed += cold_failed + replay_failed;
    if (replay_failed > 0 || cold_failed > 0) result_.correct = false;
    std::fprintf(stdout,
                 "serve_campaign: cold attempted %llu succeeded %llu failed %llu (%.0f wafers in "
                 "%.2f s); replay attempted %llu succeeded %llu failed %llu\n",
                 static_cast<unsigned long long>(cold),
                 static_cast<unsigned long long>(cold - cold_failed),
                 static_cast<unsigned long long>(cold_failed), cold_wafers_, cold_wall_s_,
                 static_cast<unsigned long long>(replays),
                 static_cast<unsigned long long>(replays - replay_failed),
                 static_cast<unsigned long long>(replay_failed));
    for (int dense = 1; dense >= 0; --dense) {
      std::fprintf(stdout, "serve_campaign: %s lots cold p50/p90 %.2f/%.2f ms, replay p50/p90 %.2f/%.2f ms\n",
                   dense ? "dense" : "sparse", median(cold_ms[dense]), quantile(cold_ms[dense], 0.9),
                   median(replay_ms[dense]), quantile(replay_ms[dense], 0.9));
    }
  }

  void report_layers(MetricsWindow& window, double trace_overhead) {
    std::vector<double> rtt;
    double hits = 0.0;
    double chunks = 0.0;
    for (const auto& lots : lots_) {
      for (const Lot& lot : lots) {
        rtt.push_back(lot.cold_ms * 1e3);
        for (const double ms : lot.replay_ms) rtt.push_back(ms * 1e3);
        hits += static_cast<double>(lot.replay_hits);
        chunks += static_cast<double>(chunk_count(lot.job) * static_cast<std::int64_t>(lot.replays));
      }
    }
    const double server_us = window.histogram_mean("serve.request_us");
    result_.set("serve.request_mean_us", server_us, "us");
    result_.set("serve.transport_mean_us", mean(rtt) - server_us, "us");
    result_.set("serve.coalesced_ratio",
                ratio(window.counter("serve.coalesced"), window.counter("serve.requests")), "ratio");
    result_.set("exec.dispatch_mean_us", window.histogram_mean("exec.dispatch_us"), "us");
    result_.set("robust.replay_hit_ratio", ratio(hits, chunks), "ratio");
    result_.set("obs.scrape_us", scrape_us_, "us");
    result_.set("obs.scrape_bytes", scrape_bytes_, "bytes");
    result_.set("trace.overhead_pct", trace_overhead, "%");
  }
};

}  // namespace

void run_serve_campaign(const Args& args, Result& result) {
  CampaignWorkload workload(args, result);
  workload.run();
}

}  // namespace perfbench
