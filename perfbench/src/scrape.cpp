#include "scrape.hpp"

#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

OperatorScraper::OperatorScraper(nanocost::serve::Client& client)
    : client_(client), thread_([this] { loop(); }) {}

OperatorScraper::~OperatorScraper() { stop(); }

void OperatorScraper::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

double OperatorScraper::mean_us() const { return mean(us_); }
double OperatorScraper::mean_bytes() const { return mean(bytes_); }

void OperatorScraper::loop() {
  auto next = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (running_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (std::chrono::steady_clock::now() < next) continue;
    next += std::chrono::seconds(1);
    try {
      Span span("obs.scrape", "obs");
      const std::int64_t t0 = now_ns();
      const nanocost::serve::StatsReport report = client_.stats();
      us_.push_back(ns_to_us(now_ns() - t0));
      bytes_.push_back(static_cast<double>(report.stats.size()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: stats() scrape failed: %s\n", e.what());
      failures_.fetch_add(1);
    }
  }
}

}  // namespace perfbench
