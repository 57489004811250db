// The operator of the serve workloads: scrapes Client::stats() once a
// second on its own connection and thread, timing each call.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "nanocost/serve/client.hpp"

namespace perfbench {

class OperatorScraper final {
 public:
  /// Starts scraping; `client` must outlive the scraper.
  explicit OperatorScraper(nanocost::serve::Client& client);
  ~OperatorScraper();
  OperatorScraper(const OperatorScraper&) = delete;
  OperatorScraper& operator=(const OperatorScraper&) = delete;

  /// Stops and joins the thread; the figures below are final after it.
  void stop();

  [[nodiscard]] double mean_us() const;
  [[nodiscard]] double mean_bytes() const;
  [[nodiscard]] bool failed() const noexcept { return failures_.load() != 0; }

 private:
  nanocost::serve::Client& client_;
  std::atomic<bool> running_{true};
  std::atomic<int> failures_{0};
  std::vector<double> us_;     ///< written by the thread until stop()
  std::vector<double> bytes_;  ///< written by the thread until stop()
  std::thread thread_;         ///< last: starts after the members it uses

  void loop();
};

}  // namespace perfbench
