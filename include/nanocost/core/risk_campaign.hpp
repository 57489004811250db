// Resumable, fault-tolerant risk Monte-Carlo.
//
// RiskCampaign adapts the eq.-4 uncertainty propagation to the
// robust::CampaignRunner contract: one unit = one scenario, and a chunk
// blob is the raw vector of sampled costs.  Scenario i is a pure
// function of (inputs, s_d, seed, i), priced by the same
// risk_sample_cost_batch kernel as monte_carlo_cost, so a resumed
// campaign reproduces monte_carlo_cost bitwise when complete; a
// degraded one summarizes the completed scenarios only and widens the
// mean confidence interval accordingly.
//
// Chunks guard their own output through robust::check_finite_range, so
// a NaN escaping the cost model (or injected at `risk.sample`) becomes
// a retryable chunk failure instead of a poisoned percentile.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/core/risk.hpp"
#include "nanocost/robust/campaign.hpp"

namespace nanocost::core {

/// Risk summary over whatever fraction of the work completed -- a
/// degraded campaign, or a deadline-truncated monte_carlo_cost_partial.
struct PartialRisk final {
  /// Summary of the completed scenarios (monte_carlo_cost's reduction).
  RiskResult result;
  double completeness = 1.0;
  std::int64_t completed_samples = 0;
  std::vector<std::int64_t> failed_samples;  ///< ascending scenario indices
  /// 95% confidence interval on the mean, over the *completed* sample
  /// count -- fewer survivors, wider interval.
  double mean_ci_lo = 0.0;
  double mean_ci_hi = 0.0;
  /// Completed leading chunks; the summary covers exactly the samples
  /// of chunks [0, frontier_chunks) for deadline-truncated runs.
  std::int64_t frontier_chunks = 0;
  /// true when a cancel token / deadline truncated the run.
  bool cancelled = false;
};

/// Deadline-aware monte_carlo_cost(): polls `token` at chunk
/// (RiskCampaign::kGrain samples) granularity.  On expiry the summary
/// covers exactly the completed leading chunks -- bitwise what
/// monte_carlo_cost over that sample prefix computes, at any thread
/// count -- with the 95% CI on the mean widened by the smaller survivor
/// count.  Fewer than 2 completed samples leaves `result` zeroed.  With
/// an invalid token this is monte_carlo_cost.
[[nodiscard]] PartialRisk monte_carlo_cost_partial(const UncertainInputs& inputs, double s_d,
                                                   int samples, std::uint64_t seed,
                                                   double die_budget, exec::ThreadPool* pool,
                                                   const robust::CancelToken& token);

/// CampaignTask over risk_sample_cost_batch.
class RiskCampaign final : public robust::CampaignTask {
 public:
  /// Samples per chunk, here and in monte_carlo_cost's parallel loop.
  static constexpr std::int64_t kGrain = 128;

  RiskCampaign(const UncertainInputs& inputs, double s_d, std::int64_t samples,
               std::uint64_t seed, double die_budget = 0.0);

  [[nodiscard]] std::uint64_t config_fingerprint() const override;
  [[nodiscard]] std::int64_t unit_count() const override { return samples_; }
  [[nodiscard]] std::int64_t grain() const override { return kGrain; }
  void run_chunk(std::int64_t begin, std::int64_t end,
                 std::vector<std::uint8_t>& blob) const override;

  /// Summarizes the completed scenarios.  Throws std::invalid_argument
  /// when fewer than 2 samples survived.
  [[nodiscard]] PartialRisk assemble(const robust::CampaignResult& result) const;

 private:
  UncertainInputs inputs_;
  double s_d_;
  std::int64_t samples_;
  std::uint64_t seed_;
  double die_budget_;
};

}  // namespace nanocost::core
