#include "nanocost/core/risk_campaign.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/cache/hash.hpp"
#include "nanocost/exec/parallel.hpp"
#include "nanocost/robust/finite_guard.hpp"

namespace nanocost::core {

RiskCampaign::RiskCampaign(const UncertainInputs& inputs, double s_d, std::int64_t samples,
                           std::uint64_t seed, double die_budget)
    : inputs_(inputs), s_d_(s_d), samples_(samples), seed_(seed), die_budget_(die_budget) {
  if (samples < 10) {
    throw std::invalid_argument("risk campaign needs at least 10 samples");
  }
}

std::uint64_t RiskCampaign::config_fingerprint() const {
  // Exactly what run_chunk reads; die_budget_ enters only assemble, so
  // campaigns differing in the budget alone share their samples.
  cache::KeyBuilder key("risk.monte_carlo");
  append_uncertain_inputs(key, inputs_);
  return key.f64("s_d", s_d_).u64("seed", seed_).digest().lo;
}

void RiskCampaign::run_chunk(std::int64_t begin, std::int64_t end,
                             std::vector<std::uint8_t>& blob) const {
  std::vector<double> costs(static_cast<std::size_t>(end - begin));
  for (std::int64_t i = begin; i < end; ++i) {
    costs[static_cast<std::size_t>(i - begin)] =
        risk_sample_cost(inputs_, s_d_, seed_, static_cast<std::uint64_t>(i));
  }
  // A NaN here (model escape or injected poison) fails the chunk, which
  // the engine retries or quarantines -- never serialized.
  robust::check_finite_range(costs.data(), costs.size(), "risk.sample_chunk");
  cache::ByteWriter w;
  w.reserve(costs.size() * 8);
  for (const double c : costs) w.f64(c);
  blob = w.take();
}

PartialRisk RiskCampaign::assemble(const robust::CampaignResult& result) const {
  PartialRisk out;
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(result.completed_units));
  for (const auto& blob : result.chunks) {
    // One f64 per sample; a torn trailing sample throws DecodeError.
    cache::ByteReader r(blob);
    while (r.remaining() > 0) costs.push_back(r.f64());
  }
  out.completed_samples = static_cast<std::int64_t>(costs.size());
  out.completeness = result.completeness();
  out.failed_samples = result.failed_units();
  out.cancelled = result.expired;
  for (const auto& blob : result.chunks) {
    if (!blob.empty()) {
      ++out.frontier_chunks;
    } else {
      break;
    }
  }
  out.result = summarize_cost_samples(std::move(costs), inputs_, die_budget_);
  const double n = static_cast<double>(out.completed_samples);
  const double half_width = 1.96 * out.result.stddev / std::sqrt(n);
  out.mean_ci_lo = out.result.mean - half_width;
  out.mean_ci_hi = out.result.mean + half_width;
  return out;
}

PartialRisk monte_carlo_cost_partial(const UncertainInputs& inputs, double s_d, int samples,
                                     std::uint64_t seed, double die_budget,
                                     exec::ThreadPool* pool) {
  if (samples < 10) {
    throw std::invalid_argument("risk analysis needs at least 10 samples");
  }
  const robust::CancelToken token = robust::current_cancel_token();
  std::vector<double> costs(static_cast<std::size_t>(samples));
  const exec::LoopStatus status = exec::parallel_for_cancellable(
      pool, samples, RiskCampaign::kGrain, token,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          costs[static_cast<std::size_t>(i)] =
              risk_sample_cost(inputs, s_d, seed, static_cast<std::uint64_t>(i));
        }
      });

  PartialRisk out;
  // Samples at/after the frontier may have run out of order; only the
  // contiguous prefix is summarized, so the result is a pure function
  // of the frontier.
  const std::int64_t completed = std::min<std::int64_t>(
      samples, status.frontier * RiskCampaign::kGrain);
  costs.resize(static_cast<std::size_t>(completed));
  robust::check_finite_range(costs.data(), costs.size(), "risk.samples");
  out.completed_samples = completed;
  out.completeness = status.completeness();
  out.frontier_chunks = status.frontier;
  out.cancelled = status.cancelled;
  if (completed >= 2) {
    out.result = summarize_cost_samples(std::move(costs), inputs, die_budget);
    const double n = static_cast<double>(completed);
    const double half_width = 1.96 * out.result.stddev / std::sqrt(n);
    out.mean_ci_lo = out.result.mean - half_width;
    out.mean_ci_hi = out.result.mean + half_width;
  }
  return out;
}

}  // namespace nanocost::core
