#include "nanocost/core/risk_campaign.hpp"

#include <cmath>
#include <stdexcept>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/cache/hash.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/finite_guard.hpp"
#include "risk_sampler.hpp"

namespace nanocost::core {

namespace {

/// Fills out.result and the 95% CI on its mean from `costs` (needs at
/// least 2): fewer survivors, wider interval.
void summarize_into(PartialRisk& out, std::vector<double> costs, const UncertainInputs& inputs,
                    double die_budget) {
  const double n = static_cast<double>(costs.size());
  out.result = summarize_cost_samples(std::move(costs), inputs, die_budget);
  const double half_width = 1.96 * out.result.stddev / std::sqrt(n);
  out.mean_ci_lo = out.result.mean - half_width;
  out.mean_ci_hi = out.result.mean + half_width;
}

}  // namespace

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
  risk_sample_cost_batch(inputs_, s_d_, seed_, static_cast<std::uint64_t>(begin), costs.size(),
                         costs.data());
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
  summarize_into(out, std::move(costs), inputs_, die_budget_);
  return out;
}

PartialRisk monte_carlo_cost_partial(const UncertainInputs& inputs, double s_d, int samples,
                                     std::uint64_t seed, double die_budget,
                                     exec::ThreadPool* pool, const robust::CancelToken& token) {
  detail::SampledCosts sampled = detail::sample_costs(inputs, s_d, samples, seed, pool, token);
  robust::check_finite_range(sampled.costs.data(), sampled.costs.size(), "risk.samples");
  PartialRisk out;
  out.completed_samples = static_cast<std::int64_t>(sampled.costs.size());
  out.completeness = sampled.status.completeness();
  out.frontier_chunks = sampled.status.frontier;
  out.cancelled = sampled.status.cancelled;
  if (out.completed_samples >= 2) {
    summarize_into(out, std::move(sampled.costs), inputs, die_budget);
  }
  return out;
}

}  // namespace nanocost::core
