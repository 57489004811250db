// The one risk Monte-Carlo sampler, shared by risk.cpp and
// risk_campaign.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/core/risk.hpp"
#include "nanocost/exec/parallel.hpp"
#include "nanocost/robust/cancel.hpp"

namespace nanocost::core::detail {

/// Scenario costs of one sampled run and the loop's status.
struct SampledCosts final {
  /// Costs of scenarios [0, frontier * RiskCampaign::kGrain), in index
  /// order: every scenario unless `token` stopped the run.
  std::vector<double> costs;
  exec::LoopStatus status;
};

/// Prices scenarios 0 .. samples-1 at density s_d through
/// risk_sample_cost_batch, in parallel chunks of RiskCampaign::kGrain
/// scenarios on `pool`, polling `token` once per chunk.  Scenarios past
/// the frontier may have run, but are dropped, so the costs are a pure
/// function of the frontier.  The sampler behind monte_carlo_cost,
/// monte_carlo_cost_partial and robust_sd.  Throws std::invalid_argument
/// below 10 samples.
[[nodiscard]] SampledCosts sample_costs(const UncertainInputs& inputs, double s_d,
                                        int samples, std::uint64_t seed,
                                        exec::ThreadPool* pool,
                                        const robust::CancelToken& token = {});

}  // namespace nanocost::core::detail
