// Resumable, fault-tolerant fabline lots.
//
// FabLotCampaign adapts FabSimulator to the robust::CampaignRunner
// contract: one unit = one wafer, chunks of kGrain wafers, and a chunk
// blob carrying the per-wafer results plus the chunk's die-level fault
// histogram.  Because wafer i's RNG stream derives from i alone, an
// assembled campaign -- interrupted, resumed at another thread count,
// or replayed from a checkpoint -- reproduces FabSimulator::run()
// bitwise whenever nothing was quarantined, and degrades to an honest
// partial lot (completeness < 1, failed-wafer list) when faults stick.
#pragma once

#include <cstdint>
#include <vector>

#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/robust/campaign.hpp"

namespace nanocost::fabsim {

// PartialLot lives in simulator.hpp: it is also what the deadline-aware
// FabSimulator::run_partial returns.

/// CampaignTask over FabSimulator::run_units.
class FabLotCampaign final : public robust::CampaignTask {
 public:
  /// Wafers per chunk -- matches the lot simulator's parallel grain, so
  /// campaign chunks and plain-run chunks cover identical wafer ranges.
  static constexpr std::int64_t kGrain = 4;

  /// `sim` must outlive the campaign.
  FabLotCampaign(const FabSimulator& sim, std::int64_t n_wafers, std::uint64_t seed);

  [[nodiscard]] std::uint64_t config_fingerprint() const override;
  [[nodiscard]] std::int64_t unit_count() const override { return n_wafers_; }
  [[nodiscard]] std::int64_t grain() const override { return kGrain; }
  void run_chunk(std::int64_t begin, std::int64_t end,
                 std::vector<std::uint8_t>& blob) const override;

  /// Decodes a campaign result back into a lot.  Aggregates (totals,
  /// histogram) are merged in ascending chunk order; on a fully
  /// completed campaign the returned lot equals
  /// sim.run(n_wafers, seed) field for field.  Throws
  /// std::runtime_error on a malformed chunk blob: truncated, a
  /// histogram length the blob cannot hold, or trailing bytes.
  [[nodiscard]] PartialLot assemble(const robust::CampaignResult& result) const;

 private:
  const FabSimulator* sim_;
  std::int64_t n_wafers_;
  std::uint64_t seed_;
};

}  // namespace nanocost::fabsim
