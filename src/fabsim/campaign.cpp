#include "nanocost/fabsim/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/cache/hash.hpp"

namespace nanocost::fabsim {

// Chunk blob layout (the byte codec's conventions, cache/bytes.hpp):
//   per wafer: i64 gross_dies, good_dies, defects, defects_on_dies
//   then:      u64 histogram length, i64 histogram[...]

FabLotCampaign::FabLotCampaign(const FabSimulator& sim, std::int64_t n_wafers,
                               std::uint64_t seed)
    : sim_(&sim), n_wafers_(n_wafers), seed_(seed) {
  if (n_wafers < 1) {
    throw std::invalid_argument("fab lot campaign needs at least one wafer");
  }
}

std::uint64_t FabLotCampaign::config_fingerprint() const {
  // The full simulator configuration plus the seed.  KeyBuilder folds in
  // cache::kKeySchemaVersion, so a checkpoint or artifact blob written
  // under an older stream misses instead of resuming with its chunks.
  return cache::KeyBuilder("fabsim.lot")
      .sub("simulator", sim_->config().digest())
      .u64("seed", seed_)
      .digest()
      .lo;
}

void FabLotCampaign::run_chunk(std::int64_t begin, std::int64_t end,
                               std::vector<std::uint8_t>& blob) const {
  std::vector<WaferResult> wafers(static_cast<std::size_t>(end - begin));
  std::vector<std::int64_t> histogram;
  sim_->run_units(begin, end, seed_, wafers.data(), histogram);
  cache::ByteWriter w;
  w.reserve(static_cast<std::size_t>(end - begin + 1) * 32);
  for (const WaferResult& wafer : wafers) {
    w.i64(wafer.gross_dies);
    w.i64(wafer.good_dies);
    w.i64(wafer.defects);
    w.i64(wafer.defects_on_dies);
  }
  w.u64(histogram.size());
  for (const std::int64_t h : histogram) w.i64(h);
  blob = w.take();
}

PartialLot FabLotCampaign::assemble(const robust::CampaignResult& result) const {
  PartialLot out;
  out.lot.fault_histogram.assign(4, 0);
  out.lot.wafers.assign(static_cast<std::size_t>(n_wafers_), WaferResult{});
  for (std::size_t c = 0; c < result.chunks.size(); ++c) {
    const auto& blob = result.chunks[c];
    if (blob.empty()) continue;
    const std::int64_t begin = static_cast<std::int64_t>(c) * kGrain;
    const std::int64_t end = std::min(begin + kGrain, n_wafers_);
    cache::ByteReader r(blob);
    for (std::int64_t i = begin; i < end; ++i) {
      WaferResult& w = out.lot.wafers[static_cast<std::size_t>(i)];
      w.gross_dies = r.i64();
      w.good_dies = r.i64();
      w.defects = r.i64();
      w.defects_on_dies = r.i64();
      out.lot.total_dies += w.gross_dies;
      out.lot.good_dies += w.good_dies;
      ++out.completed_wafers;
    }
    const std::size_t hist_len = r.count(8);
    if (hist_len > out.lot.fault_histogram.size()) out.lot.fault_histogram.resize(hist_len, 0);
    for (std::size_t k = 0; k < hist_len; ++k) out.lot.fault_histogram[k] += r.i64();
    r.expect_end();
  }
  out.completeness = result.completeness();
  out.failed_wafers = result.failed_units();
  out.cancelled = result.expired;
  for (const auto& blob : result.chunks) {
    if (!blob.empty()) {
      ++out.frontier_chunks;
    } else {
      break;
    }
  }
  return out;
}

}  // namespace nanocost::fabsim
