#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_hex.hpp"
#include "nanocost/cache/key.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/report/campaign_report.hpp"
#include "nanocost/robust/artifact_store.hpp"
#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/checkpoint.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/robust/finite_guard.hpp"
#include "temp_dir.hpp"

namespace nanocost {
namespace {

using units::Micrometers;
using units::Millimeters;

struct PlanGuard {
  ~PlanGuard() { robust::clear_fault_plan(); }
};

fabsim::FabSimulator make_simulator(double density = 0.8) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  return fabsim::FabSimulator{fabsim::FabConfig{
      geometry::WaferSpec::mm200(), geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}), field,
      defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50}}};
}

void expect_same_lot(const fabsim::LotResult& a, const fabsim::LotResult& b) {
  EXPECT_EQ(a.total_dies, b.total_dies);
  EXPECT_EQ(a.good_dies, b.good_dies);
  ASSERT_EQ(a.wafers.size(), b.wafers.size());
  for (std::size_t i = 0; i < a.wafers.size(); ++i) {
    EXPECT_EQ(a.wafers[i].gross_dies, b.wafers[i].gross_dies) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].good_dies, b.wafers[i].good_dies) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].defects, b.wafers[i].defects) << "wafer " << i;
    EXPECT_EQ(a.wafers[i].defects_on_dies, b.wafers[i].defects_on_dies) << "wafer " << i;
  }
  EXPECT_EQ(a.fault_histogram, b.fault_histogram);
}

using nanocost::testing::TempDir;

TEST(FabCampaign, CompleteCampaignReproducesRunBitwise) {
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 37;  // not a multiple of the grain
  exec::ThreadPool serial(1);
  const fabsim::LotResult reference = sim.run(n_wafers, 5, &serial);

  const fabsim::FabLotCampaign task(sim, n_wafers, 5);
  for (const int threads : {1, 2, exec::ThreadPool::default_thread_count()}) {
    exec::ThreadPool pool(threads);
    robust::CampaignOptions options;
    options.pool = &pool;
    const robust::CampaignResult result = robust::run_campaign(task, options);
    EXPECT_EQ(result.completed_chunks, result.total_chunks);
    EXPECT_FALSE(result.interrupted);
    const fabsim::PartialLot assembled = task.assemble(result);
    EXPECT_DOUBLE_EQ(assembled.completeness, 1.0);
    EXPECT_EQ(assembled.completed_wafers, n_wafers);
    EXPECT_TRUE(assembled.failed_wafers.empty());
    expect_same_lot(assembled.lot, reference);
  }
}

TEST(FabCampaign, KilledAndResumedCampaignIsBitwiseIdentical) {
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 60;  // 15 chunks of 4
  const std::uint64_t seed = 11;
  const fabsim::FabLotCampaign task(sim, n_wafers, seed);

  // The uninterrupted reference, on a 2-thread pool.
  exec::ThreadPool two(2);
  robust::CampaignOptions plain;
  plain.pool = &two;
  const fabsim::PartialLot reference = task.assemble(robust::run_campaign(task, plain));

  // "Kill" after 6 chunks, then resume on a *different* thread count.
  const TempDir tier("kill_resume");
  robust::CampaignOptions first;
  first.artifact_dir = tier.path();
  first.pool = &two;
  first.max_chunks_this_run = 6;
  const robust::CampaignResult killed = robust::run_campaign(task, first);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.completed_chunks, 6);

  exec::ThreadPool serial(1);
  robust::CampaignOptions second;
  second.artifact_dir = tier.path();
  second.pool = &serial;
  const robust::CampaignResult resumed = robust::run_campaign(task, second);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.artifact_hits, 6);
  EXPECT_EQ(resumed.completed_chunks, resumed.total_chunks);

  const fabsim::PartialLot assembled = task.assemble(resumed);
  expect_same_lot(assembled.lot, reference.lot);
}

TEST(FabCampaign, ResumeRejectsACheckpointFromAnotherConfiguration) {
  const auto sim = make_simulator();
  const TempDir tier("mismatch");
  const fabsim::FabLotCampaign task(sim, 24, 3);
  robust::CampaignOptions options;
  options.artifact_dir = tier.path();
  (void)robust::run_campaign(task, options);

  // Same directory, different seed: a record of its own, nothing reused.
  const fabsim::FabLotCampaign other(sim, 24, 4);
  const robust::CampaignResult fresh = robust::run_campaign(other, options);
  EXPECT_EQ(fresh.artifact_hits, 0);
  expect_same_lot(other.assemble(fresh).lot, sim.run(24, 4));

  // One campaign's record planted under the other's name: the header
  // check refuses it instead of resuming someone else's campaign.
  const robust::ArtifactStore store(tier.path());
  const auto record_of = [&](const robust::CampaignTask& t) {
    return store.record_path(
        robust::campaign_record_key(t.config_fingerprint(), t.unit_count(), t.grain()));
  };
  std::filesystem::copy_file(record_of(task), record_of(other),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW((void)robust::run_campaign(other, options), robust::CheckpointMismatch);
}

TEST(FabCampaign, PersistentFaultsDegradeGracefullyAndDeterministically) {
  PlanGuard guard;
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 200;
  const fabsim::FabLotCampaign task(sim, n_wafers, 21);

  robust::FaultPlan plan;
  plan.seed(17).add("fabsim.wafer",
                    robust::FaultSpec{5e-2, robust::FaultKind::kThrow, false, 0});
  install_fault_plan(plan);

  fabsim::PartialLot reference;
  std::vector<std::int64_t> reference_quarantine;
  for (const int threads : {1, 2, exec::ThreadPool::default_thread_count()}) {
    exec::ThreadPool pool(threads);
    robust::CampaignOptions options;
    options.pool = &pool;
    const robust::CampaignResult result = robust::run_campaign(task, options);

    // Persistent faults survive every retry: coverage is partial and
    // the victims are quarantined, not fatal.
    EXPECT_LT(result.completeness(), 1.0);
    EXPECT_FALSE(result.quarantined.empty());
    EXPECT_GT(result.retries, 0);
    const fabsim::PartialLot lot = task.assemble(result);
    EXPECT_LT(lot.completeness, 1.0);
    EXPECT_FALSE(lot.failed_wafers.empty());
    EXPECT_EQ(lot.completed_wafers + static_cast<std::int64_t>(lot.failed_wafers.size()),
              n_wafers);
    for (const robust::ChunkFailure& f : result.quarantined) {
      EXPECT_NE(f.error.find("fabsim.wafer"), std::string::npos);
    }

    std::vector<std::int64_t> quarantine;
    for (const robust::ChunkFailure& f : result.quarantined) quarantine.push_back(f.chunk);
    if (threads == 1) {
      reference = lot;
      reference_quarantine = quarantine;
    } else {
      // The fault schedule is a pure function of (site, wafer, attempt):
      // every thread count loses exactly the same wafers and keeps
      // bitwise-identical survivors.
      EXPECT_EQ(quarantine, reference_quarantine) << "threads " << threads;
      expect_same_lot(lot.lot, reference.lot);
      EXPECT_EQ(lot.failed_wafers, reference.failed_wafers);
    }

    // The report names the loss.
    const std::string rendered = report::render_campaign(result, "wafer");
    EXPECT_NE(rendered.find("completeness"), std::string::npos);
    EXPECT_NE(rendered.find("quarantine"), std::string::npos);
  }
}

TEST(FabCampaign, TransientFaultsHealThroughRetryBitwise) {
  PlanGuard guard;
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 80;
  const fabsim::FabLotCampaign task(sim, n_wafers, 9);
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;

  // Fault-free reference first (installing the plan would skew it).
  const fabsim::PartialLot reference = task.assemble(robust::run_campaign(task, options));

  robust::FaultPlan plan;
  plan.seed(29).add("fabsim.wafer",
                    robust::FaultSpec{2e-2, robust::FaultKind::kThrow, true, 0});
  install_fault_plan(plan);
  const robust::CampaignResult faulty = robust::run_campaign(task, options);
  robust::clear_fault_plan();

  // Transient faults re-draw their schedule on retry, so the campaign
  // heals to full coverage -- and the healed lot is bitwise identical,
  // because wafer streams depend only on the wafer index.
  EXPECT_GT(faulty.retries, 0);
  EXPECT_TRUE(faulty.quarantined.empty());
  EXPECT_DOUBLE_EQ(faulty.completeness(), 1.0);
  expect_same_lot(task.assemble(faulty).lot, reference.lot);
}

/// A campaign result holding the given chunk blobs, all completed.
robust::CampaignResult completed_result(std::vector<std::vector<std::uint8_t>> chunks,
                                        std::int64_t units) {
  robust::CampaignResult result;
  result.total_chunks = static_cast<std::int64_t>(chunks.size());
  result.completed_chunks = result.total_chunks;
  result.total_units = units;
  result.completed_units = units;
  result.chunks = std::move(chunks);
  return result;
}

TEST(FabCampaign, AssembleDecodesGoldenChunkBytes) {
  // Hand-built chunk blobs in the pinned layout: per wafer i64
  // gross_dies, good_dies, defects, defects_on_dies; then the chunk's
  // u64 histogram length and i64 entries.  These are not run_chunk
  // output, so a change to the wafer sampler does not move them; a
  // failing golden means the blob layout changed, which needs a
  // kKeySchemaVersion bump (blobs live in the artifact tier).
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 5, 1);
  const std::vector<std::uint8_t> chunk0 = nanocost::testing::from_hex(
      "0a00000000000000080000000000000003000000000000000200000000000000"
      "0a00000000000000090000000000000001000000000000000100000000000000"
      "0a00000000000000070000000000000004000000000000000300000000000000"
      "0a000000000000000a0000000000000000000000000000000000000000000000"
      "0300000000000000050000000000000002000000000000000100000000000000");
  const std::vector<std::uint8_t> chunk1 = nanocost::testing::from_hex(
      "0c00000000000000060000000000000007000000000000000600000000000000"
      "0500000000000000010000000000000000000000000000000000000000000000"
      "00000000000000000200000000000000");
  const fabsim::PartialLot out = task.assemble(completed_result({chunk0, chunk1}, 5));
  EXPECT_EQ(out.completed_wafers, 5);
  EXPECT_EQ(out.frontier_chunks, 2);
  EXPECT_DOUBLE_EQ(out.completeness, 1.0);
  ASSERT_EQ(out.lot.wafers.size(), 5u);
  EXPECT_EQ(out.lot.wafers[1].good_dies, 9);
  EXPECT_EQ(out.lot.wafers[2].defects, 4);
  EXPECT_EQ(out.lot.wafers[4].gross_dies, 12);
  EXPECT_EQ(out.lot.wafers[4].defects_on_dies, 6);
  EXPECT_EQ(out.lot.total_dies, 52);
  EXPECT_EQ(out.lot.good_dies, 40);
  EXPECT_EQ(out.lot.fault_histogram, (std::vector<std::int64_t>{6, 2, 1, 0, 2}));
}

TEST(FabCampaign, ClusteredRunChunkGoldenPinsTheStream) {
  // The bytes run_chunk produces for the first chunk of a clustered
  // lot: every draw of the wafer stream (gamma multiplier, Poisson
  // count, positions, sizes, kill uniforms) feeds them.  A failing
  // golden means a stream changed, which needs a kKeySchemaVersion
  // bump, not a new golden.
  defect::DefectFieldParams field;
  field.density_per_cm2 = 0.8;
  field.clustered = true;
  field.cluster_alpha = 0.5;
  const fabsim::FabSimulator sim{fabsim::FabConfig{
      geometry::WaferSpec::mm200(), geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}), field,
      defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50}}};
  const fabsim::FabLotCampaign task(sim, 4, 11);
  std::vector<std::uint8_t> chunk;
  task.run_chunk(0, 4, chunk);
  // Four wafer records (gross, good, defects, defects on dies), then
  // the histogram length (8) and its entries.
  EXPECT_EQ(nanocost::testing::to_hex(chunk),
            "b100000000000000750000000000000047010000000000000c01000000000000"
            "b1000000000000009e000000000000006f000000000000005300000000000000"
            "b100000000000000b10000000000000002000000000000000100000000000000"
            "b1000000000000001b000000000000007b050000000000007104000000000000"
            "0800000000000000"
            "df010000000000006f0000000000000044000000000000001a00000000000000"
            "1100000000000000050000000000000001000000000000000100000000000000");
}

TEST(FabCampaign, AssembleRejectsAnImpossibleHistogramLengthAndTrailingBytes) {
  // The histogram length is checked against the bytes the chunk holds
  // before anything is sized by it, and a chunk must end where its
  // histogram does.
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 4, 1);
  std::vector<std::uint8_t> chunk;
  task.run_chunk(0, 4, chunk);
  EXPECT_NO_THROW((void)task.assemble(completed_result({chunk}, 4)));

  std::vector<std::uint8_t> huge = chunk;
  const std::size_t length_at = 4 * 32;  // after the four wafer records
  std::fill(huge.begin() + length_at, huge.begin() + length_at + 8, 0);
  huge[length_at + 7] = 0x40;  // 2^62 entries
  EXPECT_THROW((void)task.assemble(completed_result({huge}, 4)), std::runtime_error);

  std::vector<std::uint8_t> trailing = chunk;
  trailing.insert(trailing.end(), {0, 0, 0, 0});
  EXPECT_THROW((void)task.assemble(completed_result({trailing}, 4)), std::runtime_error);
}

core::UncertainInputs risk_reference() {
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  return u;
}

/// Rebuilds the design model with one eq.-6 parameter changed.
void set_design_param(core::UncertainInputs& u, double cost::DesignCostParams::*param,
                      double value) {
  cost::DesignCostParams p = u.nominal.design_model.params();
  p.*param = value;
  u.nominal.design_model = cost::DesignCostModel{p};
}

TEST(RiskCampaign, EveryInputFieldSplitsTheRecord) {
  // Every input of monte_carlo_cost -- the uncertain inputs
  // (append_uncertain_inputs), s_d, the seed and the die budget -- must
  // split its content address, or a served risk job replays another
  // configuration's summary.
  struct Config {
    core::UncertainInputs u = risk_reference();
    double s_d = 300.0;
    std::uint64_t seed = 13;
    double budget = 40.0;
  };
  struct Row {
    const char* field;
    void (*edit)(Config&);
  };
  const std::vector<Row> rows{
      {"lambda", [](Config& c) { c.u.nominal.lambda = Micrometers{0.18}; }},
      {"yield", [](Config& c) { c.u.nominal.yield = units::Probability{0.8}; }},
      {"cm_sq", [](Config& c) { c.u.nominal.manufacturing_cost = units::CostPerArea{9.0}; }},
      {"n_tr", [](Config& c) { c.u.nominal.transistors_per_chip = 2e7; }},
      {"n_w", [](Config& c) { c.u.nominal.n_wafers = 20000.0; }},
      {"a_w", [](Config& c) { c.u.nominal.wafer_area = units::SquareCentimeters{706.86}; }},
      {"c_ma", [](Config& c) { c.u.nominal.mask_cost = units::Money{1e6}; }},
      {"design.a0", [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::a0, 1500.0); }},
      {"design.p1", [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::p1, 1.1); }},
      {"design.p2", [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::p2, 1.3); }},
      {"design.s_d0",
       [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::s_d0, 120.0); }},
      {"utilization", [](Config& c) { c.u.nominal.utilization = units::Probability{0.9}; }},
      {"yield_sigma", [](Config& c) { c.u.yield_sigma = 0.05; }},
      {"cm_sq_sigma_rel", [](Config& c) { c.u.cm_sq_sigma_rel = 0.2; }},
      {"design_cost_sigma_rel", [](Config& c) { c.u.design_cost_sigma_rel = 0.3; }},
      {"volume_sigma_rel", [](Config& c) { c.u.volume_sigma_rel = 0.6; }},
      {"s_d", [](Config& c) { c.s_d = 400.0; }},
      {"seed", [](Config& c) { c.seed = 14; }},
      {"die_budget", [](Config& c) { c.budget = 30.0; }},
  };
  ASSERT_EQ(rows.size(), 19u) << "one row per monte_carlo_cost_key input field";

  constexpr int kSamples = 1000;
  const auto key_of = [](const Config& c) {
    return cache::monte_carlo_cost_key(c.u, c.s_d, kSamples, c.seed, c.budget);
  };
  const cache::Digest128 base = key_of(Config{});
  for (const Row& row : rows) {
    Config edited;
    row.edit(edited);
    EXPECT_NE(key_of(edited), base) << row.field;
  }
}

TEST(RiskCampaign, NaNPoisonIsCaughtNotAveraged) {
  PlanGuard guard;
  const core::UncertainInputs u = risk_reference();
  robust::FaultPlan plan;
  plan.seed(5).add("risk.sample",
                   robust::FaultSpec{1.0, robust::FaultKind::kNaN, false, 0});
  install_fault_plan(plan);
  exec::ThreadPool serial(1);
  // Both risk paths trip their boundary guard instead of folding NaNs
  // into the mean.
  EXPECT_THROW((void)core::monte_carlo_cost(u, 300.0, 256, 7, 0.0, &serial),
               robust::NonFiniteError);
  EXPECT_THROW((void)core::monte_carlo_cost_partial(u, 300.0, 256, 7, 0.0, &serial,
                                                    robust::CancelToken{}),
               robust::NonFiniteError);
}

TEST(CampaignReport, RendersCompletenessAndQuarantine) {
  robust::CampaignResult result;
  result.total_chunks = 4;
  result.completed_chunks = 3;
  result.total_units = 16;
  result.completed_units = 12;
  result.retries = 2;
  robust::ChunkFailure failure;
  failure.chunk = 2;
  failure.unit_begin = 8;
  failure.unit_end = 12;
  failure.error = "injected fault at fabsim.wafer unit 9";
  result.quarantined.push_back(failure);
  const std::string rendered = report::render_campaign(result, "wafer");
  EXPECT_NE(rendered.find("3/4 chunks"), std::string::npos);
  EXPECT_NE(rendered.find("12/16 wafers"), std::string::npos);
  EXPECT_NE(rendered.find("0.7500"), std::string::npos);
  EXPECT_NE(rendered.find("chunk 2"), std::string::npos);
  EXPECT_NE(rendered.find("fabsim.wafer"), std::string::npos);
}

TEST(Campaign, ValidatesOptions) {
  const auto sim = make_simulator();
  EXPECT_THROW(fabsim::FabLotCampaign(sim, 0, 1), std::invalid_argument);
}

TEST(Campaign, GoldenRecordNames) {
  // A record's file name is its campaign's address on every served
  // tier; a silently changed name orphans them all.
  const auto record_name = [](const robust::CampaignTask& t) {
    return robust::campaign_record_key(t.config_fingerprint(), t.unit_count(), t.grain()).hex();
  };
  const auto sim = make_simulator();
  EXPECT_EQ(record_name(fabsim::FabLotCampaign(sim, 24, 3)), "aaf537130e4b9c69f860ee650ac706b8");
}

}  // namespace
}  // namespace nanocost
