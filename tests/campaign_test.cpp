#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_hex.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/core/risk_campaign.hpp"
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
  first.wave_chunks = 3;
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

TEST(FabCampaign, StrictModeRethrowsTheLowestFailedChunk) {
  PlanGuard guard;
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 200, 21);
  robust::FaultPlan plan;
  plan.seed(17).add("fabsim.wafer",
                    robust::FaultSpec{5e-2, robust::FaultKind::kThrow, false, 0});
  install_fault_plan(plan);
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;
  options.allow_partial = false;
  EXPECT_THROW((void)robust::run_campaign(task, options), std::runtime_error);
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

TEST(RiskCampaign, CompleteCampaignMatchesMonteCarloBitwise) {
  const core::UncertainInputs u = risk_reference();
  const double s_d = 300.0;
  const int samples = 1000;  // not a multiple of the grain
  const std::uint64_t seed = 13;
  const double budget = 5e7;
  exec::ThreadPool serial(1);
  const core::RiskResult reference =
      core::monte_carlo_cost(u, s_d, samples, seed, budget, &serial);

  const core::RiskCampaign task(u, s_d, samples, seed, budget);
  for (const int threads : {1, 2, exec::ThreadPool::default_thread_count()}) {
    exec::ThreadPool pool(threads);
    robust::CampaignOptions options;
    options.pool = &pool;
    const core::PartialRisk partial =
        task.assemble(robust::run_campaign(task, options));
    EXPECT_DOUBLE_EQ(partial.completeness, 1.0);
    EXPECT_EQ(partial.completed_samples, samples);
    EXPECT_DOUBLE_EQ(partial.result.mean, reference.mean);
    EXPECT_DOUBLE_EQ(partial.result.stddev, reference.stddev);
    EXPECT_DOUBLE_EQ(partial.result.p10, reference.p10);
    EXPECT_DOUBLE_EQ(partial.result.p50, reference.p50);
    EXPECT_DOUBLE_EQ(partial.result.p90, reference.p90);
    EXPECT_DOUBLE_EQ(partial.result.prob_over_budget, reference.prob_over_budget);
    EXPECT_LT(partial.mean_ci_lo, partial.result.mean);
    EXPECT_GT(partial.mean_ci_hi, partial.result.mean);
  }
}

TEST(RiskCampaign, KilledAndResumedMatchesMonteCarloBitwise) {
  const core::UncertainInputs u = risk_reference();
  const int samples = 1024;  // 8 chunks of 128
  exec::ThreadPool serial(1);
  const core::RiskResult reference = core::monte_carlo_cost(u, 250.0, samples, 3, 0.0, &serial);

  const core::RiskCampaign task(u, 250.0, samples, 3);
  const TempDir tier("risk_resume");
  exec::ThreadPool two(2);
  robust::CampaignOptions first;
  first.artifact_dir = tier.path();
  first.pool = &two;
  first.wave_chunks = 2;
  first.max_chunks_this_run = 3;
  EXPECT_TRUE(robust::run_campaign(task, first).interrupted);

  robust::CampaignOptions second;
  second.artifact_dir = tier.path();
  second.pool = &serial;
  const robust::CampaignResult resumed = robust::run_campaign(task, second);
  EXPECT_EQ(resumed.artifact_hits, 3);
  const core::PartialRisk partial = task.assemble(resumed);
  EXPECT_DOUBLE_EQ(partial.result.mean, reference.mean);
  EXPECT_DOUBLE_EQ(partial.result.p90, reference.p90);
}

/// Rebuilds the design model with one eq.-6 parameter changed.
void set_design_param(core::UncertainInputs& u, double cost::DesignCostParams::*param,
                      double value) {
  cost::DesignCostParams p = u.nominal.design_model.params();
  p.*param = value;
  u.nominal.design_model = cost::DesignCostModel{p};
}

TEST(RiskCampaign, EveryInputFieldSplitsTheRecord) {
  // Every field run_chunk reads -- the uncertain inputs, s_d, the seed
  // -- must name a record of its own on a shared tier, or a campaign
  // resumes another configuration's samples.  die_budget enters only
  // assemble, so a budget-only edit reuses the record.
  struct Config {
    core::UncertainInputs u = risk_reference();
    double s_d = 300.0;
    std::uint64_t seed = 13;
    double budget = 40.0;  // the reference die costs ~$40: ~39% over budget
  };
  struct Row {
    const char* field;
    void (*edit)(Config&);
    std::int64_t hits;
  };
  constexpr std::int64_t kSplit = 0;
  constexpr std::int64_t kReuse = 8;  // every chunk of 1000 samples
  const std::vector<Row> rows{
      {"lambda", [](Config& c) { c.u.nominal.lambda = Micrometers{0.18}; }, kSplit},
      {"yield", [](Config& c) { c.u.nominal.yield = units::Probability{0.8}; }, kSplit},
      {"cm_sq", [](Config& c) { c.u.nominal.manufacturing_cost = units::CostPerArea{9.0}; },
       kSplit},
      {"n_tr", [](Config& c) { c.u.nominal.transistors_per_chip = 2e7; }, kSplit},
      {"n_w", [](Config& c) { c.u.nominal.n_wafers = 20000.0; }, kSplit},
      {"a_w", [](Config& c) { c.u.nominal.wafer_area = units::SquareCentimeters{706.86}; },
       kSplit},
      {"c_ma", [](Config& c) { c.u.nominal.mask_cost = units::Money{1e6}; }, kSplit},
      {"design.a0", [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::a0, 1500.0); },
       kSplit},
      {"design.p1", [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::p1, 1.1); },
       kSplit},
      {"design.p2", [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::p2, 1.3); },
       kSplit},
      {"design.s_d0",
       [](Config& c) { set_design_param(c.u, &cost::DesignCostParams::s_d0, 120.0); }, kSplit},
      {"utilization", [](Config& c) { c.u.nominal.utilization = units::Probability{0.9}; },
       kSplit},
      {"yield_sigma", [](Config& c) { c.u.yield_sigma = 0.05; }, kSplit},
      {"cm_sq_sigma_rel", [](Config& c) { c.u.cm_sq_sigma_rel = 0.2; }, kSplit},
      {"design_cost_sigma_rel", [](Config& c) { c.u.design_cost_sigma_rel = 0.3; }, kSplit},
      {"volume_sigma_rel", [](Config& c) { c.u.volume_sigma_rel = 0.6; }, kSplit},
      {"s_d", [](Config& c) { c.s_d = 400.0; }, kSplit},
      {"seed", [](Config& c) { c.seed = 14; }, kSplit},
      {"die_budget", [](Config& c) { c.budget = 30.0; }, kReuse},
  };
  ASSERT_EQ(rows.size(), 19u) << "one row per RiskCampaign input field";

  constexpr int kSamples = 1000;
  const TempDir tier("risk_every_field");
  robust::CampaignOptions options;
  options.artifact_dir = tier.path();
  const Config base;
  const core::RiskCampaign base_task(base.u, base.s_d, kSamples, base.seed, base.budget);
  ASSERT_EQ(robust::run_campaign(base_task, options).completed_chunks, kReuse);
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    Config edited;
    row.edit(edited);
    const core::RiskCampaign task(edited.u, edited.s_d, kSamples, edited.seed, edited.budget);
    const robust::CampaignResult run = robust::run_campaign(task, options);
    EXPECT_EQ(run.artifact_hits, row.hits);
    const core::RiskResult got = task.assemble(run).result;
    const core::RiskResult want =
        core::monte_carlo_cost(edited.u, edited.s_d, kSamples, edited.seed, edited.budget);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.stddev, want.stddev);
    EXPECT_EQ(got.p10, want.p10);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p90, want.p90);
    EXPECT_EQ(got.prob_over_budget, want.prob_over_budget);
  }
}

TEST(RiskCampaign, AssembleDecodesGoldenChunkBytes) {
  // A hand-built chunk blob in the pinned layout: one f64 per sample,
  // IEEE bits little-endian (here 1.0 .. 10.0).
  const core::UncertainInputs u = risk_reference();
  const core::RiskCampaign task(u, 250.0, 10, 3);
  const std::vector<std::uint8_t> chunk = nanocost::testing::from_hex(
      "000000000000f03f000000000000004000000000000008400000000000001040"
      "000000000000144000000000000018400000000000001c400000000000002040"
      "00000000000022400000000000002440");
  const core::PartialRisk partial = task.assemble(completed_result({chunk}, 10));
  EXPECT_EQ(partial.completed_samples, 10);
  EXPECT_EQ(partial.result.mean, 5.5);
  const core::RiskResult expected = core::summarize_cost_samples(
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0}, u);
  EXPECT_EQ(partial.result.mean, expected.mean);
  EXPECT_EQ(partial.result.stddev, expected.stddev);
  EXPECT_EQ(partial.result.p10, expected.p10);
  EXPECT_EQ(partial.result.p50, expected.p50);
  EXPECT_EQ(partial.result.p90, expected.p90);
}

TEST(RiskCampaign, NaNPoisonIsCaughtNotAveraged) {
  PlanGuard guard;
  const core::UncertainInputs u = risk_reference();
  robust::FaultPlan plan;
  plan.seed(5).add("risk.sample",
                   robust::FaultSpec{1.0, robust::FaultKind::kNaN, false, 0});
  install_fault_plan(plan);
  exec::ThreadPool serial(1);
  // The monolithic path trips its boundary guard instead of folding
  // NaNs into the mean...
  EXPECT_THROW((void)core::monte_carlo_cost(u, 300.0, 256, 7, 0.0, &serial),
               robust::NonFiniteError);
  // ...and the campaign path quarantines every poisoned chunk, so
  // nothing survives to summarize.
  const core::RiskCampaign task(u, 300.0, 256, 7);
  robust::CampaignOptions options;
  options.pool = &serial;
  const robust::CampaignResult result = robust::run_campaign(task, options);
  EXPECT_EQ(result.completed_chunks, 0);
  EXPECT_DOUBLE_EQ(result.completeness(), 0.0);
  for (const robust::ChunkFailure& f : result.quarantined) {
    EXPECT_NE(f.error.find("risk.sample_chunk"), std::string::npos);
  }
  EXPECT_THROW((void)task.assemble(result), std::invalid_argument);
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
  const fabsim::FabLotCampaign task(sim, 8, 1);
  robust::CampaignOptions bad;
  bad.wave_chunks = 0;
  EXPECT_THROW((void)robust::run_campaign(task, bad), std::invalid_argument);
  bad = {};
  bad.max_attempts = 0;
  EXPECT_THROW((void)robust::run_campaign(task, bad), std::invalid_argument);
  EXPECT_THROW(fabsim::FabLotCampaign(sim, 0, 1), std::invalid_argument);
  EXPECT_THROW(core::RiskCampaign(risk_reference(), 300.0, 5, 1), std::invalid_argument);
}

TEST(Campaign, GoldenRecordNames) {
  // A record's file name is its campaign's address on every served
  // tier; a silently changed name orphans them all.
  const auto record_name = [](const robust::CampaignTask& t) {
    return robust::campaign_record_key(t.config_fingerprint(), t.unit_count(), t.grain()).hex();
  };
  const auto sim = make_simulator();
  EXPECT_EQ(record_name(fabsim::FabLotCampaign(sim, 24, 3)), "aaf537130e4b9c69f860ee650ac706b8");
  EXPECT_EQ(record_name(core::RiskCampaign(risk_reference(), 300.0, 1000, 13, 40.0)),
            "0d70ab5706849fefbd4a74de0e692d8c");
}

}  // namespace
}  // namespace nanocost
