// Deadline-aware execution: cancel tokens and graceful degradation.
// (Campaign overload -- shedding and budget degradation -- is the serve
// daemon's, and tests/serve_test.cpp covers it.)
//
// The money properties under test:
//  * cancel-at-frontier-K is bitwise a fresh run truncated at K, for
//    fabsim lots and risk Monte-Carlo, at 1/2/hw threads -- the two
//    kernels with a deadline-aware spelling (run_partial,
//    monte_carlo_cost_partial), besides the router's pass boundary;
//  * a deadline-expired campaign resumes from its checkpoint to a lot
//    bitwise-identical to an undisturbed run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nanocost/core/risk.hpp"
#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/fabsim/simulator.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/place/placer.hpp"
#include "nanocost/report/campaign_report.hpp"
#include "nanocost/robust/backoff.hpp"
#include "nanocost/robust/campaign.hpp"
#include "nanocost/robust/cancel.hpp"
#include "nanocost/robust/fault_injection.hpp"
#include "nanocost/route/router.hpp"
#include "temp_dir.hpp"

namespace nanocost {
namespace {

using units::Micrometers;
using units::Millimeters;

fabsim::FabSimulator make_simulator(double density = 0.8) {
  defect::DefectFieldParams field;
  field.density_per_cm2 = density;
  return fabsim::FabSimulator{fabsim::FabConfig{
      geometry::WaferSpec::mm200(), geometry::DieSize{Millimeters{12.0}, Millimeters{12.0}},
      defect::DefectSizeDistribution::for_feature_size(Micrometers{0.25}), field,
      defect::WireArray{Micrometers{0.25}, Micrometers{0.25}, Micrometers{100.0}, 50}}};
}

core::UncertainInputs risk_inputs() {
  core::UncertainInputs u;
  u.nominal.transistors_per_chip = 1e7;
  u.nominal.n_wafers = 10000.0;
  u.nominal.yield = units::Probability{0.7};
  return u;
}

void expect_histograms_equal(const std::vector<std::int64_t>& a,
                             const std::vector<std::int64_t>& b) {
  // Histograms may differ only by trailing zeros.
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t av = k < a.size() ? a[k] : 0;
    const std::int64_t bv = k < b.size() ? b[k] : 0;
    EXPECT_EQ(av, bv) << "histogram bin " << k;
  }
}

using nanocost::testing::TempDir;

// ---------------------------------------------------------------------------
// Token semantics.

TEST(CancelToken, InvalidTokenNeverTrips) {
  const robust::CancelToken none;
  EXPECT_FALSE(none.valid());
  EXPECT_FALSE(none.expired());
  EXPECT_EQ(none.remaining_ms(), std::numeric_limits<double>::infinity());
  none.cancel();  // no-op, no crash
  EXPECT_FALSE(none.expired());
  EXPECT_EQ(none.trip_time_ns(), 0u);
}

TEST(CancelToken, ManualCancelLatches) {
  const robust::CancelToken token = robust::CancelToken::manual();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.remaining_ms(), std::numeric_limits<double>::infinity());
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.remaining_ms(), 0.0);
  EXPECT_NE(token.trip_time_ns(), 0u);
  token.cancel();  // idempotent
  EXPECT_TRUE(token.expired());
}

TEST(CancelToken, DeadlineExpiresAndFarDeadlineDoesNot) {
  const robust::CancelToken expired = robust::CancelToken::with_deadline(-1.0);
  EXPECT_TRUE(expired.expired());
  EXPECT_EQ(expired.remaining_ms(), 0.0);

  const robust::CancelToken far = robust::CancelToken::with_deadline(3600.0 * 1000.0);
  EXPECT_FALSE(far.expired());
  const double left = far.remaining_ms();
  EXPECT_GT(left, 0.0);
  EXPECT_LE(left, 3600.0 * 1000.0);
}

// ---------------------------------------------------------------------------
// Fabsim: cancel-at-K == truncate-at-K, bitwise, at any thread count.

TEST(FabsimDeadline, NoAmbientTokenMatchesRunBitwise) {
  const auto sim = make_simulator();
  const fabsim::LotResult reference = sim.run(37, 5);
  const fabsim::PartialLot partial = sim.run_partial(37, 5, nullptr, robust::CancelToken{});
  EXPECT_FALSE(partial.cancelled);
  EXPECT_DOUBLE_EQ(partial.completeness, 1.0);
  EXPECT_EQ(partial.completed_wafers, 37);
  EXPECT_EQ(partial.frontier_chunks, exec::chunk_count(37, fabsim::FabLotCampaign::kGrain));
  EXPECT_EQ(partial.lot.total_dies, reference.total_dies);
  EXPECT_EQ(partial.lot.good_dies, reference.good_dies);
  ASSERT_EQ(partial.lot.wafers.size(), reference.wafers.size());
  for (std::size_t i = 0; i < reference.wafers.size(); ++i) {
    EXPECT_EQ(partial.lot.wafers[i].good_dies, reference.wafers[i].good_dies) << i;
    EXPECT_EQ(partial.lot.wafers[i].defects, reference.wafers[i].defects) << i;
  }
  expect_histograms_equal(partial.lot.fault_histogram, reference.fault_histogram);
}

TEST(FabsimDeadline, CancelledLotEqualsSerialPrefixAtAnyThreadCount) {
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 4000;
  const std::uint64_t seed = 7;
  const int hw = exec::ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    exec::ThreadPool pool(threads);
    const fabsim::PartialLot partial =
        sim.run_partial(n_wafers, seed, &pool, robust::CancelToken::with_deadline(5.0));
    // Where the frontier lands depends on machine speed; what the
    // result *contains* for that frontier must not.
    EXPECT_EQ(partial.completed_wafers,
              std::min<std::int64_t>(n_wafers,
                                     partial.frontier_chunks * fabsim::FabLotCampaign::kGrain))
        << "threads " << threads;
    if (partial.frontier_chunks < exec::chunk_count(n_wafers, 4)) {
      EXPECT_TRUE(partial.cancelled) << "threads " << threads;
    }
    // Bitwise reference: the same wafer prefix simulated serially.
    std::vector<fabsim::WaferResult> ref(
        static_cast<std::size_t>(std::max<std::int64_t>(partial.completed_wafers, 1)));
    std::vector<std::int64_t> ref_hist;
    if (partial.completed_wafers > 0) {
      sim.run_units(0, partial.completed_wafers, seed, ref.data(), ref_hist);
    }
    std::int64_t ref_total = 0, ref_good = 0;
    for (std::int64_t i = 0; i < partial.completed_wafers; ++i) {
      const auto& got = partial.lot.wafers[static_cast<std::size_t>(i)];
      const auto& want = ref[static_cast<std::size_t>(i)];
      ASSERT_EQ(got.gross_dies, want.gross_dies) << "threads " << threads << " wafer " << i;
      ASSERT_EQ(got.good_dies, want.good_dies) << "threads " << threads << " wafer " << i;
      ASSERT_EQ(got.defects, want.defects) << "threads " << threads << " wafer " << i;
      ASSERT_EQ(got.defects_on_dies, want.defects_on_dies)
          << "threads " << threads << " wafer " << i;
      ref_total += want.gross_dies;
      ref_good += want.good_dies;
    }
    // Wafers past the frontier may have *run*, but must not leak.
    for (std::int64_t i = partial.completed_wafers; i < n_wafers; ++i) {
      EXPECT_EQ(partial.lot.wafers[static_cast<std::size_t>(i)].gross_dies, 0)
          << "threads " << threads << " wafer " << i;
    }
    EXPECT_EQ(partial.lot.total_dies, ref_total) << "threads " << threads;
    EXPECT_EQ(partial.lot.good_dies, ref_good) << "threads " << threads;
    expect_histograms_equal(partial.lot.fault_histogram, ref_hist);
  }
}

// ---------------------------------------------------------------------------
// Risk: cancelled Monte-Carlo summarizes exactly the completed prefix.

TEST(RiskDeadline, NoAmbientTokenMatchesMonteCarloBitwise) {
  const core::UncertainInputs u = risk_inputs();
  const core::RiskResult reference = core::monte_carlo_cost(u, 300.0, 2000, 7);
  const core::PartialRisk partial =
      core::monte_carlo_cost_partial(u, 300.0, 2000, 7, 0.0, nullptr, robust::CancelToken{});
  EXPECT_FALSE(partial.cancelled);
  EXPECT_DOUBLE_EQ(partial.completeness, 1.0);
  EXPECT_EQ(partial.completed_samples, 2000);
  EXPECT_EQ(partial.result.mean, reference.mean);
  EXPECT_EQ(partial.result.stddev, reference.stddev);
  EXPECT_EQ(partial.result.p10, reference.p10);
  EXPECT_EQ(partial.result.p50, reference.p50);
  EXPECT_EQ(partial.result.p90, reference.p90);
}

TEST(RiskDeadline, CancelledRunEqualsSerialPrefixAtAnyThreadCount) {
  const core::UncertainInputs u = risk_inputs();
  const int samples = 400000;
  const std::uint64_t seed = 3;
  const int hw = exec::ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    exec::ThreadPool pool(threads);
    const core::PartialRisk partial = core::monte_carlo_cost_partial(
        u, 300.0, samples, seed, 0.0, &pool, robust::CancelToken::with_deadline(5.0));
    EXPECT_EQ(partial.completed_samples,
              std::min<std::int64_t>(samples,
                                     partial.frontier_chunks * core::kRiskGrain))
        << "threads " << threads;
    if (partial.completed_samples < samples) {
      EXPECT_TRUE(partial.cancelled);
    }
    if (partial.completed_samples < 2) continue;  // nothing to summarize
    // Bitwise reference: the same scenario prefix priced serially.
    std::vector<double> costs(static_cast<std::size_t>(partial.completed_samples));
    for (std::int64_t i = 0; i < partial.completed_samples; ++i) {
      costs[static_cast<std::size_t>(i)] =
          core::risk_sample_cost(u, 300.0, seed, static_cast<std::uint64_t>(i));
    }
    const core::RiskResult want = core::summarize_cost_samples(std::move(costs), u, 0.0);
    EXPECT_EQ(partial.result.mean, want.mean) << "threads " << threads;
    EXPECT_EQ(partial.result.stddev, want.stddev) << "threads " << threads;
    EXPECT_EQ(partial.result.p10, want.p10) << "threads " << threads;
    EXPECT_EQ(partial.result.p50, want.p50) << "threads " << threads;
    EXPECT_EQ(partial.result.p90, want.p90) << "threads " << threads;
    // CI honest for the completed count.
    const double half = 1.96 * want.stddev / std::sqrt(static_cast<double>(
                                                 partial.completed_samples));
    // The interval is derived from the bitwise-checked mean/stddev; the
    // width comparison tolerates re-association rounding only.
    EXPECT_NEAR(partial.mean_ci_hi - partial.mean_ci_lo, 2.0 * half,
                1e-9 * (2.0 * half + 1e-30));
  }
}

// ---------------------------------------------------------------------------
// Campaign engine: expiry checkpoints, resume completes bitwise.

TEST(CampaignDeadline, PreExpiredTokenReturnsExpiredWithoutWork) {
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 40, 9);
  robust::CampaignOptions options;
  options.cancel = robust::CancelToken::with_deadline(-1.0);
  const robust::CampaignResult result = robust::run_campaign(task, options);
  EXPECT_TRUE(result.expired);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.completed_chunks, 0);
  EXPECT_EQ(result.frontier_chunks, 0);
  EXPECT_TRUE(result.quarantined.empty());
}

TEST(CampaignDeadline, ExpiredCampaignResumesToBitwiseIdenticalLot) {
  const auto sim = make_simulator();
  const std::int64_t n_wafers = 4000;
  const std::uint64_t seed = 11;
  const fabsim::FabLotCampaign task(sim, n_wafers, seed);
  const TempDir tier("expiry_resume");

  robust::CampaignOptions bounded;
  bounded.artifact_dir = tier.path();
  bounded.cancel = robust::CancelToken::with_deadline(5.0);
  const robust::CampaignResult first = robust::run_campaign(task, bounded);
  if (first.completed_chunks < first.total_chunks) {
    EXPECT_TRUE(first.expired);
    EXPECT_TRUE(first.interrupted);
    // The frontier is persisted: completed chunks survive in the record.
    EXPECT_GE(first.frontier_chunks, 0);
  }

  // Resume on a different thread count with no deadline.
  exec::ThreadPool serial(1);
  robust::CampaignOptions unbounded;
  unbounded.artifact_dir = tier.path();
  unbounded.pool = &serial;
  const robust::CampaignResult full = robust::run_campaign(task, unbounded);
  EXPECT_FALSE(full.expired);
  EXPECT_EQ(full.completed_chunks, full.total_chunks);
  EXPECT_EQ(full.artifact_hits, first.completed_chunks);

  const fabsim::PartialLot assembled = task.assemble(full);
  EXPECT_DOUBLE_EQ(assembled.completeness, 1.0);
  const fabsim::LotResult direct = sim.run(n_wafers, seed);
  EXPECT_EQ(assembled.lot.total_dies, direct.total_dies);
  EXPECT_EQ(assembled.lot.good_dies, direct.good_dies);
  expect_histograms_equal(assembled.lot.fault_histogram, direct.fault_histogram);
}

TEST(CampaignDeadline, RenderCampaignNamesTheExpiry) {
  const auto sim = make_simulator();
  const fabsim::FabLotCampaign task(sim, 40, 9);
  robust::CampaignOptions options;
  options.cancel = robust::CancelToken::with_deadline(-1.0);
  const robust::CampaignResult result = robust::run_campaign(task, options);
  const std::string text = report::render_campaign(result, "wafer");
  EXPECT_NE(text.find("deadline expired"), std::string::npos);
  EXPECT_NE(text.find("resumable"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Retries under a cancel token: none after it expires.

/// A campaign whose chunk `failing_chunk` always throws -- for
/// exercising the retry paths without fault plans.  `cancel_on_retry`
/// is cancelled by that chunk's second attempt, before it throws.
class ToyTask final : public robust::CampaignTask {
 public:
  ToyTask(std::int64_t units, std::int64_t grain, std::int64_t failing_chunk = -1,
          robust::CancelToken cancel_on_retry = {})
      : units_(units),
        grain_(grain),
        failing_chunk_(failing_chunk),
        cancel_on_retry_(std::move(cancel_on_retry)) {}

  [[nodiscard]] std::uint64_t config_fingerprint() const override {
    return 0xABCDu ^ static_cast<std::uint64_t>(units_ * 31 + grain_);
  }
  [[nodiscard]] std::int64_t unit_count() const override { return units_; }
  [[nodiscard]] std::int64_t grain() const override { return grain_; }
  void run_chunk(std::int64_t begin, std::int64_t end,
                 std::vector<std::uint8_t>& blob) const override {
    if (begin / grain_ == failing_chunk_) {
      if (robust::AttemptScope::current() == 1) cancel_on_retry_.cancel();
      throw std::runtime_error("toy chunk failure");
    }
    for (std::int64_t i = begin; i < end; ++i) {
      blob.push_back(static_cast<std::uint8_t>(i & 0xFF));
    }
  }

 private:
  std::int64_t units_;
  std::int64_t grain_;
  std::int64_t failing_chunk_;
  robust::CancelToken cancel_on_retry_;
};

TEST(CampaignDeadline, AbandonedRetriesReachTheRetriesCounter) {
  // Chunk 2 fails every attempt, and its second attempt trips the
  // token, so the chunk abandons its third attempt after one retry and
  // stays pending; the chunks behind it never start.  The campaign
  // report prints the counter as "chunks retried"; it must agree with
  // the result.
  obs::set_metrics_enabled(true);
  const std::uint64_t before = obs::counter_value("robust.retries");
  const robust::CancelToken token = robust::CancelToken::manual();
  const ToyTask task(40, 4, 2, token);
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;
  options.cancel = token;
  const robust::CampaignResult result = robust::run_campaign(task, options);
  const std::uint64_t counted = obs::counter_value("robust.retries") - before;
  obs::set_metrics_enabled(false);
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(result.expired);
  EXPECT_EQ(result.completed_chunks, 2);
  EXPECT_EQ(result.frontier_chunks, 2);
  EXPECT_TRUE(result.chunks[2].empty());
  EXPECT_EQ(result.retries, 1);
  EXPECT_EQ(counted, static_cast<std::uint64_t>(result.retries));
}

TEST(CampaignDeadline, AFailureUnderALiveBudgetQuarantinesAfterEveryAttempt) {
  const ToyTask task(40, 4, 2);
  exec::ThreadPool serial(1);
  robust::CampaignOptions options;
  options.pool = &serial;
  options.cancel = robust::CancelToken::with_deadline(60.0 * 1000.0);
  const robust::CampaignResult result = robust::run_campaign(task, options);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].chunk, 2);
  EXPECT_EQ(result.retries, robust::kChunkAttempts - 1);
  EXPECT_EQ(result.completed_chunks, result.total_chunks - 1);
  EXPECT_FALSE(result.expired);
}

// ---------------------------------------------------------------------------
// BackoffPolicy (robust/backoff.hpp): the schedule serve::ResilientClient
// sleeps on between attempts.

TEST(BackoffPolicy, ZeroJitterReproducesTheDoublingLadderExactly) {
  const robust::BackoffPolicy p{50.0, 0.0, 2.0, 0.0, 0};
  EXPECT_DOUBLE_EQ(p.delay_ms(0), 50.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(1), 100.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(2), 200.0);
  EXPECT_DOUBLE_EQ(p.delay_ms(3), 400.0);

  const robust::BackoffPolicy capped{50.0, 120.0, 2.0, 0.0, 0};
  EXPECT_DOUBLE_EQ(capped.delay_ms(0), 50.0);
  EXPECT_DOUBLE_EQ(capped.delay_ms(1), 100.0);
  EXPECT_DOUBLE_EQ(capped.delay_ms(2), 120.0);
  EXPECT_DOUBLE_EQ(capped.delay_ms(9), 120.0);

  // base <= 0 disables backoff entirely.
  const robust::BackoffPolicy off{0.0, 0.0, 2.0, 0.5, 9};
  EXPECT_DOUBLE_EQ(off.delay_ms(0), 0.0);
  EXPECT_DOUBLE_EQ(off.delay_ms(7), 0.0);
}

TEST(BackoffPolicy, JitterIsDeterministicPerSeedAndStaysBounded) {
  const robust::BackoffPolicy a{50.0, 2000.0, 2.0, 0.25, 42};
  const robust::BackoffPolicy twin{50.0, 2000.0, 2.0, 0.25, 42};
  const robust::BackoffPolicy other{50.0, 2000.0, 2.0, 0.25, 43};
  const robust::BackoffPolicy plain{50.0, 2000.0, 2.0, 0.0, 0};

  bool some_seed_divergence = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // Pure function of (policy, attempt): two processes with the same
    // policy replay the identical schedule.
    EXPECT_DOUBLE_EQ(a.delay_ms(attempt), twin.delay_ms(attempt)) << attempt;
    EXPECT_DOUBLE_EQ(a.delay_ms(attempt), a.delay_ms(attempt)) << attempt;
    // The jittered delay stays inside [1 - j, 1 + j) of the un-jittered
    // ladder, and never exceeds the cap.
    const double base = plain.delay_ms(attempt);
    EXPECT_GE(a.delay_ms(attempt), 0.75 * base - 1e-9) << attempt;
    EXPECT_LE(a.delay_ms(attempt), std::min(1.25 * base, 2000.0) + 1e-9) << attempt;
    if (a.delay_ms(attempt) != other.delay_ms(attempt)) some_seed_divergence = true;
  }
  EXPECT_TRUE(some_seed_divergence) << "different seeds must yield different schedules";
}

TEST(BackoffPolicy, OverrunsBudgetExactlyWhenTheSleepCannotPayOff) {
  // No deadline: nothing to overrun.
  const robust::BackoffPolicy huge{10.0 * 60.0 * 1000.0, 0.0, 2.0, 0.0, 0};
  EXPECT_FALSE(huge.overruns_budget(0, robust::CancelToken{}));

  // A 10-minute sleep against a 60-second budget: abandon.
  const robust::CancelToken minute = robust::CancelToken::with_deadline(60.0 * 1000.0);
  EXPECT_TRUE(huge.overruns_budget(0, minute));

  // A 10-microsecond sleep fits the same budget.
  const robust::BackoffPolicy tiny{0.01, 0.0, 2.0, 0.0, 0};
  EXPECT_FALSE(tiny.overruns_budget(0, minute));

  // An already-expired deadline overruns even a zero-length sleep.
  const robust::CancelToken expired = robust::CancelToken::with_deadline(0.0);
  const robust::BackoffPolicy off{0.0, 0.0, 2.0, 0.0, 0};
  EXPECT_TRUE(off.overruns_budget(0, expired));
}

// ---------------------------------------------------------------------------
// Router: pass-boundary cancellation.

TEST(RouteDeadline, ExpiredTokenStopsRefinementOnAPassBoundary) {
  // Three straight nets over capacity 2: rip-up normally resolves the
  // overflow with U-detours (see route_test).  An already-expired
  // deadline must stop before the first pass -- the result is
  // exactly single-pass routing, coarser but well-formed.
  netlist::Netlist nl;
  const std::int32_t a = nl.add_primary_input();
  std::vector<std::int32_t> drivers;
  for (int i = 0; i < 3; ++i) drivers.push_back(nl.add_gate(netlist::GateType::kInv, {a}));
  std::vector<std::int32_t> sinks;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(nl.add_gate(netlist::GateType::kInv,
                                {nl.output_net_of(drivers[static_cast<std::size_t>(i)])}));
  }
  place::Placement p(3, 8, 6);
  for (int i = 0; i < 3; ++i) p.assign(drivers[static_cast<std::size_t>(i)], 8 + i);
  for (int i = 0; i < 3; ++i) p.assign(sinks[static_cast<std::size_t>(i)], 8 + 5 + i);
  route::RouterParams params;
  params.h_capacity = 2;
  params.v_capacity = 2;
  params.rip_up_passes = 4;

  const route::RouteResult refined = route::route(nl, p, params);
  EXPECT_FALSE(refined.cancelled);
  EXPECT_GT(refined.completed_rip_up_passes, 0);
  EXPECT_EQ(refined.overflowed_edges, 0);

  const route::RouteResult cut =
      route::route(nl, p, params, robust::CancelToken::with_deadline(-1.0));
  EXPECT_TRUE(cut.cancelled);
  EXPECT_EQ(cut.completed_rip_up_passes, 0);

  route::RouterParams single = params;
  single.rip_up_passes = 0;
  const route::RouteResult base = route::route(nl, p, single);
  EXPECT_EQ(cut.total_wirelength_edges, base.total_wirelength_edges);
  EXPECT_EQ(cut.overflowed_edges, base.overflowed_edges);
}

// ---------------------------------------------------------------------------
// Observability: cancel latency is measured.

TEST(CancelObservability, CancelledLoopRecordsLatency) {
  obs::set_metrics_enabled(true);
  const std::uint64_t loops_before = obs::counter_value("robust.cancelled_loops");
  const auto sim = make_simulator();
  const fabsim::PartialLot partial =
      sim.run_partial(40, 9, nullptr, robust::CancelToken::with_deadline(-1.0));
  EXPECT_TRUE(partial.cancelled);
  EXPECT_GT(obs::counter_value("robust.cancelled_loops"), loops_before);
  const obs::Histogram* latency = obs::find_histogram("robust.cancel_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count(), 0u);
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace nanocost