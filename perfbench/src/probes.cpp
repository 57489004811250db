// Per-layer probes: each one times direct calls into a single layer on
// fixed inputs drawn from the workload seed, and reports a median.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "nanocost/cache/cached.hpp"
#include "nanocost/cache/codec.hpp"
#include "nanocost/core/optimizer.hpp"
#include "nanocost/core/risk.hpp"
#include "nanocost/exec/parallel.hpp"
#include "nanocost/fabsim/campaign.hpp"
#include "nanocost/obs/stats.hpp"
#include "nanocost/robust/artifact_store.hpp"
#include "nanocost/robust/checkpoint.hpp"
#include "nanocost/serve/jobs.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace core = nanocost::core;
namespace fabsim = nanocost::fabsim;
namespace robust = nanocost::robust;
namespace serve = nanocost::serve;
namespace cache = nanocost::cache;

/// Median over `reps` timings of `fn`, in microseconds; each timing runs
/// `fn` `batch` times and is divided by it.
template <typename Fn>
double median_us(int reps, int batch, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    for (int b = 0; b < batch; ++b) fn();
    t.push_back(ns_to_us(now_ns() - t0) / batch);
  }
  return median(t);
}

serve::CampaignJob probe_lot(bool dense, std::uint64_t seed) {
  serve::CampaignJob job;
  job.seed = seed;
  if (dense) {
    job.wafer_diameter_mm = 300.0;
    job.defect_density_per_cm2 = 3.0;
  }
  job.n_wafers = 4000;
  return job;
}

void probe_serve_and_core(std::uint64_t seed, Result& result) {
  InputRng rng(mix_seed(seed, 7));
  serve::Eq4Job job;
  job.inputs.yield = nanocost::units::Probability(rng.range(0.6, 0.95));
  job.inputs.transistors_per_chip = rng.range(2e6, 5e7);
  job.request_id = 42;
  {
    Span span("probe.sweep_eq4", "core");
    result.set("core.eq4_sweep_us", median_us(200, 1, [&] {
                 (void)core::sweep_eq4(job.inputs, job.lo, job.hi, job.steps);
               }),
               "us");
  }
  serve::Response response;
  response.request_id = job.request_id;
  response.result = cache::encode(core::sweep_eq4(job.inputs, job.lo, job.hi, job.steps));
  {
    Span span("probe.codec", "serve");
    result.set("wire.codec_ns", 1e3 * median_us(50, 100, [&] {
                 (void)serve::decode_eq4_job(serve::encode_payload(job));
                 (void)serve::decode_response(serve::encode_payload(response));
               }),
               "ns");
  }
  {
    Span span("probe.lru_hit", "cache");
    (void)cache::sweep_eq4_cached(job.inputs, job.lo, job.hi, job.steps);
    result.set("cache.hit_ns", 1e3 * median_us(50, 100, [&] {
                 (void)cache::sweep_eq4_cached(job.inputs, job.lo, job.hi, job.steps);
               }),
               "ns");
  }
  core::UncertainInputs risk;
  risk.nominal = job.inputs;
  const double s_d = rng.range(400.0, 2000.0);
  {
    Span span("probe.risk_mc", "core");
    result.set("core.risk_mc_us.4000", median_us(31, 1, [&] {
                 (void)core::monte_carlo_cost(risk, s_d, 4000, 7);
               }),
               "us");
    result.set("core.risk_mc_us.20000", median_us(11, 1, [&] {
                 (void)core::monte_carlo_cost(risk, s_d, 20000, 7);
               }),
               "us");
  }
  std::vector<double> costs(20000);
  core::risk_sample_cost_batch(risk, s_d, 7, 0, costs.size(), costs.data());
  {
    Span span("probe.risk_summarize", "core");
    result.set("core.risk_summarize_us", median_us(21, 1, [&] {
                 (void)core::summarize_cost_samples(costs, risk);
               }),
               "us");
  }
}

void probe_exec(Result& result) {
  Span span("probe.fanout", "exec");
  nanocost::exec::ThreadPool& pool = nanocost::exec::ThreadPool::global();
  const std::int64_t width = pool.thread_count();
  std::vector<double> t;
  for (int r = 0; r < 101; ++r) {
    // Let the workers park, so each loop pays the wake-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::int64_t t0 = now_ns();
    nanocost::exec::parallel_for(&pool, width, 1, [](std::int64_t, std::int64_t) {});
    t.push_back(ns_to_us(now_ns() - t0));
  }
  result.set("exec.fanout_us", median(t), "us");
}

void probe_fabsim_and_robust(std::uint64_t seed, Result& result) {
  const serve::CampaignJob dense_job = probe_lot(true, mix_seed(seed, 8));
  const serve::CampaignJob sparse_job = probe_lot(false, mix_seed(seed, 9));
  const fabsim::FabSimulator dense = serve::make_simulator(dense_job);
  const fabsim::FabSimulator sparse = serve::make_simulator(sparse_job);
  {
    Span span("probe.run_units", "fabsim");
    std::vector<fabsim::WaferResult> wafers(64);
    std::vector<std::int64_t> hist;
    result.set("fabsim.wafer_us.dense", median_us(5, 1, [&] {
                 dense.run_units(0, 16, dense_job.seed, wafers.data(), hist);
               }) / 16.0,
               "us");
    double defects = 0.0;
    for (int i = 0; i < 16; ++i) defects += static_cast<double>(wafers[static_cast<std::size_t>(i)].defects);
    result.set("fabsim.defects_per_wafer", defects / 16.0, "count");
    result.set("fabsim.wafer_us.sparse", median_us(5, 1, [&] {
                 sparse.run_units(0, 64, sparse_job.seed, wafers.data(), hist);
               }) / 64.0,
               "us");
  }

  // The sparse lot's chunk blobs, as the campaign engine produces them.
  const fabsim::FabLotCampaign campaign(sparse, sparse_job.n_wafers, sparse_job.seed);
  const std::int64_t grain = campaign.grain();
  const std::int64_t chunks = (sparse_job.n_wafers + grain - 1) / grain;
  robust::Checkpoint ckpt;
  ckpt.fingerprint = campaign.config_fingerprint();
  ckpt.unit_count = sparse_job.n_wafers;
  ckpt.grain = grain;
  ckpt.chunks.resize(static_cast<std::size_t>(chunks));
  for (std::int64_t c = 0; c < chunks; ++c) {
    campaign.run_chunk(c * grain, std::min((c + 1) * grain, sparse_job.n_wafers),
                       ckpt.chunks[static_cast<std::size_t>(c)]);
  }

  const std::string dir = kept_dir("probe-artifacts");
  {
    Span span("probe.artifact_store", "robust");
    const robust::ArtifactStore store(dir);
    std::vector<double> store_us;
    std::vector<double> load_us;
    std::vector<std::uint8_t> payload;
    constexpr std::int64_t kBlobs = 200;
    for (std::int64_t c = 0; c < kBlobs; ++c) {
      const auto key = robust::chunk_artifact_key(ckpt.fingerprint, ckpt.unit_count, grain, c);
      const std::int64_t t0 = now_ns();
      store.store(key, ckpt.chunks[static_cast<std::size_t>(c)]);
      store_us.push_back(ns_to_us(now_ns() - t0));
    }
    for (std::int64_t c = 0; c < kBlobs; ++c) {
      const auto key = robust::chunk_artifact_key(ckpt.fingerprint, ckpt.unit_count, grain, c);
      const std::int64_t t0 = now_ns();
      if (!store.load(key, payload) || payload != ckpt.chunks[static_cast<std::size_t>(c)]) {
        result.mismatch("artifact blob did not round-trip");
      }
      load_us.push_back(ns_to_us(now_ns() - t0));
    }
    result.set("robust.blob_store_us", median(store_us), "us");
    result.set("robust.blob_load_us", median(load_us), "us");
    result.set("robust.blob_bytes",
               static_cast<double>(std::filesystem::file_size(store.path_for(
                   robust::chunk_artifact_key(ckpt.fingerprint, ckpt.unit_count, grain, 0)))),
               "bytes");
  }
  {
    Span span("probe.checkpoint", "robust");
    const std::string path = dir + "/probe.ncckpt";
    std::size_t bytes = 0;
    result.set("robust.checkpoint_save_us", median_us(9, 1, [&] {
                 bytes = robust::save_checkpoint(path, ckpt);
               }),
               "us");
    robust::Checkpoint loaded;
    result.set("robust.checkpoint_load_us", median_us(9, 1, [&] {
                 if (!robust::load_checkpoint(path, ckpt, loaded)) {
                   result.mismatch("checkpoint did not load back");
                 }
               }),
               "us");
    if (loaded.chunks != ckpt.chunks) result.mismatch("checkpoint did not round-trip");
    result.set("robust.checkpoint_bytes", static_cast<double>(bytes), "bytes");
  }
  {
    Span span("probe.lot_encode", "cache");
    const fabsim::LotResult lot = sparse.run(sparse_job.n_wafers, sparse_job.seed);
    result.set("cache.lot_encode_us", median_us(21, 1, [&] { (void)cache::encode(lot); }), "us");
  }
}

}  // namespace

void run_layer_probes(std::uint64_t seed, Result& result) {
  probe_serve_and_core(seed, result);
  probe_exec(result);
  probe_fabsim_and_robust(seed, result);
}

MetricsWindow::MetricsWindow() : before_(nanocost::obs::snapshot_metrics()) {}

void MetricsWindow::close() {
  delta_ = nanocost::obs::delta_stats(nanocost::obs::snapshot_metrics(), before_);
}

double MetricsWindow::counter(const std::string& name) const {
  for (const auto& [n, v] : delta_.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0.0;
}

double MetricsWindow::histogram_mean(const std::string& name) const {
  for (const auto& h : delta_.histograms) {
    if (h.name == name) return ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
  }
  return 0.0;
}

}  // namespace perfbench
