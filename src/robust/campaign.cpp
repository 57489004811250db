#include "nanocost/robust/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/obs/metrics.hpp"
#include "nanocost/obs/trace.hpp"
#include "nanocost/robust/artifact_store.hpp"
#include "nanocost/robust/backoff.hpp"
#include "nanocost/robust/checkpoint.hpp"
#include "nanocost/robust/fault_injection.hpp"

namespace nanocost::robust {

std::vector<std::int64_t> CampaignResult::failed_units() const {
  std::vector<std::int64_t> units;
  for (const ChunkFailure& f : quarantined) {
    for (std::int64_t u = f.unit_begin; u < f.unit_end; ++u) units.push_back(u);
  }
  return units;
}

CampaignResult run_campaign(const CampaignTask& task, const CampaignOptions& options) {
  const std::int64_t units = task.unit_count();
  const std::int64_t grain = task.grain();
  if (units < 1 || grain < 1) {
    throw std::invalid_argument("campaign needs unit_count >= 1 and grain >= 1");
  }
  if (options.wave_chunks < 1) {
    throw std::invalid_argument("campaign wave_chunks must be >= 1");
  }
  if (options.max_attempts < 1) {
    throw std::invalid_argument("campaign max_attempts must be >= 1");
  }
  const std::int64_t n_chunks = exec::chunk_count(units, grain);
  const auto chunk_begin = [&](std::int64_t c) { return c * grain; };
  const auto chunk_end = [&](std::int64_t c) { return std::min(c * grain + grain, units); };

  CampaignResult result;
  result.total_chunks = n_chunks;
  result.total_units = units;
  result.chunks.assign(static_cast<std::size_t>(n_chunks), {});

  // The campaign's record in the artifact tier, loaded once, before
  // scheduling: a corrupt or foreign one throws here, deterministically,
  // and is never silently recomputed.
  Checkpoint expected;
  expected.fingerprint = task.config_fingerprint();
  expected.unit_count = units;
  expected.grain = grain;
  std::string record;
  if (!options.artifact_dir.empty()) {
    record = ArtifactStore(options.artifact_dir)
                 .record_path(campaign_record_key(expected.fingerprint, units, grain));
    obs::ObsSpan span("robust.record_load");
    Checkpoint loaded;
    if (load_checkpoint(record, expected, loaded)) {
      // The header matched, so the record has exactly n_chunks slots.
      result.artifact_hits = loaded.completed_chunks();
      result.chunks = std::move(loaded.chunks);
    }
    span.arg("hits", static_cast<std::uint64_t>(result.artifact_hits));
    if (obs::metrics_enabled() && result.artifact_hits > 0) {
      static obs::Counter& hits = obs::counter("robust.artifact_hits");
      hits.add(static_cast<std::uint64_t>(result.artifact_hits));
    }
  }

  std::vector<std::int64_t> pending;
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    if (result.chunks[static_cast<std::size_t>(c)].empty()) pending.push_back(c);
  }
  std::int64_t budget = options.max_chunks_this_run > 0
                            ? std::min<std::int64_t>(options.max_chunks_this_run,
                                                     static_cast<std::int64_t>(pending.size()))
                            : static_cast<std::int64_t>(pending.size());
  result.interrupted = budget < static_cast<std::int64_t>(pending.size());

  // Deadline/cancellation: an explicit token wins; otherwise the
  // caller's ambient token (one relaxed load when none is installed).
  const CancelToken token =
      options.cancel.valid() ? options.cancel : current_cancel_token();

  std::atomic<std::int64_t> retries{0};
  // Every retry is counted once, in the result and in the counter the
  // campaign report prints as "chunks retried".
  const auto count_retries = [&retries](std::int64_t n) {
    if (n == 0) return;
    retries.fetch_add(n, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      static obs::Counter& retried = obs::counter("robust.retries");
      retried.add(static_cast<std::uint64_t>(n));
    }
  };
  // Chunks computed this run; `published` of them are in the record on
  // disk.  The next wave's rewrite carries any a failed publish missed.
  std::atomic<std::int64_t> computed{0};
  std::int64_t published = 0;
  // Set when a chunk gave up on its remaining retry attempts because
  // the backoff would not fit the remaining budget; the chunk stays
  // pending (not quarantined), so a resume retries it fresh.
  std::atomic<bool> abandoned_retries{false};
  std::mutex quarantine_mu;
  const auto publish = [&] {
    const std::int64_t done = computed.load(std::memory_order_relaxed);
    if (record.empty() || done == published) return;
    obs::ObsSpan span("robust.checkpoint");
    // Lend the blobs to the record for the write and take them back
    // after it, failed or not.  Waves run between publishes, so no chunk
    // task touches result.chunks meanwhile.
    Checkpoint ckpt = expected;
    ckpt.chunks.swap(result.chunks);
    try {
      const std::size_t bytes = save_checkpoint(record, ckpt);
      span.arg("bytes", static_cast<std::uint64_t>(bytes));
      if (obs::metrics_enabled()) {
        static obs::Counter& writes = obs::counter("robust.checkpoint_writes");
        static obs::Counter& written = obs::counter("robust.checkpoint_bytes");
        static obs::Counter& stored = obs::counter("robust.artifact_stores");
        writes.add();
        written.add(static_cast<std::uint64_t>(bytes));
        stored.add(static_cast<std::uint64_t>(done - published));
      }
      published = done;
    } catch (const std::exception&) {
      // Best-effort: the results are in hand, so a full disk costs the
      // *next* run a recompute, never this run its answer.
      if (obs::metrics_enabled()) {
        static obs::Counter& errors = obs::counter("robust.artifact_store_errors");
        errors.add();
      }
    }
    result.chunks.swap(ckpt.chunks);
  };

  const auto run_one_chunk = [&](std::int64_t chunk) {
    obs::ObsSpan chunk_span("robust.chunk");
    chunk_span.arg("chunk", static_cast<std::uint64_t>(chunk));
    auto& blob = result.chunks[static_cast<std::size_t>(chunk)];
    std::string last_error;
    for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
      AttemptScope scope(static_cast<std::uint32_t>(attempt));
      try {
        blob.clear();
        task.run_chunk(chunk_begin(chunk), chunk_end(chunk), blob);
        if (blob.empty()) {
          throw std::logic_error("campaign chunk produced an empty blob");
        }
        count_retries(attempt);
        chunk_span.arg("attempts", static_cast<std::uint64_t>(attempt) + 1);
        if (obs::metrics_enabled()) {
          static obs::Counter& completed = obs::counter("robust.chunks_completed");
          completed.add();
        }
        computed.fetch_add(1, std::memory_order_relaxed);
        return;
      } catch (const std::exception& e) {
        last_error = e.what();
      } catch (...) {
        last_error = "unknown exception";
      }
      if (attempt + 1 >= options.max_attempts) break;
      // About to retry: an exhausted budget (or a backoff sleep that
      // would not fit in it) abandons the remaining attempts.  The
      // chunk stays pending -- a resume with fresh budget retries it --
      // which keeps deadline pressure from mis-filing transient
      // failures as quarantined-permanent.
      const BackoffPolicy backoff{options.retry_backoff_ms, /*cap_ms=*/0.0,
                                  /*multiplier=*/2.0, /*jitter=*/0.0, /*seed=*/0};
      if (backoff.overruns_budget(attempt, token)) {
        blob.clear();
        count_retries(attempt);
        chunk_span.arg("abandoned_after", static_cast<std::uint64_t>(attempt) + 1);
        abandoned_retries.store(true, std::memory_order_relaxed);
        if (obs::metrics_enabled()) {
          static obs::Counter& abandoned = obs::counter("robust.retry_abandoned");
          abandoned.add();
        }
        return;
      }
      backoff_sleep(backoff, attempt);
    }
    blob.clear();
    count_retries(options.max_attempts - 1);
    chunk_span.arg("attempts", static_cast<std::uint64_t>(options.max_attempts));
    if (obs::metrics_enabled()) {
      static obs::Counter& quarantined = obs::counter("robust.quarantined");
      quarantined.add();
    }
    ChunkFailure failure;
    failure.chunk = chunk;
    failure.unit_begin = chunk_begin(chunk);
    failure.unit_end = chunk_end(chunk);
    failure.error = std::move(last_error);
    std::lock_guard<std::mutex> lk(quarantine_mu);
    result.quarantined.push_back(std::move(failure));
  };

  exec::ThreadPool& pool = exec::pool_or_global(options.pool);
  std::function<bool()> cancelled;
  if (token.valid()) cancelled = [&token] { return token.expired(); };
  std::int64_t wave_start = 0;
  while (wave_start < budget) {
    if (token.valid() && token.expired()) {
      result.expired = true;
      break;
    }
    if (token.valid() && obs::metrics_enabled()) {
      const double remaining = token.remaining_ms();
      if (std::isfinite(remaining)) {
        static obs::Gauge& deadline_gauge = obs::gauge("robust.deadline_remaining_ms");
        deadline_gauge.set(remaining);
      }
    }
    const std::int64_t wave = std::min(options.wave_chunks, budget - wave_start);
    obs::ObsSpan wave_span("robust.wave");
    wave_span.arg("chunks", static_cast<std::uint64_t>(wave));
    const bool timed = obs::metrics_enabled();
    const auto wave_t0 = timed ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    pool.run_tasks(
        wave,
        [&](std::int64_t t) { run_one_chunk(pending[static_cast<std::size_t>(wave_start + t)]); },
        cancelled);
    if (timed) {
      static obs::Histogram& wave_ms = obs::histogram("robust.wave_ms");
      wave_ms.record(static_cast<std::uint64_t>(
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wave_t0)
              .count()));
      static obs::Counter& waves = obs::counter("robust.waves");
      waves.add();
    }
    publish();
    wave_start += wave;
  }

  result.retries = retries.load(std::memory_order_relaxed);
  result.artifact_stores = published;
  std::sort(result.quarantined.begin(), result.quarantined.end(),
            [](const ChunkFailure& a, const ChunkFailure& b) { return a.chunk < b.chunk; });
  result.frontier_chunks = n_chunks;
  for (std::int64_t c = 0; c < n_chunks; ++c) {
    if (!result.chunks[static_cast<std::size_t>(c)].empty()) {
      ++result.completed_chunks;
      result.completed_units += chunk_end(c) - chunk_begin(c);
    } else if (result.frontier_chunks == n_chunks) {
      result.frontier_chunks = c;
    }
  }
  // Expiry that stopped work mid-wave: the token tripped and left
  // chunks neither completed nor quarantined.  A run that finished all
  // its work before the deadline passed is not "expired".
  const bool work_left =
      result.completed_chunks + static_cast<std::int64_t>(result.quarantined.size()) <
      result.total_chunks;
  if (token.valid() && work_left && token.expired()) result.expired = true;
  // Every executed wave already published, so the frontier at
  // interruption is on disk; just flag the result as resumable.
  if (result.expired || abandoned_retries.load(std::memory_order_relaxed)) {
    result.interrupted = true;
  }
  if (result.expired) {
    note_cancel_observed(token);
    if (obs::metrics_enabled()) {
      static obs::Counter& expired_runs = obs::counter("robust.expired");
      expired_runs.add();
    }
  }
  if (obs::metrics_enabled() && result.total_units > 0) {
    static obs::Gauge& completeness = obs::gauge("robust.completeness");
    completeness.set(static_cast<double>(result.completed_units) /
                     static_cast<double>(result.total_units));
  }
  if (!options.allow_partial && !result.quarantined.empty()) {
    const ChunkFailure& first = result.quarantined.front();
    throw std::runtime_error("campaign chunk " + std::to_string(first.chunk) + " (units [" +
                             std::to_string(first.unit_begin) + ", " +
                             std::to_string(first.unit_end) + ")) failed after " +
                             std::to_string(options.max_attempts) +
                             " attempts: " + first.error);
  }
  return result;
}

}  // namespace nanocost::robust
