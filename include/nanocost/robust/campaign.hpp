// Fault-tolerant, resumable Monte-Carlo campaigns.
//
// A campaign is `unit_count` independent work units (wafers, MC samples)
// processed in fixed chunks of `grain` units.  Each chunk is a pure
// function of its index -- per-unit RNG streams derive from the unit
// index (exec/seed.hpp) -- which buys three properties at once:
//
//  * determinism: chunk results do not depend on thread count or
//    schedule, and the final merge walks chunks in ascending order;
//  * resumability: a campaign record is just the completed-chunk blobs
//    (robust/checkpoint.hpp) -- no RNG or scheduler state to capture;
//  * graceful degradation: a failing chunk is retried a bounded number
//    of times (with robust::AttemptScope advancing the transient-fault
//    schedule) and then quarantined, so one poisoned unit costs one
//    chunk of coverage instead of the whole run.
//
// The engine runs chunks in waves of kWaveChunks on the thread pool,
// rewriting the record between waves, tries each chunk up to
// kChunkAttempts times, and reports completeness plus the
// quarantined-chunk list instead of rethrowing first-failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nanocost/robust/cancel.hpp"

namespace nanocost::exec {
class ThreadPool;
}

namespace nanocost::robust {

/// Chunks per scheduling wave.  The record is rewritten after each wave,
/// so this is also the persistence cadence: a kill -9 loses at most one
/// wave of completed chunks.
inline constexpr std::int64_t kWaveChunks = 64;
/// Tries per chunk before quarantine.  A retry is not taken once the
/// cancel token has expired: the chunk abandons its remaining tries and
/// stays pending, so a resume with a fresh budget retries it.
inline constexpr int kChunkAttempts = 3;

/// A campaign workload.  Implementations must make run_chunk a pure
/// function of [begin, end): same range, same bytes -- on any thread,
/// at any time, in any process.  The produced blob must be non-empty.
class CampaignTask {
 public:
  virtual ~CampaignTask() = default;

  /// The campaign's identity, written unchanged into its record's
  /// NCCKPT01 header: the low 64 bits of a cache::KeyBuilder digest
  /// whose entry point names the task and which covers every field
  /// run_chunk reads (seed, model configuration).  The header and
  /// campaign_record_key bind unit_count and grain beside it.
  [[nodiscard]] virtual std::uint64_t config_fingerprint() const = 0;
  [[nodiscard]] virtual std::int64_t unit_count() const = 0;
  /// Units per chunk; also the quarantine blast radius.
  [[nodiscard]] virtual std::int64_t grain() const = 0;
  /// Computes units [begin, end) into `blob` (serialized accumulator).
  virtual void run_chunk(std::int64_t begin, std::int64_t end,
                         std::vector<std::uint8_t>& blob) const = 0;
};

struct CampaignOptions final {
  /// The artifact tier (robust/artifact_store.hpp); empty keeps the run
  /// in memory.  The campaign's one record there (NCCKPT01, named by
  /// campaign_record_key) is loaded before scheduling -- its chunks are
  /// accepted verbatim, being pure functions of their index -- and
  /// rewritten after every wave that completed a chunk.  A failed publish
  /// is counted in robust.artifact_store_errors, never fatal.  Any run of
  /// the same campaign, in any process, resumes from the record.
  std::string artifact_dir;
  /// Stop (persist and return, `interrupted` set) after processing
  /// this many pending chunks; 0 means run to completion.  This is the
  /// hook kill/resume tests and demos use to interrupt mid-campaign.
  std::int64_t max_chunks_this_run = 0;
  /// null: the global pool.
  exec::ThreadPool* pool = nullptr;
  /// Deadline / cancellation for this run; an invalid token (the
  /// default) never expires.  Each chunk task polls it before it starts,
  /// as parallel_reduce's chunk body does, so expiry stops the run on a
  /// chunk boundary: completed chunks are persisted, pending ones stay
  /// pending, and the result comes back with `expired` set -- resumable
  /// exactly like a killed run.
  CancelToken cancel;
};

/// One chunk that exhausted its attempts.
struct ChunkFailure final {
  std::int64_t chunk = 0;
  std::int64_t unit_begin = 0;
  std::int64_t unit_end = 0;
  std::string error;  ///< what() of the last attempt's exception
};

struct CampaignResult final {
  /// Indexed by chunk; empty blob = not completed (quarantined or not
  /// yet run).  Merge in ascending index for deterministic assembly.
  std::vector<std::vector<std::uint8_t>> chunks;
  std::vector<ChunkFailure> quarantined;  ///< sorted by chunk index
  std::int64_t total_chunks = 0;
  std::int64_t completed_chunks = 0;
  std::int64_t total_units = 0;
  std::int64_t completed_units = 0;
  /// Chunks restored from the artifact tier instead of recomputed.
  std::int64_t artifact_hits = 0;
  /// Chunks computed this run and published into the tier's record.
  std::int64_t artifact_stores = 0;
  /// Extra attempts spent beyond each chunk's first try.
  std::int64_t retries = 0;
  /// true when max_chunks_this_run or the cancel token stopped the run
  /// early (not every chunk was attempted).
  bool interrupted = false;
  /// true when the cancel token / deadline stopped the run.
  bool expired = false;
  /// First chunk without a result (== total_chunks on a full run): the
  /// exact frontier a deadline-truncated assembly is deterministic
  /// against.
  std::int64_t frontier_chunks = 0;

  /// Fraction of units with results: 1.0 for a clean complete run.
  [[nodiscard]] double completeness() const noexcept {
    return total_units > 0
               ? static_cast<double>(completed_units) / static_cast<double>(total_units)
               : 1.0;
  }
  /// Unit indices covered by quarantined chunks, ascending.
  [[nodiscard]] std::vector<std::int64_t> failed_units() const;
};

/// Runs (or resumes) `task` under `options`.  Always returns a result;
/// throws only on a foreign or corrupt record or an artifact directory
/// it cannot create.  Chunk failures are quarantined, and deadline
/// expiry persists the completed chunks and returns a partial result
/// with `expired` set.
[[nodiscard]] CampaignResult run_campaign(const CampaignTask& task,
                                          const CampaignOptions& options = {});

}  // namespace nanocost::robust
