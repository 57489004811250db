// Content-addressed on-disk artifact tier.
//
// One directory of files named by a 128-bit digest:
//
//   <dir>/<32-hex>.ncckpt   a campaign's NCCKPT01 record (campaign_record_key)
//   <dir>/<32-hex>.ncblob   one NCBLOB01 blob per content digest
//
// Each blob file (the byte codec's conventions, cache/bytes.hpp; see
// DESIGN.md section 13):
//   magic   "NCBLOB01"                     8 bytes
//   u64     digest hi, u64 digest lo       (self-identifying)
//   i64     payload size
//   payload bytes
//   u64     fnv1a(payload)
//
// Both kinds publish through publish_file (a per-writer temp file plus
// atomic rename), so a file either exists whole or not at all, and
// loading is strict -- truncation, a digest or identity that disagrees
// with the filename's, a bad checksum, or trailing bytes throw
// robust::CheckpointCorrupt naming the file.  The byte cap and the
// eviction sweep cover both kinds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nanocost/cache/hash.hpp"
#include "nanocost/robust/checkpoint.hpp"

namespace nanocost::robust {

/// What one eviction sweep did, over records and blobs alike.
struct SweepReport final {
  std::uint64_t scanned_blobs = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t evicted_blobs = 0;
  std::uint64_t evicted_bytes = 0;
  /// Temp files of writers that no longer exist, removed.
  std::uint64_t removed_temps = 0;
};

class ArtifactStore final {
 public:
  /// Creates `dir` (and parents) if absent; throws std::runtime_error
  /// when the directory cannot be created.  `byte_cap` bounds the total
  /// on-disk bytes of committed tier files that sweep() enforces; 0
  /// leaves the store unbounded.
  explicit ArtifactStore(std::string dir, std::uint64_t byte_cap = 0);

  /// Blob path for a digest: <dir>/<hex>.ncblob.
  [[nodiscard]] std::string path_for(const cache::Digest128& key) const;
  /// Campaign record path for a campaign_record_key: <dir>/<hex>.ncckpt.
  [[nodiscard]] std::string record_path(const cache::Digest128& key) const {
    return dir_ + "/" + key.hex() + ".ncckpt";
  }

  /// Loads the blob for `key` into `payload`.  Returns false when no
  /// blob exists; throws CheckpointCorrupt (naming the file) on any
  /// structural damage.  `payload` is untouched on miss or error.
  [[nodiscard]] bool load(const cache::Digest128& key, std::vector<std::uint8_t>& payload) const;

  /// Publishes `payload` under `key` atomically (temp file + rename).
  /// Idempotent: an existing blob is left untouched (content addressing
  /// guarantees it holds the same bytes).  Throws std::runtime_error on
  /// I/O failure.
  void store(const cache::Digest128& key, const std::vector<std::uint8_t>& payload) const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::uint64_t byte_cap() const noexcept { return byte_cap_; }

  /// Sum of the bytes of every committed record and blob on disk
  /// (in-flight .tmp files are neither and do not count).
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Evicts committed records and blobs -- highest digest first, a pure
  /// function of the directory contents, so two replicas holding the
  /// same files evict the same ones -- until total bytes fit under
  /// byte_cap().  Eviction is a plain unlink: a concurrent run_campaign
  /// that already opened a record keeps reading it, and one that misses
  /// the evicted file simply recomputes its chunks -- never an error.
  /// Whatever the cap, it also removes the publish temp files whose
  /// writer pid is gone (kill(pid, 0) fails with ESRCH): a writer killed
  /// mid-publish leaves one that nothing else would ever remove.
  SweepReport sweep() const;

 private:
  std::string dir_;
  std::uint64_t byte_cap_ = 0;
};

/// Key of a campaign's record: its identity (exactly the NCCKPT01
/// header) under cache::KeyBuilder, which folds in the schema version.
[[nodiscard]] cache::Digest128 campaign_record_key(std::uint64_t fingerprint,
                                                   std::int64_t unit_count, std::int64_t grain);

/// Artifact key of one campaign chunk: the campaign identity
/// (fingerprint/unit_count/grain, exactly the NCCKPT01 header) plus the
/// chunk index, under the cache key schema version so kernel-output
/// changes orphan old blobs instead of serving them.
[[nodiscard]] cache::Digest128 chunk_artifact_key(std::uint64_t fingerprint,
                                                  std::int64_t unit_count, std::int64_t grain,
                                                  std::int64_t chunk);

}  // namespace nanocost::robust
