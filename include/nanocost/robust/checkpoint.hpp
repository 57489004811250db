// Campaign checkpoint files.
//
// Because every chunk of a campaign is a pure function of its chunk
// index, a checkpoint needs no RNG state and no scheduler state: it is
// the set of completed chunks plus each chunk's serialized partial
// accumulator.  Resuming recomputes only the missing chunks and merges
// everything in ascending chunk order, which is why a killed-and-resumed
// campaign reproduces an uninterrupted one bitwise -- at any thread
// count.
//
// File layout (the byte codec's conventions, cache/bytes.hpp; see
// DESIGN.md section 9):
//   magic   "NCCKPT01"                     8 bytes
//   u64     fingerprint (the task's config_fingerprint(), a KeyBuilder digest)
//   i64     unit_count
//   i64     grain (units per chunk)
//   i64     record count
//   records i64 chunk_index, i64 blob_size, blob bytes, u64 fnv1a(blob)
//
// Loading is strict: saves go through a temp file plus atomic rename,
// so a checkpoint either exists whole or not at all -- any truncation,
// torn record, out-of-range field, or per-chunk checksum failure is
// therefore real corruption (disk fault, concurrent writer, bit flip)
// and throws CheckpointCorrupt with the offending record named, rather
// than silently resuming from bytes that were never written as a unit.
// A fingerprint mismatch throws CheckpointMismatch -- resuming someone
// else's campaign would silently corrupt results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace nanocost::robust {

/// Identity + partial state of a campaign on disk.
struct Checkpoint final {
  std::uint64_t fingerprint = 0;
  std::int64_t unit_count = 0;
  std::int64_t grain = 0;
  /// Indexed by chunk; an empty blob means "not completed yet".
  std::vector<std::vector<std::uint8_t>> chunks;

  [[nodiscard]] std::int64_t completed_chunks() const noexcept;
};

/// Thrown when a checkpoint on disk belongs to a different campaign
/// configuration (fingerprint / unit count / grain mismatch).
class CheckpointMismatch final : public std::runtime_error {
 public:
  explicit CheckpointMismatch(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a checkpoint file is structurally damaged: truncated
/// header or record, record fields out of range for the declared
/// campaign shape, a blob failing its fnv1a checksum, or trailing
/// garbage.  The message names the file and the first bad record.
class CheckpointCorrupt final : public std::runtime_error {
 public:
  explicit CheckpointCorrupt(const std::string& what) : std::runtime_error(what) {}
};

/// Writes `ckpt` to `path` atomically (temp file + rename) and returns
/// the number of bytes written.  Throws std::runtime_error on I/O
/// failure.
std::size_t save_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// Publishes `bytes` as the file `path` atomically: writes a temp file
/// unique to this call (`path`.<pid>.<n>.tmp) and renames it over
/// `path`, so readers see a whole file and concurrent writers never
/// tear it.  Campaign records and artifact blobs both publish through
/// this.  Throws std::runtime_error naming `what` on I/O failure.
void publish_file(const std::string& path, const std::vector<std::uint8_t>& bytes,
                  const char* what);

/// Reads the whole file at `path` into `bytes`.  Returns false when the
/// file cannot be opened (a missing file is not an error); throws
/// std::runtime_error on a read error.
[[nodiscard]] bool read_file(const std::string& path, std::vector<std::uint8_t>& bytes);

/// Loads `path` into `out`.  Returns false when the file does not exist.
/// Throws CheckpointMismatch when the header disagrees with `expected`
/// (fingerprint, unit_count, grain) and CheckpointCorrupt when the file
/// is truncated, a record is malformed or fails its checksum, or bytes
/// trail the last record.  `out` is untouched on error.
bool load_checkpoint(const std::string& path, const Checkpoint& expected, Checkpoint& out);

}  // namespace nanocost::robust
