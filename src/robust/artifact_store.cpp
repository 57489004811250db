#include "nanocost/robust/artifact_store.hpp"

#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <regex>
#include <utility>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/robust/metrics.hpp"

namespace nanocost::robust {

namespace {

constexpr char kMagic[8] = {'N', 'C', 'B', 'L', 'O', 'B', '0', '1'};

}  // namespace

ArtifactStore::ArtifactStore(std::string dir, std::uint64_t byte_cap)
    : dir_(std::move(dir)), byte_cap_(byte_cap) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("cannot create artifact directory " + dir_);
  }
}

std::string ArtifactStore::path_for(const cache::Digest128& key) const {
  return dir_ + "/" + key.hex() + ".ncblob";
}

bool ArtifactStore::load(const cache::Digest128& key,
                         std::vector<std::uint8_t>& payload) const {
  const std::string path = path_for(key);
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) return false;

  // Stores are atomic (temp + rename), so any structural damage here
  // was never a valid blob.  The reader checks the declared payload
  // size against the bytes the file holds before trusting it.
  try {
    cache::ByteReader r(bytes);
    if (std::memcmp(r.raw(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
      throw CheckpointCorrupt("artifact blob " + path + " has a bad magic header");
    }
    const std::uint64_t hi = r.u64();
    const std::uint64_t lo = r.u64();
    if (hi != key.hi || lo != key.lo) {
      throw CheckpointCorrupt("artifact blob " + path +
                              " holds a different digest than its filename claims");
    }
    std::vector<std::uint8_t> blob = r.bytes();
    const std::uint64_t checksum = r.u64();
    r.expect_end();
    if (checksum != cache::fnv1a(blob.data(), blob.size())) {
      throw CheckpointCorrupt("artifact blob " + path +
                              " failed its fnv1a checksum (bit flip?)");
    }
    payload = std::move(blob);
    return true;
  } catch (const cache::DecodeError& e) {
    throw CheckpointCorrupt("artifact blob " + path + " is corrupt: " + e.what());
  }
}

void ArtifactStore::store(const cache::Digest128& key,
                          const std::vector<std::uint8_t>& payload) const {
  const std::string path = path_for(key);
  // Content addressing: an existing blob already holds these bytes.
  if (std::filesystem::exists(path)) return;
  cache::ByteWriter w;
  w.reserve(sizeof(kMagic) + 4 * 8 + payload.size());
  w.raw(kMagic, sizeof(kMagic));
  w.u64(key.hi);
  w.u64(key.lo);
  w.bytes(payload);
  w.u64(cache::fnv1a(payload.data(), payload.size()));
  publish_file(path, w.take(), "artifact blob");
}

namespace {

/// Committed records and blobs in the store, named (filename, bytes).
/// Filenames are fixed-width lowercase hex, so lexicographic order IS
/// digest order -- the determinism the eviction sweep rests on.
std::vector<std::pair<std::string, std::uint64_t>> list_files(const std::string& dir) {
  std::vector<std::pair<std::string, std::uint64_t>> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".ncblob" && p.extension() != ".ncckpt") continue;  // skip .tmp
    const std::uintmax_t size = entry.file_size(ec);
    if (ec) continue;  // racing eviction/rename: not our file any more
    files.emplace_back(p.filename().string(), static_cast<std::uint64_t>(size));
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

std::uint64_t ArtifactStore::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, size] : list_files(dir_)) total += size;
  return total;
}

SweepReport ArtifactStore::sweep() const {
  SweepReport report;
  // publish_file's temp names: <32-hex>.<ncckpt|ncblob>.<pid>.<n>.tmp.
  static const std::regex kTemp(R"([0-9a-f]{32}\.(ncckpt|ncblob)\.([0-9]{1,9})\.[0-9]+\.tmp)");
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    std::smatch m;
    if (std::regex_match(name, m, kTemp) && ::kill(std::stoi(m[2].str()), 0) != 0 &&
        errno == ESRCH && std::filesystem::remove(entry.path(), ec)) {
      ++report.removed_temps;
    }
  }
  const auto files = list_files(dir_);
  for (const auto& [name, size] : files) {
    ++report.scanned_blobs;
    report.scanned_bytes += size;
  }
  if (byte_cap_ == 0 || report.scanned_bytes <= byte_cap_) return report;
  // Walk from the highest digest down, unlinking until we fit.  The
  // victim set depends only on the directory contents and the cap.
  std::uint64_t remaining = report.scanned_bytes;
  for (auto it = files.rbegin(); it != files.rend() && remaining > byte_cap_; ++it) {
    if (std::filesystem::remove(std::filesystem::path(dir_) / it->first, ec) && !ec) {
      ++report.evicted_blobs;
      report.evicted_bytes += it->second;
      remaining -= it->second;
    }
  }
  if (auto* m = obs::metrics_table<RobustMetrics>()) m->artifact_evicted.add(report.evicted_blobs);
  return report;
}

cache::Digest128 campaign_record_key(std::uint64_t fingerprint, std::int64_t unit_count,
                                     std::int64_t grain) {
  return cache::KeyBuilder("robust.campaign_record")
      .u64("fingerprint", fingerprint)
      .i64("unit_count", unit_count)
      .i64("grain", grain)
      .digest();
}

cache::Digest128 chunk_artifact_key(std::uint64_t fingerprint, std::int64_t unit_count,
                                    std::int64_t grain, std::int64_t chunk) {
  cache::Hash128 h;
  h.update("NCBLOBKEY");
  h.update_u64(cache::kKeySchemaVersion);
  h.update_u64(fingerprint);
  h.update_u64(static_cast<std::uint64_t>(unit_count));
  h.update_u64(static_cast<std::uint64_t>(grain));
  h.update_u64(static_cast<std::uint64_t>(chunk));
  return h.digest();
}

}  // namespace nanocost::robust
