#include "nanocost/robust/checkpoint.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "nanocost/cache/bytes.hpp"

namespace nanocost::robust {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

std::int64_t Checkpoint::completed_chunks() const noexcept {
  std::int64_t n = 0;
  for (const auto& blob : chunks) {
    if (!blob.empty()) ++n;
  }
  return n;
}

void publish_file(const std::string& path, const std::vector<std::uint8_t>& bytes,
                  const char* what) {
  // A temp name per writer (pid + counter, created O_EXCL): writers of one
  // path -- two daemons sharing a tier -- never write through or rename
  // away each other's temp file.  Mode 0666 less the umask, as before.
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp =
      path + "." + std::to_string(::getpid()) + "." + std::to_string(serial++) + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    throw std::runtime_error(std::string("cannot open ") + what + " temp file " + tmp);
  }
  // A short write to a regular file means the disk refused the rest.
  const bool written =
      ::write(fd, bytes.data(), bytes.size()) == static_cast<::ssize_t>(bytes.size());
  if (::close(fd) != 0 || !written) {
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string("failed writing ") + what + " " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string("cannot rename ") + what + " into place: " + path);
  }
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& bytes) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  // The size only sizes the buffer: the read runs to EOF, and each
  // format's reader checks every length against the bytes it got.
  struct stat st {};
  const bool sized = ::fstat(::fileno(f.get()), &st) == 0;
  std::vector<std::uint8_t> out(sized ? static_cast<std::size_t>(st.st_size) + 1 : 4096);
  std::size_t got = 0;
  while (true) {
    got += std::fread(out.data() + got, 1, out.size() - got, f.get());
    if (got < out.size()) break;  // EOF or a read error
    out.resize(2 * out.size());
  }
  if (std::ferror(f.get()) != 0) throw std::runtime_error("failed reading " + path);
  out.resize(got);
  bytes = std::move(out);
  return true;
}

std::size_t save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  std::size_t size = sizeof(kCheckpointMagic) + 4 * 8;  // magic + fingerprint + 3 header ints
  for (const auto& blob : ckpt.chunks) {
    if (!blob.empty()) size += 3 * 8 + blob.size();
  }
  cache::ByteWriter w;
  w.reserve(size);
  w.raw(kCheckpointMagic, sizeof(kCheckpointMagic));
  w.u64(ckpt.fingerprint);
  w.i64(ckpt.unit_count);
  w.i64(ckpt.grain);
  w.i64(ckpt.completed_chunks());
  for (std::size_t c = 0; c < ckpt.chunks.size(); ++c) {
    const auto& blob = ckpt.chunks[c];
    if (blob.empty()) continue;
    w.i64(static_cast<std::int64_t>(c));
    w.bytes(blob);
    w.u64(cache::checksum64(blob.data(), blob.size()));
  }
  const std::vector<std::uint8_t> bytes = w.take();
  publish_file(path, bytes, "checkpoint");
  return bytes.size();
}

bool load_checkpoint(const std::string& path, const Checkpoint& expected, Checkpoint& out) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes)) return false;

  // Saves are atomic (temp + rename), so damage here was never a valid
  // checkpoint.  The reader checks every record size against the bytes
  // the file holds, so a bit-flipped length cannot drive a huge
  // allocation or a misaligned parse of the following records.
  cache::ByteReader r(bytes);
  if (r.remaining() < sizeof(kCheckpointMagic) ||
      std::memcmp(r.raw(sizeof(kCheckpointMagic)), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    throw CheckpointMismatch("checkpoint " + path + " has a bad magic header");
  }
  std::int64_t record = -1;  // -1 while the header is being read
  try {
    Checkpoint loaded;
    loaded.fingerprint = r.u64();
    loaded.unit_count = r.i64();
    loaded.grain = r.i64();
    const std::int64_t records = r.i64();
    if (loaded.fingerprint != expected.fingerprint ||
        loaded.unit_count != expected.unit_count || loaded.grain != expected.grain) {
      throw CheckpointMismatch(
          "checkpoint " + path +
          " belongs to a different campaign (fingerprint/config mismatch)");
    }
    const std::int64_t n_chunks =
        loaded.grain > 0 ? (loaded.unit_count + loaded.grain - 1) / loaded.grain : 0;
    if (records < 0 || records > n_chunks) {
      throw CheckpointCorrupt("checkpoint " + path + " declares " + std::to_string(records) +
                              " records for a " + std::to_string(n_chunks) +
                              "-chunk campaign");
    }
    loaded.chunks.assign(static_cast<std::size_t>(n_chunks), {});

    for (record = 0; record < records; ++record) {
      const auto corrupt = [&](const std::string& why) {
        return CheckpointCorrupt("checkpoint " + path + " record " + std::to_string(record) +
                                 " is corrupt: " + why);
      };
      const std::int64_t chunk = r.i64();
      if (chunk < 0 || chunk >= n_chunks) {
        throw corrupt("chunk index " + std::to_string(chunk) + " out of range [0, " +
                      std::to_string(n_chunks) + ")");
      }
      if (!loaded.chunks[static_cast<std::size_t>(chunk)].empty()) {
        throw corrupt("duplicate record for chunk " + std::to_string(chunk));
      }
      std::vector<std::uint8_t> blob = r.bytes();
      if (r.u64() != cache::checksum64(blob.data(), blob.size())) {
        throw corrupt("chunk " + std::to_string(chunk) +
                      " failed its XXH64 checksum (bit flip?)");
      }
      if (blob.empty()) {
        throw corrupt("chunk " + std::to_string(chunk) + " has an empty blob");
      }
      loaded.chunks[static_cast<std::size_t>(chunk)] = std::move(blob);
    }
    if (r.remaining() != 0) {
      throw CheckpointCorrupt("checkpoint " + path + " has trailing bytes after record " +
                              std::to_string(records));
    }
    out = std::move(loaded);
    return true;
  } catch (const cache::DecodeError& e) {
    throw CheckpointCorrupt("checkpoint " + path +
                            (record < 0 ? std::string(" has a truncated header: ")
                                        : " record " + std::to_string(record) +
                                              " is corrupt: ") +
                            e.what());
  }
}

}  // namespace nanocost::robust
