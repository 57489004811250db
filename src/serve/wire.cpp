#include "nanocost/serve/wire.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "nanocost/cache/bytes.hpp"
#include "nanocost/robust/fault_injection.hpp"

namespace nanocost::serve {

namespace {

constexpr robust::FaultSite kReadSite{"serve.read"};
constexpr robust::FaultSite kWriteSite{"serve.write"};
// Chaos-transport sites, all on the write path so a client (or server)
// under a plan sees connection-grade failures at deterministic points:
//   serve.stall          latency-flag plans sleep here (slow peer)
//   serve.reset          the write fails as if the peer reset
//   serve.partial_write  half the bytes land, then the write fails
constexpr robust::FaultSite kStallSite{"serve.stall"};
constexpr robust::FaultSite kResetSite{"serve.reset"};
constexpr robust::FaultSite kPartialWriteSite{"serve.partial_write"};

/// How often an interrupted FdStream read notices the flag.
constexpr int kPollIntervalMs = 50;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kHeaderBytes = sizeof(kWireMagic) + 4 + 4 + 8;

/// fnv1a over version || type || payload (the post-magic frame bytes the
/// length field describes).  Covering the header words means a bit flip
/// in the type tag fails the checksum even when the flipped value is
/// itself a known type.  `version_type` points at the two header words.
std::uint64_t frame_checksum(const std::uint8_t* version_type,
                             const std::vector<std::uint8_t>& payload) {
  return cache::fnv1a(payload.data(), payload.size(), cache::fnv1a(version_type, 4 + 4));
}

/// Fills `out[0..n)` exactly; returns false only on EOF before the first
/// byte.  EOF after at least one byte is truncation and throws with the
/// caller's context string.
bool read_exact(ByteStream& stream, std::uint8_t* out, std::size_t n,
                const char* what) {
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = stream.read_some(out + got, n - got);
    if (r == 0) {
      if (got == 0) return false;
      throw WireError(std::string("NCWIRE01 frame truncated mid-") + what + " (got " +
                      std::to_string(got) + " of " + std::to_string(n) + " bytes)");
    }
    got += r;
  }
  return true;
}

}  // namespace

bool is_known_frame_type(std::uint32_t type) noexcept {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kEq4Request:
    case FrameType::kRiskRequest:
    case FrameType::kCampaignRequest:
    case FrameType::kPing:
    case FrameType::kStatsRequest:
    case FrameType::kTraceStart:
    case FrameType::kTraceStop:
    case FrameType::kHello:
    case FrameType::kResponse:
    case FrameType::kPong:
    case FrameType::kErrorFrame:
    case FrameType::kStatsResponse:
    case FrameType::kHelloAck:
      return true;
  }
  return false;
}

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::kEq4Request:
      return "eq4-request";
    case FrameType::kRiskRequest:
      return "risk-request";
    case FrameType::kCampaignRequest:
      return "campaign-request";
    case FrameType::kPing:
      return "ping";
    case FrameType::kStatsRequest:
      return "stats-request";
    case FrameType::kTraceStart:
      return "trace-start";
    case FrameType::kTraceStop:
      return "trace-stop";
    case FrameType::kResponse:
      return "response";
    case FrameType::kPong:
      return "pong";
    case FrameType::kErrorFrame:
      return "error";
    case FrameType::kStatsResponse:
      return "stats-response";
    case FrameType::kHello:
      return "hello";
    case FrameType::kHelloAck:
      return "hello-ack";
  }
  return "unknown";
}

// ---- FdStream -----------------------------------------------------------

FdStream::FdStream(int read_fd, int write_fd) : read_fd_(read_fd), write_fd_(write_fd) {}

FdStream::~FdStream() { close_fds(); }

void FdStream::close_fds() noexcept {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  read_fd_ = -1;
  write_fd_ = -1;
}

std::size_t FdStream::read_some(std::uint8_t* out, std::size_t n) {
  try {
    robust::inject(kReadSite, read_ops_++);
  } catch (const robust::FaultInjected& e) {
    // An injected read fault models a transport failure: surface it as
    // one so connection-level containment (kill the connection, keep
    // the server) handles it like the real thing.
    throw WireError(std::string("NCWIRE01 transport read failed (") + e.what() + ")");
  }
  while (true) {
    if (interrupted_.load(std::memory_order_acquire)) return 0;
    if (read_fd_ < 0) throw WireError("NCWIRE01 transport read on a closed stream");
    if (idle_ms_ > 0.0 || frame_ms_ > 0.0) {
      const std::int64_t now = now_ns();
      if (first_byte_ns_ == 0) {
        if (idle_ms_ > 0.0 &&
            static_cast<double>(now - window_start_ns_) >= idle_ms_ * 1e6) {
          throw WireTimeout("NCWIRE01 read timed out: no frame started within " +
                                std::to_string(static_cast<std::int64_t>(idle_ms_)) +
                                " ms (idle deadline)",
                            /*idle=*/true);
        }
      } else if (frame_ms_ > 0.0 &&
                 static_cast<double>(now - first_byte_ns_) >= frame_ms_ * 1e6) {
        throw WireTimeout("NCWIRE01 read timed out: frame stalled past " +
                              std::to_string(static_cast<std::int64_t>(frame_ms_)) +
                              " ms (read deadline)",
                          /*idle=*/false);
      }
    }
    pollfd pfd{};
    pfd.fd = read_fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, kPollIntervalMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("NCWIRE01 transport poll failed: ") +
                      std::strerror(errno));
    }
    if (pr == 0) continue;  // timeout: re-check the interrupt flag / deadlines
    const ssize_t r = ::read(read_fd_, out, n);
    if (r < 0) {
      // No data after all (a descriptor some dup made non-blocking): poll again.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw WireError(std::string("NCWIRE01 transport read failed: ") +
                      std::strerror(errno));
    }
    if (r > 0 && first_byte_ns_ == 0 && (idle_ms_ > 0.0 || frame_ms_ > 0.0)) {
      first_byte_ns_ = now_ns();
    }
    return static_cast<std::size_t>(r);
  }
}

void FdStream::arm_read_deadlines(double idle_ms, double frame_ms) noexcept {
  idle_ms_ = idle_ms > 0.0 ? idle_ms : 0.0;
  frame_ms_ = frame_ms > 0.0 ? frame_ms : 0.0;
  window_start_ns_ = now_ns();
  first_byte_ns_ = 0;
}

void FdStream::begin_frame() noexcept {
  if (idle_ms_ == 0.0 && frame_ms_ == 0.0) return;
  window_start_ns_ = now_ns();
  first_byte_ns_ = 0;
}

void FdStream::write_all(const std::uint8_t* data, std::size_t n) {
  try {
    robust::inject(kWriteSite, write_ops_++);
  } catch (const robust::FaultInjected& e) {
    throw WireError(std::string("NCWIRE01 transport write failed (") + e.what() + ")");
  }
  // serve.stall is meant for latency-flag plans (a deterministic slow
  // peer); a throw-flag plan degenerates to a reset.
  try {
    robust::inject(kStallSite, stall_ops_++);
  } catch (const robust::FaultInjected& e) {
    throw WireError(std::string("NCWIRE01 connection stalled (") + e.what() + ")");
  }
  try {
    robust::inject(kResetSite, reset_ops_++);
  } catch (const robust::FaultInjected& e) {
    // Models a peer reset: the write fails before any byte lands.  The
    // fds stay open (the reader owns their lifetime) -- only this write
    // is lost, exactly like a kernel-reported ECONNRESET.
    throw WireError(std::string("NCWIRE01 connection reset (") + e.what() + ")");
  }
  std::size_t limit = n;
  bool partial = false;
  try {
    robust::inject(kPartialWriteSite, partial_ops_++);
  } catch (const robust::FaultInjected&) {
    // Half the frame lands on the wire, then the transport dies: the
    // peer must detect the truncation via read_frame's strictness.
    limit = n / 2;
    partial = true;
  }
  if (write_fd_ < 0) throw WireError("NCWIRE01 transport write on a closed stream");
  std::size_t sent = 0;
  std::int64_t progress_ns = now_ns();  // the last time the peer took a byte
  while (sent < limit) {
    const std::int64_t waited_ms = (now_ns() - progress_ns) / 1000000;
    if (waited_ms >= kWriteStallMs) {
      throw WireTimeout("NCWIRE01 write stalled: the peer accepted no byte for " +
                            std::to_string(kWriteStallMs) + " ms (" + std::to_string(sent) +
                            " of " + std::to_string(n) + " bytes written)",
                        /*idle=*/false);
    }
    pollfd pfd{};
    pfd.fd = write_fd_;
    pfd.events = POLLOUT;
    const int pr = ::poll(&pfd, 1, static_cast<int>(kWriteStallMs - waited_ms));
    if (pr < 0 && errno != EINTR) {
      throw WireError(std::string("NCWIRE01 transport poll failed: ") + std::strerror(errno));
    }
    if (pr <= 0) continue;  // interrupted or timed out: the stall check decides
    ssize_t w = ::send(write_fd_, data + sent, limit - sent, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) {
      // A pipe: after POLLOUT, Linux fits a write of at most PIPE_BUF bytes.
      w = ::write(write_fd_, data + sent, std::min<std::size_t>(limit - sent, PIPE_BUF));
    }
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw WireError(std::string("NCWIRE01 transport write failed: ") +
                      std::strerror(errno));
    }
    sent += static_cast<std::size_t>(w);
    progress_ns = now_ns();
  }
  if (partial) {
    throw WireError("NCWIRE01 transport write failed after a partial write (" +
                    std::to_string(limit) + " of " + std::to_string(n) +
                    " bytes; injected fault serve.partial_write)");
  }
}

void FdStream::interrupt() noexcept { interrupted_.store(true, std::memory_order_release); }

bool FdStream::interrupted() const noexcept {
  return interrupted_.load(std::memory_order_acquire);
}

// ---- MemStream ----------------------------------------------------------

std::size_t MemStream::read_some(std::uint8_t* out, std::size_t n) {
  const std::size_t avail = input_.size() - pos_;
  const std::size_t take = n < avail ? n : avail;
  if (take != 0) std::memcpy(out, input_.data() + pos_, take);
  pos_ += take;
  return take;
}

void MemStream::write_all(const std::uint8_t* data, std::size_t n) {
  output_.insert(output_.end(), data, data + n);
}

// ---- Framing ------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload) {
  cache::ByteWriter w;
  w.reserve(kFrameOverheadBytes + payload.size());
  w.raw(kWireMagic, sizeof(kWireMagic));
  w.u32(kWireVersion);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  w.u64(frame_checksum(w.data().data() + sizeof(kWireMagic), payload));
  return w.take();
}

void write_frame(ByteStream& stream, FrameType type,
                 const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> bytes = encode_frame(type, payload);
  stream.write_all(bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(ByteStream& stream) {
  std::uint8_t header[kHeaderBytes];
  if (!read_exact(stream, header, sizeof(header), "header")) {
    return std::nullopt;  // clean EOF at a frame boundary
  }
  // The buffer holds exactly the header's fields, so these reads cannot
  // run short.
  cache::ByteReader r(header, sizeof(header));
  if (std::memcmp(r.raw(sizeof(kWireMagic)), kWireMagic, sizeof(kWireMagic)) != 0) {
    throw WireError("NCWIRE01 frame has a bad magic header");
  }
  const std::uint32_t version = r.u32();
  const std::uint32_t type_raw = r.u32();
  const std::uint64_t declared = r.u64();
  if (version != kWireVersion) {
    throw WireError("NCWIRE01 frame declares unsupported version " +
                    std::to_string(version) + " (this peer speaks " +
                    std::to_string(kWireVersion) + ")");
  }
  if (!is_known_frame_type(type_raw)) {
    throw WireError("NCWIRE01 frame has unknown type tag " + std::to_string(type_raw));
  }
  const auto type = static_cast<FrameType>(type_raw);
  if (declared > kMaxPayloadBytes) {
    // Reject before allocating: a flipped length bit must not drive a
    // multi-gigabyte reserve.
    throw WireError(std::string("NCWIRE01 ") + frame_type_name(type) +
                    " frame declares oversized payload (" + std::to_string(declared) +
                    " bytes > cap " + std::to_string(kMaxPayloadBytes) + ")");
  }
  Frame frame;
  frame.type = type;
  frame.payload.resize(static_cast<std::size_t>(declared));
  if (declared > 0 &&
      !read_exact(stream, frame.payload.data(), frame.payload.size(), "payload")) {
    throw WireError(std::string("NCWIRE01 ") + frame_type_name(type) +
                    " frame truncated: EOF before its " + std::to_string(declared) +
                    "-byte payload");
  }
  std::uint8_t checksum_bytes[8];
  if (!read_exact(stream, checksum_bytes, sizeof(checksum_bytes), "checksum")) {
    throw WireError(std::string("NCWIRE01 ") + frame_type_name(type) +
                    " frame truncated: EOF before its checksum");
  }
  const std::uint64_t stored = cache::ByteReader(checksum_bytes, sizeof(checksum_bytes)).u64();
  if (stored != frame_checksum(header + sizeof(kWireMagic), frame.payload)) {
    throw WireError(std::string("NCWIRE01 ") + frame_type_name(type) +
                    " frame failed its fnv1a checksum (bit flip?)");
  }
  return frame;
}

}  // namespace nanocost::serve
