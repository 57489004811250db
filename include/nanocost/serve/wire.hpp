// NCWIRE01: the length-prefixed framed wire protocol of nanocost::serve.
//
// One frame (the byte codec's conventions, cache/bytes.hpp; DESIGN.md
// section 14):
//   magic   "NCWIRE01"                      8 bytes
//   u32     version (kWireVersion)
//   u32     frame type (FrameType)
//   u64     payload length (<= kMaxPayloadBytes)
//   payload bytes
//   u64     fnv1a(version || type || payload)
//
// Reading is held to the NCCKPT01/NCBLOB01 strictness standard: a
// malformed peer can corrupt its *connection*, never the server.  Bad
// magic, an unsupported version, an unknown frame type, an oversized
// declared length, truncation (EOF mid-frame), and a checksum mismatch
// each throw WireError with a diagnostic naming the frame and the
// offense -- no crash, no hang, no allocation driven by a corrupt
// length.  The checksum covers the version and type words as well as
// the payload, so any single bit flip anywhere after the magic is
// caught by exactly one of the checks above (a magic flip fails the
// magic compare itself).
//
// Frames travel over any byte stream: a Unix-domain socket for the
// daemon, a pipe pair in tests.  FdStream carries the deterministic
// fault-injection sites serve.read / serve.write, so I/O failure paths
// are testable under NANOCOST_FAULTS like every other failure path in
// the codebase.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace nanocost::serve {

inline constexpr char kWireMagic[8] = {'N', 'C', 'W', 'I', 'R', 'E', '0', '1'};
inline constexpr std::uint32_t kWireVersion = 1;

/// How long an FdStream write waits for its peer to accept a byte before
/// it fails with WireTimeout.  It bounds a stall, not a frame: a slow
/// peer that keeps reading is never cut off.  2 s is twice RFC 6298's
/// 1 s minimum retransmission timeout, so one lost segment on a live TCP
/// link does not trip it, while a peer that has stopped reading holds
/// the writing thread (the campaign runner, a light-job worker) for at
/// most this long.
inline constexpr int kWriteStallMs = 2000;

/// Upper bound on one frame's payload; a declared length past this is
/// rejected before any allocation.
inline constexpr std::uint64_t kMaxPayloadBytes = 16ull * 1024 * 1024;

/// Frame types.  Requests flow client -> server, responses server ->
/// client; every request payload starts with a u64 request id that the
/// matching response echoes (responses may arrive out of submission
/// order when requests coalesce).
enum class FrameType : std::uint32_t {
  kEq4Request = 1,       ///< serve::Eq4Job
  kRiskRequest = 2,      ///< serve::RiskJob
  kCampaignRequest = 3,  ///< serve::CampaignJob
  kPing = 4,             ///< payload: u64 request id only
  kStatsRequest = 5,     ///< payload: u64 request id only
  kTraceStart = 6,       ///< payload: u64 request id only; arms the span tracer
  kTraceStop = 7,        ///< payload: u64 request id only; Chrome JSON comes
                         ///< back in the Response's result bytes
  kHello = 8,            ///< serve::HelloRequest (version handshake + tenant id)
  kResponse = 0x81,      ///< serve::Response
  kPong = 0x82,          ///< payload: u64 request id only
  kErrorFrame = 0x83,    ///< payload: u64 request id (0 = none), str message
  kStatsResponse = 0x84, ///< serve::StatsReport (NCSTAT01 + build/uptime info)
  kHelloAck = 0x85,      ///< serve::HelloAck (server's half of the handshake)
};

/// Bytes one frame adds around its payload: magic + version + type +
/// length + trailing checksum.  `payload size + kFrameOverheadBytes` is
/// what actually crosses the transport (the serve.bytes_in/out
/// counters use it).
inline constexpr std::size_t kFrameOverheadBytes = sizeof(kWireMagic) + 4 + 4 + 8 + 8;

[[nodiscard]] bool is_known_frame_type(std::uint32_t type) noexcept;
[[nodiscard]] const char* frame_type_name(FrameType type) noexcept;

/// Thrown on any structural damage to the byte stream.  The message
/// names the frame (by type when known) and the offense.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// A read deadline fired (see FdStream::arm_read_deadlines).  Subclass
/// of WireError so existing containment paths treat it as a transport
/// failure, but distinguishable: `idle()` is true when the peer simply
/// sent nothing for the whole idle window, false when it stalled
/// mid-frame (a slow-loris peer dribbling bytes).
class WireTimeout final : public WireError {
 public:
  WireTimeout(const std::string& what, bool idle) : WireError(what), idle_(idle) {}
  [[nodiscard]] bool idle() const noexcept { return idle_; }

 private:
  bool idle_ = false;
};

struct Frame final {
  FrameType type = FrameType::kPing;
  std::vector<std::uint8_t> payload;
};

/// A blocking byte stream the framing layer reads/writes.  EOF is
/// reported, not thrown: read_some returns 0 only at end-of-stream.
class ByteStream {
 public:
  virtual ~ByteStream() = default;
  /// Reads up to `n` bytes into `out`; returns the count read (0 = EOF).
  /// Throws WireError on transport failure.
  virtual std::size_t read_some(std::uint8_t* out, std::size_t n) = 0;
  /// Writes all `n` bytes; throws WireError on transport failure.
  virtual void write_all(const std::uint8_t* data, std::size_t n) = 0;
};

/// ByteStream over POSIX file descriptors (socket or pipe ends).  Owns
/// and closes the descriptors.  Reads poll with a short timeout so a
/// server can interrupt an idle reader via `interrupt()` (graceful
/// drain) without platform-specific tricks.  Writes never block in the
/// kernel: each waits for POLLOUT and sends what fits, and a peer that
/// accepts no byte for kWriteStallMs fails the write with WireTimeout
/// (idle() false).  The descriptors stay in blocking mode, since
/// O_NONBLOCK would be shared with every dup of them.
class FdStream final : public ByteStream {
 public:
  /// `read_fd` and `write_fd` may be the same descriptor (a socket).
  FdStream(int read_fd, int write_fd);
  ~FdStream() override;
  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  std::size_t read_some(std::uint8_t* out, std::size_t n) override;
  void write_all(const std::uint8_t* data, std::size_t n) override;

  /// Makes the next (or current, within one poll interval) read_some
  /// return 0 as if the peer closed.  Thread-safe.
  void interrupt() noexcept;
  [[nodiscard]] bool interrupted() const noexcept;

  /// Closes the descriptors now (idempotent): the peer sees EOF.  Later
  /// reads/writes fail as transport errors.  The caller must ensure no
  /// concurrent read/write is in flight (the server holds the
  /// connection's write lock).
  void close_fds() noexcept;

  /// Arms read deadlines, both in milliseconds (0 disables either):
  ///  - `idle_ms`: max time from begin_frame() to the frame's first
  ///    byte.  Firing throws WireTimeout with idle() == true.
  ///  - `frame_ms`: max time from a frame's first byte to its last; a
  ///    peer that starts a frame and stalls (slow loris) is cut off.
  ///    Firing throws WireTimeout with idle() == false.
  /// Deadlines are evaluated on the reading thread only; callers mark
  /// frame boundaries with begin_frame().
  void arm_read_deadlines(double idle_ms, double frame_ms) noexcept;

  /// Marks the start of a frame-read window: resets the idle clock and
  /// forgets any first-byte timestamp.  Reader-thread only.
  void begin_frame() noexcept;

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  std::uint64_t read_ops_ = 0;     ///< fault-site index for serve.read
  std::uint64_t write_ops_ = 0;    ///< fault-site index for serve.write
  std::uint64_t stall_ops_ = 0;    ///< fault-site index for serve.stall
  std::uint64_t reset_ops_ = 0;    ///< fault-site index for serve.reset
  std::uint64_t partial_ops_ = 0;  ///< fault-site index for serve.partial_write
  /// Read-deadline state; touched only by the reading thread.
  double idle_ms_ = 0.0;
  double frame_ms_ = 0.0;
  std::int64_t window_start_ns_ = 0;
  std::int64_t first_byte_ns_ = 0;  ///< 0 = no byte seen this window
  std::atomic<bool> interrupted_{false};
};

/// In-memory ByteStream for tests: reads from `input`, appends writes
/// to `output`.
class MemStream final : public ByteStream {
 public:
  explicit MemStream(std::vector<std::uint8_t> input) : input_(std::move(input)) {}

  std::size_t read_some(std::uint8_t* out, std::size_t n) override;
  void write_all(const std::uint8_t* data, std::size_t n) override;

  [[nodiscard]] const std::vector<std::uint8_t>& output() const noexcept { return output_; }

 private:
  std::vector<std::uint8_t> input_;
  std::size_t pos_ = 0;
  std::vector<std::uint8_t> output_;
};

/// Serializes one frame (header + payload + checksum).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(FrameType type,
                                                     const std::vector<std::uint8_t>& payload);

/// Appends one frame to `stream`.
void write_frame(ByteStream& stream, FrameType type,
                 const std::vector<std::uint8_t>& payload);

/// Reads one frame.  Returns nullopt on clean end-of-stream (EOF before
/// the first magic byte); throws WireError on anything else -- EOF
/// mid-frame is truncation, not a clean close.
[[nodiscard]] std::optional<Frame> read_frame(ByteStream& stream);

}  // namespace nanocost::serve
