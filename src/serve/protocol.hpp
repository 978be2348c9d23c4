// Wire protocol of the prediction service (docs/SERVE.md).
//
// Transport: unix-domain stream socket. Every message — request or response
// — is one frame: a 4-byte little-endian payload length followed by that
// many bytes of UTF-8 JSON. Frames above kMaxFrameBytes are rejected so a
// corrupt length prefix cannot make the peer allocate gigabytes.
//
// Requests are JSON objects with an "op" field; responses echo "op" and
// carry "ok":true plus op-specific fields, or "ok":false with an "error"
// code from kError* and a human-readable "message". Binary tree payloads
// (PPTB, tree/binary.hpp) travel base64-encoded in JSON strings.
//
// Versioning: requests may carry an integer "v" field. Absent means version
// 1 (the pre-versioning wire format, accepted forever); the server answers
// any version up to kProtocolVersion and echoes "v" in the response when
// the request said v >= 2. Unknown or malformed versions are refused with
// the structured `unsupported_version` error rather than a guess.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "core/sweep.hpp"
#include "serve/json.hpp"

namespace pprophet::serve {

/// Upper bound on one frame's payload. 64 MiB comfortably holds any
/// dictionary-packed tree (the paper's 13.5 GB raw CG-B tree packs to MBs).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Highest protocol version this build speaks. Requests without a "v" field
/// are treated as version 1.
inline constexpr std::uint64_t kProtocolVersion = 2;

// Stable error codes (the "error" field of a failed response).
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrNotFound = "not_found";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrDeadline = "deadline_exceeded";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrInternal = "internal";
inline constexpr const char* kErrUnsupportedVersion = "unsupported_version";
/// An upload whose tree would expand beyond the store's limits
/// (serve/profile_store.hpp).
inline constexpr const char* kErrTooLarge = "too_large";

/// Transport failure (peer gone, short read, oversized frame).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A socket timeout (SO_RCVTIMEO / SO_SNDTIMEO) expired mid-frame: the peer
/// stopped making progress halfway through a length-prefixed exchange.
/// Distinct from ProtocolError so callers can count wedged-peer drops
/// separately from malformed traffic (the serve path logs these at the
/// slow-request severity under serve.io_timeouts).
class ProtocolTimeout : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

/// Stage marks of one frame read, for the serve-path RequestTrace
/// (header-read vs body-read split in the per-stage latency histograms).
struct FrameTiming {
  /// First byte of the frame consumed. Stamped by FrameDecoder (feed time);
  /// the fd-oriented read_frame leaves it default — its callers stamp
  /// read_start themselves before blocking.
  std::chrono::steady_clock::time_point start{};
  std::chrono::steady_clock::time_point header_read{};  ///< prefix complete
  std::chrono::steady_clock::time_point complete{};     ///< payload complete
};

/// Reads one length-prefixed frame from `fd` into `payload`. Returns false
/// on clean EOF at a frame boundary; throws ProtocolError on truncation,
/// oversize, or I/O error. Retries EINTR. When `timing` is non-null its
/// marks are stamped as the read progresses.
bool read_frame(int fd, std::string& payload, FrameTiming* timing = nullptr);

/// Writes one frame. Throws ProtocolError on error (including EPIPE).
void write_frame(int fd, std::string_view payload);

/// Renders one frame (header + payload) into a byte string, for the
/// buffer-oriented reactor write path. Throws ProtocolError on oversize.
std::string encode_frame(std::string_view payload);

/// Incremental frame assembler for nonblocking sockets: feed() raw bytes as
/// they arrive, then next() extracts complete frames — zero, one, or many
/// per feed, which is exactly what request pipelining over one connection
/// produces. The wire format is identical to read_frame/write_frame.
///
/// Oversize length prefixes throw from feed() the moment the 4 header bytes
/// are complete, before any payload allocation. Timing marks are stamped at
/// feed() time (when the bytes actually arrived), so a frame assembled
/// across many reads reports its true wire residency.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}

  /// Appends bytes off the wire and advances the header/payload state
  /// machine. Throws ProtocolError when a completed header announces a
  /// frame larger than the limit.
  void feed(const char* data, std::size_t n);

  /// Moves the next complete frame's payload into `payload`; false when
  /// more bytes are needed. `timing`, when non-null, receives the feed-time
  /// stamps of that frame (start / header complete / payload complete).
  bool next(std::string& payload, FrameTiming* timing = nullptr);

  /// True while a frame is partially assembled — the mid-frame-stall state
  /// the reactor's I/O timeout applies to (idle *between* frames is fine).
  bool mid_frame() const { return started_; }

  /// When mid_frame(): the time the current frame's first byte arrived.
  std::chrono::steady_clock::time_point frame_start() const { return start_; }

  /// Complete frames extractable right now (pipelined backlog depth).
  std::size_t ready_frames() const { return ready_.size(); }

 private:
  struct ReadyFrame {
    std::string payload;
    FrameTiming timing;
    std::chrono::steady_clock::time_point start;
  };

  std::uint32_t max_frame_ = kMaxFrameBytes;
  std::deque<ReadyFrame> ready_;  ///< complete frames awaiting next()
  // In-progress frame state:
  unsigned char header_[4] = {0, 0, 0, 0};
  std::size_t header_got_ = 0;
  std::string body_;
  std::uint32_t body_len_ = 0;
  bool started_ = false;   ///< current frame has >= 1 byte consumed
  bool have_len_ = false;  ///< 4-byte header complete (body_len_ valid)
  std::chrono::steady_clock::time_point start_{};
  FrameTiming timing_{};
};

std::string base64_encode(std::string_view bytes);
/// Strict decoder (no whitespace, correct padding); throws ProtocolError.
std::string base64_decode(std::string_view text);

/// Canonical short names used on the wire and by the CLI ("ff", "syn",
/// "omp", "static1", ...). The parse_* forms return false on unknown names.
bool parse_method(const std::string& name, core::Method& out);
bool parse_paradigm(const std::string& name, core::Paradigm& out);
bool parse_schedule(const std::string& name, runtime::OmpSchedule& out);
const char* wire_name(core::Method m);
const char* wire_name(core::Paradigm p);
const char* wire_name(runtime::OmpSchedule s);

/// Builds a failed response.
JsonValue error_response(std::string_view op, std::string_view code,
                         std::string_view message);

/// Builds the skeleton of a successful response ({"ok":true,"op":op}).
JsonValue ok_response(std::string_view op);

}  // namespace pprophet::serve
