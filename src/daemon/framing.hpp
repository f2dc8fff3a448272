// v6sonard wire framing.
//
// Every message on the daemon socket — request, response, or pushed
// subscription event — is one length-prefixed frame:
//
//   offset  size  field
//        0     4  payload length, u32 little-endian (payload only,
//                 header excluded); at most kMaxPayload
//        4     1  verb  (daemon::Verb)
//        5     1  status (0 on requests; Status::kOk/kError/kEvent on
//                 responses)
//        6     2  sequence number, u16 little-endian — echoed verbatim
//                 in every response to the carrying request, so a
//                 client may pipeline requests and match replies
//        8     n  payload bytes (verb-specific; see docs/DAEMON.md)
//
// FrameDecoder is an incremental parser over an arbitrary byte stream:
// feed() whatever recv() produced — any split, including mid-header —
// and next() yields complete frames. A frame that can never become
// valid (oversized length prefix) puts the decoder into a sticky
// malformed state: the connection carrying it cannot be resynchronized
// and must be dropped. Malformed input kills the client, never the
// daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace v6sonar::daemon {

/// Frame header bytes on the wire.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Hard payload cap. Larger length prefixes are malformed — the bound
/// that keeps a garbage or hostile length from reserving gigabytes.
inline constexpr std::uint32_t kMaxPayload = 16u << 20;

struct Frame {
  std::uint8_t verb = 0;
  std::uint8_t status = 0;
  std::uint16_t seq = 0;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Serialize header + payload. Throws std::length_error if the payload
/// exceeds kMaxPayload — a daemon bug, not a client's.
[[nodiscard]] std::string encode_frame(const Frame& f);

/// The kFrameHeaderBytes header of a frame carrying `payload_bytes`, for
/// a sender that writes the payload from its own buffer. Throws like
/// encode_frame.
[[nodiscard]] std::string encode_header(std::uint8_t verb, std::uint8_t status,
                                        std::uint16_t seq, std::size_t payload_bytes);

class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< a complete frame was produced
    kNeedMore,  ///< the buffered bytes end mid-frame
    kMalformed  ///< unrecoverable framing error; drop the connection
  };

  /// Append raw stream bytes. Cheap; parsing happens in next().
  void feed(const void* data, std::size_t n);

  /// Extract the next complete frame into `out`. kMalformed is sticky:
  /// once returned, every later call returns it again.
  Result next(Frame& out);

  /// Human-readable reason after kMalformed.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed (partial frame).
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool malformed_ = false;
  std::string error_;
};

}  // namespace v6sonar::daemon
