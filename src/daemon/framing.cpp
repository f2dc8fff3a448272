#include "daemon/framing.hpp"

#include <cstring>
#include <stdexcept>

namespace v6sonar::daemon {

std::string encode_header(std::uint8_t verb, std::uint8_t status, std::uint16_t seq,
                          std::size_t payload_bytes) {
  if (payload_bytes > kMaxPayload)
    throw std::length_error("framing: payload exceeds kMaxPayload");
  const auto len = static_cast<std::uint32_t>(payload_bytes);
  return {static_cast<char>(len & 0xFF),         static_cast<char>((len >> 8) & 0xFF),
          static_cast<char>((len >> 16) & 0xFF), static_cast<char>((len >> 24) & 0xFF),
          static_cast<char>(verb),               static_cast<char>(status),
          static_cast<char>(seq & 0xFF),         static_cast<char>((seq >> 8) & 0xFF)};
}

std::string encode_frame(const Frame& f) {
  std::string out = encode_header(f.verb, f.status, f.seq, f.payload.size());
  out += f.payload;
  return out;
}

void FrameDecoder::feed(const void* data, std::size_t n) {
  if (malformed_ || n == 0) return;
  // Compact before growing: consumed bytes at the front would otherwise
  // accumulate for the lifetime of the connection.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10) && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), n);
}

FrameDecoder::Result FrameDecoder::next(Frame& out) {
  if (malformed_) return Result::kMalformed;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return Result::kNeedMore;
  const auto* p = reinterpret_cast<const std::uint8_t*>(buf_.data()) + pos_;
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24);
  if (len > kMaxPayload) {
    // The stream cannot be resynchronized past a lying length prefix.
    malformed_ = true;
    error_ = "length prefix " + std::to_string(len) + " exceeds " +
             std::to_string(kMaxPayload) + "-byte cap";
    return Result::kMalformed;
  }
  if (avail < kFrameHeaderBytes + len) return Result::kNeedMore;
  out.verb = p[4];
  out.status = p[5];
  out.seq = static_cast<std::uint16_t>(p[6] | (p[7] << 8));
  out.payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  return Result::kFrame;
}

}  // namespace v6sonar::daemon
