// The unsolicited-traffic log record: the unit every stage of the
// pipeline exchanges (scanner generators -> telescope filter ->
// artifact filter -> scan detector -> analyses).
//
// This mirrors the fields available in the paper's CDN firewall logs
// plus two ground-truth annotations (source ASN, DNS exposure of the
// destination) that the paper derived by joining external data; here
// the simulator provides them and analyses must join the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/ipv6.hpp"
#include "wire/packet.hpp"

namespace v6sonar::sim {

/// Microsecond-resolution simulation timestamp (Unix epoch, UTC).
using TimeUs = std::int64_t;

inline constexpr TimeUs kUsPerSecond = 1'000'000;

[[nodiscard]] constexpr TimeUs us_from_seconds(std::int64_t sec) noexcept {
  return sec * kUsPerSecond;
}
[[nodiscard]] constexpr std::int64_t seconds_of(TimeUs us) noexcept {
  return us / kUsPerSecond;
}

struct LogRecord {
  TimeUs ts_us = 0;
  net::Ipv6Address src;
  net::Ipv6Address dst;
  wire::IpProto proto = wire::IpProto::kTcp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t frame_len = 0;

  // Ground-truth annotations (filled by the telescope / registry join).
  std::uint32_t src_asn = 0;  ///< 0 = unknown
  bool dst_in_dns = false;    ///< destination address is DNS-exposed

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

/// Pull-based record stream. Implementations yield records in
/// non-decreasing timestamp order; nullopt ends the stream.
class RecordStream {
 public:
  virtual ~RecordStream() = default;
  [[nodiscard]] virtual std::optional<LogRecord> next() = 0;

  /// Fill `out` with up to `max` records; returns how many were
  /// written (0 = end of stream). The batched data plane pulls whole
  /// batches per call instead of one virtual call + optional copy per
  /// record; the default keeps every existing generator working, and
  /// readers with cheap random access (sim::MappedLogReader) override
  /// it with a direct decode loop.
  virtual std::size_t next_batch(LogRecord* out, std::size_t max) {
    std::size_t n = 0;
    while (n < max) {
      auto r = next();
      if (!r) break;
      out[n++] = *r;
    }
    return n;
  }

  /// Pass over up to `n` records without handing them out; returns how
  /// many were skipped (fewer only at end of stream). The default
  /// decodes and discards, which serves every generator; the log
  /// reader (sim::MappedLogReader) overrides it with one cursor move,
  /// so a resumed run does not decode the records its checkpoint
  /// already covers.
  virtual std::uint64_t skip(std::uint64_t n) {
    std::uint64_t done = 0;
    while (done < n && next()) ++done;
    return done;
  }
};

}  // namespace v6sonar::sim
