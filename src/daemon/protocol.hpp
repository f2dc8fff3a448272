// v6sonard request/response vocabulary on top of the framing layer.
//
// Verbs are the daemon's query/control plane (docs/DAEMON.md has the
// full per-verb payload spec):
//
//   kPing        liveness; payload echoed back
//   kStatus      "key value\n" lines of live daemon state
//   kReport      full analyzer report over the current snapshot state
//   kTopSources  top-sources section only
//   kTopPorts    top-ports section only
//   kAsReport    per-AS section only
//   kBlocklist   the per-source blocklist at --agg, from the snapshot
//                master (freshness as kReport)
//   kMetrics     util::metrics JSON snapshot
//   kSubscribe   switch the connection to live scan-event push
//   kIngest      push raw 52-byte .v6slog records into the pipeline
//   kShutdown    request a graceful drain (same path as SIGTERM)
//   kCheckpoint  freeze full daemon state into the checkpoint file
//                (payload overrides the configured path)
//
// Responses reuse the request's verb and seq, with status kOk/kError;
// pushed subscription events use Verb::kSubscribe with status kEvent.
#pragma once

#include <cstdint>
#include <string>

#include "core/scan_event.hpp"

namespace v6sonar::daemon {

enum class Verb : std::uint8_t {
  kPing = 1,
  kStatus = 2,
  kReport = 3,
  kTopSources = 4,
  kTopPorts = 5,
  kAsReport = 6,
  kBlocklist = 7,
  kMetrics = 8,
  kSubscribe = 9,
  kIngest = 10,
  kShutdown = 11,
  // 12 is unassigned: a frame carrying it gets "unknown verb".
  kCheckpoint = 13,
};

enum class Status : std::uint8_t {
  kRequest = 0,  ///< client -> daemon
  kOk = 0x80,
  kError = 0x81,
  kEvent = 0x82,  ///< pushed subscription event
};

/// Lowercase verb name ("ping", "report", ...); "?" for unknown
/// values. The CLI accepts these same strings as query commands.
[[nodiscard]] const char* verb_name(Verb v) noexcept;

/// Parse a verb name back; returns false for unknown names.
[[nodiscard]] bool parse_verb(const std::string& name, Verb& out) noexcept;

/// Render one scan event as the single-line text payload of a pushed
/// kEvent frame: "<source> first=<s> last=<s> packets=<n> dsts=<n>
/// asn=<n>\n" with whole-second timestamps.
[[nodiscard]] std::string format_event_line(const core::ScanEvent& ev);

}  // namespace v6sonar::daemon
