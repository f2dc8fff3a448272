#include "daemon/protocol.hpp"

#include <cstdio>

namespace v6sonar::daemon {

const char* verb_name(Verb v) noexcept {
  switch (v) {
    case Verb::kPing: return "ping";
    case Verb::kStatus: return "status";
    case Verb::kReport: return "report";
    case Verb::kTopSources: return "top-sources";
    case Verb::kTopPorts: return "top-ports";
    case Verb::kAsReport: return "as-report";
    case Verb::kBlocklist: return "blocklist";
    case Verb::kMetrics: return "metrics";
    case Verb::kSubscribe: return "subscribe";
    case Verb::kIngest: return "ingest";
    case Verb::kShutdown: return "shutdown";
    case Verb::kCheckpoint: return "checkpoint";
  }
  return "?";
}

bool parse_verb(const std::string& name, Verb& out) noexcept {
  for (const Verb v : {Verb::kPing, Verb::kStatus, Verb::kReport, Verb::kTopSources,
                       Verb::kTopPorts, Verb::kAsReport, Verb::kBlocklist, Verb::kMetrics,
                       Verb::kSubscribe, Verb::kIngest, Verb::kShutdown,
                       Verb::kCheckpoint}) {
    if (name == verb_name(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

std::string format_event_line(const core::ScanEvent& ev) {
  char buf[192];
  const int n = std::snprintf(
      buf, sizeof buf, " first=%lld last=%lld packets=%llu dsts=%lu asn=%lu\n",
      static_cast<long long>(ev.first_us / 1'000'000),
      static_cast<long long>(ev.last_us / 1'000'000),
      static_cast<unsigned long long>(ev.packets),
      static_cast<unsigned long>(ev.distinct_dsts), static_cast<unsigned long>(ev.src_asn));
  std::string line = ev.source.to_string();
  if (n > 0) line.append(buf, static_cast<std::size_t>(n));
  return line;
}

}  // namespace v6sonar::daemon
