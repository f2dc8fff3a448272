#include "util/process_stats.hpp"

#include <sys/resource.h>

#include <cstdio>

#include "util/fdio.hpp"
#include "util/metrics.hpp"

namespace v6sonar::util {

std::uint64_t max_rss_kb() noexcept {
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes already.
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

void note_max_rss() {
  namespace m = util::metrics;
  if (!m::enabled()) return;
  static const m::Gauge gauge{"process.maxrss_kb"};
  gauge.note(max_rss_kb());
}

bool dump_metrics(const std::string& file, const char* who) {
  note_max_rss();
  const std::string json = metrics::snapshot().to_json();
  if (file.empty() || file == "-") {
    std::printf("%s\n", json.c_str());
    return true;
  }
  std::FILE* f = std::fopen(file.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "%s: cannot write metrics to %s\n", who, file.c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF && flush_to_disk(f);
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "%s: metrics write to %s failed\n", who, file.c_str());
    return false;
  }
  std::fprintf(stderr, "%s: metrics written to %s\n", who, file.c_str());
  return true;
}

}  // namespace v6sonar::util
