// Process-level resource accounting for the observability surface:
// the peak-RSS high-water mark the state-tiering work is judged by.
#pragma once

#include <cstdint>
#include <string>

namespace v6sonar::util {

/// Peak resident set size of this process in kilobytes, from
/// getrusage(RUSAGE_SELF). Returns 0 if the call fails.
[[nodiscard]] std::uint64_t max_rss_kb() noexcept;

/// Record the current peak RSS into the `process.maxrss_kb` high-water
/// gauge. Call at snapshot points (metrics dump, daemon metrics verb,
/// bench end); a no-op while metrics are disabled.
void note_max_rss();

/// Write the metrics snapshot, peak RSS noted first, as one JSON line
/// to `file`, or to stdout when `file` is empty or "-". A file is
/// fsync'd before success is reported: the dump is a run's only record
/// of what the pipeline did, and it often comes right before exit
/// (interrupted runs included). Notes go to stderr, prefixed `who`;
/// returns false when the write failed.
bool dump_metrics(const std::string& file, const char* who);

}  // namespace v6sonar::util
