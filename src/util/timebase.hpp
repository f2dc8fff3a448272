// Simulation time base.
//
// All simulation timestamps are SimTime: seconds since the Unix epoch,
// UTC. The paper's measurement window is Jan 1, 2021 00:00 UTC through
// Mar 15, 2022 00:00 UTC; helpers here bucket timestamps into the
// paper's day/week indices and render dates without touching any
// locale- or env-dependent time machinery.
#pragma once

#include <cstdint>
#include <string>

namespace v6sonar::util {

using SimTime = std::int64_t;  ///< seconds since Unix epoch (UTC)

inline constexpr SimTime kSecondsPerDay = 86'400;
inline constexpr SimTime kSecondsPerWeek = 7 * kSecondsPerDay;

/// Longest duration, in seconds, that a timeout, period or idle-time
/// setting accepts: 100 years of 365 days. In microseconds plus any
/// timestamp of this century, and in nanoseconds plus any steady-clock
/// reading, it still fits in 64 signed bits; past it those sums can
/// overflow.
inline constexpr SimTime kMaxSeconds = 100 * 365 * kSecondsPerDay;

/// Measurement window of the paper (§2.1).
inline constexpr SimTime kWindowStart = 1'609'459'200;  // 2021-01-01 00:00:00 UTC
inline constexpr SimTime kWindowEnd = 1'647'302'400;    // 2022-03-15 00:00:00 UTC

/// November 2021, the month used for Fig. 1 and the A.1 artifact table.
inline constexpr SimTime kNov2021Start = 1'635'724'800;  // 2021-11-01
inline constexpr SimTime kNov2021End = 1'638'316'800;    // 2021-12-01

/// Calendar date (UTC).
struct CivilDate {
  int year = 1970;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend constexpr bool operator==(const CivilDate&, const CivilDate&) = default;
};

/// Days since Unix epoch -> calendar date (proleptic Gregorian,
/// Howard Hinnant's algorithm).
[[nodiscard]] constexpr CivilDate civil_from_days(std::int64_t days_since_epoch) noexcept {
  std::int64_t z = days_since_epoch + 719'468;
  const std::int64_t era = (z >= 0 ? z : z - 146'096) / 146'097;
  const auto doe = static_cast<std::uint64_t>(z - era * 146'097);
  const std::uint64_t yoe = (doe - doe / 1'460 + doe / 36'524 - doe / 146'096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const std::uint64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const std::uint64_t mp = (5 * doy + 2) / 153;
  const auto d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  const auto m = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  return {static_cast<int>(y + (m <= 2)), m, d};
}

/// Calendar date -> days since Unix epoch (inverse of the above).
[[nodiscard]] constexpr std::int64_t days_from_civil(CivilDate cd) noexcept {
  const std::int64_t y = cd.year - (cd.month <= 2);
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const auto yoe = static_cast<std::uint64_t>(y - era * 400);
  const std::uint64_t mp = static_cast<std::uint64_t>(cd.month > 2 ? cd.month - 3 : cd.month + 9);
  const std::uint64_t doy = (153 * mp + 2) / 5 + static_cast<std::uint64_t>(cd.day) - 1;
  const std::uint64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146'097 + static_cast<std::int64_t>(doe) - 719'468;
}

/// Timestamp for midnight UTC of a calendar date.
[[nodiscard]] constexpr SimTime time_of(CivilDate cd) noexcept {
  return days_from_civil(cd) * kSecondsPerDay;
}

/// Timestamp of a calendar date+time.
[[nodiscard]] constexpr SimTime time_of(CivilDate cd, int hour, int minute, int second) noexcept {
  return time_of(cd) + hour * 3'600 + minute * 60 + second;
}

/// Date of a timestamp.
[[nodiscard]] constexpr CivilDate date_of(SimTime t) noexcept {
  std::int64_t days = t / kSecondsPerDay;
  if (t < 0 && t % kSecondsPerDay != 0) --days;
  return civil_from_days(days);
}

/// Day index within the measurement window (day 0 = Jan 1, 2021).
/// Negative / past-end timestamps still map proportionally.
[[nodiscard]] constexpr std::int64_t window_day(SimTime t) noexcept {
  return (t - kWindowStart) / kSecondsPerDay;
}

/// Week index within the measurement window (week 0 starts Jan 1, 2021).
[[nodiscard]] constexpr std::int64_t window_week(SimTime t) noexcept {
  return (t - kWindowStart) / kSecondsPerWeek;
}

/// Number of whole days in the window (439, matching the paper's "439
/// measurement days" for MAWI).
inline constexpr std::int64_t kWindowDays = (kWindowEnd - kWindowStart) / kSecondsPerDay;
inline constexpr std::int64_t kWindowWeeks = (kWindowEnd - kWindowStart + kSecondsPerWeek - 1) / kSecondsPerWeek;

/// "YYYY-MM-DD" rendering.
[[nodiscard]] std::string format_date(SimTime t);

/// "YYYY-MM-DD HH:MM:SS" rendering.
[[nodiscard]] std::string format_datetime(SimTime t);

}  // namespace v6sonar::util
