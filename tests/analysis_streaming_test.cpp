// Equivalence tests for the incremental analyzers (analysis/*): each
// streaming EventSink core must produce results identical to the
// legacy vector-folding entry point over the same events, independent
// of arrival order, and must account itself in util::metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/dns_targeting.hpp"
#include "analysis/ports.hpp"
#include "analysis/reports.hpp"
#include "analysis/timeseries.hpp"
#include "core/scan_event.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace v6sonar::analysis {
namespace {

using core::ScanEvent;
using net::Ipv6Address;
using net::Ipv6Prefix;

/// Random-but-plausible events: sources drawn from a small pool so
/// per-source accumulation actually merges, ASN a pure function of the
/// source (as in real traffic), in-DNS counts bounded by targets.
std::vector<ScanEvent> random_events(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<ScanEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ScanEvent ev;
    const std::uint64_t src = rng.below(40);
    ev.source = Ipv6Prefix{Ipv6Address{0x2A10'0001'0000'0000ULL, src}, 64};
    ev.src_asn = static_cast<std::uint32_t>(7 + src % 9);
    ev.first_us = static_cast<sim::TimeUs>(rng.below(1'000'000'000'000ULL));
    ev.last_us = ev.first_us + static_cast<sim::TimeUs>(rng.below(86'400'000'000ULL));
    ev.packets = 1 + rng.below(100'000);
    ev.distinct_dsts = static_cast<std::uint32_t>(1 + rng.below(10'000));
    ev.distinct_dsts_in_dns = static_cast<std::uint32_t>(rng.below(ev.distinct_dsts + 1));
    const auto nports = 1 + rng.below(8);
    for (std::uint64_t p = 0; p < nports; ++p)
      ev.port_packets.emplace_back(static_cast<std::uint16_t>(rng.below(1024)),
                                   1 + rng.below(50'000));
    const auto nweeks = 1 + rng.below(5);
    for (std::uint64_t w = 0; w < nweeks; ++w)
      ev.weekly_packets.emplace_back(static_cast<std::int32_t>(rng.below(65)),
                                     1 + rng.below(40'000));
    events.push_back(std::move(ev));
  }
  return events;
}

/// Feed `events` into `analyzer` one event at a time (the streaming
/// path) and flush it, mirroring what a detector sink chain does.
void feed(Analyzer& analyzer, const std::vector<ScanEvent>& events) {
  for (const auto& ev : events) analyzer.observe(ev);
  analyzer.flush();
}

const std::vector<ScanEvent>& corpus() {
  static const std::vector<ScanEvent> events = random_events(2024, 800);
  return events;
}

std::vector<ScanEvent> reversed_corpus() {
  std::vector<ScanEvent> r = corpus();
  std::reverse(r.begin(), r.end());
  return r;
}

TEST(StreamingSources, MatchesVectorFold) {
  const auto& events = corpus();
  SourceAnalyzer a;
  feed(a, events);

  const auto folded = fold_sources(events);
  const auto streamed = a.sources();
  ASSERT_EQ(streamed.size(), folded.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].source, folded[i].source) << i;
    EXPECT_EQ(streamed[i].asn, folded[i].asn) << i;
    EXPECT_EQ(streamed[i].scans, folded[i].scans) << i;
    EXPECT_EQ(streamed[i].packets, folded[i].packets) << i;
    EXPECT_EQ(streamed[i].distinct_dsts_max, folded[i].distinct_dsts_max) << i;
  }

  const auto t_fold = totals(events);
  const auto t_stream = a.totals();
  EXPECT_EQ(t_stream.scans, t_fold.scans);
  EXPECT_EQ(t_stream.packets, t_fold.packets);
  EXPECT_EQ(t_stream.sources, t_fold.sources);
  EXPECT_EQ(t_stream.ases, t_fold.ases);
}

TEST(StreamingSources, OrderInsensitive) {
  SourceAnalyzer f, r;
  feed(f, corpus());
  feed(r, reversed_corpus());
  const auto fwd = f.sources();
  const auto rev = r.sources();
  ASSERT_EQ(fwd.size(), rev.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    EXPECT_EQ(fwd[i].source, rev[i].source) << i;
    EXPECT_EQ(fwd[i].packets, rev[i].packets) << i;
    EXPECT_EQ(fwd[i].scans, rev[i].scans) << i;
  }
}

TEST(StreamingByAs, MatchesVectorFoldAndOrder) {
  const auto& events = corpus();
  const auto folded = fold_by_as(events);
  AsAnalyzer f, r;
  feed(f, events);
  feed(r, reversed_corpus());
  for (const auto& rows : {f.by_as(), r.by_as()}) {
    ASSERT_EQ(rows.size(), folded.size());
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                               [](const AsSources& a, const AsSources& b) {
                                 return a.asn < b.asn;
                               }));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].asn, folded[i].asn) << i;
      EXPECT_EQ(rows[i].packets, folded[i].packets) << i;
      EXPECT_EQ(rows[i].sources, folded[i].sources) << i;
      EXPECT_EQ(rows[i].scans, folded[i].scans) << i;
    }
  }
}

TEST(StreamingDurations, MatchesRankQuantilesAndExactMax) {
  const auto& events = corpus();
  const auto exact = duration_stats(events);
  DurationAnalyzer a;
  feed(a, events);
  const auto binned = a.stats();
  EXPECT_EQ(binned.events, exact.events);
  EXPECT_DOUBLE_EQ(binned.max_sec, exact.max_sec);

  // The histogram quantile is the 1-second bin of the sample at the
  // type-7 rank floor((n-1)q): exactly floor(sorted[floor((n-1)q)]),
  // and therefore never above the interpolated exact quantile.
  std::vector<double> durations;
  durations.reserve(events.size());
  for (const auto& ev : events) durations.push_back(ev.duration_sec());
  std::sort(durations.begin(), durations.end());
  const auto rank_floor = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        std::floor(static_cast<double>(durations.size() - 1) * q));
    return std::floor(durations[rank]);
  };
  EXPECT_DOUBLE_EQ(binned.median_sec, rank_floor(0.5));
  EXPECT_DOUBLE_EQ(binned.p90_sec, rank_floor(0.9));
  EXPECT_LE(binned.median_sec, exact.median_sec);
  EXPECT_LE(binned.p90_sec, exact.p90_sec);
}

TEST(StreamingDurations, SparseBinsFoldLikeADenseHistogram) {
  // Durations from 0 s to past a week (the edge bin), fed to 64 delta
  // analyzers merged into one, as a daemon's shards publish them. The
  // quantiles and the saved state must be those of a dense week-wide
  // histogram of the same events: the nonzero bins in bin order.
  constexpr std::uint64_t kWeekSec = 7 * 24 * 3600;
  util::Xoshiro256 rng(77);
  std::vector<ScanEvent> events(5'000);
  for (auto& ev : events) {
    const double r = rng.unit();
    const std::uint64_t sec = r < 0.6   ? rng.below(3'600)
                              : r < 0.8 ? rng.below(kWeekSec)
                                        : kWeekSec + rng.below(kWeekSec);
    ev.first_us = static_cast<sim::TimeUs>(rng.below(1'000'000'000'000ULL));
    ev.last_us = ev.first_us + static_cast<sim::TimeUs>(sec * 1'000'000 + rng.below(1'000'000));
  }
  std::vector<std::uint64_t> dense(kWeekSec);
  double max_sec = 0;
  for (const auto& ev : events) {
    ++dense[std::min(static_cast<std::uint64_t>(ev.duration_sec()), kWeekSec - 1)];
    max_sec = std::max(max_sec, ev.duration_sec());
  }
  const auto dense_quantile = [&](double q) {
    const auto rank =
        static_cast<std::uint64_t>(std::floor(static_cast<double>(events.size() - 1) * q));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < dense.size(); ++b)
      if ((cum += dense[b]) > rank) return static_cast<double>(b);
    return static_cast<double>(kWeekSec - 1);
  };
  util::StateWriter want;
  want.u64(events.size());
  want.f64(max_sec);
  want.u64(static_cast<std::uint64_t>(std::count_if(dense.begin(), dense.end(),
                                                    [](std::uint64_t n) { return n != 0; })));
  for (std::size_t b = 0; b < dense.size(); ++b) {
    if (dense[b] == 0) continue;
    want.u32(static_cast<std::uint32_t>(b));
    want.u64(dense[b]);
  }

  DurationAnalyzer merged;
  const std::size_t slice = events.size() / 64;
  for (std::size_t from = 0; from < events.size(); from += slice) {
    DurationAnalyzer delta;
    feed(delta, {events.begin() + static_cast<std::ptrdiff_t>(from),
                 events.begin() + static_cast<std::ptrdiff_t>(std::min(events.size(), from + slice))});
    merged.merge(std::move(delta));
  }
  const auto stats = merged.stats();
  EXPECT_EQ(stats.events, events.size());
  EXPECT_DOUBLE_EQ(stats.median_sec, dense_quantile(0.5));
  EXPECT_DOUBLE_EQ(stats.p90_sec, dense_quantile(0.9));
  EXPECT_DOUBLE_EQ(stats.p90_sec, static_cast<double>(kWeekSec - 1));  // the edge bin
  EXPECT_DOUBLE_EQ(stats.max_sec, max_sec);
  util::StateWriter got;
  merged.save(got);
  EXPECT_TRUE(std::ranges::equal(got.bytes(), want.bytes()));
}

TEST(StreamingTimeSeries, MatchesVectorFold) {
  const auto& events = corpus();
  TimeSeriesAnalyzer a;
  feed(a, events);

  const auto folded = weekly_series(events);
  const auto streamed = a.weekly();
  ASSERT_EQ(streamed.size(), folded.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].week, folded[i].week) << i;
    EXPECT_EQ(streamed[i].active_sources, folded[i].active_sources) << i;
    EXPECT_EQ(streamed[i].packets, folded[i].packets) << i;
    EXPECT_DOUBLE_EQ(streamed[i].top1_share, folded[i].top1_share) << i;
    EXPECT_DOUBLE_EQ(streamed[i].top2_share, folded[i].top2_share) << i;
    EXPECT_DOUBLE_EQ(streamed[i].top3_share, folded[i].top3_share) << i;
  }

  EXPECT_DOUBLE_EQ(a.overall_top_k(2), overall_top_k_share(events, 2));
  EXPECT_DOUBLE_EQ(a.mean_weekly_top_k(2), mean_weekly_top_k_share(events, 2));
}

TEST(StreamingTimeSeries, OrderInsensitive) {
  TimeSeriesAnalyzer f, r;
  feed(f, corpus());
  feed(r, reversed_corpus());
  EXPECT_DOUBLE_EQ(f.overall_top_k(3), r.overall_top_k(3));
  const auto wf = f.weekly();
  const auto wr = r.weekly();
  ASSERT_EQ(wf.size(), wr.size());
  for (std::size_t i = 0; i < wf.size(); ++i) {
    EXPECT_EQ(wf[i].week, wr[i].week) << i;
    EXPECT_EQ(wf[i].packets, wr[i].packets) << i;
    EXPECT_DOUBLE_EQ(wf[i].top2_share, wr[i].top2_share) << i;
  }
}

TEST(StreamingPortBuckets, MatchesVectorFold) {
  const auto& events = corpus();
  const auto folded = port_bucket_shares(events);
  PortBucketAnalyzer a;
  feed(a, events);
  const auto streamed = a.shares();
  EXPECT_EQ(streamed.total_scans, folded.total_scans);
  for (int b = 0; b < 4; ++b) {
    EXPECT_DOUBLE_EQ(streamed.scans[b], folded.scans[b]) << b;
    EXPECT_DOUBLE_EQ(streamed.sources[b], folded.sources[b]) << b;
    EXPECT_DOUBLE_EQ(streamed.packets[b], folded.packets[b]) << b;
  }
}

TEST(StreamingTopPorts, MatchesVectorFoldWithAndWithoutExclusion) {
  const auto& events = corpus();
  const auto exclude = [](const ScanEvent& ev) { return ev.src_asn == 9; };

  const auto rows_equal = [](const std::vector<TopPortsRow>& a,
                             const std::vector<TopPortsRow>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].port, b[i].port) << i;
      EXPECT_DOUBLE_EQ(a[i].share, b[i].share) << i;
    }
  };
  const auto check = [&](const TopPorts& streamed, const TopPorts& folded) {
    rows_equal(streamed.by_packets, folded.by_packets);
    rows_equal(streamed.by_scans, folded.by_scans);
    rows_equal(streamed.by_sources, folded.by_sources);
  };

  TopPortsAnalyzer plain(10), excluded(10, exclude), rev(10);
  feed(plain, events);
  feed(excluded, events);
  feed(rev, reversed_corpus());
  check(plain.result(), top_ports(events, 10));
  check(excluded.result(), top_ports(events, 10, exclude));
  check(rev.result(), top_ports(events, 10));
}

TEST(StreamingDnsTargeting, MatchesVectorFold) {
  const auto& events = corpus();
  for (const std::uint32_t exclude_asn : {0u, 9u}) {
    const auto folded = dns_targeting(events, exclude_asn);
    DnsTargetingAnalyzer a(exclude_asn);
    feed(a, events);
    const auto streamed = a.report();
    EXPECT_EQ(streamed.sources, folded.sources);
    EXPECT_DOUBLE_EQ(streamed.all_in_dns_fraction, folded.all_in_dns_fraction);
    EXPECT_DOUBLE_EQ(streamed.third_not_in_dns_fraction, folded.third_not_in_dns_fraction);
    EXPECT_EQ(streamed.not_in_dns_fraction, folded.not_in_dns_fraction);
  }
}

std::uint64_t counter_value(const char* name) {
  const auto snap = util::metrics::snapshot();
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

std::uint64_t histogram_count(const char* name) {
  const auto snap = util::metrics::snapshot();
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return h.count;
  return 0;
}

TEST(AnalyzerMetrics, CountsEventsAndFlushTimings) {
  util::metrics::enable(true);
  const auto events_before = counter_value("analysis.sink.events");
  const auto flushes_before = histogram_count("analysis.sources.flush_us");

  const auto events = random_events(77, 50);
  SourceAnalyzer a;
  feed(a, events);

  EXPECT_EQ(counter_value("analysis.sink.events") - events_before, events.size());
  EXPECT_EQ(histogram_count("analysis.sources.flush_us") - flushes_before, 1u);
  util::metrics::enable(false);
}

}  // namespace
}  // namespace v6sonar::analysis
