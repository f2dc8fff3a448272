// Merge-equivalence tests for the incremental analyzers: feeding a
// stream split into N parts through N analyzers and merge()ing them
// must produce results identical to feeding one analyzer the whole
// stream — the property the sharded-ownership pipeline mode
// (core/parallel_pipeline, per-shard sinks) relies on to recover
// serial reports at flush. Checked across split points (empty, single
// event, thirds, halves), across multi-way partitions (contiguous,
// per-source hash as the pipeline shards, round-robin interleave), and
// across aggregation levels /128, /64, /48.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/dns_targeting.hpp"
#include "analysis/ports.hpp"
#include "analysis/reports.hpp"
#include "analysis/timeseries.hpp"
#include "core/scan_event.hpp"
#include "net/prefix.hpp"
#include "util/rng.hpp"

namespace v6sonar::analysis {
namespace {

using core::ScanEvent;
using net::Ipv6Address;
using net::Ipv6Prefix;

/// Random-but-plausible events at one aggregation level. Sources are
/// drawn from a small pool and vary inside the top 48 bits, so they
/// stay distinct at /48, /64, and /128 alike; ASN is a pure function
/// of the source (as in real traffic), which keeps the last-event-wins
/// asn field split-invariant.
std::vector<ScanEvent> random_events(std::uint64_t seed, std::size_t n, int level) {
  util::Xoshiro256 rng(seed);
  std::vector<ScanEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ScanEvent ev;
    const std::uint64_t src = rng.below(40);
    ev.source = Ipv6Prefix{Ipv6Address{0x2A10'0000'0000'0000ULL | (src << 16), 0}, level};
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

using Split = std::vector<std::vector<ScanEvent>>;

/// The split families exercised per level. Multi-way parts may be
/// empty (a shard that saw no traffic) — merge must tolerate that.
std::vector<Split> splits(const std::vector<ScanEvent>& events) {
  std::vector<Split> out;
  const std::size_t n = events.size();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, n / 3, n / 2, n - 1, n}) {
    Split s(2);
    s[0].assign(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(cut));
    s[1].assign(events.begin() + static_cast<std::ptrdiff_t>(cut), events.end());
    out.push_back(std::move(s));
  }
  {  // Per-source hash partition: the sharded pipeline's discipline.
    Split s(3);
    for (const auto& ev : events)
      s[std::hash<Ipv6Prefix>{}(ev.source) % 3].push_back(ev);
    out.push_back(std::move(s));
  }
  {  // Round-robin interleave: sources smeared across every part.
    Split s(4);
    for (std::size_t i = 0; i < n; ++i) s[i % 4].push_back(events[i]);
    out.push_back(std::move(s));
  }
  return out;
}

/// Feed each part into its own analyzer, merge parts 1..N-1 into part
/// 0 in order, flush, and hand (merged, single-stream reference) to
/// the comparator.
template <class A, class Make, class Check>
void expect_merge_equivalence(const Split& parts, const std::vector<ScanEvent>& all,
                              const Make& make, const Check& check) {
  std::vector<std::unique_ptr<A>> shards;
  shards.reserve(parts.size());
  for (const auto& part : parts) {
    shards.push_back(make());
    for (const auto& ev : part) shards.back()->observe(ev);
  }
  for (std::size_t i = 1; i < shards.size(); ++i) shards[0]->merge(std::move(*shards[i]));
  shards[0]->flush();

  const auto ref = make();
  for (const auto& ev : all) ref->observe(ev);
  ref->flush();
  check(*shards[0], *ref);
}

void check_sources(const SourceAnalyzer& m, const SourceAnalyzer& ref) {
  const auto a = m.sources();
  const auto b = ref.sources();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source) << i;
    EXPECT_EQ(a[i].asn, b[i].asn) << i;
    EXPECT_EQ(a[i].scans, b[i].scans) << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << i;
    EXPECT_EQ(a[i].distinct_dsts_max, b[i].distinct_dsts_max) << i;
  }
  const auto ta = m.totals();
  const auto tb = ref.totals();
  EXPECT_EQ(ta.scans, tb.scans);
  EXPECT_EQ(ta.packets, tb.packets);
  EXPECT_EQ(ta.sources, tb.sources);
  EXPECT_EQ(ta.ases, tb.ases);
}

void check_by_as(const AsAnalyzer& m, const AsAnalyzer& ref) {
  const auto a = m.by_as();
  const auto b = ref.by_as();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].asn, b[i].asn) << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << i;
    EXPECT_EQ(a[i].sources, b[i].sources) << i;
    EXPECT_EQ(a[i].scans, b[i].scans) << i;
  }
}

void check_durations(const DurationAnalyzer& m, const DurationAnalyzer& ref) {
  const auto a = m.stats();
  const auto b = ref.stats();
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.median_sec, b.median_sec);
  EXPECT_DOUBLE_EQ(a.p90_sec, b.p90_sec);
  EXPECT_DOUBLE_EQ(a.max_sec, b.max_sec);
}

void check_timeseries(const TimeSeriesAnalyzer& m, const TimeSeriesAnalyzer& ref) {
  const auto a = m.weekly();
  const auto b = ref.weekly();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].week, b[i].week) << i;
    EXPECT_EQ(a[i].active_sources, b[i].active_sources) << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << i;
    EXPECT_DOUBLE_EQ(a[i].top1_share, b[i].top1_share) << i;
    EXPECT_DOUBLE_EQ(a[i].top2_share, b[i].top2_share) << i;
    EXPECT_DOUBLE_EQ(a[i].top3_share, b[i].top3_share) << i;
  }
  EXPECT_DOUBLE_EQ(m.overall_top_k(2), ref.overall_top_k(2));
  EXPECT_DOUBLE_EQ(m.mean_weekly_top_k(2), ref.mean_weekly_top_k(2));
}

void check_port_buckets(const PortBucketAnalyzer& m, const PortBucketAnalyzer& ref) {
  const auto a = m.shares();
  const auto b = ref.shares();
  EXPECT_EQ(a.total_scans, b.total_scans);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a.scans[i], b.scans[i]) << i;
    EXPECT_DOUBLE_EQ(a.sources[i], b.sources[i]) << i;
    EXPECT_DOUBLE_EQ(a.packets[i], b.packets[i]) << i;
  }
}

void check_top_ports(const TopPortsAnalyzer& m, const TopPortsAnalyzer& ref) {
  const auto a = m.result();
  const auto b = ref.result();
  const auto rows_equal = [](const std::vector<TopPortsRow>& x,
                             const std::vector<TopPortsRow>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].port, y[i].port) << i;
      EXPECT_DOUBLE_EQ(x[i].share, y[i].share) << i;
    }
  };
  rows_equal(a.by_packets, b.by_packets);
  rows_equal(a.by_scans, b.by_scans);
  rows_equal(a.by_sources, b.by_sources);
}

void check_dns(const DnsTargetingAnalyzer& m, const DnsTargetingAnalyzer& ref) {
  const auto a = m.report();
  const auto b = ref.report();
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_DOUBLE_EQ(a.all_in_dns_fraction, b.all_in_dns_fraction);
  EXPECT_DOUBLE_EQ(a.third_not_in_dns_fraction, b.third_not_in_dns_fraction);
  EXPECT_EQ(a.not_in_dns_fraction, b.not_in_dns_fraction);
}

class MergeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MergeEquivalence, AllAnalyzersAcrossSplits) {
  const int level = GetParam();
  const auto events = random_events(4040 + static_cast<std::uint64_t>(level), 600, level);
  for (const auto& split : splits(events)) {
    expect_merge_equivalence<SourceAnalyzer>(
        split, events, [] { return std::make_unique<SourceAnalyzer>(); }, check_sources);
    expect_merge_equivalence<AsAnalyzer>(
        split, events, [] { return std::make_unique<AsAnalyzer>(); }, check_by_as);
    expect_merge_equivalence<DurationAnalyzer>(
        split, events, [] { return std::make_unique<DurationAnalyzer>(); }, check_durations);
    expect_merge_equivalence<TimeSeriesAnalyzer>(
        split, events, [] { return std::make_unique<TimeSeriesAnalyzer>(); }, check_timeseries);
    expect_merge_equivalence<PortBucketAnalyzer>(
        split, events, [] { return std::make_unique<PortBucketAnalyzer>(); }, check_port_buckets);
    expect_merge_equivalence<TopPortsAnalyzer>(
        split, events, [] { return std::make_unique<TopPortsAnalyzer>(10); }, check_top_ports);
    const auto exclude = [](const ScanEvent& ev) { return ev.src_asn == 9; };
    expect_merge_equivalence<TopPortsAnalyzer>(
        split, events, [&] { return std::make_unique<TopPortsAnalyzer>(10, exclude); },
        check_top_ports);
    expect_merge_equivalence<DnsTargetingAnalyzer>(
        split, events, [] { return std::make_unique<DnsTargetingAnalyzer>(9); }, check_dns);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, MergeEquivalence, ::testing::Values(128, 64, 48),
                         [](const auto& info) { return "Slash" + std::to_string(info.param); });

TEST(MergeEquivalence, MergeIsAssociativeAcrossGrouping) {
  // ((a + b) + c) and (a + (b + c)) render identically — the pipeline
  // merges left-to-right but nothing may depend on that grouping.
  const auto events = random_events(99, 300, 64);
  const std::size_t third = events.size() / 3;
  Split parts(3);
  parts[0].assign(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(third));
  parts[1].assign(events.begin() + static_cast<std::ptrdiff_t>(third),
                  events.begin() + static_cast<std::ptrdiff_t>(2 * third));
  parts[2].assign(events.begin() + static_cast<std::ptrdiff_t>(2 * third), events.end());

  SourceAnalyzer left[3], right[3];
  for (int i = 0; i < 3; ++i)
    for (const auto& ev : parts[static_cast<std::size_t>(i)]) {
      left[i].observe(ev);
      right[i].observe(ev);
    }
  left[0].merge(std::move(left[1]));
  left[0].merge(std::move(left[2]));
  left[0].flush();
  right[1].merge(std::move(right[2]));
  right[0].merge(std::move(right[1]));
  right[0].flush();
  check_sources(left[0], right[0]);
}

TEST(MergeEquivalence, TypeMismatchThrowsBadCast) {
  SourceAnalyzer sources;
  AsAnalyzer by_as;
  EXPECT_THROW(sources.merge(std::move(static_cast<Analyzer&>(by_as))), std::bad_cast);
}

}  // namespace
}  // namespace v6sonar::analysis
