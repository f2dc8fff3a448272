// v6sonar — command-line front end for the scan-detection pipeline.
//
// Works on the library's binary firewall logs (.v6slog) and on
// standard pcap captures; every analysis the paper runs on its two
// vantage points is available as a subcommand.
//
//   v6sonar info      <file>                    identify + count records
//   v6sonar detect    <file> [options]          large-scale scan detection (§2.2)
//   v6sonar report    <events.v6ev> [options]   re-analyze spilled scan events
//   v6sonar ids       <file> [options]          streaming multi-level IDS + blocklist (§5)
//   v6sonar fh        <file> [options]          Fukuda-Heidemann detection (§4)
//   v6sonar filter    <in> <out.v6slog>         5-duplicate artifact filter (§2.1)
//   v6sonar fingerprint <file> [options]        behavioural fingerprints + actor links (§5/A.4)
//   v6sonar generate  <out.v6slog> [--small]    simulate the CDN telescope world
//   v6sonar mawi-day  <YYYY-MM-DD> <out.pcap>   export a MAWI-style capture day
//   v6sonar query     <socket> <verb> [arg]     client for a running v6sonard daemon
//
// detect (through core::DetectRun) and ids run the sharded pipeline on
// --threads workers, one by default: their output and their
// checkpoints are the same at every count. usage() and README.md list
// every option.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "analysis/dns_targeting.hpp"
#include "analysis/fingerprint.hpp"
#include "analysis/ports.hpp"
#include "analysis/report_render.hpp"
#include "analysis/reports.hpp"
#include "analysis/timeseries.hpp"
#include "cli_args.hpp"
#include "core/adaptive.hpp"
#include "core/artifact_filter.hpp"
#include "core/detect_run.hpp"
#include "core/detector.hpp"
#include "core/event_io.hpp"
#include "core/event_sink.hpp"
#include "core/fh_detector.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/state_codec.hpp"
#include "daemon/framing.hpp"
#include "daemon/protocol.hpp"
#include "mawi/world.hpp"
#include "scanner/hitlist.hpp"
#include "sim/log_io.hpp"
#include "telescope/world.hpp"
#include "util/fdio.hpp"
#include "util/metrics.hpp"
#include "util/process_stats.hpp"
#include "util/signal_drain.hpp"
#include "util/state_io.hpp"
#include "util/table.hpp"
#include "util/timebase.hpp"

namespace {

using namespace v6sonar;
using cli::parse_int;
using cli::fail;
using cli::parse_seconds;
using cli::value_of;

struct Options : cli::RunOptions {
  std::int64_t period_sec = 86'400;  ///< ids: reattribution period
  bool report = false;  ///< detect: render the full analyzer report
  std::uint64_t checkpoint_every = 1'000'000;  ///< records between checkpoints
  bool resume = false;  ///< restore from --checkpoint before feeding
};

[[noreturn]] void usage() {
  std::fputs(
      "usage: v6sonar <command> [arguments]\n"
      "\n"
      "commands:\n"
      "  info      <file>                   identify a .v6slog/.pcap file and count records\n"
      "  detect    <file> [options]         large-scale scan detection (>=100 dsts, 1h timeout)\n"
      "  report    <events.v6ev> [options]  streaming analyzer report over spilled events\n"
      "  ids       <file> [options]         streaming multi-level IDS: alerts + final blocklist\n"
      "  fh        <file> [options]         Fukuda-Heidemann per-window scan detection\n"
      "  filter    <in> <out.v6slog>        remove 5-duplicate artifact traffic\n"
      "  fingerprint <file> [options]       behavioural fingerprints + common-actor links\n"
      "  generate  <out.v6slog> [--small]   simulate the 15-month CDN telescope world\n"
      "  mawi-day  <YYYY-MM-DD> <out.pcap>  export one simulated MAWI capture day\n"
      "  query     <socket> <verb> [arg]    query a running v6sonard (see docs/DAEMON.md);\n"
      "                                     verbs: ping status report top-sources top-ports\n"
      "                                     as-report blocklist metrics subscribe ingest\n"
      "                                     shutdown set-period checkpoint; options:\n"
      "                                     --top <n> --count <n>\n"
      "                                     --timeout-sec <s> --wait-key <key> --wait-min <n>\n"
      "\n"
      "options (detect/fh):\n"
      "  --agg <len>       source aggregation prefix length (default 64)\n"
      "  --min-dsts <n>    minimum distinct destinations (default 100)\n"
      "  --timeout <sec>   scan inter-packet timeout, detect only (default 3600)\n"
      "  --top <n>         rows to print (default 20)\n"
      "  --threads <n>     detection worker threads, detect/ids only (default 1,\n"
      "                    or the checkpoint's on --resume; 0 = one per hardware\n"
      "                    thread); reports, --events spills, alerts and\n"
      "                    blocklists are identical at every thread count\n"
      "  --ring-cap <n>    records buffered per worker ring, detect/ids only\n"
      "                    (default 16384, minimum 8; rounded up to a power of\n"
      "                    two)\n"
      "  --period <sec>    ids only: reattribution pass period (default 86400)\n"
      "  --mmap            accepted and ignored: a .v6slog is always streamed\n"
      "                    through the zero-copy mapped reader\n"
      "  --report          detect only: print the full streaming analyzer report\n"
      "                    (sources, ASes, durations, ports, weekly, DNS) instead\n"
      "                    of the top-sources table; byte-identical to running\n"
      "                    `report` over the same events\n"
      "  --events <file>   detect only: spill the event stream to <file> for\n"
      "                    later `report` runs (no in-memory event set)\n"
      "  --cold-after <sec> detect only: demote sources idle this long to a\n"
      "                    compact cold record (promoted back transparently on\n"
      "                    their next packet); must be shorter than --timeout.\n"
      "                    Cuts steady-state memory; output is unchanged.\n"
      "                    0 (default) disables tiering\n"
      "  --checkpoint <file>  detect/ids: periodically freeze the complete\n"
      "                    pipeline state to <file> (atomic replace; see\n"
      "                    docs/CHECKPOINT.md), at any --threads; with\n"
      "                    --events, each shard's spill <file>.shard<i> is kept\n"
      "                    for --resume until the run completes\n"
      "  --checkpoint-every <n>  records between checkpoints (default 1000000)\n"
      "  --resume          restore state from --checkpoint before feeding and\n"
      "                    skip the records it already covers (an input shorter\n"
      "                    than that is an error); the completed run's output is\n"
      "                    byte-identical to an uninterrupted run\n"
      "\n"
      "global options (any command):\n"
      "  --metrics[=FILE]  enable pipeline stage counters and dump the JSON\n"
      "                    snapshot to FILE (default stdout) on exit\n",
      stderr);
  std::exit(2);
}

bool is_pcap(const std::string& path) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  return ends_with(".pcap") || ends_with(".cap");
}

/// Load any supported input into records (pcap paths go through the
/// frame parser; .v6slog streams through the log reader).
std::vector<sim::LogRecord> load_records(const std::string& path) {
  if (is_pcap(path)) {
    std::uint64_t skipped = 0;
    auto records = mawi::MawiWorld::import_pcap(path, &skipped);
    if (skipped)
      std::fprintf(stderr, "note: skipped %llu unparseable frames\n",
                   static_cast<unsigned long long>(skipped));
    return records;
  }
  sim::MappedLogReader reader(path);
  std::vector<sim::LogRecord> records(reader.total_records());
  reader.next_batch(records.data(), records.size());
  return records;
}

/// Stream every record of `path` after the first `skip` through `fn`,
/// batch by batch, without materializing the log; returns how many
/// records were skipped (fewer than `skip` only if the input is
/// shorter). The mapped log reader skips with one cursor move,
/// decoding nothing it skips. pcap inputs have no streaming parser:
/// they are parsed in one in-memory pass and fed in slices of the same
/// batch size, so no consumer sizes its per-batch scratch to the whole
/// capture. Batches end where a read from record
/// 0 would end them, skip or not, so a resumed run checkpoints at the
/// same records whichever way it got past the skipped ones.
/// Streaming loops check the drain signal between batches: on
/// SIGINT/SIGTERM the feed stops early and the caller's normal
/// flush/finalize path runs over what was read so far — spill files
/// get a real (fsync'd) count header and --metrics still dumps.
/// main() then maps the partial run to exit code 128+signo.
template <typename Fn>
std::uint64_t for_each_record_batch(const std::string& path, Fn&& fn,
                                    std::uint64_t skip = 0) {
  constexpr std::size_t kBatch = 4'096;
  if (is_pcap(path)) {
    const auto records = load_records(path);
    const std::span<const sim::LogRecord> all{records};
    const std::size_t skipped = static_cast<std::size_t>(std::min<std::uint64_t>(skip, all.size()));
    for (std::size_t i = skipped; i < all.size();) {
      if (util::ShutdownSignal::requested()) break;
      const std::size_t end = std::min((i / kBatch + 1) * kBatch, all.size());
      fn(all.subspan(i, end - i));
      i = end;
    }
    return skipped;
  }
  std::array<sim::LogRecord, kBatch> batch;
  sim::MappedLogReader reader(path);
  const std::uint64_t skipped = reader.skip(skip);
  std::size_t want = kBatch - static_cast<std::size_t>(skipped % kBatch);
  for (std::size_t n; (n = reader.next_batch(batch.data(), want)) > 0; want = kBatch) {
    if (util::ShutdownSignal::requested()) break;
    fn(std::span<const sim::LogRecord>{batch.data(), n});
  }
  return skipped;
}

Options parse_options(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    if (cli::parse_run_option(o, argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--period") == 0) {
      o.period_sec = parse_seconds("--period", value_of(argc, argv, i));
      if (o.period_sec < 1) fail("--period must be at least 1 second");
    } else if (std::strcmp(argv[i], "--mmap") == 0) {
      // Accepted and ignored: every .v6slog is read through the mapping.
    } else if (std::strcmp(argv[i], "--report") == 0) {
      o.report = true;
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      o.checkpoint_every =
          parse_int<std::uint64_t>("--checkpoint-every", value_of(argc, argv, i));
      if (o.checkpoint_every == 0) fail("--checkpoint-every must be at least 1 record");
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      o.resume = true;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (o.resume && o.checkpoint.empty()) fail("--resume needs --checkpoint <file>");
  return o;
}

int cmd_info(const std::string& path) {
  const auto records = load_records(path);
  std::printf("%s: %zu IPv6 records\n", path.c_str(), records.size());
  if (records.empty()) return 0;
  std::printf("time span: %s .. %s\n",
              util::format_datetime(sim::seconds_of(records.front().ts_us)).c_str(),
              util::format_datetime(sim::seconds_of(records.back().ts_us)).c_str());
  std::uint64_t tcp = 0, udp = 0, icmp = 0;
  for (const auto& r : records) {
    tcp += r.proto == wire::IpProto::kTcp;
    udp += r.proto == wire::IpProto::kUdp;
    icmp += r.proto == wire::IpProto::kIcmpv6;
  }
  std::printf("protocols: TCP %llu, UDP %llu, ICMPv6 %llu\n",
              static_cast<unsigned long long>(tcp), static_cast<unsigned long long>(udp),
              static_cast<unsigned long long>(icmp));
  return 0;
}

/// One shard's private sink chain: the analyzers — the full report
/// bundle, or just the per-source table. Each chain is fed on its
/// shard's worker thread (core::DetectRun adds the shard's spill), and
/// the analyzer states merge after flush. The bundle itself
/// (analysis::ReportBundle) and the renderer live in
/// analysis/report_render.hpp, shared with the v6sonard query plane.
struct ShardChain {
  core::FanOutSink fan;
  analysis::SourceAnalyzer sources_only;
  std::optional<analysis::ReportBundle> report;

  explicit ShardChain(const Options& o) {
    if (o.report) {
      report.emplace(o.top);
      report->attach(fan);
    } else {
      fan.add(sources_only);
    }
  }

  /// This shard's analyzer state, saved and loaded on its worker.
  void save(util::StateWriter& w) const { report ? report->save(w) : sources_only.save(w); }
  void load(util::StateReader& r) { report ? report->load(r) : sources_only.load(r); }

  void merge(ShardChain&& other) {
    if (report)
      report->merge(std::move(*other.report));
    else
      sources_only.merge(std::move(other.sources_only));
  }
};

/// a + b, clamped at UINT64_MAX: a checkpoint cadence past the end of
/// any input means never, not a wrapped-around "at once".
constexpr std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// The run loop of detect and ids: stream `path` into `feed`, skipping
/// at the reader the first `covered` records (those a resumed
/// checkpoint covers), and with --checkpoint call `save(records fed)`
/// every --checkpoint-every records. An input shorter than `covered`
/// is not the one the checkpoint was taken on: that throws, unless a
/// drain signal arrived (the run then exits 128+signo).
template <typename Feed, typename Save>
void run_records(const std::string& path, const Options& o, std::uint64_t covered, Feed&& feed,
                 Save&& save) {
  const auto next_after = [&](std::uint64_t fed) {
    return o.checkpoint.empty() ? UINT64_MAX : saturating_add(fed, o.checkpoint_every);
  };
  std::uint64_t fed = covered;
  std::uint64_t next_ckpt = next_after(fed);
  const std::uint64_t skipped = for_each_record_batch(
      path,
      [&](std::span<const sim::LogRecord> batch) {
        feed(batch);
        fed += batch.size();
        if (fed >= next_ckpt) {
          save(fed);
          next_ckpt = next_after(fed);
        }
      },
      covered);
  if (skipped < covered && !util::ShutdownSignal::requested())
    throw std::runtime_error("the checkpoint covers " + std::to_string(covered) +
                             " records, but " + path + " holds only " + std::to_string(skipped));
}

/// A resumed run's checkpoint and its "run" section, refused unless `producer` wrote it.
struct Resumed {
  core::CheckpointReader ck;
  core::RunMeta meta;
  Resumed(const std::string& path, core::RunMeta::Producer producer)
      : ck(path), meta(core::RunMeta::load(ck, producer, path)) {}
};

int cmd_detect(const std::string& path, const Options& o) {
  const core::DetectorConfig cfg{.source_prefix_len = o.agg,
                                 .min_destinations = o.min_dsts,
                                 .timeout_us = o.timeout_sec * 1'000'000,
                                 .demote_idle_us = o.cold_after_sec * 1'000'000};
  const std::uint8_t flags = (o.report ? core::RunMeta::kReport : 0) |
                             (o.events_out.empty() ? 0 : core::RunMeta::kEvents);
  std::optional<Resumed> resumed;
  if (o.resume) {
    resumed.emplace(o.checkpoint, core::RunMeta::Producer::kDetect);
    if (resumed->meta.flags != flags)
      throw std::runtime_error("checkpoint --report/--events settings do not match this run");
  }

  // Events stream from each shard's detector straight into its chain
  // — no event set is ever materialized, so memory is bounded by
  // active sources. The report and the spill are byte-identical at
  // every shard count.
  std::vector<std::unique_ptr<ShardChain>> chains;
  core::DetectRun run(
      cfg,
      {.threads = core::shard_count(o.threads, resumed ? &resumed->meta : nullptr),
       .ring_capacity = o.ring_cap},
      o.events_out, [&](std::size_t) -> core::EventSink& {
        chains.push_back(std::make_unique<ShardChain>(o));
        return chains.back()->fan;
      });
  if (resumed)
    run.resume(resumed->ck, [&](std::size_t s, util::StateReader& r) { chains[s]->load(r); });
  // Each checkpoint commits while the feed goes on; a failed commit
  // surfaces at the next checkpoint or before the flush.
  core::CheckpointCommitter committer(o.checkpoint);
  run_records(
      path, o, resumed ? resumed->meta.records : 0,
      [&](std::span<const sim::LogRecord> batch) { run.feed_batch(batch); },
      [&](std::uint64_t fed) {
        committer.checkpoint(
            run, [&](std::size_t s, util::StateWriter& w) { chains[s]->save(w); },
            {.producer = core::RunMeta::Producer::kDetect,
             .shards = static_cast<std::uint32_t>(run.threads()),
             .records = fed,
             .flags = flags});
      });
  committer.wait();
  run.flush();
  if (!o.events_out.empty()) {
    // A drained checkpointing run keeps its shard spills for --resume.
    const std::uint64_t n =
        run.close(!o.checkpoint.empty() && util::ShutdownSignal::requested());
    std::fprintf(stderr, "spilled %llu events to %s\n", static_cast<unsigned long long>(n),
                 o.events_out.c_str());
  }
  // Fold every shard's analyzers into shard 0's chain, then flush that
  // chain once.
  for (std::size_t s = 1; s < chains.size(); ++s) chains[0]->merge(std::move(*chains[s]));
  chains[0]->fan.flush();

  // `detect --report`, `report` and the daemon's report verb print
  // render_report's bytes: byte-identical by construction.
  if (o.report) {
    std::fputs(analysis::render_report(*chains[0]->report, o.top).c_str(), stdout);
    return 0;
  }

  const analysis::SourceAnalyzer& merged = chains[0]->sources_only;
  const auto t = merged.totals();
  std::printf("%llu scans from %llu /%d sources (%llu packets attributed)\n",
              static_cast<unsigned long long>(t.scans),
              static_cast<unsigned long long>(t.sources), o.agg,
              static_cast<unsigned long long>(t.packets));

  std::fputs(analysis::render_source_table(merged, o.top, /*with_as=*/false).c_str(), stdout);
  return 0;
}

int cmd_report(const std::string& path, const Options& o) {
  core::FanOutSink fan;
  analysis::ReportBundle analyzers(o.top);
  analyzers.attach(fan);

  core::EventReader reader(path);
  std::vector<core::ScanEvent> batch(256);
  for (std::size_t n; (n = reader.next_batch(batch.data(), batch.size())) > 0;) {
    if (util::ShutdownSignal::requested()) break;
    for (std::size_t i = 0; i < n; ++i) fan.on_event(std::move(batch[i]));
  }
  fan.flush();

  std::fprintf(stderr, "replayed %llu events from %s\n",
               static_cast<unsigned long long>(reader.total_events()), path.c_str());
  std::fputs(analysis::render_report(analyzers, o.top).c_str(), stdout);
  return 0;
}

/// Streaming multi-level IDS (§5): alert lines as attribution passes
/// fire, then the final blocklist — the same at every --threads.
/// Checkpoints hold the "run" section (records fed, alerts printed,
/// shard count) next to ParallelIds' own sections.
int cmd_ids(const std::string& path, const Options& o) {
  core::IdsConfig cfg;
  cfg.min_destinations = o.min_dsts;
  cfg.timeout_us = o.timeout_sec * 1'000'000;
  cfg.reattribution_period_us = o.period_sec * 1'000'000;

  std::optional<Resumed> resumed;
  if (o.resume) resumed.emplace(o.checkpoint, core::RunMeta::Producer::kIds);
  // The summary line counts the alerts before the checkpoint too.
  std::uint64_t alerts = resumed ? resumed->meta.outputs : 0;
  const auto sink = [&](const core::IdsAlert& a) {
    ++alerts;
    std::printf("alert %-10s %s  %s /%d  packets=%llu\n", a.is_new ? "new" : "escalation",
                util::format_datetime(sim::seconds_of(a.at_us)).c_str(),
                a.attribution.source.to_string().c_str(), a.attribution.level,
                static_cast<unsigned long long>(a.attribution.packets));
  };
  core::ParallelIds ids(
      cfg,
      {.threads = core::shard_count(o.threads, resumed ? &resumed->meta : nullptr),
       .ring_capacity = o.ring_cap},
      sink);
  if (resumed) ids.resume(resumed->ck);
  run_records(
      path, o, resumed ? resumed->meta.records : 0,
      [&](std::span<const sim::LogRecord> batch) { ids.feed_batch(batch); },
      [&](std::uint64_t fed) {
        core::CheckpointWriter w;
        ids.checkpoint(w);  // delivers every finished pass first: `alerts` is current
        core::RunMeta{.producer = core::RunMeta::Producer::kIds,
                      .shards = static_cast<std::uint32_t>(ids.threads()),
                      .records = fed,
                      .outputs = alerts}
            .save(w);
        w.commit(o.checkpoint);
      });
  ids.flush();

  const std::vector<core::Attribution> blocklist = ids.blocklist();
  std::printf("%llu alerts; final blocklist (%zu entries):\n",
              static_cast<unsigned long long>(alerts), blocklist.size());
  std::fputs(analysis::render_blocklist(blocklist).c_str(), stdout);
  return 0;
}

int cmd_fh(const std::string& path, const Options& o) {
  core::FhAccumulator acc({.source_prefix_len = o.agg, .min_destinations = o.min_dsts});
  for_each_record_batch(path, [&](std::span<const sim::LogRecord> batch) {
    acc.feed_batch(batch);
  });
  const auto scans = acc.finish();
  std::printf("%zu Fukuda-Heidemann scan sources (window treated as one capture)\n",
              scans.size());
  util::TextTable table({"source", "packets", "dsts", "ports", "ICMPv6"});
  for (std::size_t i = 0; i < std::min(o.top, scans.size()); ++i) {
    const auto& s = scans[i];
    table.add_row({s.source.to_string(), util::with_commas(s.packets),
                   util::with_commas(s.distinct_dsts), util::with_commas(s.ports.size()),
                   s.icmpv6 ? "yes" : "no"});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_filter(const std::string& in, const std::string& out) {
  sim::MappedLogReader reader(in);
  // Truncating the mapped input under the filter would fault its threads.
  if (std::error_code ec; std::filesystem::equivalent(in, out, ec))
    throw std::runtime_error("filter: output " + out + " is the input");
  sim::LogWriter writer(out);
  std::uint64_t dropped = 0;
  // Whole days filter independently, so every hardware thread gets
  // days; a Ctrl-C stops the reading, and everything read is still
  // filtered and written to a finalized (fsync'd) output.
  core::filter_stream(reader, writer, std::thread::hardware_concurrency(),
                      [&](const core::FilterDayStats& s) { dropped += s.packets_dropped; });
  std::printf("kept %llu records, dropped %llu 5-duplicate artifact records -> %s\n",
              static_cast<unsigned long long>(writer.written()),
              static_cast<unsigned long long>(dropped), out.c_str());
  return 0;
}

int cmd_fingerprint(const std::string& path, const Options& o) {
  // pcap inputs have no streaming parser: parse once and reuse the
  // records across both passes. .v6slog inputs are streamed twice in
  // batches, so memory stays bounded by active sources.
  const bool pcap = is_pcap(path);
  std::vector<sim::LogRecord> pcap_records;
  if (pcap) pcap_records = load_records(path);
  const auto each_batch = [&](auto&& fn) {
    if (pcap)
      fn(std::span<const sim::LogRecord>{pcap_records});
    else
      for_each_record_batch(path, fn);
  };

  // Pass 1: find the scan sources worth fingerprinting. The detector
  // streams into a per-source analyzer — no event set in memory.
  analysis::SourceAnalyzer per_source;
  {
    core::ScanDetector detector(
        {.source_prefix_len = o.agg, .min_destinations = o.min_dsts}, per_source);
    each_batch([&](std::span<const sim::LogRecord> batch) { detector.feed_batch(batch); });
    detector.flush();
    per_source.flush();
  }
  std::vector<net::Ipv6Prefix> sources;
  for (const auto& s : per_source.sources()) sources.push_back(s.source);
  std::printf("fingerprinting %zu scan sources\n", sources.size());

  // Pass 2: behavioural features.
  analysis::FingerprintCollector fc(sources, o.agg);
  each_batch([&](std::span<const sim::LogRecord> batch) {
    for (const auto& r : batch) fc.feed(r);
  });
  const auto fps = fc.fingerprints();

  util::TextTable table({"source", "pkts", "ports", "port H", "IID HW", "in-DNS",
                         "tgt//64"});
  std::size_t shown = 0;
  for (const auto& [src, f] : fps) {
    if (++shown > o.top) break;
    table.add_row({src.to_string(), util::with_commas(f.packets),
                   util::with_commas(f.distinct_ports), util::fixed(f.port_entropy, 2),
                   util::fixed(f.mean_iid_hamming, 1), util::percent(f.in_dns_fraction),
                   util::fixed(f.targets_per_dst64, 1)});
  }
  std::printf("%s", table.render().c_str());

  const auto links = analysis::link_actors(fps, 0.9);
  std::printf("\nlikely common actors (similarity >= 0.90): %zu pairs\n", links.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(links.size(), o.top); ++i)
    std::printf("  %.3f  %s  <->  %s\n", links[i].similarity, links[i].a.to_string().c_str(),
                links[i].b.to_string().c_str());
  return 0;
}

int cmd_generate(const std::string& out, bool small) {
  telescope::CdnWorld world(small ? telescope::WorldConfig::small()
                                  : telescope::WorldConfig{});
  sim::LogWriter writer(out);
  // Interrupting a multi-hour generation keeps the prefix: the drain
  // exception unwinds out of run(), and close() below finalizes the
  // count header over what was written (fsync'd).
  struct DrainRequested {};
  std::uint64_t seen = 0;
  try {
    world.run([&](const sim::LogRecord& r) {
      if ((++seen & 0xFFF) == 0 && util::ShutdownSignal::requested()) throw DrainRequested{};
      writer.write(r);
    });
  } catch (const DrainRequested&) {
    std::fprintf(stderr, "interrupted; finalizing partial log\n");
  }
  writer.close();
  std::printf("wrote %llu records to %s\n",
              static_cast<unsigned long long>(writer.written()), out.c_str());
  return 0;
}

int cmd_mawi_day(const std::string& date, const std::string& out) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(date.c_str(), "%d-%d-%d", &y, &m, &d) != 3) fail("date must be YYYY-MM-DD");
  // An impossible date (2021-02-30, month 13) normalizes to another
  // day; refuse it rather than export that day under this label.
  const util::CivilDate cd{y, m, d};
  if (util::civil_from_days(util::days_from_civil(cd)) != cd) fail("no such date: " + date);
  const int day = mawi::day_index(cd);
  sim::AsRegistry registry;
  scanner::Hitlist hitlist({.seed = 3, .external_addresses = 20'000}, {});
  mawi::MawiWorld world({}, registry, hitlist);
  if (day < 0 || day >= world.days()) {
    std::fprintf(stderr, "error: %s is outside the Jan 2021 - Mar 2022 window\n",
                 date.c_str());
    return 2;
  }
  const auto frames = world.export_pcap(day, out);
  std::printf("wrote %llu frames for %s to %s\n",
              static_cast<unsigned long long>(frames), date.c_str(), out.c_str());
  return 0;
}

// ------------------------------------------------------------------ //
// v6sonard query client

struct QueryOptions {
  std::size_t top = 0;       ///< 0 = daemon default
  std::size_t count = 1;     ///< subscribe: events to print before exiting
  double timeout_sec = 10;   ///< overall deadline (connect + request)
  std::string wait_key;      ///< status: poll until this key ...
  std::uint64_t wait_min = 1;  ///< ... reaches at least this value
};

using SteadyClock = std::chrono::steady_clock;

/// Connect to the daemon socket, retrying until the deadline — the
/// daemon may still be starting up.
util::UniqueFd query_connect(const std::string& path, SteadyClock::time_point deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "error: socket path empty or too long: %s\n", path.c_str());
    return {};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (;;) {
    util::UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (fd.valid() &&
        ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    if (SteadyClock::now() >= deadline || util::ShutdownSignal::requested()) {
      std::fprintf(stderr, "error: cannot connect to %s\n", path.c_str());
      return {};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

bool query_send(int fd, daemon::Verb verb, std::string_view payload, std::uint16_t seq) {
  const std::string header =
      daemon::encode_header(static_cast<std::uint8_t>(verb), 0, seq, payload.size());
  if (util::write_fully(fd, header.data(), header.size()) &&
      util::write_fully(fd, payload.data(), payload.size()))
    return true;
  std::fprintf(stderr, "error: send failed\n");
  return false;
}

/// Read one frame, blocking up to the deadline.
bool query_read(int fd, daemon::FrameDecoder& decoder, daemon::Frame& out,
                SteadyClock::time_point deadline) {
  for (;;) {
    switch (decoder.next(out)) {
      case daemon::FrameDecoder::Result::kFrame:
        return true;
      case daemon::FrameDecoder::Result::kMalformed:
        std::fprintf(stderr, "error: malformed response: %s\n", decoder.error().c_str());
        return false;
      case daemon::FrameDecoder::Result::kNeedMore:
        break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    if (left.count() <= 0) {
      std::fprintf(stderr, "error: timed out waiting for response\n");
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(left.count(), 1000)));
    if (rc < 0 && errno != EINTR) return false;
    if (rc <= 0) continue;
    char buf[16 * 1024];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) {
      std::fprintf(stderr, "error: daemon closed the connection\n");
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "error: recv failed\n");
      return false;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

/// Extract "key value" from a status payload; false if absent.
bool status_value(const std::string& text, const std::string& key, std::uint64_t& out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.size() > key.size() + 1 && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ') {
      out = std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

/// `v6sonar query <socket> <verb> [arg] [options]` — the daemon's
/// client. Prints the response payload to stdout; exit 0 on kOk.
int cmd_query(int argc, char** argv) {
  if (argc < 4) usage();
  const std::string sock = argv[2];
  const std::string verb_str = argv[3];
  daemon::Verb verb;
  if (!daemon::parse_verb(verb_str, verb)) {
    std::fprintf(stderr, "error: unknown verb '%s'\n", verb_str.c_str());
    return 2;
  }
  QueryOptions q;
  std::string arg;  // ping payload / ingest file
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0) {
      q.top = parse_int<std::size_t>("--top", value_of(argc, argv, i));
    } else if (std::strcmp(argv[i], "--count") == 0) {
      q.count = parse_int<std::size_t>("--count", value_of(argc, argv, i));
    } else if (std::strcmp(argv[i], "--timeout-sec") == 0) {
      q.timeout_sec = parse_seconds("--timeout-sec", value_of(argc, argv, i));
      if (q.timeout_sec < 0) fail("--timeout-sec must be >= 0");
    } else if (std::strcmp(argv[i], "--wait-key") == 0) {
      q.wait_key = value_of(argc, argv, i);
    } else if (std::strcmp(argv[i], "--wait-min") == 0) {
      q.wait_min = parse_int<std::uint64_t>("--wait-min", value_of(argc, argv, i));
    } else if (argv[i][0] != '-' && arg.empty()) {
      arg = argv[i];
    } else {
      std::fprintf(stderr, "error: unknown query option %s\n", argv[i]);
      return 2;
    }
  }

  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(static_cast<long>(q.timeout_sec * 1000));
  util::UniqueFd fd = query_connect(sock, deadline);
  if (!fd.valid()) return 1;
  daemon::FrameDecoder decoder;
  std::uint16_t seq = 1;

  // status --wait-key KEY --wait-min N: poll until the daemon's state
  // reaches the threshold (the smoke test's synchronization verb).
  if (!q.wait_key.empty()) {
    for (;;) {
      if (!query_send(fd.get(), daemon::Verb::kStatus, "", seq)) return 1;
      daemon::Frame resp;
      if (!query_read(fd.get(), decoder, resp, deadline)) return 1;
      std::uint64_t value = 0;
      if (resp.status == static_cast<std::uint8_t>(daemon::Status::kOk) &&
          status_value(resp.payload, q.wait_key, value) && value >= q.wait_min) {
        std::printf("%s %llu\n", q.wait_key.c_str(), static_cast<unsigned long long>(value));
        return 0;
      }
      if (SteadyClock::now() >= deadline) {
        std::fprintf(stderr, "error: timed out waiting for %s >= %llu\n", q.wait_key.c_str(),
                     static_cast<unsigned long long>(q.wait_min));
        return 1;
      }
      ++seq;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  // ingest <file.v6slog>: push the file's wire images through the
  // socket as they are, 4,096 records a frame, awaiting the ack for
  // each and then releasing the frame's pages.
  if (verb == daemon::Verb::kIngest) {
    if (arg.empty()) fail("ingest needs a .v6slog file argument");
    sim::MappedLogReader reader(arg);
    const auto images = reader.unread();
    constexpr std::size_t kFrameBytes = 4'096 * sim::kLogRecordBytes;
    for (std::size_t at = 0; at < images.size(); at += kFrameBytes) {
      const auto frame = images.subspan(at, std::min(kFrameBytes, images.size() - at));
      if (!query_send(fd.get(), verb,
                      {reinterpret_cast<const char*>(frame.data()), frame.size()}, seq))
        return 1;
      daemon::Frame resp;
      if (!query_read(fd.get(), decoder, resp, deadline)) return 1;
      if (resp.status != static_cast<std::uint8_t>(daemon::Status::kOk)) {
        std::fprintf(stderr, "error: %s", resp.payload.c_str());
        return 1;
      }
      reader.release(frame.data() + frame.size());
      ++seq;
    }
    std::printf("ingested %llu records\n",
                static_cast<unsigned long long>(images.size() / sim::kLogRecordBytes));
    return 0;
  }

  // Single request/response (plus the pushed-event stream after a
  // subscribe ack).
  std::string payload = arg;
  if (q.top > 0 &&
      (verb == daemon::Verb::kReport || verb == daemon::Verb::kTopSources ||
       verb == daemon::Verb::kAsReport))
    payload = std::to_string(q.top);
  if (!query_send(fd.get(), verb, payload, seq)) return 1;
  daemon::Frame resp;
  if (!query_read(fd.get(), decoder, resp, deadline)) return 1;
  if (resp.status != static_cast<std::uint8_t>(daemon::Status::kOk)) {
    std::fprintf(stderr, "error: %s", resp.payload.c_str());
    return 1;
  }
  if (verb != daemon::Verb::kSubscribe) {
    std::fwrite(resp.payload.data(), 1, resp.payload.size(), stdout);
    return 0;
  }
  // Subscribed: print pushed event lines until --count is reached.
  for (std::size_t got = 0; got < q.count;) {
    daemon::Frame ev;
    if (!query_read(fd.get(), decoder, ev, deadline)) return 1;
    if (ev.status != static_cast<std::uint8_t>(daemon::Status::kEvent)) continue;
    std::fwrite(ev.payload.data(), 1, ev.payload.size(), stdout);
    std::fflush(stdout);
    ++got;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Cooperative drain on SIGINT/SIGTERM: streaming loops stop early,
  // writers finalize (fsync'd), metrics still dump, and the process
  // exits 128+signo. A second signal force-exits immediately.
  v6sonar::util::ShutdownSignal::install();
  // Strip --metrics[=FILE] wherever it appears, so every subcommand
  // gets observability without each parser knowing about the flag.
  bool metrics_on = false;
  std::string metrics_file;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_on = true;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_on = true;
      metrics_file = argv[i] + 10;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (metrics_on) util::metrics::enable(true);

  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const auto dispatch = [&]() -> int {
    if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
    if (cmd == "detect" && argc >= 3) return cmd_detect(argv[2], parse_options(argc, argv, 3));
    if (cmd == "report" && argc >= 3) return cmd_report(argv[2], parse_options(argc, argv, 3));
    if (cmd == "ids" && argc >= 3) return cmd_ids(argv[2], parse_options(argc, argv, 3));
    if (cmd == "fh" && argc >= 3) return cmd_fh(argv[2], parse_options(argc, argv, 3));
    if (cmd == "filter" && argc == 4) return cmd_filter(argv[2], argv[3]);
    if (cmd == "fingerprint" && argc >= 3)
      return cmd_fingerprint(argv[2], parse_options(argc, argv, 3));
    if (cmd == "generate" && argc == 3) return cmd_generate(argv[2], false);
    if (cmd == "generate" && argc == 4 && std::strcmp(argv[3], "--small") == 0)
      return cmd_generate(argv[2], true);
    if (cmd == "mawi-day" && argc == 4) return cmd_mawi_day(argv[2], argv[3]);
    if (cmd == "query") return cmd_query(argc, argv);
    usage();
  };
  int rc = 0;
  try {
    rc = dispatch();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (metrics_on) util::dump_metrics(metrics_file, "v6sonar");
  // Interrupted-but-drained runs report the conventional 128+signo
  // (130 SIGINT, 143 SIGTERM): outputs are finalized, analysis is
  // partial. See README "Interrupting long runs".
  if (rc == 0 && v6sonar::util::ShutdownSignal::requested())
    rc = v6sonar::util::ShutdownSignal::exit_code();
  return rc;
}
