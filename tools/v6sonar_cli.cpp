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
//   v6sonar adaptive  <file>                    multi-level adaptive attribution (§5)
//   v6sonar fingerprint <file> [options]        behavioural fingerprints + actor links (§5/A.4)
//   v6sonar generate  <out.v6slog> [--small]    simulate the CDN telescope world
//   v6sonar mawi-day  <YYYY-MM-DD> <out.pcap>   export a MAWI-style capture day
//   v6sonar query     <socket> <verb> [arg]     client for a running v6sonard daemon
//
// Options for detect/fh: --agg <len>  --min-dsts <n>  --timeout <sec>  --top <n>
// detect/ids run the sharded pipeline, on one worker thread by default
// and on --threads <n>: each worker owns its slice end to end,
// analyzer state merges at flush, per-shard event spills merge into
// the serial event order on close, and the IDS alerts are the same at
// every shard count. Both checkpoint at any thread count. detect also
// accepts --report to run the full streaming analyzer
// chain inline and --events <file> to spill the event stream for
// later `report` runs. detect/ids/fh/fingerprint accept --mmap to
// stream a .v6slog through the zero-copy mapped reader in batches
// instead of materialising every record up front — detection and
// analysis run in memory bounded by active sources, never by records
// or events.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "analysis/dns_targeting.hpp"
#include "analysis/fingerprint.hpp"
#include "analysis/ports.hpp"
#include "analysis/report_render.hpp"
#include "analysis/reports.hpp"
#include "analysis/timeseries.hpp"
#include "core/adaptive.hpp"
#include "core/artifact_filter.hpp"
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

struct Options {
  int agg = 64;
  std::uint32_t min_dsts = 100;
  std::int64_t timeout_sec = 3'600;
  std::int64_t period_sec = 86'400;  ///< ids: reattribution period
  std::size_t top = 20;
  /// Shards: -1 when not given (one, or the checkpoint's on --resume);
  /// 0 = one per hardware thread.
  int threads = -1;
  std::size_t ring_cap = 1 << 14;  ///< per-worker ring slots (detect/ids)
  bool mmap = false;
  bool report = false;     ///< detect: render the full analyzer report
  std::string events_out;  ///< detect: spill events here (--events)
  std::string checkpoint;  ///< detect/ids: checkpoint container path
  std::uint64_t checkpoint_every = 1'000'000;  ///< records between checkpoints
  bool resume = false;            ///< restore from --checkpoint before feeding
  std::int64_t cold_after_sec = 0;  ///< detect: demote idle sources (0 = off)
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
      "  adaptive  <file>                   adaptive source-aggregation attribution\n"
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
      "  --mmap            detect/ids/fh/fingerprint: stream a .v6slog via the zero-copy\n"
      "                    mapped reader in batches instead of loading it into memory\n"
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

/// Parse the whole of `text` as an integer, or exit(2) with an error
/// naming the flag. Rejects empty strings, non-numeric input, trailing
/// garbage ("4x", "1.5"), and values that overflow T.
template <typename T>
T parse_int(const char* flag, const char* text) {
  T value{};
  const char* const end = text + std::strlen(text);
  const auto [p, ec] = std::from_chars(text, end, value);
  if (ec == std::errc::result_out_of_range) {
    std::fprintf(stderr, "error: %s value '%s' is out of range\n", flag, text);
    std::exit(2);
  }
  if (ec != std::errc{} || p != end) {
    std::fprintf(stderr, "error: %s needs an integer, got '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Load any supported input into records (pcap paths go through the
/// frame parser; .v6slog streams through the log reader).
std::vector<sim::LogRecord> load_records(const std::string& path) {
  if (ends_with(path, ".pcap") || ends_with(path, ".cap")) {
    std::uint64_t skipped = 0;
    auto records = mawi::MawiWorld::import_pcap(path, &skipped);
    if (skipped)
      std::fprintf(stderr, "note: skipped %llu unparseable frames\n",
                   static_cast<unsigned long long>(skipped));
    return records;
  }
  sim::LogReader reader(path);
  std::vector<sim::LogRecord> records;
  records.reserve(reader.total_records());
  while (auto r = reader.next()) records.push_back(*r);
  return records;
}

/// Stream every record of `path` through `fn`, batch by batch,
/// without materializing the log: --mmap uses the zero-copy mapped
/// reader, otherwise the buffered log reader streams in chunks. pcap
/// inputs have no streaming parser: they are parsed in one in-memory
/// pass and fed in slices of the same batch size, so no consumer
/// sizes its per-batch scratch to the whole capture.
/// Streaming loops check the drain signal between batches: on
/// SIGINT/SIGTERM the feed stops early and the caller's normal
/// flush/finalize path runs over what was read so far — spill files
/// get a real (fsync'd) count header and --metrics still dumps.
/// main() then maps the partial run to exit code 128+signo.
template <typename Fn>
void for_each_record_batch(const std::string& path, bool use_mmap, Fn&& fn) {
  constexpr std::size_t kBatch = 4'096;
  if (ends_with(path, ".pcap") || ends_with(path, ".cap")) {
    const auto records = load_records(path);
    const std::span<const sim::LogRecord> all{records};
    for (std::size_t i = 0; i < all.size(); i += kBatch) {
      if (util::ShutdownSignal::requested()) return;
      fn(all.subspan(i, std::min(kBatch, all.size() - i)));
    }
    return;
  }
  std::array<sim::LogRecord, kBatch> batch;
  if (use_mmap) {
    sim::MappedLogReader reader(path);
    for (std::size_t n; (n = reader.next_batch(batch.data(), batch.size())) > 0;) {
      if (util::ShutdownSignal::requested()) return;
      fn(std::span<const sim::LogRecord>{batch.data(), n});
    }
  } else {
    sim::LogReader reader(path);
    for (std::size_t n; (n = reader.next_batch(batch.data(), batch.size())) > 0;) {
      if (util::ShutdownSignal::requested()) return;
      fn(std::span<const sim::LogRecord>{batch.data(), n});
    }
  }
}

Options parse_options(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--agg") == 0) {
      o.agg = parse_int<int>("--agg", need_value("--agg"));
      if (o.agg < 0 || o.agg > 128) {
        std::fprintf(stderr, "error: --agg must be between 0 and 128, got %d\n", o.agg);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--min-dsts") == 0) {
      o.min_dsts = parse_int<std::uint32_t>("--min-dsts", need_value("--min-dsts"));
      if (o.min_dsts == 0) {
        std::fprintf(stderr, "error: --min-dsts must be at least 1\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      o.timeout_sec = parse_int<std::int64_t>("--timeout", need_value("--timeout"));
      if (o.timeout_sec < 1) {
        std::fprintf(stderr, "error: --timeout must be at least 1 second\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--top") == 0) {
      o.top = parse_int<std::size_t>("--top", need_value("--top"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      o.threads = parse_int<int>("--threads", need_value("--threads"));
      if (o.threads < 0) {
        std::fprintf(stderr, "error: --threads must be >= 0 (0 = auto), got %d\n",
                     o.threads);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--ring-cap") == 0) {
      o.ring_cap = parse_int<std::size_t>("--ring-cap", need_value("--ring-cap"));
      if (o.ring_cap < 8) {
        std::fprintf(stderr, "error: --ring-cap must be at least 8 slots, got %zu\n",
                     o.ring_cap);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--period") == 0) {
      o.period_sec = parse_int<std::int64_t>("--period", need_value("--period"));
      if (o.period_sec < 1) {
        std::fprintf(stderr, "error: --period must be at least 1 second\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--mmap") == 0) {
      o.mmap = true;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      o.report = true;
    } else if (std::strcmp(argv[i], "--events") == 0) {
      o.events_out = need_value("--events");
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      o.checkpoint = need_value("--checkpoint");
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      o.checkpoint_every =
          parse_int<std::uint64_t>("--checkpoint-every", need_value("--checkpoint-every"));
      if (o.checkpoint_every == 0) {
        std::fprintf(stderr, "error: --checkpoint-every must be at least 1 record\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      o.resume = true;
    } else if (std::strcmp(argv[i], "--cold-after") == 0) {
      o.cold_after_sec = parse_int<std::int64_t>("--cold-after", need_value("--cold-after"));
      if (o.cold_after_sec < 0) {
        std::fprintf(stderr, "error: --cold-after must be >= 0 (0 = off)\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (o.resume && o.checkpoint.empty()) {
    std::fprintf(stderr, "error: --resume needs --checkpoint <file>\n");
    std::exit(2);
  }
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

/// One shard's private sink chain: the analyzers (the full report
/// bundle, or just the per-source table) plus, with --events, the
/// shard's own spill file `<events>.shard<i>`. Each chain is fed on its
/// shard's worker thread; the analyzer states merge after flush, and
/// merge_shard_events() rebuilds the serial event order from the
/// spills. The bundle itself (analysis::ReportBundle) and the renderer
/// live in analysis/report_render.hpp, shared with the v6sonard query
/// plane.
struct ShardChain {
  core::FanOutSink fan;
  analysis::SourceAnalyzer sources_only;
  std::optional<analysis::ReportBundle> report;
  std::string name;        ///< "shard<i>": names its file and checkpoint sections
  std::string spill_path;  ///< empty without --events
  std::optional<core::EventWriter> spill;

  /// With `resume`, the spill reopens at its checkpointed cursor: the
  /// events written after it are dropped, and the resumed run emits
  /// them again.
  ShardChain(std::size_t shard, const Options& o, const core::CheckpointReader* resume)
      : name("shard" + std::to_string(shard)) {
    if (o.report) {
      report.emplace(o.top);
      report->attach(fan);
    } else {
      fan.add(sources_only);
    }
    if (o.events_out.empty()) return;
    spill_path = o.events_out + "." + name;
    constexpr auto kScratch = core::EventWriter::Durability::kScratch;
    if (resume) {
      auto r = resume->section(name + ".spill");
      const std::uint64_t count = r.u64();
      const std::uint64_t offset = r.u64();
      r.expect_end();
      spill.emplace(spill_path, count, offset, kScratch);
    } else {
      spill.emplace(spill_path, kScratch);
    }
    fan.add(*spill);
  }

  /// This shard's checkpoint sections, saved and sealed on its worker
  /// while it is quiesced (only worker s ever writes chain s, so this
  /// is race-free). The spill is synced first: its events must be
  /// durable before a checkpoint naming their cursor can commit.
  void save(const core::ScanDetector& det, std::vector<core::CheckpointSection>& out) {
    util::StateWriter dw, aw;
    det.save(dw);
    if (report)
      report->save(aw);
    else
      sources_only.save(aw);
    out.emplace_back(name + ".detector", std::move(dw));
    out.emplace_back(name + ".analyzers", std::move(aw));
    if (spill) {
      spill->checkpoint_sync();
      util::StateWriter sw;
      sw.u64(spill->written());
      sw.u64(spill->offset());
      out.emplace_back(name + ".spill", std::move(sw));
    }
  }

  void load(core::ScanDetector& det, const core::CheckpointReader& ck) {
    auto dr = ck.section(name + ".detector");
    det.load(dr);
    dr.expect_end();
    auto ar = ck.section(name + ".analyzers");
    if (report)
      report->load(ar);
    else
      sources_only.load(ar);
    ar.expect_end();
  }

  void merge(ShardChain&& other) {
    if (report)
      report->merge(std::move(*other.report));
    else
      sources_only.merge(std::move(other.sources_only));
  }
};

/// Print the shared rendering. `detect --report`, `report`, and the
/// daemon's report verb all emit render_report's bytes, so the three
/// paths are byte-identical by construction — anything run-specific
/// (e.g. the spill note) goes to stderr.
void print_report(const analysis::ReportBundle& a, std::size_t top) {
  const std::string text = analysis::render_report(a, top);
  std::fwrite(text.data(), 1, text.size(), stdout);
}

// ------------------------------------------------------------------ //
// Checkpoint plumbing (docs/CHECKPOINT.md). detect and ids run their
// sharded pipeline at every thread count. A checkpoint holds a "meta"
// section with the run shape and stream position, plus per-shard
// sections sealed on the shard workers: "shard<i>.detector",
// "shard<i>.analyzers" and, with --events, "shard<i>.spill" for
// detect; "shard<i>.ids" next to the caller-side "ids" for ids.

/// detect's meta section; its byte layout is unchanged since serial
/// runs wrote it, so sharded checkpoints of older versions resume.
struct DetectMeta {
  std::uint8_t sharded = 1;  ///< 0 only in older serial checkpoints
  std::uint32_t threads = 0;  ///< shard count
  std::uint8_t has_report = 0;
  std::uint8_t has_spill = 0;
  std::uint64_t records_fed = 0;
  std::uint64_t spill_count = 0;   ///< 0: the cursors are in "shard<i>.spill"
  std::uint64_t spill_offset = 0;  ///< 0: the cursors are in "shard<i>.spill"
};

void save_detect_meta(util::StateWriter& w, const DetectMeta& m) {
  w.u8(m.sharded);
  w.u32(m.threads);
  w.u8(m.has_report);
  w.u8(m.has_spill);
  w.u64(m.records_fed);
  w.u64(m.spill_count);
  w.u64(m.spill_offset);
}

DetectMeta load_detect_meta(util::StateReader& r) {
  DetectMeta m;
  m.sharded = r.u8();
  m.threads = r.u32();
  m.has_report = r.u8();
  m.has_spill = r.u8();
  m.records_fed = r.u64();
  m.spill_count = r.u64();
  m.spill_offset = r.u64();
  r.expect_end();
  return m;
}

/// The shard count of a run: --threads (default 1, 0 = one per
/// hardware thread), or on --resume the checkpoint's (`saved`). Shard
/// routing is a function of the shard count, so a resumed run refuses
/// an explicit --threads that differs.
int shard_count(const Options& o, std::optional<std::uint32_t> saved) {
  if (!saved) return o.threads < 0 ? 1 : o.threads;
  if (o.threads > 0 && static_cast<std::uint32_t>(o.threads) != *saved)
    throw std::runtime_error("checkpoint has " + std::to_string(*saved) +
                             " shards; got --threads " + std::to_string(o.threads));
  return static_cast<int>(*saved);
}

/// a + b, clamped at UINT64_MAX: a checkpoint cadence past the end of
/// any input means never, not a wrapped-around "at once".
constexpr std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// The run loop of detect and ids: stream `path` into `feed`, skipping
/// the first `skip` records (those a resumed checkpoint covers), and
/// with --checkpoint call `save(records fed)` every --checkpoint-every
/// records. An input that ends while records are still to be skipped
/// is not the one the checkpoint was taken on: that throws, unless a
/// drain signal cut the skip short (the run then exits 128+signo).
template <typename Feed, typename Save>
void run_records(const std::string& path, const Options& o, std::uint64_t skip, Feed&& feed,
                 Save&& save) {
  const std::uint64_t covered = skip;
  const auto next_after = [&](std::uint64_t fed) {
    return o.checkpoint.empty() ? UINT64_MAX : saturating_add(fed, o.checkpoint_every);
  };
  std::uint64_t fed = skip;
  std::uint64_t next_ckpt = next_after(fed);
  for_each_record_batch(path, o.mmap, [&](std::span<const sim::LogRecord> batch) {
    if (skip >= batch.size()) {
      skip -= batch.size();
      return;
    }
    batch = batch.subspan(skip);
    skip = 0;
    feed(batch);
    fed += batch.size();
    if (fed >= next_ckpt) {
      save(fed);
      next_ckpt = next_after(fed);
    }
  });
  if (skip > 0 && !util::ShutdownSignal::requested())
    throw std::runtime_error("the checkpoint covers " + std::to_string(covered) +
                             " records, but " + path + " holds only " +
                             std::to_string(covered - skip));
}

void write_detect_checkpoint(const Options& o, std::uint64_t fed,
                             core::ParallelScanPipeline& pipeline,
                             std::vector<std::unique_ptr<ShardChain>>& chains) {
  std::vector<std::vector<core::CheckpointSection>> sections(chains.size());
  pipeline.with_shard_state([&](std::size_t s, core::ScanDetector& det, core::ArtifactFilter*) {
    chains[s]->save(det, sections[s]);
  });
  core::CheckpointWriter ck;
  util::StateWriter mw;
  save_detect_meta(mw, {.threads = static_cast<std::uint32_t>(chains.size()),
                        .has_report = o.report,
                        .has_spill = !o.events_out.empty(),
                        .records_fed = fed});
  ck.add("meta", std::move(mw));
  for (auto& shard : sections)
    for (auto& section : shard) ck.add(std::move(section));
  ck.commit(o.checkpoint);
}

/// After flush(): merge the shard spills into --events in the serial
/// event order — one fsync, on close — then delete them, unless a
/// drained checkpointing run may still resume from them.
void merge_spills(const Options& o, const core::ParallelScanPipeline& pipeline,
                  std::vector<std::unique_ptr<ShardChain>>& chains) {
  std::vector<std::unique_ptr<core::EventReader>> readers;
  for (auto& c : chains) {
    c->spill->close();
    readers.push_back(std::make_unique<core::EventReader>(c->spill_path, 1 << 16));
  }
  core::EventWriter out(o.events_out);
  pipeline.merge_shard_events(
      [&](std::size_t s, core::ScanEvent& ev) { return readers[s]->next(ev); }, out);
  // Explicit close: the count header is backpatched and fsync'd before
  // we report success (interrupted runs included — the drain stopped
  // the feed, not the finalize).
  out.close();
  std::fprintf(stderr, "spilled %llu events to %s\n",
               static_cast<unsigned long long>(out.written()), o.events_out.c_str());
  readers.clear();
  if (o.checkpoint.empty() || !util::ShutdownSignal::requested())
    for (const auto& c : chains) std::filesystem::remove(c->spill_path);
}

int cmd_detect(const std::string& path, const Options& o) {
  const core::DetectorConfig cfg{.source_prefix_len = o.agg,
                                 .min_destinations = o.min_dsts,
                                 .timeout_us = o.timeout_sec * 1'000'000,
                                 .demote_idle_us = o.cold_after_sec * 1'000'000};

  std::optional<core::CheckpointReader> ck;
  DetectMeta resumed;
  if (o.resume) {
    ck.emplace(o.checkpoint);
    auto mr = ck->section("meta");
    resumed = load_detect_meta(mr);
    if (!resumed.sharded)
      throw std::runtime_error(o.checkpoint +
                               " was written by the serial detector of an older version, "
                               "which no longer resumes; run again without --resume");
    if ((resumed.has_report != 0) != o.report)
      throw std::runtime_error("checkpoint --report setting does not match this run");
    if ((resumed.has_spill != 0) != !o.events_out.empty())
      throw std::runtime_error("checkpoint --events setting does not match this run");
  }

  // Events stream from each shard's detector straight into its chain
  // — no event set is ever materialized, so memory is bounded by
  // active sources. The report and the spill are byte-identical at
  // every shard count.
  std::vector<std::unique_ptr<ShardChain>> chains;
  core::ParallelScanPipeline pipeline(
      cfg,
      {.threads = shard_count(o, ck ? std::optional(resumed.threads) : std::nullopt),
       .ring_capacity = o.ring_cap},
      core::ParallelScanPipeline::ShardSinkFactory([&](std::size_t s) -> core::EventSink& {
        chains.push_back(std::make_unique<ShardChain>(s, o, ck ? &*ck : nullptr));
        return chains.back()->fan;
      }));
  if (ck)
    // Each shard's saved state goes in on its own worker thread,
    // before the first record reaches any ring.
    pipeline.with_shard_state([&](std::size_t s, core::ScanDetector& det, core::ArtifactFilter*) {
      chains[s]->load(det, *ck);
    });
  run_records(
      path, o, resumed.records_fed,
      [&](std::span<const sim::LogRecord> batch) { pipeline.feed_batch(batch); },
      [&](std::uint64_t fed) { write_detect_checkpoint(o, fed, pipeline, chains); });
  pipeline.flush();
  if (!o.events_out.empty()) merge_spills(o, pipeline, chains);
  // Fold every shard's analyzers into shard 0's chain, then flush that
  // chain once.
  for (std::size_t s = 1; s < chains.size(); ++s) chains[0]->merge(std::move(*chains[s]));
  chains[0]->fan.flush();

  if (o.report) {
    print_report(*chains[0]->report, o.top);
    return 0;
  }

  const analysis::SourceAnalyzer& merged = chains[0]->sources_only;
  const auto t = merged.totals();
  std::printf("%llu scans from %llu /%d sources (%llu packets attributed)\n",
              static_cast<unsigned long long>(t.scans),
              static_cast<unsigned long long>(t.sources), o.agg,
              static_cast<unsigned long long>(t.packets));

  auto sources = merged.sources();
  std::sort(sources.begin(), sources.end(),
            [](const analysis::SourceReport& a, const analysis::SourceReport& b) {
              return a.packets > b.packets;
            });
  util::TextTable table({"source", "scans", "packets", "max dsts/scan"});
  for (std::size_t i = 0; i < std::min(o.top, sources.size()); ++i) {
    const auto& s = sources[i];
    table.add_row({s.source.to_string(), util::with_commas(s.scans),
                   util::with_commas(s.packets), util::with_commas(s.distinct_dsts_max)});
  }
  std::printf("%s", table.render().c_str());
  if (sources.size() > o.top) std::printf("(+%zu more sources)\n", sources.size() - o.top);
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
  print_report(analyzers, o.top);
  return 0;
}

/// Streaming multi-level IDS (§5): alert lines as attribution passes
/// fire, then the final blocklist — the same at every --threads.
/// Checkpoints hold "meta" (records fed, alerts printed, shard count)
/// next to ParallelIds' own sections.
int cmd_ids(const std::string& path, const Options& o) {
  core::IdsConfig cfg;
  cfg.min_destinations = o.min_dsts;
  cfg.timeout_us = o.timeout_sec * 1'000'000;
  cfg.reattribution_period_us = o.period_sec * 1'000'000;

  std::optional<core::CheckpointReader> ck;
  std::uint64_t skip = 0;
  std::uint64_t alerts = 0;  // the summary line counts pre-checkpoint alerts too
  std::optional<std::uint32_t> saved_shards;
  if (o.resume) {
    ck.emplace(o.checkpoint);
    if (!ck->has("shard0.ids"))
      throw std::runtime_error(o.checkpoint +
                               " was written by the serial ids of an older version, "
                               "which no longer resumes; run again without --resume");
    auto mr = ck->section("meta");
    skip = mr.u64();
    alerts = mr.u64();
    saved_shards = mr.u32();
    mr.expect_end();
  }

  const auto sink = [&](const core::IdsAlert& a) {
    ++alerts;
    std::printf("alert %-10s %s  %s /%d  packets=%llu\n", a.is_new ? "new" : "escalation",
                util::format_datetime(sim::seconds_of(a.at_us)).c_str(),
                a.attribution.source.to_string().c_str(), a.attribution.level,
                static_cast<unsigned long long>(a.attribution.packets));
  };
  core::ParallelIds ids(cfg, {.threads = shard_count(o, saved_shards), .ring_capacity = o.ring_cap},
                        sink);
  if (ck) ids.resume(*ck);
  run_records(
      path, o, skip, [&](std::span<const sim::LogRecord> batch) { ids.feed_batch(batch); },
      [&](std::uint64_t fed) {
        core::CheckpointWriter w;
        ids.checkpoint(w);  // delivers every finished pass first: `alerts` is current
        util::StateWriter mw;
        mw.u64(fed);
        mw.u64(alerts);
        mw.u32(static_cast<std::uint32_t>(ids.threads()));
        w.add("meta", std::move(mw));
        w.commit(o.checkpoint);
      });
  ids.flush();

  const std::vector<core::Attribution> blocklist = ids.blocklist();
  std::printf("%llu alerts; final blocklist (%zu entries):\n",
              static_cast<unsigned long long>(alerts), blocklist.size());
  util::TextTable table({"blocked prefix", "level", "packets", "covered sources"});
  for (const auto& a : blocklist) {
    std::string level = "/";
    level += std::to_string(a.level);
    table.add_row({a.source.to_string(), std::move(level), util::with_commas(a.packets),
                   util::with_commas(a.children)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_fh(const std::string& path, const Options& o) {
  core::FhAccumulator acc({.source_prefix_len = o.agg, .min_destinations = o.min_dsts});
  for_each_record_batch(path, o.mmap, [&](std::span<const sim::LogRecord> batch) {
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
  sim::LogReader reader(in);
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

int cmd_adaptive(const std::string& path) {
  // The IDS ladder at its default thresholds, summary-only: streamed
  // batch by batch, so memory is bounded by the active sources.
  const core::IdsConfig ids;
  std::vector<std::vector<core::ScanEvent>> events(ids.adaptive.ladder.size());
  {
    std::vector<std::unique_ptr<core::ScanDetector>> detectors;
    for (std::size_t i = 0; i < events.size(); ++i)
      detectors.push_back(std::make_unique<core::ScanDetector>(
          core::ladder_detector_config(ids, i),
          [&events, i](core::ScanEvent&& ev) { events[i].push_back(std::move(ev)); }));
    for_each_record_batch(path, false, [&](std::span<const sim::LogRecord> batch) {
      for (auto& d : detectors) d->feed_batch(batch);
    });
    for (auto& d : detectors) d->flush();
  }
  const auto attributions = core::attribute_adaptive(events, ids.adaptive);
  util::TextTable table({"attributed prefix", "level", "packets", "covered sources"});
  for (const auto& a : attributions) {
    // Built with += (not operator+) to dodge GCC 12's -Wrestrict false
    // positive on const char* + std::string&&.
    std::string level = "/";
    level += std::to_string(a.level);
    table.add_row({a.source.to_string(), std::move(level), util::with_commas(a.packets),
                   util::with_commas(a.children)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_fingerprint(const std::string& path, const Options& o) {
  // pcap inputs have no streaming parser: parse once and reuse the
  // records across both passes. .v6slog inputs are streamed twice in
  // batches, so memory stays bounded by active sources.
  const bool is_pcap = ends_with(path, ".pcap") || ends_with(path, ".cap");
  std::vector<sim::LogRecord> pcap_records;
  if (is_pcap) pcap_records = load_records(path);
  const auto each_batch = [&](auto&& fn) {
    if (is_pcap)
      fn(std::span<const sim::LogRecord>{pcap_records});
    else
      for_each_record_batch(path, o.mmap, fn);
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
  if (std::sscanf(date.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
    std::fprintf(stderr, "error: date must be YYYY-MM-DD\n");
    return 2;
  }
  const int day = mawi::day_index(util::CivilDate{y, m, d});
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

/// Write the metrics snapshot as JSON to `file` (stdout when empty).
/// File output is fsync'd before success is reported — the metrics
/// dump is a run's only record of what the pipeline did, and it often
/// happens right before process exit (including interrupted runs).
void dump_metrics(const std::string& file) {
  util::note_max_rss();  // peak RSS rides in every snapshot
  const std::string json = util::metrics::snapshot().to_json();
  if (file.empty()) {
    std::printf("%s\n", json.c_str());
    return;
  }
  std::FILE* f = std::fopen(file.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n", file.c_str());
    return;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF && util::flush_to_disk(f);
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "error: metrics write to %s failed\n", file.c_str());
    return;
  }
  std::fprintf(stderr, "metrics written to %s\n", file.c_str());
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

bool query_send(int fd, daemon::Verb verb, const std::string& payload, std::uint16_t seq) {
  daemon::Frame f;
  f.verb = static_cast<std::uint8_t>(verb);
  f.seq = seq;
  f.payload = payload;
  const std::string wire = daemon::encode_frame(f);
  if (util::write_fully(fd, wire.data(), wire.size())) return true;
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
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: v6sonar query <socket> <verb> [arg] [--top <n>] [--count <n>]\n"
                 "       [--timeout-sec <s>] [--wait-key <key> [--wait-min <n>]]\n"
                 "verbs: ping status report top-sources top-ports as-report blocklist\n"
                 "       metrics subscribe ingest shutdown set-period checkpoint\n");
    return 2;
  }
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
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--top") == 0) {
      q.top = parse_int<std::size_t>("--top", need_value("--top"));
    } else if (std::strcmp(argv[i], "--count") == 0) {
      q.count = parse_int<std::size_t>("--count", need_value("--count"));
    } else if (std::strcmp(argv[i], "--timeout-sec") == 0) {
      q.timeout_sec = parse_int<std::size_t>("--timeout-sec", need_value("--timeout-sec"));
    } else if (std::strcmp(argv[i], "--wait-key") == 0) {
      q.wait_key = need_value("--wait-key");
    } else if (std::strcmp(argv[i], "--wait-min") == 0) {
      q.wait_min = parse_int<std::uint64_t>("--wait-min", need_value("--wait-min"));
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

  // ingest <file.v6slog>: push the file's records through the socket
  // in chunks, awaiting the ack for each.
  if (verb == daemon::Verb::kIngest) {
    if (arg.empty()) {
      std::fprintf(stderr, "error: ingest needs a .v6slog file argument\n");
      return 2;
    }
    sim::LogReader reader(arg);
    std::array<sim::LogRecord, 4'096> batch;
    std::uint64_t pushed = 0;
    for (std::size_t n; (n = reader.next_batch(batch.data(), batch.size())) > 0;) {
      std::string payload(n * sim::kLogRecordBytes, '\0');
      for (std::size_t i = 0; i < n; ++i)
        sim::encode_record(batch[i],
                           reinterpret_cast<std::uint8_t*>(payload.data()) +
                               i * sim::kLogRecordBytes);
      if (!query_send(fd.get(), verb, payload, seq)) return 1;
      daemon::Frame resp;
      if (!query_read(fd.get(), decoder, resp, deadline)) return 1;
      if (resp.status != static_cast<std::uint8_t>(daemon::Status::kOk)) {
        std::fprintf(stderr, "error: %s", resp.payload.c_str());
        return 1;
      }
      pushed += n;
      ++seq;
    }
    std::printf("ingested %llu records\n", static_cast<unsigned long long>(pushed));
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
    if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
    if (cmd == "detect" && argc >= 3) return cmd_detect(argv[2], parse_options(argc, argv, 3));
    if (cmd == "report" && argc >= 3) return cmd_report(argv[2], parse_options(argc, argv, 3));
    if (cmd == "ids" && argc >= 3) return cmd_ids(argv[2], parse_options(argc, argv, 3));
    if (cmd == "fh" && argc >= 3) return cmd_fh(argv[2], parse_options(argc, argv, 3));
    if (cmd == "filter" && argc >= 4) return cmd_filter(argv[2], argv[3]);
    if (cmd == "adaptive" && argc >= 3) return cmd_adaptive(argv[2]);
    if (cmd == "fingerprint" && argc >= 3)
      return cmd_fingerprint(argv[2], parse_options(argc, argv, 3));
    if (cmd == "generate" && argc >= 3)
      return cmd_generate(argv[2], argc >= 4 && std::strcmp(argv[3], "--small") == 0);
    if (cmd == "mawi-day" && argc >= 4) return cmd_mawi_day(argv[2], argv[3]);
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
  if (metrics_on) dump_metrics(metrics_file);
  // Interrupted-but-drained runs report the conventional 128+signo
  // (130 SIGINT, 143 SIGTERM): outputs are finalized, analysis is
  // partial. See README "Interrupting long runs".
  if (rc == 0 && v6sonar::util::ShutdownSignal::requested())
    rc = v6sonar::util::ShutdownSignal::exit_code();
  return rc;
}
