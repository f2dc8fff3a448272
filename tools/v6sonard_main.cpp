// v6sonard — the long-running telescope daemon (docs/DAEMON.md).
//
// Tails a collector's .v6slog (surviving rotation and truncation)
// and/or accepts records pushed over its Unix-domain socket, runs the
// streaming detection pipeline continuously, and serves the query/
// control plane: reports rendered from live snapshot state, scan-event
// subscription, blocklist, metrics. `v6sonar query` is the matching
// client. SIGINT/SIGTERM (or the shutdown verb) triggers a graceful
// drain; exit code 0 means every output file was finalized.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_args.hpp"
#include "daemon/server.hpp"
#include "util/metrics.hpp"

namespace {

using namespace v6sonar;
using cli::parse_int;
using cli::parse_seconds;

[[noreturn]] void usage() {
  std::fputs(
      "usage: v6sonard --socket <path> [options]\n"
      "\n"
      "Long-running scan-detection daemon: continuous ingestion, live\n"
      "queries, graceful drain on SIGINT/SIGTERM. See docs/DAEMON.md.\n"
      "\n"
      "options:\n"
      "  --socket <path>        Unix-domain socket to serve on (required)\n"
      "  --tail <file.v6slog>   follow this log as it grows; survives\n"
      "                         rotation and truncation (tail -F style);\n"
      "                         without it, records arrive via `v6sonar\n"
      "                         query <sock> ingest`\n"
      "  --agg <len>            source aggregation prefix length (default 64)\n"
      "  --min-dsts <n>         minimum distinct destinations (default 100)\n"
      "  --timeout <sec>        scan inter-packet timeout (default 3600)\n"
      "  --threads <n>          detection shards (default 1; 0 = one per\n"
      "                         hardware thread)\n"
      "  --ring-cap <n>         records buffered per worker ring (default\n"
      "                         16384, minimum 8)\n"
      "  --top <n>              default rows in report verbs (default 20)\n"
      "  --snapshot-every <n>   events a shard folds between snapshot\n"
      "                         publishes (default 32; 1 = publish every\n"
      "                         event, freshest queries)\n"
      "  --client-timeout <ms>  drop a client stalled mid-frame or mid-\n"
      "                         response for this long (default 5000)\n"
      "  --events <file.v6ev>   spill every scan event; finalized (fsync'd\n"
      "                         count header) during drain\n"
      "  --metrics[=FILE]       enable pipeline metrics; JSON written to\n"
      "                         FILE (fsync'd) or stdout at drain\n"
      "  --cold-after <sec>     demote sources idle this long to the compact\n"
      "                         cold tier (must be < --timeout; default off)\n"
      "  --checkpoint <file>    state checkpoint file: restored on start if\n"
      "                         it exists, written by the checkpoint verb\n"
      "                         (`v6sonar query <sock> checkpoint`)\n"
      "  --period <sec>         blocklist re-attribution cadence (0 = on\n"
      "                         demand only; the set-period verb adjusts\n"
      "                         this at runtime)\n",
      stderr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  daemon::DaemonOptions opts;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      opts.socket_path = need_value("--socket");
    } else if (std::strcmp(argv[i], "--tail") == 0) {
      opts.tail_path = need_value("--tail");
    } else if (std::strcmp(argv[i], "--agg") == 0) {
      opts.detector.source_prefix_len = parse_int<int>("--agg", need_value("--agg"));
      if (opts.detector.source_prefix_len < 0 || opts.detector.source_prefix_len > 128) {
        std::fprintf(stderr, "error: --agg must be between 0 and 128\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--min-dsts") == 0) {
      opts.detector.min_destinations =
          parse_int<std::uint32_t>("--min-dsts", need_value("--min-dsts"));
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      const auto sec = parse_seconds("--timeout", need_value("--timeout"));
      if (sec < 1) {
        std::fprintf(stderr, "error: --timeout must be at least 1 second\n");
        return 2;
      }
      opts.detector.timeout_us = sec * 1'000'000;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = parse_int<int>("--threads", need_value("--threads"));
      if (opts.threads < 0) {
        std::fprintf(stderr, "error: --threads must be >= 0 (0 = auto)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ring-cap") == 0) {
      opts.ring_capacity = parse_int<std::size_t>("--ring-cap", need_value("--ring-cap"));
      if (opts.ring_capacity < 8) {
        std::fprintf(stderr, "error: --ring-cap must be at least 8 slots\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--top") == 0) {
      opts.top = parse_int<std::size_t>("--top", need_value("--top"));
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0) {
      opts.snapshot_every =
          parse_int<std::size_t>("--snapshot-every", need_value("--snapshot-every"));
      if (opts.snapshot_every == 0) {
        std::fprintf(stderr, "error: --snapshot-every must be at least 1\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--client-timeout") == 0) {
      opts.client_timeout_ms =
          parse_int<int>("--client-timeout", need_value("--client-timeout"));
      if (opts.client_timeout_ms < 1) {
        std::fprintf(stderr, "error: --client-timeout must be at least 1 ms\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--events") == 0) {
      opts.events_out = need_value("--events");
    } else if (std::strcmp(argv[i], "--cold-after") == 0) {
      const auto sec = parse_seconds("--cold-after", need_value("--cold-after"));
      if (sec < 0) {
        std::fprintf(stderr, "error: --cold-after must be >= 0\n");
        return 2;
      }
      opts.detector.demote_idle_us = sec * 1'000'000;
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      opts.checkpoint_path = need_value("--checkpoint");
    } else if (std::strcmp(argv[i], "--period") == 0) {
      opts.reattribution_period_s = parse_seconds("--period", need_value("--period"));
      if (opts.reattribution_period_s < 0) {
        std::fprintf(stderr, "error: --period must be >= 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opts.write_metrics = true;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      opts.write_metrics = true;
      opts.metrics_out = argv[i] + 10;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      usage();
    }
  }
  if (opts.socket_path.empty()) usage();
  if (opts.write_metrics) v6sonar::util::metrics::enable(true);

  try {
    daemon::Daemon d(std::move(opts));
    return d.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "v6sonard: %s\n", e.what());
    return 1;
  }
}
