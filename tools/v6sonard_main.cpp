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
using cli::fail;
using cli::value_of;

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
      "  --threads <n>          detection shards (default 1, or the\n"
      "                         checkpoint's on restore, which refuses a\n"
      "                         different count; 0 = one per hardware thread)\n"
      "  --ring-cap <n>         records buffered per worker ring (default\n"
      "                         16384, minimum 8)\n"
      "  --top <n>              default rows in report verbs (default 20)\n"
      "  --snapshot-every <n>   events a shard folds between snapshot\n"
      "                         publishes (default 32; 1 = publish every\n"
      "                         event, freshest queries)\n"
      "  --client-timeout <ms>  drop a client stalled mid-frame or mid-\n"
      "                         response for this long (default 5000)\n"
      "  --events <file.v6ev>   spill every scan event, in the order `v6sonar\n"
      "                         detect --events` writes; finalized (fsync'd\n"
      "                         count header) during drain\n"
      "  --metrics[=FILE]       enable pipeline metrics; JSON written to\n"
      "                         FILE (fsync'd) or stdout at drain\n"
      "  --cold-after <sec>     demote sources idle this long to the compact\n"
      "                         cold tier (must be < --timeout; default off)\n"
      "  --checkpoint <file>    state checkpoint file: restored on start if\n"
      "                         it exists (--tail resumes at its cursor),\n"
      "                         written by the checkpoint verb (`v6sonar\n"
      "                         query <sock> checkpoint`); with --events the\n"
      "                         shard spills <file.v6ev>.shard<i> are kept\n"
      "                         for the next restore\n",
      stderr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  daemon::DaemonOptions opts;
  cli::RunOptions run;
  for (int i = 1; i < argc; ++i) {
    if (cli::parse_run_option(run, argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--socket") == 0) {
      opts.socket_path = value_of(argc, argv, i);
    } else if (std::strcmp(argv[i], "--tail") == 0) {
      opts.tail_path = value_of(argc, argv, i);
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0) {
      opts.snapshot_every =
          parse_int<std::size_t>("--snapshot-every", value_of(argc, argv, i));
      if (opts.snapshot_every == 0) fail("--snapshot-every must be at least 1");
    } else if (std::strcmp(argv[i], "--client-timeout") == 0) {
      opts.client_timeout_ms =
          parse_int<int>("--client-timeout", value_of(argc, argv, i));
      if (opts.client_timeout_ms < 1) fail("--client-timeout must be at least 1 ms");
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
  opts.detector = {.source_prefix_len = run.agg,
                   .min_destinations = run.min_dsts,
                   .timeout_us = run.timeout_sec * 1'000'000,
                   .demote_idle_us = run.cold_after_sec * 1'000'000};
  opts.threads = run.threads;
  opts.ring_capacity = run.ring_cap;
  opts.top = run.top;
  opts.events_out = run.events_out;
  opts.checkpoint_path = run.checkpoint;
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
