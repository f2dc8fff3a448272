// v6sonard: the long-running telescope daemon.
//
// One process, three kinds of threads:
//
//   ingest thread    tails the collector's .v6slog (LogTailer) and/or
//                    accepts records pushed over the socket (kIngest),
//                    and feeds them into a ParallelScanPipeline
//   worker threads   the pipeline's shards: detection plus the
//                    per-shard sink chain (event forwarder + snapshot
//                    publisher), owned entirely by the pipeline
//   server thread    the poll() loop: Unix-domain listener, client
//                    framing, query verbs rendered from the snapshot
//                    hub, subscription push, and the drain sequence
//
// Queries never touch worker state: they render from the SnapshotHub
// master bundle, fed by the workers' published deltas (see
// snapshot.hpp). The hot path's only cross-thread work is a mutex'd
// vector push (event forwarding) and a mutex'd slot move (snapshot
// publish) — readers can be arbitrarily slow without stalling
// detection.
//
// Shutdown (SIGINT/SIGTERM via util::ShutdownSignal, or the kShutdown
// verb) runs the graceful drain: stop accepting, stop and join
// ingestion (pipeline flush finalizes in-flight state), publish and
// merge the final snapshots, deliver the last events, finalize the
// --events spill and --metrics file (fsync'd), flush client output,
// exit 0. A second signal force-exits 128+signo. docs/DAEMON.md
// specifies the wire protocol and these semantics in full.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/detector.hpp"

namespace v6sonar::daemon {

struct DaemonOptions {
  std::string socket_path;  ///< Unix-domain socket to serve on (required)
  std::string tail_path;    ///< .v6slog to tail; empty = socket ingest only
  core::DetectorConfig detector;
  /// Pipeline shards: -1 when not given (one, or the checkpoint's on
  /// restore); 0 = one per hardware thread. An explicit count that
  /// differs from the checkpoint's is refused.
  int threads = -1;
  std::size_t ring_capacity = 1 << 14;
  std::size_t top = 20;          ///< table depth for report verbs
  std::size_t snapshot_every = 32;  ///< events per shard between snapshot publishes
  int client_timeout_ms = 5'000;    ///< mid-frame read / pending-write stall cap
  int poll_interval_ms = 50;        ///< tail poll + housekeeping cadence
  std::size_t max_client_buffer = 64u << 20;  ///< per-client outbuf cap
  std::string events_out;    ///< optional .v6ev spill of every event
  std::string metrics_out;   ///< metrics JSON written at drain ("" = none,
                             ///< "-" = stdout)
  bool write_metrics = false;
  std::string checkpoint_path;  ///< checkpoint file: restored on start if it
                                ///< exists, default target of kCheckpoint
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions opts);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serve until a drain is requested; returns the process exit code
  /// (0 after a clean drain). Runs on the calling thread.
  int run();

  /// Request a graceful drain (thread-safe; also wired to kShutdown).
  void request_stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace v6sonar::daemon
