#include "daemon/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/report_render.hpp"
#include "core/adaptive.hpp"
#include "core/detect_run.hpp"
#include "core/event_sink.hpp"
#include "core/state_codec.hpp"
#include "core/streaming_ids.hpp"
#include "daemon/framing.hpp"
#include "daemon/log_tail.hpp"
#include "daemon/protocol.hpp"
#include "daemon/snapshot.hpp"
#include "sim/log_io.hpp"
#include "util/fdio.hpp"
#include "util/metrics.hpp"
#include "util/process_stats.hpp"
#include "util/signal_drain.hpp"
#include "util/state_io.hpp"
#include "util/timebase.hpp"

namespace v6sonar::daemon {

namespace {

using analysis::appendf;
using Clock = std::chrono::steady_clock;

struct ServerMetrics {
  util::metrics::Counter accepted{"daemon.clients.accepted"};
  util::metrics::Counter disconnects{"daemon.clients.disconnects"};
  util::metrics::Counter dropped_timeout{"daemon.clients.dropped_timeout"};
  util::metrics::Counter dropped_overflow{"daemon.clients.dropped_overflow"};
  util::metrics::Counter frames_rx{"daemon.frames.rx"};
  util::metrics::Counter frames_tx{"daemon.frames.tx"};
  util::metrics::Counter frames_malformed{"daemon.frames.malformed"};
  util::metrics::Counter queries{"daemon.queries.served"};
  util::metrics::Histogram query_us{"daemon.queries.us"};
  util::metrics::Counter ingest_records{"daemon.ingest.records"};
  util::metrics::Counter socket_records{"daemon.ingest.socket_records"};
  util::metrics::Counter events_tx{"daemon.subscribe.events_tx"};
  util::metrics::Gauge drain_us{"daemon.drain.duration_us"};
  util::metrics::Counter checkpoints{"daemon.checkpoints.written"};
  util::metrics::Counter reattributions{"daemon.reattribution.passes"};
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

/// Multi-producer event mailbox between the pipeline's worker threads
/// and the server thread, with a pipe the poll() loop can wait on.
/// Workers pay one mutex'd push_back; the server swaps the whole
/// vector out — the hot path never waits on a reader.
class EventQueue {
 public:
  EventQueue() { std::tie(rd_, wr_) = util::nonblocking_pipe(); }

  void push(core::ScanEvent&& ev) {
    bool signal = false;
    {
      std::lock_guard lock(mu_);
      items_.push_back(std::move(ev));
      if (!signaled_) {
        signaled_ = true;
        signal = true;
      }
    }
    if (signal) wake();
  }

  /// Make the pipe readable without enqueueing (ingest-error path).
  void wake() noexcept {
    const char b = 1;
    [[maybe_unused]] ssize_t rc = ::write(wr_.get(), &b, 1);
  }

  [[nodiscard]] std::vector<core::ScanEvent> take() {
    // Drain the pipe BEFORE swapping: a byte written after the drain
    // but before the swap is a harmless extra wake-up, while the
    // reverse order could consume a wake whose events we don't take.
    char buf[64];
    while (::read(rd_.get(), buf, sizeof buf) > 0) {
    }
    std::vector<core::ScanEvent> out;
    std::lock_guard lock(mu_);
    out.swap(items_);
    signaled_ = false;
    return out;
  }

  [[nodiscard]] int fd() const noexcept { return rd_.get(); }

 private:
  std::mutex mu_;
  std::vector<core::ScanEvent> items_;
  bool signaled_ = false;
  util::UniqueFd rd_, wr_;
};

/// One shard's sink chain: forward into the queue (copy), then publish
/// (move). DetectRun spills behind it.
struct ShardChain {
  core::FunctionSink forwarder;
  SnapshotPublisher publisher;
  core::FanOutSink fan;

  ShardChain(EventQueue& q, ShardSnapshotSlot& slot, std::size_t every, std::size_t top)
      : forwarder([&q](core::ScanEvent&& ev) { q.push(std::move(ev)); }),
        publisher(slot, every, top) {
    fan.add(forwarder);
    fan.add(publisher);
  }
};

struct Client {
  util::UniqueFd fd;
  FrameDecoder decoder;
  std::string outbuf;
  std::size_t out_pos = 0;
  bool subscribed = false;
  bool closing = false;  ///< flush outbuf, then close
  bool dead = false;
  Clock::time_point last_progress = Clock::now();
};

/// The kError text refusing an ingest frame whose record at `ts` would
/// follow one at `after`.
std::string out_of_order(sim::TimeUs ts, sim::TimeUs after) {
  return "ingest records must be time-ordered: ts " + std::to_string(ts) + " after ts " +
         std::to_string(after) + "; frame refused\n";
}

}  // namespace

struct Daemon::Impl {
  DaemonOptions opts;

  util::UniqueFd listener;
  util::UniqueFd stop_rd, stop_wr;
  std::atomic<bool> stop_requested{false};

  EventQueue queue;
  SnapshotHub hub;  ///< slots registered by the pipeline's sink factory
  std::vector<std::unique_ptr<ShardChain>> chains;
  std::optional<core::DetectRun> run_state;  ///< the pipeline and, with --events, its shard spills
  std::optional<LogTailer> tailer;

  std::thread ingest;
  std::mutex ingest_mu;
  std::condition_variable ingest_cv;
  std::vector<sim::LogRecord> pushed_records;  ///< guarded by ingest_mu
  /// The last accepted socket record's timestamp; guarded by ingest_mu.
  sim::TimeUs last_pushed_us = INT64_MIN;
  std::vector<sim::LogRecord> ingest_frame;    ///< kIngest decode buffer (server thread)
  std::atomic<bool> ingest_stop{false};
  std::atomic<bool> ingest_pause{false};  ///< checkpoint quiesce request
  bool ingest_paused = false;             ///< guarded by ingest_mu
  std::atomic<std::uint64_t> ingested{0};
  std::mutex error_mu;
  std::string ingest_error;  ///< guarded by error_mu

  std::vector<std::unique_ptr<Client>> clients;
  /// Blocklist state (server thread): the IDS attributor on a
  /// one-rung ladder at the detector's aggregation.
  core::Attributor attributor{core::AdaptiveConfig{.ladder = {opts.detector.source_prefix_len}}};
  std::uint64_t events_seen = 0;
  bool draining = false;

  // Re-attribution control plane (server thread only). With a period
  // set, the blocklist is recomputed on that cadence and kBlocklist
  // serves the cached pass; at 0 every kBlocklist computes on demand.
  std::int64_t period_s = 0;
  Clock::time_point next_pass{};
  std::string cached_blocklist;
  bool blocklist_cached = false;

  // The stop pipe must exist before run() is called: request_stop()
  // may race with startup from another thread, and it reads stop_wr.
  explicit Impl(DaemonOptions o) : opts(std::move(o)), hub(0, opts.top) {
    period_s = opts.reattribution_period_s;
    std::tie(stop_rd, stop_wr) = util::nonblocking_pipe();
  }

  // ---------------- setup ----------------

  void setup_listener() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socket_path.empty() || opts.socket_path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("daemon: socket path empty or too long: " + opts.socket_path);
    std::memcpy(addr.sun_path, opts.socket_path.c_str(), opts.socket_path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("daemon: cannot create socket");
    listener.reset(fd);
    ::unlink(opts.socket_path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error("daemon: cannot bind " + opts.socket_path);
    if (::listen(fd, 64) != 0)
      throw std::runtime_error("daemon: cannot listen on " + opts.socket_path);
  }

  // ---------------- ingest thread ----------------

  void set_ingest_error(const std::string& what) {
    {
      std::lock_guard lock(error_mu);
      if (ingest_error.empty()) ingest_error = what;
    }
    queue.wake();  // unblock the poll loop so it notices
  }

  [[nodiscard]] std::string get_ingest_error() {
    std::lock_guard lock(error_mu);
    return ingest_error;
  }

  /// Feed what the tailer and the socket delivered since the last call;
  /// returns the record count.
  std::size_t feed_once(std::vector<sim::LogRecord>& tailed, std::vector<sim::LogRecord>& pushed) {
    tailed.clear();
    if (tailer) tailer->poll([&](const sim::LogRecord& r) { tailed.push_back(r); });
    if (!tailed.empty()) run_state->feed_batch(tailed);
    pushed.clear();
    {
      std::lock_guard lock(ingest_mu);
      pushed.swap(pushed_records);
    }
    if (!pushed.empty()) run_state->feed_batch(pushed);
    const std::size_t n = tailed.size() + pushed.size();
    ingested.fetch_add(n, std::memory_order_relaxed);
    if (n > 0) server_metrics().ingest_records.add(n);
    return n;
  }

  void ingest_main() {
    std::vector<sim::LogRecord> tail_batch, push_batch;
    try {
      while (!ingest_stop.load(std::memory_order_relaxed)) {
        if (ingest_pause.load(std::memory_order_acquire)) {
          // Checkpoint quiesce: park between batches so the server
          // thread is the only one touching the pipeline's feeder.
          std::unique_lock lock(ingest_mu);
          ingest_paused = true;
          ingest_cv.notify_all();
          ingest_cv.wait(lock, [this] {
            return !ingest_pause.load(std::memory_order_acquire) ||
                   ingest_stop.load(std::memory_order_relaxed);
          });
          ingest_paused = false;
          continue;
        }
        if (feed_once(tail_batch, push_batch) > 0) continue;  // keep draining while data flows
        std::unique_lock lock(ingest_mu);
        if (pushed_records.empty() && !ingest_stop.load(std::memory_order_relaxed))
          ingest_cv.wait_for(lock, std::chrono::milliseconds(opts.poll_interval_ms));
      }
      // Drain request: pick up whatever arrived before the stop (the
      // tailer hands a backlog over in capped slices), then flush — the
      // pipeline joins its workers and every in-flight finalizable
      // event reaches the shard chains.
      do feed_once(tail_batch, push_batch);
      while (tail_batch.size() == LogTailer::kMaxPollRecords);
      run_state->flush();
      // The pipeline never flushes per-shard sinks; publish the final
      // deltas so the post-drain master reflects every event.
      for (auto& c : chains) c->publisher.flush();
    } catch (const std::exception& e) {
      set_ingest_error(e.what());
    }
  }

  // ---------------- checkpoint / re-attribution ----------------

  /// Park the ingest thread between batches; true once it is parked.
  /// The caller must resume_ingest() afterwards, success or not.
  [[nodiscard]] bool pause_ingest() {
    ingest_pause.store(true, std::memory_order_release);
    ingest_cv.notify_all();
    std::unique_lock lock(ingest_mu);
    return ingest_cv.wait_for(lock, std::chrono::seconds(10),
                              [this] { return ingest_paused; });
  }

  void resume_ingest() {
    ingest_pause.store(false, std::memory_order_release);
    ingest_cv.notify_all();
  }

  /// Freeze the whole daemon into `path`. Caller holds the ingest
  /// pause, so the server thread owns the pipeline feeder and the
  /// tailer: the shard barrier saves and seals each shard's sections on
  /// its own worker thread and flushes the snapshot publishers, then
  /// the queue/hub drains make the server-side state (slim events,
  /// master bundle) current before the container commits. Returns a
  /// one-line summary payload.
  [[nodiscard]] std::string checkpoint_now(const std::string& path) {
    auto pending = run_state->checkpoint(
        [&](std::size_t s, util::StateWriter&) { chains[s]->publisher.flush(); });
    core::CheckpointWriter ck = pending.take();
    deliver_events();  // barrier-pushed events -> subscribers + attributor
    hub.drain();       // barrier-published deltas -> master
    const auto shards = static_cast<std::uint32_t>(run_state->threads());
    const std::uint64_t records = ingested.load(std::memory_order_relaxed);
    core::RunMeta{.producer = core::RunMeta::Producer::kDaemon,
                  .shards = shards,
                  .records = records,
                  .outputs = events_seen,
                  .flags = opts.events_out.empty() ? std::uint8_t{0} : core::RunMeta::kEvents}
        .save(ck);
    util::StateWriter dw;
    dw.i64(period_s);
    const auto tail = tailer ? tailer->cursor() : LogTailer::Cursor{};
    for (const std::uint64_t v : {tail.dev, tail.ino, tail.offset, tail.records}) dw.u64(v);
    ck.add("daemon", std::move(dw));
    util::StateWriter mw;
    hub.save_master(mw);
    ck.add("master", std::move(mw));
    util::StateWriter ew;
    attributor.save_level(ew, 0);
    ck.add("events", std::move(ew));
    ck.commit(path);
    server_metrics().checkpoints.add();
    std::string out;
    appendf(out, "checkpointed %u shards, %llu records, %llu events\n", shards,
            static_cast<unsigned long long>(records),
            static_cast<unsigned long long>(events_seen));
    return out;
  }

  /// Restore-on-start counterpart: called from run() once the pipeline
  /// runs with the checkpoint's shard count, before the ingest thread
  /// exists, so no quiesce is needed.
  void restore_checkpoint(const core::CheckpointReader& ck, const core::RunMeta& meta) {
    run_state->resume(ck);
    auto mr = ck.section("master");
    hub.restore_master(mr);
    mr.expect_end();
    auto er = ck.section("events");
    attributor.load_level(er, 0);
    er.expect_end();
    auto dr = ck.section("daemon");
    period_s = dr.i64();
    const LogTailer::Cursor tail{dr.u64(), dr.u64(), dr.u64(), dr.u64()};  // read left to right
    dr.expect_end();
    if (tailer && !tailer->resume(tail))
      std::fprintf(stderr,
                   "v6sonard: %s was rotated or replaced since the checkpoint; "
                   "tailing it from its header\n",
                   opts.tail_path.c_str());
    ingested.store(meta.records, std::memory_order_relaxed);
    events_seen = meta.outputs;
    std::fprintf(stderr, "v6sonard: restored %s (%llu records, %llu events)\n",
                 opts.checkpoint_path.c_str(), static_cast<unsigned long long>(meta.records),
                 static_cast<unsigned long long>(meta.outputs));
  }

  [[nodiscard]] std::string render_blocklist_now() {
    attributor.pass(0, {});  // re-attributes only the sources with new events
    return analysis::render_blocklist(attributor.blocklist());
  }

  /// Periodic pass (poll-loop housekeeping): recompute the cached
  /// blocklist on the configured cadence.
  void maybe_reattribute() {
    if (period_s <= 0 || Clock::now() < next_pass) return;
    cached_blocklist = render_blocklist_now();
    blocklist_cached = true;
    next_pass = Clock::now() + std::chrono::seconds(period_s);
    server_metrics().reattributions.add();
  }

  // ---------------- client IO ----------------

  void send_frame(Client& c, Frame&& f) {
    c.outbuf += encode_frame(f);
    server_metrics().frames_tx.add();
    try_send(c);
  }

  void respond(Client& c, const Frame& req, Status status, std::string payload) {
    Frame f;
    f.verb = req.verb;
    f.status = static_cast<std::uint8_t>(status);
    f.seq = req.seq;
    f.payload = std::move(payload);
    send_frame(c, std::move(f));
  }

  void try_send(Client& c) {
    while (c.out_pos < c.outbuf.size()) {
      const ssize_t n = ::send(c.fd.get(), c.outbuf.data() + c.out_pos,
                               c.outbuf.size() - c.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        c.last_progress = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      c.dead = true;  // peer went away mid-response
      return;
    }
    if (c.out_pos == c.outbuf.size()) {
      c.outbuf.clear();
      c.out_pos = 0;
      if (c.closing) c.dead = true;
    } else if (c.outbuf.size() - c.out_pos > opts.max_client_buffer) {
      // A reader this far behind is not coming back; shedding it is
      // what keeps one stuck subscriber from holding daemon memory.
      server_metrics().dropped_overflow.add();
      c.dead = true;
    }
  }

  [[nodiscard]] std::string status_text() {
    std::string out;
    appendf(out, "ingested_records %llu\n",
            static_cast<unsigned long long>(ingested.load(std::memory_order_relaxed)));
    appendf(out, "events_seen %llu\n", static_cast<unsigned long long>(events_seen));
    appendf(out, "events_folded %llu\n",
            static_cast<unsigned long long>(hub.events_folded()));
    appendf(out, "snapshot_shards %zu\n", hub.shards());
    appendf(out, "clients %zu\n", clients.size());
    std::size_t subs = 0;
    for (const auto& c : clients) subs += c->subscribed;
    appendf(out, "subscribers %zu\n", subs);
    const LogTailer* t = tailer ? &*tailer : nullptr;
    appendf(out, "tail_records %llu\n", static_cast<unsigned long long>(t ? t->records() : 0));
    appendf(out, "tail_rotations %llu\n",
            static_cast<unsigned long long>(t ? t->rotations() : 0));
    appendf(out, "tail_truncations %llu\n",
            static_cast<unsigned long long>(t ? t->truncations() : 0));
    appendf(out, "spill_events %llu\n",
            static_cast<unsigned long long>(run_state->spilled()));
    appendf(out, "reattribution_period_s %lld\n", static_cast<long long>(period_s));
    appendf(out, "draining %d\n", draining ? 1 : 0);
    return out;
  }

  /// Parse a report verb's optional payload: an ASCII row count.
  [[nodiscard]] std::size_t parse_top(const std::string& payload) const {
    if (payload.empty()) return opts.top;
    char* end = nullptr;
    const unsigned long v = std::strtoul(payload.c_str(), &end, 10);
    if (end == payload.c_str() || *end != '\0' || v == 0) return opts.top;
    return static_cast<std::size_t>(v);
  }

  void handle_frame(Client& c, const Frame& req) {
    server_metrics().frames_rx.add();
    const auto verb = static_cast<Verb>(req.verb);
    const auto t0 = Clock::now();
    switch (verb) {
      case Verb::kPing:
        respond(c, req, Status::kOk, req.payload);
        break;
      case Verb::kStatus:
        // Drain first so events_folded reflects every published delta:
        // "status --wait-key events_folded" then a report verb is an
        // exact rendezvous, not a race against the publishers.
        hub.drain();
        respond(c, req, Status::kOk, status_text());
        break;
      case Verb::kReport:
        hub.drain();
        respond(c, req, Status::kOk,
                analysis::render_report(hub.master(), parse_top(req.payload)));
        break;
      case Verb::kTopSources:
        hub.drain();
        respond(c, req, Status::kOk,
                analysis::render_top_sources(hub.master(), parse_top(req.payload)));
        break;
      case Verb::kTopPorts:
        hub.drain();
        respond(c, req, Status::kOk, analysis::render_top_ports(hub.master()));
        break;
      case Verb::kAsReport:
        hub.drain();
        respond(c, req, Status::kOk,
                analysis::render_as_report(hub.master(), parse_top(req.payload)));
        break;
      case Verb::kBlocklist:
        // Periodic mode serves the cached pass (the period is the
        // staleness contract); on-demand mode recomputes per query.
        respond(c, req, Status::kOk,
                period_s > 0 && blocklist_cached ? cached_blocklist
                                                 : render_blocklist_now());
        break;
      case Verb::kMetrics:
        util::note_max_rss();
        respond(c, req, Status::kOk, util::metrics::snapshot().to_json() + "\n");
        break;
      case Verb::kSubscribe:
        c.subscribed = true;
        respond(c, req, Status::kOk, "subscribed\n");
        break;
      case Verb::kIngest: {
        if (draining) {
          respond(c, req, Status::kError, "draining; ingest rejected\n");
          break;
        }
        if (req.payload.empty() || req.payload.size() % sim::kLogRecordBytes != 0) {
          respond(c, req, Status::kError,
                  "ingest payload must be a positive multiple of 52 bytes\n");
          break;
        }
        const std::size_t n = req.payload.size() / sim::kLogRecordBytes;
        // Decode and check the frame's own order outside the lock; the
        // queue then takes the frame with one append (geometric growth)
        // or, when empty, a buffer swap. A frame that would put the
        // pipeline out of time order is refused whole: fed, it would
        // stop the ingest thread and the daemon with it.
        ingest_frame.resize(n);
        const auto* p = reinterpret_cast<const std::uint8_t*>(req.payload.data());
        for (std::size_t i = 0; i < n; ++i)
          ingest_frame[i] = sim::decode_record(p + i * sim::kLogRecordBytes);
        const auto later = [](const sim::LogRecord& a, const sim::LogRecord& b) {
          return b.ts_us < a.ts_us;
        };
        if (const auto it = std::adjacent_find(ingest_frame.begin(), ingest_frame.end(), later);
            it != ingest_frame.end()) {
          respond(c, req, Status::kError, out_of_order(it[1].ts_us, it[0].ts_us));
          break;
        }
        std::string refused;
        {
          std::lock_guard lock(ingest_mu);
          if (ingest_frame.front().ts_us < last_pushed_us) {
            refused = out_of_order(ingest_frame.front().ts_us, last_pushed_us);
          } else {
            last_pushed_us = ingest_frame.back().ts_us;
            if (pushed_records.empty())
              pushed_records.swap(ingest_frame);
            else
              pushed_records.insert(pushed_records.end(), ingest_frame.begin(),
                                    ingest_frame.end());
          }
        }
        if (!refused.empty()) {
          respond(c, req, Status::kError, refused);
          break;
        }
        ingest_cv.notify_one();
        server_metrics().socket_records.add(n);
        respond(c, req, Status::kOk, std::to_string(n) + "\n");
        break;
      }
      case Verb::kShutdown:
        respond(c, req, Status::kOk, "draining\n");
        request_stop_impl();
        break;
      case Verb::kSetPeriod: {
        char* end = nullptr;
        const long long v = std::strtoll(req.payload.c_str(), &end, 10);
        if (req.payload.empty() || end == req.payload.c_str() || *end != '\0' || v < 0 ||
            v > util::kMaxSeconds) {
          respond(c, req, Status::kError,
                  "set-period payload must be an ASCII second count from 0 to " +
                      std::to_string(util::kMaxSeconds) + "\n");
          break;
        }
        period_s = v;
        blocklist_cached = false;  // next pass recomputes under the new cadence
        next_pass = Clock::now() + std::chrono::seconds(v);
        respond(c, req, Status::kOk, "period " + std::to_string(v) + "\n");
        break;
      }
      case Verb::kCheckpoint: {
        if (draining) {
          respond(c, req, Status::kError, "draining; checkpoint rejected\n");
          break;
        }
        const std::string path = req.payload.empty() ? opts.checkpoint_path : req.payload;
        if (path.empty()) {
          respond(c, req, Status::kError,
                  "no checkpoint path: pass one or start with --checkpoint\n");
          break;
        }
        if (!pause_ingest()) {
          resume_ingest();
          respond(c, req, Status::kError, "checkpoint failed: ingest did not quiesce\n");
          break;
        }
        try {
          std::string summary = checkpoint_now(path);
          resume_ingest();
          respond(c, req, Status::kOk, std::move(summary));
        } catch (const std::exception& e) {
          resume_ingest();
          respond(c, req, Status::kError,
                  std::string("checkpoint failed: ") + e.what() + "\n");
        }
        break;
      }
      default:
        respond(c, req, Status::kError,
                "unknown verb " + std::to_string(req.verb) + "\n");
        break;
    }
    server_metrics().queries.add();
    server_metrics().query_us.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count()));
  }

  void handle_readable(Client& c) {
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        c.last_progress = Clock::now();
        continue;
      }
      if (n == 0) {  // orderly disconnect
        server_metrics().disconnects.add();
        c.dead = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      c.dead = true;
      break;
    }
    Frame req;
    for (;;) {
      const auto r = c.decoder.next(req);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kMalformed) {
        // The framing error is the client's; tell it why, flush, and
        // cut only this connection. The daemon sails on.
        server_metrics().frames_malformed.add();
        Frame err;
        err.verb = req.verb;
        err.status = static_cast<std::uint8_t>(Status::kError);
        err.payload = "malformed frame: " + c.decoder.error() + "\n";
        c.closing = true;
        send_frame(c, std::move(err));
        break;
      }
      handle_frame(c, req);
      if (c.dead || c.closing) break;
    }
  }

  void accept_clients() {
    for (;;) {
      const int fd = ::accept4(listener.get(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN (or EINTR; next loop pass retries)
      auto c = std::make_unique<Client>();
      c->fd.reset(fd);
      clients.push_back(std::move(c));
      server_metrics().accepted.add();
    }
  }

  void deliver_events() {
    auto events = queue.take();
    if (events.empty()) return;
    events_seen += events.size();
    for (auto& ev : events) {
      bool any_subscriber = false;
      for (const auto& c : clients) any_subscriber |= c->subscribed && !c->dead;
      if (any_subscriber) {
        Frame push;
        push.verb = static_cast<std::uint8_t>(Verb::kSubscribe);
        push.status = static_cast<std::uint8_t>(Status::kEvent);
        push.payload = format_event_line(ev);
        const std::string wire = encode_frame(push);
        for (const auto& c : clients) {
          if (!c->subscribed || c->dead) continue;
          c->outbuf += wire;
          server_metrics().frames_tx.add();
          server_metrics().events_tx.add();
          try_send(*c);
        }
      }
      attributor.add(0, ev);
    }
  }

  void check_timeouts() {
    const auto now = Clock::now();
    const auto limit = std::chrono::milliseconds(opts.client_timeout_ms);
    for (const auto& c : clients) {
      if (c->dead) continue;
      // The timeout covers stalled work only: a partial frame we're
      // waiting to complete, or response bytes the peer won't read.
      // An idle-but-quiet subscriber or keepalive connection is fine.
      const bool mid_frame = c->decoder.buffered() > 0;
      const bool mid_write = c->out_pos < c->outbuf.size();
      if ((mid_frame || mid_write) && now - c->last_progress > limit) {
        server_metrics().dropped_timeout.add();
        c->dead = true;
      }
    }
  }

  void reap_clients() {
    std::erase_if(clients, [](const std::unique_ptr<Client>& c) { return c->dead; });
  }

  // ---------------- main loop + drain ----------------

  void request_stop_impl() {
    if (stop_requested.exchange(true)) return;
    const char b = 1;
    [[maybe_unused]] ssize_t rc = ::write(stop_wr.get(), &b, 1);
  }

  [[nodiscard]] bool should_stop() {
    return stop_requested.load(std::memory_order_relaxed) ||
           util::ShutdownSignal::requested() || !get_ingest_error().empty();
  }

  int run() {
    util::ShutdownSignal::install();
    // Restore-on-start: an existing --checkpoint file is the state of
    // a previous incarnation (stop / upgrade / resume). Its shard
    // count is adopted — shard routing is a function of the count, so
    // per-shard detector state only loads back into the same layout.
    std::optional<core::CheckpointReader> resume;
    std::optional<core::RunMeta> meta;
    if (!opts.checkpoint_path.empty() &&
        ::access(opts.checkpoint_path.c_str(), F_OK) == 0) {
      resume.emplace(opts.checkpoint_path);
      meta = core::RunMeta::load(*resume, core::RunMeta::Producer::kDaemon,
                                 opts.checkpoint_path);
    }
    const int threads = core::shard_count(opts.threads, meta ? &*meta : nullptr);
    setup_listener();
    if (!opts.tail_path.empty()) tailer.emplace(opts.tail_path);
    run_state.emplace(opts.detector,
                      core::ParallelConfig{.threads = threads, .ring_capacity = opts.ring_capacity},
                      opts.events_out, [this](std::size_t) -> core::EventSink& {
                        chains.push_back(std::make_unique<ShardChain>(
                            queue, hub.add_slot(), opts.snapshot_every, opts.top));
                        return chains.back()->fan;
                      });
    if (resume) restore_checkpoint(*resume, *meta);
    // Past kMaxSeconds, now() + period overflows the steady clock.
    if (period_s < 0 || period_s > util::kMaxSeconds)
      throw std::runtime_error("daemon: re-attribution period " + std::to_string(period_s) +
                               " s is out of range");
    if (period_s > 0) next_pass = Clock::now() + std::chrono::seconds(period_s);
    ingest = std::thread([this] { ingest_main(); });

    while (!should_stop()) {
      // Snapshot the client count: accept_clients() below may grow the
      // vector, and the new connections have no pollfd this round.
      const std::size_t polled = clients.size();
      std::vector<pollfd> fds;
      fds.push_back({listener.get(), POLLIN, 0});
      fds.push_back({util::ShutdownSignal::wake_fd(), POLLIN, 0});
      fds.push_back({stop_rd.get(), POLLIN, 0});
      fds.push_back({queue.fd(), POLLIN, 0});
      for (std::size_t i = 0; i < polled; ++i) {
        short ev = POLLIN;
        if (clients[i]->out_pos < clients[i]->outbuf.size()) ev |= POLLOUT;
        fds.push_back({clients[i]->fd.get(), ev, 0});
      }
      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                            opts.poll_interval_ms);
      if (rc < 0 && errno != EINTR) break;
      if (should_stop()) break;

      if (fds[0].revents & POLLIN) accept_clients();
      if (fds[3].revents & POLLIN) deliver_events();
      for (std::size_t i = 0; i < polled; ++i) {
        const short rev = fds[4 + i].revents;
        Client& c = *clients[i];
        if (rev & (POLLERR | POLLHUP | POLLNVAL)) {
          // Let a final read drain anything the peer sent before the
          // hangup, then the dead mark below (or recv()==0) takes it.
          handle_readable(c);
          if (!c.dead && !(rev & POLLIN) && c.outbuf.empty()) c.dead = true;
          continue;
        }
        if (rev & POLLIN) handle_readable(c);
        if (!c.dead && (rev & POLLOUT)) try_send(c);
      }
      check_timeouts();
      maybe_reattribute();
      reap_clients();
    }
    return drain();
  }

  int drain() {
    const auto t0 = Clock::now();
    draining = true;
    // 1. No new clients or pushed records.
    listener.close();
    // 2. Stop and join ingestion; the thread flushes the pipeline
    //    (joining the workers) and publishes the final snapshots.
    ingest_stop.store(true);
    ingest_cv.notify_all();
    if (ingest.joinable()) ingest.join();
    // 3. The last events are now in the queue; deliver them so
    //    subscribers and the blocklist see everything.
    deliver_events();
    hub.drain();
    // 4. Finalize the durable outputs (both fsync before reporting
    //    success). The shard spills merge into --events unless ingest
    //    failed; with --checkpoint they stay, for a restore to reopen.
    int rc = 0;
    if (!opts.events_out.empty() && get_ingest_error().empty()) {
      try {
        const std::uint64_t n = run_state->close(!opts.checkpoint_path.empty());
        std::fprintf(stderr, "v6sonard: spilled %llu events to %s\n",
                     static_cast<unsigned long long>(n), opts.events_out.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "v6sonard: %s\n", e.what());
        rc = 1;
      }
    }
    if (opts.write_metrics && !util::dump_metrics(opts.metrics_out, "v6sonard")) rc = 1;
    // 5. Best-effort flush of pending client output, then close all.
    const auto flush_deadline = Clock::now() + std::chrono::milliseconds(500);
    for (const auto& c : clients) {
      while (!c->dead && c->out_pos < c->outbuf.size() && Clock::now() < flush_deadline) {
        try_send(*c);
        if (c->out_pos < c->outbuf.size())
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    clients.clear();
    ::unlink(opts.socket_path.c_str());
    const std::string err = get_ingest_error();
    if (!err.empty()) {
      std::fprintf(stderr, "v6sonard: ingest failed: %s\n", err.c_str());
      rc = 1;
    }
    server_metrics().drain_us.note(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count()));
    return rc;
  }
};

Daemon::Daemon(DaemonOptions opts) : impl_(std::make_unique<Impl>(std::move(opts))) {}

Daemon::~Daemon() {
  if (impl_ && impl_->ingest.joinable()) {
    impl_->ingest_stop.store(true);
    impl_->ingest_cv.notify_all();
    impl_->ingest.join();
  }
}

int Daemon::run() { return impl_->run(); }

void Daemon::request_stop() { impl_->request_stop_impl(); }

}  // namespace v6sonar::daemon
