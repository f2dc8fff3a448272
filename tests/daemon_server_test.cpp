// End-to-end tests for the v6sonard daemon (daemon/server): real
// Unix-domain socket, real wire frames, the full verb set, the
// snapshot seam's byte-identity against a serial fold, malformed-input
// isolation, and the graceful drain with a finalized spill.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report_render.hpp"
#include "core/adaptive.hpp"
#include "core/detect_run.hpp"
#include "core/detector.hpp"
#include "core/event_io.hpp"
#include "core/state_codec.hpp"
#include "core/streaming_ids.hpp"
#include "daemon/framing.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "sim/log_io.hpp"
#include "util/signal_drain.hpp"
#include "util/timebase.hpp"

namespace v6sonar::daemon {
namespace {

using core::ScanEvent;
using sim::LogRecord;
using namespace std::chrono_literals;

constexpr sim::TimeUs kSec = 1'000'000;

LogRecord probe(sim::TimeUs ts, std::uint64_t src_hi_lo, std::uint64_t dst_lo,
                std::uint16_t port = 443) {
  LogRecord r;
  r.ts_us = ts;
  // Distinct hi bits => distinct /64 aggregates => sources spread
  // across pipeline shards.
  r.src = net::Ipv6Address{0x2A10'0000'0000'0000ULL + src_hi_lo, 1};
  r.dst = net::Ipv6Address{0x2600'0000'0000'0000ULL, dst_lo};
  r.dst_port = port;
  r.src_asn = static_cast<std::uint32_t>(7 + src_hi_lo % 3);
  return r;
}

/// The shared workload: 4 scanning sources x 6 destinations (min_dsts
/// 5), then a sentinel probe far past the timeout so every scan
/// finalizes deterministically inside the live daemon — the sentinel's
/// own source sends one packet and never becomes an event.
std::vector<LogRecord> workload() {
  std::vector<LogRecord> recs;
  sim::TimeUs ts = 1'000 * kSec;
  for (std::uint64_t d = 0; d < 6; ++d)
    for (std::uint64_t s = 0; s < 4; ++s)
      recs.push_back(probe(ts += kSec, s, d, static_cast<std::uint16_t>(443 + s)));
  recs.push_back(probe(ts + 200 * kSec, 0x9999, 0));  // sentinel
  return recs;
}

core::DetectorConfig test_detector() {
  return {.source_prefix_len = 64, .min_destinations = 5, .timeout_us = 60 * kSec};
}

/// Serial reference: one ScanDetector fold over the same records.
struct SerialFold {
  analysis::ReportBundle bundle{10};
  std::vector<ScanEvent> events;
};

SerialFold serial_fold(const std::vector<LogRecord>& recs) {
  SerialFold out;
  core::ScanDetector det(test_detector(), [&](ScanEvent&& ev) {
    out.bundle.observe(ev);
    out.events.push_back(std::move(ev));
  });
  for (const auto& r : recs) det.feed(r);
  det.flush();
  return out;
}

std::string encode_records(const std::vector<LogRecord>& recs) {
  std::string out(recs.size() * sim::kLogRecordBytes, '\0');
  auto* p = reinterpret_cast<std::uint8_t*>(out.data());
  for (const auto& r : recs) {
    sim::encode_record(r, p);
    p += sim::kLogRecordBytes;
  }
  return out;
}

/// Blocking test-side client speaking the wire protocol.
struct TestClient {
  int fd = -1;
  FrameDecoder dec;

  explicit TestClient(const std::string& path) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      const int s = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        fd = s;
        return;
      }
      ::close(s);
      std::this_thread::sleep_for(10ms);
    }
  }
  ~TestClient() { close(); }
  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  void send_raw(const std::string& bytes) const {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  void request(Verb verb, std::uint16_t seq, std::string payload = "") const {
    Frame f;
    f.verb = static_cast<std::uint8_t>(verb);
    f.status = static_cast<std::uint8_t>(Status::kRequest);
    f.seq = seq;
    f.payload = std::move(payload);
    send_raw(encode_frame(f));
  }

  /// Read one frame; false on timeout or peer close.
  bool read_frame(Frame& out, int timeout_ms = 10'000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (dec.next(out) == FrameDecoder::Result::kFrame) return true;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(std::min<long long>(left.count(), 250))) <= 0)
        continue;
      char buf[16 * 1024];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return false;  // closed (or reset) by the daemon
      dec.feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// Request/response helper; fails the test on timeout.
  Frame roundtrip(Verb verb, std::uint16_t seq, std::string payload = "") {
    request(verb, seq, std::move(payload));
    Frame resp;
    EXPECT_TRUE(read_frame(resp)) << "no response to " << verb_name(verb);
    return resp;
  }

  /// True once the daemon has closed this connection.
  bool wait_closed(int timeout_ms = 5'000) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 100) > 0) {
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) return true;
      }
    }
    return false;
  }
};

std::optional<unsigned long long> status_value(const std::string& text,
                                               const std::string& key) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    if (line.size() > key.size() + 1 && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ')
      return std::stoull(line.substr(key.size() + 1));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return std::nullopt;
}

/// Daemon on a background thread; joined (via request_stop) at scope
/// exit so a failing test can't leak the server.
struct RunningDaemon {
  Daemon d;
  std::thread t;
  int rc = -1;
  bool joined = false;

  explicit RunningDaemon(DaemonOptions opts) : d(std::move(opts)) {
    t = std::thread([this] {
      try {
        rc = d.run();
      } catch (...) {
        rc = -2;
      }
    });
  }
  int stop_and_join() {
    if (!joined) {
      d.request_stop();
      t.join();
      joined = true;
    }
    return rc;
  }
  ~RunningDaemon() { stop_and_join(); }
};

class DaemonServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::ShutdownSignal::install();
    util::ShutdownSignal::reset();
    // Per-process dir: concurrent ctest processes must not remove_all
    // each other's sockets. Keep the socket name short — sun_path
    // holds at most ~107 bytes.
    dir_ = std::filesystem::temp_directory_path() /
           ("v6sonar_daemon_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    sock_ = (dir_ / "d.sock").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] DaemonOptions options() const {
    DaemonOptions o;
    o.socket_path = sock_;
    o.detector = test_detector();
    o.threads = 2;
    o.ring_capacity = 64;
    o.top = 10;
    o.snapshot_every = 1;
    o.poll_interval_ms = 10;
    return o;
  }

  /// Poll status until events_folded reaches `n` (kStatus drains the
  /// hub first, so this is an exact rendezvous with the publishers).
  static bool wait_folded(TestClient& c, unsigned long long n, int timeout_ms = 10'000) {
    return wait_status(c, "events_folded", n, timeout_ms);
  }

  /// Poll status until `key` reaches `n`.
  static bool wait_status(TestClient& c, const std::string& key, unsigned long long n,
                          int timeout_ms = 10'000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::uint16_t seq = 1000;
    while (std::chrono::steady_clock::now() < deadline) {
      Frame resp = c.roundtrip(Verb::kStatus, seq++);
      const auto value = status_value(resp.payload, key);
      if (value && *value >= n) return true;
      std::this_thread::sleep_for(20ms);
    }
    return false;
  }

  /// Append `recs` to the tailed log `path`, behind a live-file header
  /// (count 0) when `header`.
  static void append_log(const std::string& path, std::span<const LogRecord> recs,
                         bool header) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (header) {
      const std::uint64_t head[2] = {sim::kLogMagic, 0};
      out.write(reinterpret_cast<const char*>(head), sizeof head);
    }
    out << encode_records({recs.begin(), recs.end()});
  }

  /// A tailing daemon across a restart: the first incarnation tails the
  /// first two thirds of `recs`, checkpoints, tails the rest past the
  /// checkpoint, and stops; the second restores the checkpoint, which
  /// resumes the tail at its cursor, and stays up to be queried.
  std::unique_ptr<RunningDaemon> restart_across_checkpoint(const std::vector<LogRecord>& recs,
                                                           DaemonOptions opts) {
    const std::string log = (dir_ / "tail.v6slog").string();
    opts.tail_path = log;
    opts.checkpoint_path = (dir_ / "d.v6ckpt").string();
    std::filesystem::remove(log);
    std::filesystem::remove(opts.checkpoint_path);
    const std::size_t cut = recs.size() * 2 / 3;
    append_log(log, std::span(recs).first(cut), true);
    {
      RunningDaemon rd(opts);
      TestClient c(sock_);
      EXPECT_TRUE(wait_status(c, "ingested_records", cut));
      Frame resp = c.roundtrip(Verb::kCheckpoint, 1);
      EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk)) << resp.payload;
      append_log(log, std::span(recs).subspan(cut), false);
      EXPECT_TRUE(wait_status(c, "ingested_records", recs.size()));
      EXPECT_EQ(rd.stop_and_join(), 0);
    }
    return std::make_unique<RunningDaemon>(std::move(opts));
  }

  std::filesystem::path dir_;
  std::string sock_;
};

TEST_F(DaemonServerTest, PingEchoesPayloadAndSeq) {
  RunningDaemon rd(options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  const Frame resp = c.roundtrip(Verb::kPing, 0xABCD, "are you there");
  EXPECT_EQ(resp.verb, static_cast<std::uint8_t>(Verb::kPing));
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(resp.seq, 0xABCD);
  EXPECT_EQ(resp.payload, "are you there");
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, StatusReportsLiveState) {
  RunningDaemon rd(options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame resp = c.roundtrip(Verb::kStatus, 1);
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_TRUE(status_value(resp.payload, "ingested_records").has_value()) << resp.payload;
  EXPECT_EQ(status_value(resp.payload, "events_folded"), 0u);
  EXPECT_EQ(status_value(resp.payload, "snapshot_shards"), 2u);
  EXPECT_EQ(status_value(resp.payload, "clients"), 1u);
  EXPECT_EQ(status_value(resp.payload, "draining"), 0u);

  const auto recs = workload();
  resp = c.roundtrip(Verb::kIngest, 2, encode_records(recs));
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(resp.payload, std::to_string(recs.size()) + "\n");
  ASSERT_TRUE(wait_folded(c, 4));
  resp = c.roundtrip(Verb::kStatus, 3);
  EXPECT_EQ(status_value(resp.payload, "ingested_records"), recs.size());
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, QueriesMatchSerialFoldByteForByte) {
  // The tentpole acceptance: a live daemon's report over in-flight
  // snapshot state is byte-identical to one serial fold of the same
  // records — readers never see merge-order artifacts.
  const auto recs = workload();
  const SerialFold serial = serial_fold(recs);
  ASSERT_EQ(serial.events.size(), 4u) << "workload must finalize 4 scans";

  RunningDaemon rd(options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame resp = c.roundtrip(Verb::kIngest, 1, encode_records(recs));
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  ASSERT_TRUE(wait_folded(c, serial.events.size()));

  resp = c.roundtrip(Verb::kReport, 2);
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(resp.payload, analysis::render_report(serial.bundle, 10));

  // Report verbs accept an ASCII row count as payload.
  resp = c.roundtrip(Verb::kReport, 3, "2");
  EXPECT_EQ(resp.payload, analysis::render_report(serial.bundle, 2));

  resp = c.roundtrip(Verb::kTopSources, 4);
  EXPECT_EQ(resp.payload, analysis::render_top_sources(serial.bundle, 10));
  resp = c.roundtrip(Verb::kTopPorts, 5);
  EXPECT_EQ(resp.payload, analysis::render_top_ports(serial.bundle));
  resp = c.roundtrip(Verb::kAsReport, 6);
  EXPECT_EQ(resp.payload, analysis::render_as_report(serial.bundle, 10));

  resp = c.roundtrip(Verb::kBlocklist, 7);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_FALSE(resp.payload.empty());
  resp = c.roundtrip(Verb::kMetrics, 8);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, SubscriberReceivesEveryEvent) {
  const auto recs = workload();
  const SerialFold serial = serial_fold(recs);

  RunningDaemon rd(options());
  TestClient sub(sock_);
  ASSERT_GE(sub.fd, 0);
  Frame resp = sub.roundtrip(Verb::kSubscribe, 1);
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));

  TestClient feeder(sock_);
  ASSERT_GE(feeder.fd, 0);
  resp = feeder.roundtrip(Verb::kIngest, 2, encode_records(recs));
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));

  std::vector<std::string> pushed;
  while (pushed.size() < serial.events.size()) {
    Frame ev;
    ASSERT_TRUE(sub.read_frame(ev)) << "only " << pushed.size() << " events pushed";
    ASSERT_EQ(ev.status, static_cast<std::uint8_t>(Status::kEvent));
    EXPECT_EQ(ev.verb, static_cast<std::uint8_t>(Verb::kSubscribe));
    pushed.push_back(ev.payload);
  }
  std::vector<std::string> expected;
  expected.reserve(serial.events.size());
  for (const auto& ev : serial.events) expected.push_back(format_event_line(ev));
  std::sort(pushed.begin(), pushed.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pushed, expected);
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, UnknownVerbGetsErrorButConnectionSurvives) {
  RunningDaemon rd(options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame req;
  req.verb = 77;
  req.seq = 9;
  c.send_raw(encode_frame(req));
  Frame resp;
  ASSERT_TRUE(c.read_frame(resp));
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError));
  EXPECT_EQ(resp.seq, 9);

  // Same connection keeps working: verb validation is per-frame.
  resp = c.roundtrip(Verb::kPing, 10, "still here");
  EXPECT_EQ(resp.payload, "still here");
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, MalformedFrameKillsTheClientNotTheDaemon) {
  RunningDaemon rd(options());
  TestClient bad(sock_);
  ASSERT_GE(bad.fd, 0);
  // A length prefix beyond kMaxPayload can never frame; the daemon
  // must answer with the reason and cut only this connection.
  std::string wire(kFrameHeaderBytes, '\0');
  wire[0] = wire[1] = wire[2] = wire[3] = '\xFF';
  bad.send_raw(wire);
  Frame resp;
  ASSERT_TRUE(bad.read_frame(resp));
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError));
  EXPECT_NE(resp.payload.find("malformed"), std::string::npos) << resp.payload;
  EXPECT_TRUE(bad.wait_closed());

  // The daemon sails on for everyone else.
  TestClient good(sock_);
  ASSERT_GE(good.fd, 0);
  resp = good.roundtrip(Verb::kPing, 1, "alive");
  EXPECT_EQ(resp.payload, "alive");
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, IngestRejectsPartialRecords) {
  RunningDaemon rd(options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame resp = c.roundtrip(Verb::kIngest, 1, "not 52 bytes");
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError));
  resp = c.roundtrip(Verb::kIngest, 2, "");
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError));
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, OutOfOrderIngestIsRefusedAndTheDaemonLivesOn) {
  // A frame that would put the pipeline out of time order (unsorted
  // within itself, or starting before the last accepted record) is
  // refused whole, naming both timestamps; a frame starting at the last
  // accepted timestamp is taken. The drained spill is the serial
  // detector's over the accepted records, byte for byte.
  const auto recs = workload();
  const std::size_t cut = recs.size() / 2;
  std::vector<LogRecord> accepted(recs.begin(), recs.begin() + cut);
  accepted.push_back(recs[cut - 1]);  // equal timestamp: accepted
  accepted.insert(accepted.end(), recs.begin() + cut, recs.end());
  const SerialFold serial = serial_fold(accepted);
  const std::string reference = (dir_ / "serial.v6ev").string();
  core::write_events(reference, serial.events);
  const std::string spill = (dir_ / "spill.v6ev").string();

  auto opts = options();
  opts.events_out = spill;
  RunningDaemon rd(std::move(opts));
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  const auto ok = static_cast<std::uint8_t>(Status::kOk);
  const auto ts = [](const LogRecord& r) { return std::to_string(r.ts_us); };
  Frame resp = c.roundtrip(Verb::kIngest, 1, encode_records({recs.begin(), recs.begin() + cut}));
  ASSERT_EQ(resp.status, ok) << resp.payload;

  resp = c.roundtrip(Verb::kIngest, 2, encode_records({recs[cut + 1], recs[cut]}));
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError));
  EXPECT_NE(resp.payload.find(ts(recs[cut]) + " after ts " + ts(recs[cut + 1])),
            std::string::npos) << resp.payload;
  resp = c.roundtrip(Verb::kIngest, 3, encode_records({recs[0], recs[cut]}));
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError));
  EXPECT_NE(resp.payload.find(ts(recs[0]) + " after ts " + ts(recs[cut - 1])),
            std::string::npos) << resp.payload;

  EXPECT_EQ(c.roundtrip(Verb::kStatus, 4).status, ok);
  resp = c.roundtrip(Verb::kIngest, 5,
                     encode_records({accepted.begin() + cut, accepted.end()}));
  ASSERT_EQ(resp.status, ok) << resp.payload;
  ASSERT_TRUE(wait_status(c, "ingested_records", accepted.size()));
  EXPECT_EQ(c.roundtrip(Verb::kShutdown, 6).status, ok);
  EXPECT_EQ(rd.stop_and_join(), 0);
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(bytes(spill), bytes(reference));
}

TEST_F(DaemonServerTest, DisconnectMidRequestIsHarmless) {
  RunningDaemon rd(options());
  {
    TestClient half(sock_);
    ASSERT_GE(half.fd, 0);
    const std::string wire = encode_frame([] {
      Frame f;
      f.verb = static_cast<std::uint8_t>(Verb::kReport);
      f.payload = "10";
      return f;
    }());
    half.send_raw(wire.substr(0, 5));  // mid-header, then vanish
  }
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  const Frame resp = c.roundtrip(Verb::kPing, 1, "ok");
  EXPECT_EQ(resp.payload, "ok");
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, StalledMidFrameClientIsDropped) {
  auto opts = options();
  opts.client_timeout_ms = 100;
  RunningDaemon rd(std::move(opts));
  TestClient stalled(sock_);
  ASSERT_GE(stalled.fd, 0);
  stalled.send_raw(std::string(4, 'x'));  // forever mid-frame
  EXPECT_TRUE(stalled.wait_closed()) << "stalled client never dropped";
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, ShutdownVerbDrainsAndFinalizesSpill) {
  const auto recs = workload();
  const SerialFold serial = serial_fold(recs);
  const std::string spill = (dir_ / "drain.v6ev").string();

  auto opts = options();
  opts.events_out = spill;
  RunningDaemon rd(std::move(opts));
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame resp = c.roundtrip(Verb::kIngest, 1, encode_records(recs));
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  ASSERT_TRUE(wait_folded(c, serial.events.size()));

  resp = c.roundtrip(Verb::kShutdown, 2);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(resp.payload, "draining\n");
  EXPECT_EQ(rd.stop_and_join(), 0);

  // Clean drain: socket unlinked, spill finalized (valid header count)
  // and equivalent to the serial fold.
  EXPECT_FALSE(std::filesystem::exists(sock_));
  const auto spilled = core::read_events(spill);
  ASSERT_EQ(spilled.size(), serial.events.size());
  analysis::ReportBundle from_spill(10);
  for (const auto& ev : spilled) from_spill.observe(ev);
  EXPECT_EQ(analysis::render_report(from_spill, 10),
            analysis::render_report(serial.bundle, 10));
}

TEST_F(DaemonServerTest, IngestAfterShutdownIsRejected) {
  // A second client's ingest racing the drain must never be silently
  // dropped into a dead pipeline: once draining, the verb errors.
  RunningDaemon rd(options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  // Stop via the API (as SIGTERM would); the poll loop notices within
  // one interval and drains. The socket disappears once drained.
  rd.d.request_stop();
  EXPECT_EQ(rd.stop_and_join(), 0);
  EXPECT_FALSE(std::filesystem::exists(sock_));
}

TEST_F(DaemonServerTest, SetPeriodVerbAdjustsReattributionCadence) {
  RunningDaemon rd(options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame resp = c.roundtrip(Verb::kStatus, 1);
  EXPECT_EQ(status_value(resp.payload, "reattribution_period_s"), 0u);

  resp = c.roundtrip(Verb::kSetPeriod, 2, "5");
  ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  EXPECT_EQ(resp.payload, "period 5\n");
  resp = c.roundtrip(Verb::kStatus, 3);
  EXPECT_EQ(status_value(resp.payload, "reattribution_period_s"), 5u);

  // Junk, negative, and empty payloads, and periods past
  // util::kMaxSeconds (now() + period would overflow the steady
  // clock), are rejected without touching the configured period.
  const std::string max = std::to_string(util::kMaxSeconds);
  for (const std::string& bad : {std::string("soon"), std::string("-3"), std::string(),
                                 std::string("5x"), std::to_string(util::kMaxSeconds + 1),
                                 std::string("99999999999999999999")}) {
    resp = c.roundtrip(Verb::kSetPeriod, 4, bad);
    EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError)) << bad;
  }
  resp = c.roundtrip(Verb::kStatus, 5);
  EXPECT_EQ(status_value(resp.payload, "reattribution_period_s"), 5u);
  resp = c.roundtrip(Verb::kSetPeriod, 5, max);
  EXPECT_EQ(resp.payload, "period " + max + "\n");

  // Blocklist still answers in periodic mode, and 0 restores on-demand.
  resp = c.roundtrip(Verb::kBlocklist, 6);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
  resp = c.roundtrip(Verb::kSetPeriod, 7, "0");
  EXPECT_EQ(resp.payload, "period 0\n");
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, PeriodPastTheClockRangeIsRefusedAtStart) {
  // A period from the options (or a restored checkpoint) past
  // util::kMaxSeconds would overflow now() + period: run() refuses it.
  auto opts = options();
  opts.reattribution_period_s = util::kMaxSeconds + 1;
  RunningDaemon rd(std::move(opts));
  EXPECT_EQ(rd.stop_and_join(), -2);
}

TEST_F(DaemonServerTest, CheckpointVerbAndRestoreOnStart) {
  const auto recs = workload();
  const SerialFold serial = serial_fold(recs);
  const std::string ckpt = (dir_ / "d.v6ckpt").string();
  std::string report_before;
  {
    auto opts = options();
    opts.checkpoint_path = ckpt;
    RunningDaemon rd(std::move(opts));
    TestClient c(sock_);
    ASSERT_GE(c.fd, 0);
    Frame resp = c.roundtrip(Verb::kIngest, 1, encode_records(recs));
    ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
    ASSERT_TRUE(wait_folded(c, serial.events.size()));
    resp = c.roundtrip(Verb::kSetPeriod, 2, "9");
    ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
    resp = c.roundtrip(Verb::kCheckpoint, 3);
    ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk)) << resp.payload;
    EXPECT_NE(resp.payload.find("checkpointed"), std::string::npos) << resp.payload;
    resp = c.roundtrip(Verb::kReport, 4);
    report_before = resp.payload;
    // The daemon stays fully serviceable after a checkpoint.
    resp = c.roundtrip(Verb::kPing, 5, "post-ckpt");
    EXPECT_EQ(resp.payload, "post-ckpt");
    EXPECT_EQ(rd.stop_and_join(), 0);
  }
  // A new incarnation restores the frozen state: counters, runtime-set
  // period, and a byte-identical report (the check.sh smoke covers the
  // SIGKILL variant; here the restart itself is under test).
  {
    auto opts = options();
    opts.checkpoint_path = ckpt;
    RunningDaemon rd(std::move(opts));
    TestClient c(sock_);
    ASSERT_GE(c.fd, 0);
    Frame resp = c.roundtrip(Verb::kStatus, 1);
    EXPECT_EQ(status_value(resp.payload, "ingested_records"), recs.size());
    EXPECT_EQ(status_value(resp.payload, "events_seen"), serial.events.size());
    EXPECT_EQ(status_value(resp.payload, "reattribution_period_s"), 9u);
    resp = c.roundtrip(Verb::kReport, 2);
    EXPECT_EQ(resp.payload, report_before);
    EXPECT_EQ(resp.payload, analysis::render_report(serial.bundle, 10));
    EXPECT_EQ(rd.stop_and_join(), 0);
  }
}

TEST_F(DaemonServerTest, EventListCheckpointRestoresTheSameBlocklist) {
  // Older daemons wrote every scan event into the `events` section;
  // today's hold one folded event per source (packet sum, last ASN).
  // Restoring an event-list section must serve the same blocklist as
  // the attribute_adaptive() refold of those events always did.
  std::vector<LogRecord> recs;
  sim::TimeUs ts = 1'000 * kSec;
  for (std::uint64_t d = 0; d < 6; ++d)
    for (std::uint64_t s = 0; s < 4; ++s)
      recs.push_back(probe(ts += kSec, s, d, static_cast<std::uint16_t>(443 + s)));
  ts += 100 * kSec;  // past the timeout: source 0 scans again, from another AS
  for (std::uint64_t d = 0; d < 6; ++d) {
    LogRecord r = probe(ts += kSec, 0, 10 + d);
    r.src_asn = 99;
    recs.push_back(r);
  }
  recs.push_back(probe(ts + 200 * kSec, 0x9999, 0));  // sentinel
  const SerialFold serial = serial_fold(recs);
  ASSERT_EQ(serial.events.size(), 5u);
  std::vector<ScanEvent> slim;
  for (const auto& ev : serial.events) slim.push_back(core::slim_scan_event(ev));
  const std::string expected = analysis::render_blocklist(
      core::attribute_adaptive({slim}, {.ladder = {test_detector().source_prefix_len}}));

  const std::string ckpt = (dir_ / "d.v6ckpt").string();
  {
    auto opts = options();
    opts.checkpoint_path = ckpt;
    RunningDaemon rd(std::move(opts));
    TestClient c(sock_);
    ASSERT_GE(c.fd, 0);
    Frame resp = c.roundtrip(Verb::kIngest, 1, encode_records(recs));
    ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk));
    ASSERT_TRUE(wait_folded(c, serial.events.size()));
    resp = c.roundtrip(Verb::kCheckpoint, 2);  // also delivers every queued event
    ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk)) << resp.payload;
    resp = c.roundtrip(Verb::kBlocklist, 3);
    EXPECT_EQ(resp.payload, expected);
    EXPECT_EQ(rd.stop_and_join(), 0);
  }
  {
    // Rewrite the `events` section as the event list older daemons
    // wrote; every other section stays byte for byte.
    const core::CheckpointReader folded(ckpt);
    core::CheckpointWriter old;
    for (const auto& name : folded.names()) {
      util::StateWriter w;
      if (name == "events") {
        w.u64(slim.size());
        for (const auto& ev : slim) core::save_scan_event(w, ev);
      } else {
        auto r = folded.section(name);
        std::vector<char> bytes(r.remaining());
        r.raw(bytes.data(), bytes.size());
        w.raw(bytes.data(), bytes.size());
      }
      old.add(name, std::move(w));
    }
    old.commit(ckpt);
  }
  {
    auto opts = options();
    opts.checkpoint_path = ckpt;
    RunningDaemon rd(std::move(opts));
    TestClient c(sock_);
    ASSERT_GE(c.fd, 0);
    Frame resp = c.roundtrip(Verb::kBlocklist, 1);
    EXPECT_EQ(resp.payload, expected);
    EXPECT_EQ(rd.stop_and_join(), 0);
  }
}

/// Two rounds of scans a timeout apart, then the sentinel: the first
/// round's events finalize mid-stream, the second's at the sentinel.
std::vector<LogRecord> two_rounds() {
  std::vector<LogRecord> recs;
  sim::TimeUs ts = 1'000 * kSec;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t d = 0; d < 6; ++d)
      for (std::uint64_t s = 0; s < 4; ++s)
        recs.push_back(probe(ts += kSec, s + 4 * round, d, static_cast<std::uint16_t>(443 + s)));
    ts += 100 * kSec;
  }
  recs.push_back(probe(ts + 200 * kSec, 0x9999, 0));  // sentinel
  return recs;
}

TEST_F(DaemonServerTest, TailRestoreResumesAtTheCheckpointCursor) {
  // A restored --tail continues where the checkpoint stopped: the
  // records tailed after it are fed once more, the ones before it not
  // again (a restart used to re-read the log from its header, double
  // the record count and fail on the out-of-order records).
  const auto recs = two_rounds();
  const SerialFold serial = serial_fold(recs);
  ASSERT_EQ(serial.events.size(), 8u);
  auto rd = restart_across_checkpoint(recs, options());
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  ASSERT_TRUE(wait_folded(c, serial.events.size()));
  Frame resp = c.roundtrip(Verb::kStatus, 1);
  EXPECT_EQ(status_value(resp.payload, "ingested_records"), recs.size()) << resp.payload;
  EXPECT_EQ(status_value(resp.payload, "tail_records"), recs.size()) << resp.payload;
  resp = c.roundtrip(Verb::kReport, 2);
  EXPECT_EQ(resp.payload, analysis::render_report(serial.bundle, 10));
  EXPECT_EQ(rd->stop_and_join(), 0);
}

TEST_F(DaemonServerTest, SpillResumesByteIdenticalAtEveryShardCount) {
  // The drained spill of a restored daemon is the serial detector's
  // event file byte for byte — what `detect --events` writes — at
  // every shard count: each shard spill reopens at its cursor.
  const auto recs = two_rounds();
  const SerialFold serial = serial_fold(recs);
  const std::string reference = (dir_ / "serial.v6ev").string();
  core::write_events(reference, serial.events);
  const std::string spill = (dir_ / "spill.v6ev").string();
  for (const int threads : {1, 2, 3}) {
    auto opts = options();
    opts.threads = threads;
    opts.events_out = spill;
    auto rd = restart_across_checkpoint(recs, opts);
    {
      TestClient c(sock_);
      ASSERT_TRUE(wait_folded(c, serial.events.size()));
      Frame resp = c.roundtrip(Verb::kStatus, 1);
      EXPECT_EQ(status_value(resp.payload, "spill_events"), serial.events.size());
    }
    EXPECT_EQ(rd->stop_and_join(), 0);
    const auto bytes = [](const std::string& path) {
      std::ifstream in(path, std::ios::binary);
      return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(bytes(spill), bytes(reference)) << "threads=" << threads;
  }
}

TEST_F(DaemonServerTest, RestoreRefusesADifferentShardCount) {
  const std::string ckpt = (dir_ / "d.v6ckpt").string();
  {
    auto opts = options();  // two shards
    opts.checkpoint_path = ckpt;
    RunningDaemon rd(std::move(opts));
    TestClient c(sock_);
    ASSERT_GE(c.fd, 0);
    Frame resp = c.roundtrip(Verb::kCheckpoint, 1);
    ASSERT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk)) << resp.payload;
    EXPECT_EQ(rd.stop_and_join(), 0);
  }
  {
    auto opts = options();
    opts.checkpoint_path = ckpt;
    opts.threads = 3;
    Daemon d(std::move(opts));
    try {
      (void)d.run();
      ADD_FAILURE() << "a 2-shard checkpoint restored into 3 shards";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("2 shards; got --threads 3"), std::string::npos)
          << e.what();
    }
  }
  // Not given: the checkpoint's count is adopted.
  auto opts = options();
  opts.checkpoint_path = ckpt;
  opts.threads = -1;
  RunningDaemon rd(std::move(opts));
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame resp = c.roundtrip(Verb::kStatus, 1);
  EXPECT_EQ(status_value(resp.payload, "snapshot_shards"), 2u);
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, RestoreRefusesAnotherProducersCheckpoint) {
  const std::string ckpt = (dir_ / "detect.v6ckpt").string();
  core::CheckpointWriter w;
  core::RunMeta{.producer = core::RunMeta::Producer::kDetect, .shards = 2}.save(w);
  w.commit(ckpt);
  auto opts = options();
  opts.checkpoint_path = ckpt;
  Daemon d(std::move(opts));
  try {
    (void)d.run();
    ADD_FAILURE() << "a detect checkpoint restored into the daemon";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("v6sonar detect, not of v6sonard"), std::string::npos)
        << e.what();
  }
}

TEST_F(DaemonServerTest, CheckpointVerbNeedsAPath) {
  RunningDaemon rd(options());  // no --checkpoint configured
  TestClient c(sock_);
  ASSERT_GE(c.fd, 0);
  Frame resp = c.roundtrip(Verb::kCheckpoint, 1);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kError));
  // An explicit payload path works without the configured default.
  const std::string ckpt = (dir_ / "explicit.v6ckpt").string();
  resp = c.roundtrip(Verb::kCheckpoint, 2, ckpt);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(Status::kOk)) << resp.payload;
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  EXPECT_EQ(rd.stop_and_join(), 0);
}

TEST_F(DaemonServerTest, OverlongSocketPathIsRejected) {
  DaemonOptions opts = options();
  opts.socket_path = (dir_ / std::string(200, 'x')).string();
  Daemon d(std::move(opts));
  EXPECT_THROW((void)d.run(), std::runtime_error);
}

}  // namespace
}  // namespace v6sonar::daemon
