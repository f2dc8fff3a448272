// pbtool — the perfbench helper: seeded input generators, the traced
// in-process compositions behind the per-layer metrics, and the
// daemon client (launch, open-loop load, saturation, restart). run.py
// drives it; see perfbench/README.md for the workloads and metrics.
//
//   pbtool world   <seed> <raw.v6slog|-> <clean.v6slog> <max-records>
//   pbtool churn   <seed> <out.v6slog>
//   pbtool trace   <world_raw|state_churn|ids> <dir> <spans.jsonl> <run-id>
//   pbtool calib   <threads> <repeats>
//   pbtool stream-ref <clean.v6slog> <records> <report.txt>
//   pbtool daemon  <socket> <report.txt|-> -- <v6sonard> <args>...
//   pbtool load    <socket> <clean.v6slog> <out-dir> <query-rate> <expected-events>
//                  <saturation-records> <rate:seconds>... [--spans <spans.jsonl> <run-id>]
//                  -- <v6sonard> <args>...
//
// `daemon` and `load` launch v6sonard from the argv after `--` (which
// must make it listen on <socket>) and drain and reap it at the end.
// Every subcommand prints one JSON object on stdout.

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report_render.hpp"
#include "core/adaptive.hpp"
#include "core/artifact_filter.hpp"
#include "core/detector.hpp"
#include "core/event_io.hpp"
#include "core/event_sink.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/state_codec.hpp"
#include "core/streaming_ids.hpp"
#include "daemon/framing.hpp"
#include "daemon/protocol.hpp"
#include "sim/log_io.hpp"
#include "telescope/world.hpp"
#include "util/metrics.hpp"
#include "util/state_io.hpp"

using namespace v6sonar;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

constexpr std::size_t kBatch = 4'096;  // the CLI's streaming batch size
constexpr std::size_t kReportTop = 20;  // the CLI's default --top

// ------------------------------------------------------------------ //
// JSON output: a flat object of numbers and strings.

class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    add(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (c == '\n') {
        q += "\\n";
        continue;
      }
      q += c;
    }
    add(k, q + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

// ------------------------------------------------------------------ //
// Span tracer. Spans are recorded by this file's code around calls into
// the library's layers, kept in per-thread buffers, and written out as
// JSON lines at the end. Disabled, a scope costs one branch.

namespace trace {

struct Span {
  std::uint32_t id;
  std::uint32_t parent;
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::uint32_t tid;
};

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<std::uint32_t> stack;
};

bool g_on = false;
std::atomic<std::uint32_t> g_next_id{1};
/// Parent for spans opened on threads the tracer did not start (the
/// pipeline's workers): the feeding thread's enclosing composition.
std::atomic<std::uint32_t> g_async_parent{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;

ThreadBuf& buf() {
  thread_local ThreadBuf* b = nullptr;
  if (!b) {
    std::lock_guard lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    b = g_bufs.back().get();
    b->tid = static_cast<std::uint32_t>(g_bufs.size() - 1);
    b->spans.reserve(1 << 16);
  }
  return *b;
}

class Scope {
 public:
  explicit Scope(const char* name) {
    if (!g_on) return;
    ThreadBuf& b = buf();
    span_ = {g_next_id.fetch_add(1, std::memory_order_relaxed),
             b.stack.empty() ? g_async_parent.load(std::memory_order_relaxed) : b.stack.back(),
             name, now_ns(), 0, b.tid};
    b.stack.push_back(span_.id);
    active_ = true;
  }
  ~Scope() {
    if (!active_) return;
    span_.t1 = now_ns();
    ThreadBuf& b = buf();
    b.stack.pop_back();
    b.spans.push_back(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

 private:
  Span span_{};
  bool active_ = false;
};

/// Record a span whose start and end were observed at different points
/// (a request and its reply). Returns its id; `id` reuses a reserved one.
std::uint32_t add(const char* name, std::int64_t t0, std::int64_t t1, std::uint32_t parent,
                  std::uint32_t id = 0) {
  if (!g_on) return 0;
  ThreadBuf& b = buf();
  if (id == 0) id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  b.spans.push_back({id, parent, name, t0, t1, b.tid});
  return id;
}

std::vector<Span> collect() {
  std::lock_guard lock(g_mu);
  std::vector<Span> all;
  for (auto& b : g_bufs) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

/// Per-name totals over one composition's spans. Self time subtracts
/// child spans recorded on the same thread (worker-thread children
/// overlap their parent rather than nest in it).
struct Totals {
  double total_s = 0;
  double self_s = 0;
};

std::map<std::string, Totals> totals(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end() && spans[it->second].tid == s.tid) child_ns[it->second] += s.t1 - s.t0;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Totals& t = out[spans[i].name];
    const double d = static_cast<double>(spans[i].t1 - spans[i].t0) * 1e-9;
    t.total_s += d;
    t.self_s += d - static_cast<double>(child_ns[i]) * 1e-9;
  }
  return out;
}

void append_jsonl(const std::string& path, const std::string& run_id, const char* composition,
                  const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"run\":\"%s\",\"composition\":\"%s\",\"id\":%u,\"parent\":%u,"
                 "\"name\":\"%s\",\"thread\":%u,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 run_id.c_str(), composition, s.id, s.parent, s.name, s.tid,
                 static_cast<double>(s.t0 - base) * 1e-3, static_cast<double>(s.t1 - base) * 1e-3);
  std::fclose(f);
}

}  // namespace trace

/// Times every event a layer hands to the next: one span per event
/// (named after the receiving layer), plus an event count.
class TimedSink final : public core::EventSink {
 public:
  TimedSink(const char* name, const char* flush_name, core::EventSink& inner)
      : name_(name), flush_name_(flush_name), inner_(&inner) {}
  void on_event(core::ScanEvent&& ev) override {
    trace::Scope s(name_);
    ++events_;
    inner_->on_event(std::move(ev));
  }
  void flush() override {
    trace::Scope s(flush_name_);
    inner_->flush();
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  const char* name_;
  const char* flush_name_;
  core::EventSink* inner_;
  std::uint64_t events_ = 0;
};

/// Batches of a mapped .v6slog, each decode call traced.
class Reader {
 public:
  explicit Reader(const std::string& path) {
    trace::Scope s("sim.map");
    reader_.emplace(path);
  }
  std::span<const sim::LogRecord> next() {
    trace::Scope s("sim.decode");
    const std::size_t n = reader_->next_batch(batch_.data(), batch_.size());
    decoded_ += n;
    return {batch_.data(), n};
  }
  [[nodiscard]] std::uint64_t decoded() const noexcept { return decoded_; }

 private:
  std::optional<sim::MappedLogReader> reader_;
  std::vector<sim::LogRecord> batch_ = std::vector<sim::LogRecord>(kBatch);
  std::uint64_t decoded_ = 0;
};

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------------ //
// Input generators.

telescope::WorldConfig world_config(std::uint64_t seed, bool filtered) {
  // WorldConfig::small() thinned 8x further on the scanner side: ~6.3 M
  // raw records, ~1.9 M of them 5-duplicate artifact traffic, before
  // cut_world trims the tail.
  auto cfg = telescope::WorldConfig::small();
  cfg.seed = seed;
  cfg.cast.megascanner_thinning = 1.0 / 4'096.0;
  cfg.cast.session_scale = 0.25;
  cfg.apply_artifact_filter = filtered;
  return cfg;
}

std::uint64_t write_world(std::uint64_t seed, bool filtered, const std::string& out) {
  telescope::CdnWorld world(world_config(seed, filtered));
  sim::LogWriter w(out);
  world.run([&](const sim::LogRecord& r) { w.write(r); });
  w.close();
  return w.written();
}

/// A mapped .v6slog: random access to its records, and in-place
/// truncation when opened writable.
class LogFile {
 public:
  explicit LogFile(const std::string& path, bool writable = false) : path_(path) {
    fd_ = ::open(path.c_str(), writable ? O_RDWR : O_RDONLY);
    if (fd_ < 0) throw std::runtime_error("cannot open " + path);
    size_ = file_bytes(path);
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd_, 0);
    if (p == MAP_FAILED) throw std::runtime_error("cannot map " + path);
    base_ = static_cast<const std::uint8_t*>(p);
  }
  ~LogFile() {
    ::munmap(const_cast<std::uint8_t*>(base_), size_);
    ::close(fd_);
  }
  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;

  [[nodiscard]] std::uint64_t records() const noexcept {
    return (size_ - sim::kLogHeaderBytes) / sim::kLogRecordBytes;
  }
  [[nodiscard]] sim::LogRecord record(std::uint64_t i) const noexcept {
    return sim::decode_record(base_ + sim::kLogHeaderBytes + i * sim::kLogRecordBytes);
  }
  [[nodiscard]] sim::TimeUs ts(std::uint64_t i) const noexcept { return record(i).ts_us; }
  /// Index of the first record at or after `t` (records are time-sorted).
  [[nodiscard]] std::uint64_t lower_bound(sim::TimeUs t) const noexcept {
    std::uint64_t lo = 0, hi = records();
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (ts(mid) < t)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }
  /// Keep the first `n` records: truncate and rewrite the count header.
  void truncate(std::uint64_t n) {
    std::uint8_t count[8];
    for (int i = 0; i < 8; ++i) count[i] = static_cast<std::uint8_t>(n >> (8 * i));
    if (::ftruncate(fd_, static_cast<off_t>(sim::kLogHeaderBytes + n * sim::kLogRecordBytes)) != 0 ||
        ::pwrite(fd_, count, sizeof count, 8) != static_cast<ssize_t>(sizeof count) ||
        ::fsync(fd_) != 0)
      throw std::runtime_error("cannot truncate " + path_);
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t size_ = 0;
  const std::uint8_t* base_ = nullptr;
};

/// Cut the world at the first UTC midnight that leaves at most
/// `max_records` clean records, so every seed yields inputs of nearly
/// the same size. The 5-duplicate filter decides each UTC day on that
/// day's records alone, so the clean log cut at a midnight is still
/// exactly the filtered prefix of the raw log cut there.
void cut_world(const std::string& raw, const std::string& clean, std::uint64_t max_records) {
  constexpr sim::TimeUs kDayUs = 86'400LL * 1'000'000;
  sim::TimeUs cut = INT64_MAX;
  {
    const LogFile sized(clean);
    if (sized.records() <= max_records) return;
    cut = sized.ts(max_records) / kDayUs * kDayUs;
  }
  for (const std::string& path : {raw, clean}) {
    if (path.empty()) continue;
    LogFile f(path, true);
    f.truncate(f.lower_bound(cut));
  }
}

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// ------------------------------------------------------------------ //
// Host-speed calibration: a fixed amount of hashing and random
// read-modify-write over a 32 MiB table per thread. It uses none of the
// library's code, so no change to v6sonar moves it; run.py times it
// beside the measured passes to take the shared host's speed drift out
// of the timing metrics.

double calib_once(std::vector<std::vector<std::uint64_t>>& tables, std::uint64_t steps) {
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> ts;
  for (auto& table : tables)
    ts.emplace_back([&table, steps] {
      const std::uint64_t mask = table.size() - 1;
      SplitMix rng{table.size()};
      for (std::uint64_t i = 0; i < steps; ++i) {
        const std::uint64_t x = rng.next();
        table[x & mask] += x >> 17;
      }
    });
  for (auto& t : ts) t.join();
  return seconds_since(t0);
}

class Calibration {
 public:
  explicit Calibration(int threads)
      : tables_(static_cast<std::size_t>(threads), std::vector<std::uint64_t>(kWords, 1)) {
    calib_once(tables_, kSteps / 4);  // warm-up
  }

  /// Median seconds of `reps` runs of the fixed work.
  double seconds(int reps) {
    std::vector<double> s;
    for (int r = 0; r < reps; ++r) s.push_back(calib_once(tables_, kSteps));
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 22;  // 32 MiB per thread
  static constexpr std::uint64_t kSteps = std::uint64_t{1} << 21;
  std::vector<std::vector<std::uint64_t>> tables_;
};

int cmd_calib(int threads, int reps) {
  Calibration c(threads);
  JsonOut j;
  j.num("seconds", c.seconds(reps));
  j.print();
  return 0;
}

/// One synthetic source: `left` probes from `src_hi`::/64, spaced on
/// average `gap_us` apart, each to a fresh address under `dst_hi`.
struct Emitter {
  sim::TimeUs next = 0;
  std::uint32_t left = 0;
  sim::TimeUs gap_us = 0;
  std::uint64_t src_hi = 0;
  std::uint64_t dst_hi = 0;
  std::uint32_t asn = 0;
  std::uint16_t port = 0;
  friend bool operator>(const Emitter& a, const Emitter& b) { return a.next > b.next; }
};

/// The state-churn population over 12 h of stream time: 48 heavy
/// scanners that never go quiet (enough of them that their hash spread
/// over 3 shards barely depends on the seed), short scans that time out
/// mid-stream, and a long tail of one-shot sources that never qualify.
std::uint64_t write_churn(std::uint64_t seed, const std::string& out) {
  SplitMix rng{seed * 0x2545F4914F6CDD1DULL + 7};
  const sim::TimeUs t0 = sim::us_from_seconds(1'622'505'600);  // 2021-06-01
  const sim::TimeUs span = sim::us_from_seconds(12 * 3'600);
  std::priority_queue<Emitter, std::vector<Emitter>, std::greater<>> live;
  constexpr std::uint32_t kHeavy = 48, kHeavyProbes = 25'000, kShort = 20'000, kTail = 150'000;
  for (std::uint32_t h = 0; h < kHeavy; ++h)
    live.push({t0 + static_cast<sim::TimeUs>(rng.below(1'000'000)), kHeavyProbes,
               span / kHeavyProbes, 0x2a10'f000'0000'0000ULL | (rng.next() >> 24),
               0x2001'0db8'0000'0000ULL | (rng.next() >> 32), 64'000 + h,
               static_cast<std::uint16_t>(22 + h)});
  std::vector<Emitter> starts;
  for (std::uint32_t i = 0; i < kShort; ++i) {
    const auto probes = 100 + static_cast<std::uint32_t>(rng.below(61));
    const sim::TimeUs dur = sim::us_from_seconds(60 + static_cast<std::int64_t>(rng.below(1'141)));
    starts.push_back({t0 + static_cast<sim::TimeUs>(rng.below(span - dur)), probes, dur / probes,
                      0x2a11'0000'0000'0000ULL | (rng.next() >> 16),
                      0x2001'0db8'0000'0000ULL | (rng.next() >> 32),
                      65'000 + static_cast<std::uint32_t>(rng.below(400)),
                      static_cast<std::uint16_t>(rng.below(8) == 0 ? 443 : 80)});
  }
  for (std::uint32_t i = 0; i < kTail; ++i)
    starts.push_back({t0 + static_cast<sim::TimeUs>(rng.below(span)),
                      1 + static_cast<std::uint32_t>(rng.below(3)), sim::us_from_seconds(20),
                      0x2a12'0000'0000'0000ULL | (rng.next() >> 16),
                      0x2001'0db8'0000'0000ULL | (rng.next() >> 32),
                      66'000 + static_cast<std::uint32_t>(rng.below(2'000)),
                      static_cast<std::uint16_t>(rng.below(1'024))});
  std::sort(starts.begin(), starts.end(),
            [](const Emitter& a, const Emitter& b) { return a.next < b.next; });

  sim::LogWriter w(out);
  std::size_t next_start = 0;
  for (;;) {
    while (next_start < starts.size() &&
           (live.empty() || starts[next_start].next <= live.top().next))
      live.push(starts[next_start++]);
    if (live.empty()) break;
    Emitter e = live.top();
    live.pop();
    sim::LogRecord r;
    r.ts_us = e.next;
    r.src = net::Ipv6Address{e.src_hi, 0x1000 + rng.below(4)};
    r.dst = net::Ipv6Address{e.dst_hi, rng.next()};
    r.proto = wire::IpProto::kTcp;
    r.src_port = static_cast<std::uint16_t>(rng.next());
    r.dst_port = e.port;
    r.frame_len = 60;
    r.src_asn = e.asn;
    r.dst_in_dns = rng.below(8) == 0;
    w.write(r);
    if (--e.left > 0) {
      e.next += 1 + static_cast<sim::TimeUs>(rng.below(static_cast<std::uint64_t>(2 * e.gap_us)));
      live.push(e);
    }
  }
  w.close();
  return w.written();
}

// ------------------------------------------------------------------ //
// The daemon's input stream: the clean world replayed lap after lap,
// each lap shifted past the previous one by two detection timeouts so
// no scan spans a lap boundary, closed by one sentinel record two
// timeouts after the last record (it finalizes every open scan).

constexpr sim::TimeUs kTimeoutUs = 3'600LL * 1'000'000;

class LappedStream {
 public:
  explicit LappedStream(const std::string& path) : log_(path) {
    if (log_.records() == 0) throw std::runtime_error(path + " holds no records");
    lap_us_ = log_.ts(log_.records() - 1) - log_.ts(0) + 2 * kTimeoutUs + sim::kUsPerSecond;
  }

  /// Record `i` of the endless lapped stream.
  [[nodiscard]] sim::LogRecord record(std::uint64_t i) const {
    sim::LogRecord r = log_.record(i % log_.records());
    r.ts_us += static_cast<sim::TimeUs>(i / log_.records()) * lap_us_;
    return r;
  }
  /// The sentinel that follows a stream of `n` records.
  [[nodiscard]] sim::LogRecord sentinel(std::uint64_t n) const {
    sim::LogRecord r;
    r.ts_us = record(n - 1).ts_us + 2 * kTimeoutUs;
    r.src = net::Ipv6Address{0x2001'0db8'5e47'0000ULL, 1};
    r.dst = net::Ipv6Address{0x2001'0db8'0000'0000ULL, 1};
    r.dst_port = 9;
    r.frame_len = 60;
    return r;
  }
  /// Encode records [from, from + n) into `out` as ingest payload bytes.
  void encode(std::uint64_t from, std::uint64_t n, std::string& out) const {
    out.resize(n * sim::kLogRecordBytes);
    auto* p = reinterpret_cast<std::uint8_t*>(out.data());
    for (std::uint64_t i = 0; i < n; ++i)
      sim::encode_record(record(from + i), p + i * sim::kLogRecordBytes);
  }

 private:
  LogFile log_;
  sim::TimeUs lap_us_ = 0;
};

/// Batch reference for the daemon: the serial detector and the report
/// bundle over exactly the records the load client streams, sentinel
/// included, rendered as `v6sonar detect --report --top 10` would.
int cmd_stream_ref(const std::string& clean, std::uint64_t n, const std::string& report_out) {
  constexpr std::size_t kDaemonTop = 10;
  LappedStream stream(clean);
  core::FanOutSink fan;
  analysis::ReportBundle bundle(kDaemonTop);
  bundle.attach(fan);
  TimedSink counted("analysis.sink", "analysis.flush", fan);
  core::ScanDetector det({}, counted);
  std::vector<sim::LogRecord> batch;
  batch.reserve(kBatch);
  for (std::uint64_t i = 0; i <= n; ++i) {
    batch.push_back(i < n ? stream.record(i) : stream.sentinel(n));
    if (batch.size() == kBatch || i == n) {
      det.feed_batch(batch);
      batch.clear();
    }
  }
  det.flush();
  counted.flush();
  write_text(report_out, analysis::render_report(bundle, kDaemonTop));
  JsonOut j;
  j.num("records", static_cast<double>(n + 1));
  j.num("events", static_cast<double>(counted.events()));
  j.print();
  return 0;
}

// ------------------------------------------------------------------ //
// Traced compositions. Each returns its wall time; spans land in the
// tracer when it is on.

core::DetectorConfig detect_config(bool tiered) {
  core::DetectorConfig cfg;
  if (tiered) cfg.demote_idle_us = 600LL * 1'000'000;  // --cold-after 600
  return cfg;
}

struct InlineResult {
  double wall_s = 0;
  std::string report;
  std::uint64_t records_in = 0;
  std::uint64_t filter_kept = 0;
  std::uint64_t events = 0;
  std::size_t hot_end = 0;
  std::size_t cold_end = 0;
  std::uint64_t spill_bytes = 0;
};

/// 1-shard inline chain: reader -> [filter] -> ScanDetector -> timing
/// sink -> FanOutSink(report bundle [, spill]) -> render, with optional
/// serial checkpoints every `ckpt_every` records.
InlineResult run_inline(const std::string& input, bool filter_first, bool tiered,
                        const std::string& spill_path, const std::string& ckpt_path,
                        std::uint64_t ckpt_every) {
  InlineResult res;
  const std::int64_t t0 = now_ns();
  {
    trace::Scope run("run");
    trace::g_async_parent = run.id();
    Reader reader(input);
    core::FanOutSink report_fan;
    analysis::ReportBundle bundle(kReportTop);
    bundle.attach(report_fan);
    TimedSink analysis_sink("analysis.sink", "analysis.flush", report_fan);
    std::optional<core::EventWriter> spill;
    std::optional<TimedSink> spill_sink;
    core::FanOutSink top;
    top.add(analysis_sink);
    if (!spill_path.empty()) {
      spill.emplace(spill_path);
      spill_sink.emplace("spill.write", "spill.close", *spill);
      top.add(*spill_sink);
    }
    core::ScanDetector det(detect_config(tiered), top);
    std::vector<sim::LogRecord> pending;
    pending.reserve(2 * kBatch);
    core::ArtifactFilter filter({}, [&](const sim::LogRecord& r) { pending.push_back(r); });
    const auto drain_pending = [&](bool all) {
      std::size_t at = 0;
      while (pending.size() - at >= kBatch || (all && at < pending.size())) {
        const std::size_t n = std::min(kBatch, pending.size() - at);
        trace::Scope s("detector.feed");
        det.feed_batch({pending.data() + at, n});
        at += n;
      }
      res.filter_kept += at;
      pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(at));
    };
    std::uint64_t fed = 0;
    std::uint64_t next_ckpt = ckpt_every ? ckpt_every : UINT64_MAX;
    for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
      if (filter_first) {
        {
          trace::Scope s("filter.feed");
          filter.feed_batch(batch);
        }
        drain_pending(false);
      } else {
        trace::Scope s("detector.feed");
        det.feed_batch(batch);
      }
      fed += batch.size();
      if (fed >= next_ckpt) {
        trace::Scope s("checkpoint.save");
        core::CheckpointWriter ck;
        util::StateWriter dw, aw;
        det.save(dw);
        bundle.save(aw);
        ck.add("detector", std::move(dw));
        ck.add("analyzers", std::move(aw));
        ck.commit(ckpt_path);
        next_ckpt = fed + ckpt_every;
      }
    }
    if (filter_first) {
      {
        trace::Scope s("filter.flush");
        filter.flush();
      }
      drain_pending(true);
    }
    res.records_in = reader.decoded();
    res.hot_end = det.hot_sources();
    res.cold_end = det.cold_sources();
    {
      trace::Scope s("detector.flush");
      det.flush();
    }
    top.flush();
    res.events = analysis_sink.events();
    {
      trace::Scope s("analysis.render");
      res.report = analysis::render_report(bundle, kReportTop);
    }
    trace::g_async_parent = 0;
  }
  res.wall_s = seconds_since(t0);
  if (!spill_path.empty()) res.spill_bytes = file_bytes(spill_path);
  return res;
}

struct ShardChain {
  core::FanOutSink fan;
  analysis::ReportBundle bundle{kReportTop};
  TimedSink timed{"analysis.sink", "analysis.flush", fan};
  ShardChain() { bundle.attach(fan); }
};

struct ShardedResult {
  double wall_s = 0;
  std::string report;
  std::vector<std::uint64_t> shard_events;
  std::vector<double> save_ms;
  std::uint64_t ckpt_at = 0;  ///< records covered by the last checkpoint
  std::uint64_t ckpt_bytes = 0;
};

std::unique_ptr<core::ParallelScanPipeline> make_pipeline(
    bool tiered, int threads, std::vector<std::unique_ptr<ShardChain>>& chains) {
  return std::make_unique<core::ParallelScanPipeline>(
      detect_config(tiered), core::ParallelConfig{.threads = threads},
      core::ParallelScanPipeline::ShardSinkFactory([&chains](std::size_t) -> core::EventSink& {
        chains.push_back(std::make_unique<ShardChain>());
        return chains.back()->timed;
      }));
}

/// Merge every shard's bundle into shard 0's, flush, render.
std::string merge_and_render(std::vector<std::unique_ptr<ShardChain>>& chains) {
  {
    trace::Scope s("analysis.merge");
    for (std::size_t i = 1; i < chains.size(); ++i)
      chains[0]->bundle.merge(std::move(chains[i]->bundle));
  }
  chains[0]->timed.flush();
  trace::Scope s("analysis.render");
  return analysis::render_report(chains[0]->bundle, kReportTop);
}

void save_sharded(const std::string& path, core::ParallelScanPipeline& pipeline,
                  std::vector<std::unique_ptr<ShardChain>>& chains) {
  const std::size_t n = chains.size();
  std::vector<util::StateWriter> det_w(n), an_w(n);
  pipeline.with_shard_state([&](std::size_t s, core::ScanDetector& det, core::ArtifactFilter*) {
    det.save(det_w[s]);
    chains[s]->bundle.save(an_w[s]);
  });
  core::CheckpointWriter ck;
  for (std::size_t s = 0; s < n; ++s) {
    ck.add("shard" + std::to_string(s) + ".detector", std::move(det_w[s]));
    ck.add("shard" + std::to_string(s) + ".analyzers", std::move(an_w[s]));
  }
  ck.commit(path);
}

/// N-shard sharded-ownership chain: reader -> ParallelScanPipeline ->
/// per-shard timing sink -> report bundle; merge at flush, render. With
/// `ckpt_every`, checkpoints at the with_shard_state rendezvous.
ShardedResult run_sharded(const std::string& input, bool tiered, int threads,
                          const std::string& ckpt_path, std::uint64_t ckpt_every) {
  ShardedResult res;
  const std::int64_t t0 = now_ns();
  std::uint64_t last_ckpt_at = 0;
  {
    trace::Scope run("run");
    trace::g_async_parent = run.id();
    std::vector<std::unique_ptr<ShardChain>> chains;
    auto pipeline = make_pipeline(tiered, threads, chains);
    Reader reader(input);
    std::uint64_t fed = 0;
    std::uint64_t next_ckpt = ckpt_every ? ckpt_every : UINT64_MAX;
    for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
      {
        trace::Scope s("pipeline.feed");
        pipeline->feed_batch(batch);
      }
      fed += batch.size();
      if (fed >= next_ckpt) {
        trace::Scope s("checkpoint.save");
        const std::int64_t c0 = now_ns();
        save_sharded(ckpt_path, *pipeline, chains);
        res.save_ms.push_back(seconds_since(c0) * 1e3);
        last_ckpt_at = fed;
        next_ckpt = fed + ckpt_every;
      }
    }
    {
      trace::Scope s("pipeline.flush");
      pipeline->flush();
    }
    for (const auto& c : chains) res.shard_events.push_back(c->timed.events());
    res.report = merge_and_render(chains);
    trace::g_async_parent = 0;
  }
  res.wall_s = seconds_since(t0);
  res.ckpt_at = last_ckpt_at;
  if (ckpt_every) res.ckpt_bytes = file_bytes(ckpt_path);
  return res;
}

/// Resume an N-shard chain from the checkpoint taken `skip` records in:
/// load every shard's state at the rendezvous, skip the covered records,
/// feed the rest, merge, render.
std::string resume_sharded(const std::string& input, bool tiered, int threads,
                           const std::string& ckpt_path, std::uint64_t skip, double& load_s) {
  trace::Scope run("run");
  trace::g_async_parent = run.id();
  std::vector<std::unique_ptr<ShardChain>> chains;
  std::unique_ptr<core::ParallelScanPipeline> pipeline;
  {
    trace::Scope s("checkpoint.load");
    const std::int64_t l0 = now_ns();
    core::CheckpointReader ck(ckpt_path);
    pipeline = make_pipeline(tiered, threads, chains);
    pipeline->with_shard_state([&](std::size_t s, core::ScanDetector& det, core::ArtifactFilter*) {
      auto dr = ck.section("shard" + std::to_string(s) + ".detector");
      det.load(dr);
      dr.expect_end();
      auto ar = ck.section("shard" + std::to_string(s) + ".analyzers");
      chains[s]->bundle.load(ar);
      ar.expect_end();
    });
    load_s = seconds_since(l0);
  }
  Reader reader(input);
  for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
    if (skip >= batch.size()) {
      skip -= batch.size();
      continue;
    }
    batch = batch.subspan(skip);
    skip = 0;
    trace::Scope s("pipeline.feed");
    pipeline->feed_batch(batch);
  }
  {
    trace::Scope s("pipeline.flush");
    pipeline->flush();
  }
  std::string report = merge_and_render(chains);
  trace::g_async_parent = 0;
  return report;
}

struct IdsResult {
  double wall_s = 0;
  std::uint64_t records_in = 0;
  std::string blocklist;
  std::uint64_t alerts = 0;
  std::uint64_t events = 0;
};

/// 1-shard inline IDS ladder: reader -> one ScanDetector per ladder
/// level -> slim-event collection -> attribute_adaptive at the end.
IdsResult run_ids_inline(const std::string& input) {
  IdsResult res;
  const std::int64_t t0 = now_ns();
  {
    trace::Scope run("run");
    const core::IdsConfig cfg;
    std::vector<std::vector<core::ScanEvent>> events(cfg.adaptive.ladder.size());
    std::vector<std::unique_ptr<core::FunctionSink>> collect;
    std::vector<std::unique_ptr<TimedSink>> timed;
    std::vector<std::unique_ptr<core::ScanDetector>> ladder;
    for (std::size_t i = 0; i < cfg.adaptive.ladder.size(); ++i) {
      collect.push_back(std::make_unique<core::FunctionSink>(
          [&events, i](core::ScanEvent&& ev) { events[i].push_back(core::slim_scan_event(ev)); }));
      timed.push_back(std::make_unique<TimedSink>("ids.collect", "ids.collect", *collect.back()));
      ladder.push_back(std::make_unique<core::ScanDetector>(
          core::DetectorConfig{.source_prefix_len = cfg.adaptive.ladder[i],
                               .min_destinations = cfg.min_destinations,
                               .timeout_us = cfg.timeout_us},
          *timed.back()));
    }
    Reader reader(input);
    for (auto batch = reader.next(); !batch.empty(); batch = reader.next())
      for (auto& d : ladder) {
        trace::Scope s("detector.feed");
        d->feed_batch(batch);
      }
    for (auto& d : ladder) {
      trace::Scope s("detector.flush");
      d->flush();
    }
    for (const auto& t : timed) res.events += t->events();
    res.records_in = reader.decoded();
    trace::Scope s("ids.attribute");
    res.blocklist = analysis::render_blocklist(core::attribute_adaptive(events, cfg.adaptive));
  }
  res.wall_s = seconds_since(t0);
  return res;
}

/// N-shard ParallelIds with sharded ownership, as `v6sonar ids
/// --threads N` runs it.
IdsResult run_ids_sharded(const std::string& input, int threads) {
  IdsResult res;
  const std::int64_t t0 = now_ns();
  {
    trace::Scope run("run");
    // Sharded ownership is the order mode the CLI defaults to.
    core::ParallelIds ids({}, {.threads = threads}, [&](const core::IdsAlert&) { ++res.alerts; },
                          core::OrderMode::kSharded);
    Reader reader(input);
    for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
      trace::Scope s("ids.feed");
      ids.feed_batch(batch);
    }
    {
      trace::Scope s("ids.flush");
      ids.flush();
    }
    res.blocklist = analysis::render_blocklist(ids.blocklist());
  }
  res.wall_s = seconds_since(t0);
  return res;
}

// ------------------------------------------------------------------ //
// `pbtool trace`: run each composition untraced, then traced, and
// report the per-layer numbers.

double span_total(const std::map<std::string, trace::Totals>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_s;
}
double span_self(const std::map<std::string, trace::Totals>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_s;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Fraction of the root span's wall time covered by layer spans.
double self_coverage(const std::map<std::string, trace::Totals>& t) {
  const double root = span_total(t, "run");
  return root > 0 ? 1.0 - span_self(t, "run") / root : 0.0;
}

std::uint64_t counter(const char* name) {
  return util::metrics::snapshot().counter(name).value_or(0);
}

/// Run `fn` traced (metrics on) and return its spans' totals.
template <typename Fn>
std::map<std::string, trace::Totals> traced(const std::string& spans_path,
                                            const std::string& run_id, const char* composition,
                                            Fn&& fn) {
  util::metrics::reset();
  util::metrics::enable(true);
  trace::g_on = true;
  fn();
  trace::g_on = false;
  util::metrics::enable(false);
  const auto spans = trace::collect();
  trace::append_jsonl(spans_path, run_id, composition, spans);
  return trace::totals(spans);
}

int cmd_trace(const std::string& workload, const std::string& dir, const std::string& spans_path,
              const std::string& run_id) {
  const std::string raw = dir + "/raw.v6slog", clean = dir + "/clean_ref.v6slog",
                    churn = dir + "/churn.v6slog";
  JsonOut j;
  const auto put_detector = [&](const std::map<std::string, trace::Totals>& t,
                                const InlineResult& r, double grouped_ratio) {
    j.num("detector.busy_s", span_self(t, "detector.feed"));
    j.num("detector.flush_s", span_self(t, "detector.flush"));
    j.num("detector.events", static_cast<double>(r.events));
    j.num("detector.grouped_ratio", grouped_ratio);
    j.num("detector.hot_sources_end", static_cast<double>(r.hot_end));
    j.num("detector.cold_sources_end", static_cast<double>(r.cold_end));
  };
  const auto put_sim = [&](const std::map<std::string, trace::Totals>& t, double records) {
    j.num("sim.map_s", span_total(t, "sim.map"));
    const double decode = span_total(t, "sim.decode");
    j.num("sim.decode_s", decode);
    j.num("sim.decode_records_per_s", decode > 0 ? records / decode : 0.0);
  };
  const auto put_analysis = [&](const std::map<std::string, trace::Totals>& inline_t,
                                const std::map<std::string, trace::Totals>& sharded_t,
                                double events) {
    const double sink = span_self(inline_t, "analysis.sink");
    j.num("analysis.sink_s", sink);
    j.num("analysis.merge_s", span_total(sharded_t, "analysis.merge"));
    j.num("analysis.render_s", span_total(inline_t, "analysis.render"));
    j.num("analysis.events_per_s", sink > 0 ? events / sink : 0.0);
  };
  const auto put_pipeline = [&](const std::map<std::string, trace::Totals>& t,
                                const ShardedResult& r, std::uint64_t blocked, double speedup) {
    j.num("pipeline.feed_s", span_total(t, "pipeline.feed"));
    j.num("pipeline.flush_s", span_total(t, "pipeline.flush"));
    j.num("pipeline.producer_blocked", static_cast<double>(blocked));
    double mx = 0, sum = 0;
    for (const auto e : r.shard_events) {
      mx = std::max(mx, static_cast<double>(e));
      sum += static_cast<double>(e);
    }
    j.num("pipeline.shard_skew", sum > 0 ? mx / (sum / static_cast<double>(r.shard_events.size()))
                                         : 0.0);
    j.num("pipeline.speedup_vs_1shard", speedup);
  };
  constexpr int kShards = 3;

  if (workload == "world_raw" || workload == "state_churn") {
    const bool world = workload == "world_raw";
    const std::string input = world ? raw : churn;
    const std::string sharded_input = world ? clean : churn;
    const std::string spill = world ? dir + "/trace_spill.v6ev" : "";
    const std::string ck = dir + "/trace.ckpt";
    std::uint64_t ck_every = 0;
    if (!world) {
      sim::MappedLogReader probe(churn);
      ck_every = probe.total_records() / 6 + 1;  // five checkpoints
    }
    // Untraced twice (the first warms caches), then traced.
    run_inline(input, world, !world, spill, ck, ck_every);
    const auto plain = run_inline(input, world, !world, spill, ck, ck_every);
    InlineResult in;
    double grouped = 0;
    const auto ti = traced(spans_path, run_id, "inline_1shard", [&] {
      in = run_inline(input, world, !world, spill, ck, ck_every);
      const auto recs = counter("detector.batch.records");
      grouped = recs ? static_cast<double>(counter("detector.batch.grouped.records")) /
                           static_cast<double>(recs)
                     : 0.0;
    });
    const double one = run_sharded(sharded_input, !world, 1, "", 0).wall_s;
    const double three = run_sharded(sharded_input, !world, kShards, "", 0).wall_s;
    ShardedResult sh;
    std::uint64_t blocked = 0;
    const auto ts = traced(spans_path, run_id, "sharded_3shard", [&] {
      sh = run_sharded(sharded_input, !world, kShards, ck, ck_every);
      blocked = counter("pipeline.in_ring.producer_blocked");
    });
    write_text(dir + "/trace_inline_report.txt", in.report);
    std::string resumed;
    double load_s = 0;
    if (!world)
      traced(spans_path, run_id, "resume_3shard", [&] {
        resumed = resume_sharded(sharded_input, true, kShards, ck, sh.ckpt_at, load_s);
      });

    put_sim(ti, static_cast<double>(in.records_in));
    j.num("filter.busy_s", span_total(ti, "filter.feed") + span_total(ti, "filter.flush"));
    j.num("filter.records_in", world ? static_cast<double>(in.records_in) : 0.0);
    j.num("filter.kept_ratio", world && in.records_in ? static_cast<double>(in.filter_kept) /
                                                            static_cast<double>(in.records_in)
                                                      : 0.0);
    put_detector(ti, in, grouped);
    put_pipeline(ts, sh, blocked, three > 0 ? one / three : 0.0);
    put_analysis(ti, ts, static_cast<double>(in.events));
    j.num("spill.write_s", span_self(ti, "spill.write") + span_self(ti, "spill.close"));
    j.num("spill.bytes", static_cast<double>(in.spill_bytes));
    j.num("checkpoint.save_ms_p50", percentile(sh.save_ms, 0.5));
    j.num("checkpoint.save_ms_max",
          sh.save_ms.empty() ? 0.0 : *std::max_element(sh.save_ms.begin(), sh.save_ms.end()));
    j.num("checkpoint.bytes", static_cast<double>(sh.ckpt_bytes));
    j.num("checkpoint.load_s", load_s);
    for (const char* k : {"ids.feed_s", "ids.flush_s", "ids.attribute_s", "ids.alerts"}) j.num(k, 0);
    j.num("trace.overhead_ratio", plain.wall_s > 0 ? in.wall_s / plain.wall_s : 0.0);
    j.num("trace.self_coverage", self_coverage(ti));
    j.str("check.inline_equals_sharded", in.report == sh.report ? "yes" : "no");
    if (!world) j.str("check.resumed_equals_full", resumed == sh.report ? "yes" : "no");
  } else if (workload == "ids") {
    run_ids_inline(clean);
    const auto plain = run_ids_inline(clean);
    IdsResult in;
    const auto ti = traced(spans_path, run_id, "inline_1shard", [&] { in = run_ids_inline(clean); });
    const double one = run_ids_sharded(clean, 1).wall_s;
    const double three = run_ids_sharded(clean, kShards).wall_s;
    IdsResult sh;
    std::uint64_t blocked = 0;
    const auto ts = traced(spans_path, run_id, "sharded_3shard", [&] {
      sh = run_ids_sharded(clean, kShards);
      blocked = counter("pipeline.in_ring.producer_blocked");
    });
    write_text(dir + "/trace_inline_blocklist.txt", in.blocklist);
    put_sim(ti, static_cast<double>(in.records_in));
    j.num("filter.busy_s", 0);
    j.num("filter.records_in", 0);
    j.num("filter.kept_ratio", 0);
    InlineResult as_inline;
    as_inline.events = in.events;
    put_detector(ti, as_inline, 0.0);
    j.num("pipeline.feed_s", span_total(ts, "ids.feed"));
    j.num("pipeline.flush_s", span_total(ts, "ids.flush"));
    j.num("pipeline.producer_blocked", static_cast<double>(blocked));
    j.num("pipeline.shard_skew", 0);
    j.num("pipeline.speedup_vs_1shard", three > 0 ? one / three : 0.0);
    for (const char* k : {"analysis.sink_s", "analysis.merge_s", "analysis.render_s",
                          "analysis.events_per_s", "spill.write_s", "spill.bytes",
                          "checkpoint.save_ms_p50", "checkpoint.save_ms_max", "checkpoint.bytes",
                          "checkpoint.load_s"})
      j.num(k, 0);
    j.num("ids.feed_s", span_total(ts, "ids.feed"));
    j.num("ids.flush_s", span_total(ts, "ids.flush"));
    j.num("ids.attribute_s", span_total(ti, "ids.attribute"));
    j.num("ids.alerts", static_cast<double>(sh.alerts));
    j.num("trace.overhead_ratio", plain.wall_s > 0 ? in.wall_s / plain.wall_s : 0.0);
    j.num("trace.self_coverage", self_coverage(ti));
    j.str("check.inline_equals_sharded", in.blocklist == sh.blocklist ? "yes" : "no");
  } else {
    std::fprintf(stderr, "pbtool trace: unknown workload %s\n", workload.c_str());
    return 2;
  }
  j.print();
  return 0;
}

// ------------------------------------------------------------------ //
// `pbtool load`: the open-loop daemon client. One process, two
// connections (ingest, queries), one poll loop; every request is timed
// from when it was due.

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

class Conn {
 public:
  explicit Conn(const std::string& path) : fd_(connect_unix(path)) {
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::uint16_t send(daemon::Verb verb, std::string payload) {
    const std::uint16_t seq = next_seq_++;
    out_.push_back(daemon::encode_frame(
        {static_cast<std::uint8_t>(verb), 0, seq, std::move(payload)}));
    return seq;
  }
  [[nodiscard]] bool wants_write() const noexcept { return !out_.empty(); }
  void on_writable() {
    while (!out_.empty()) {
      const std::string& f = out_.front();
      const ssize_t n = ::send(fd_, f.data() + off_, f.size() - off_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) return;
        throw std::runtime_error("send failed");
      }
      off_ += static_cast<std::size_t>(n);
      if (off_ < f.size()) return;
      out_.pop_front();
      off_ = 0;
    }
  }
  /// Read what is available; returns decoded frames. A peer that closes
  /// right after its last reply (a drained daemon) still delivers it.
  std::vector<daemon::Frame> on_readable() {
    char buf[1 << 16];
    bool closed = false;
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        dec_.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EINTR) break;
      throw std::runtime_error("recv failed");
    }
    std::vector<daemon::Frame> frames;
    daemon::Frame f;
    for (;;) {
      const auto r = dec_.next(f);
      if (r == daemon::FrameDecoder::Result::kMalformed)
        throw std::runtime_error("malformed frame: " + dec_.error());
      if (r == daemon::FrameDecoder::Result::kNeedMore) break;
      frames.push_back(std::move(f));
    }
    if (closed && frames.empty()) throw std::runtime_error("daemon closed the connection");
    return frames;
  }
  /// Blocking request/response (used outside the open-loop phase).
  daemon::Frame call(daemon::Verb verb, std::string payload) {
    const std::uint16_t seq = send(verb, std::move(payload));
    for (;;) {
      pollfd p{fd_, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)), 0};
      if (::poll(&p, 1, 30'000) <= 0) throw std::runtime_error("daemon timed out");
      if (p.revents & POLLOUT) on_writable();
      if (p.revents & (POLLIN | POLLHUP | POLLERR))
        for (auto& f : on_readable())
          if (f.seq == seq) return f;
    }
  }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
  std::deque<std::string> out_;
  std::size_t off_ = 0;
  std::uint16_t next_seq_ = 1;
  daemon::FrameDecoder dec_;
};

constexpr auto kOk = static_cast<std::uint8_t>(daemon::Status::kOk);

/// v6sonard as pbtool's child: launched from its argv, ready once a
/// `ping` is answered, drained with the `shutdown` verb and reaped with
/// its rusage. It gets SIGKILL if pbtool dies, so a killed run leaves
/// no daemon behind.
class DaemonChild {
 public:
  DaemonChild(std::vector<std::string> argv, std::string socket) : socket_(std::move(socket)) {
    if (argv.empty()) throw std::runtime_error("no v6sonard command line after --");
    std::vector<char*> args;
    for (auto& a : argv) args.push_back(a.data());
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    t0_ = now_ns();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(STDERR_FILENO, STDOUT_FILENO);  // pbtool's stdout carries its JSON
      ::execv(args[0], args.data());
      ::_exit(127);
    }
  }
  ~DaemonChild() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  DaemonChild(const DaemonChild&) = delete;
  DaemonChild& operator=(const DaemonChild&) = delete;

  /// Connect until a `ping` is answered; sets ready_s to the seconds
  /// since launch.
  std::unique_ptr<Conn> connect() {
    for (;;) {
      try {
        auto c = std::make_unique<Conn>(socket_);
        if (c->call(daemon::Verb::kPing, "p").status == kOk) {
          ready_s = seconds_since(t0_);
          return c;
        }
      } catch (const std::runtime_error&) {
        // not listening yet
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = 0;
        throw std::runtime_error("v6sonard exited before answering a ping");
      }
      if (seconds_since(t0_) > 30) throw std::runtime_error("v6sonard did not answer a ping");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  /// Ask for a graceful drain over `conn`, close it and reap the
  /// daemon; returns its exit code and sets rss_mb.
  int stop(std::unique_ptr<Conn> conn) {
    if (conn->call(daemon::Verb::kShutdown, "").status != kOk) ::kill(pid_, SIGKILL);
    conn.reset();
    const std::int64_t t0 = now_ns();
    int status = 0;
    rusage ru{};
    for (;;) {
      const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) throw std::runtime_error("wait4 failed");
      if (seconds_since(t0) > 30) ::kill(pid_, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = 0;
    rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  [[nodiscard]] std::int64_t launched_at() const noexcept { return t0_; }
  double ready_s = 0;
  double rss_mb = 0;

 private:
  std::string socket_;
  std::int64_t t0_ = 0;
  pid_t pid_ = 0;
};

/// `pbtool daemon`: launch, time until the first `ping` is answered,
/// fetch one `report` (timed from launch) unless report_out is "-",
/// then drain and reap.
int cmd_daemon(const std::string& socket, const std::string& report_out,
               std::vector<std::string> argv) {
  DaemonChild d(std::move(argv), socket);
  auto conn = d.connect();
  JsonOut j;
  j.num("ready_s", d.ready_s);
  if (report_out != "-") {
    const auto f = conn->call(daemon::Verb::kReport, "");
    j.num("report_s", seconds_since(d.launched_at()));
    j.num("report_ok", f.status == kOk ? 1 : 0);
    write_text(report_out, f.payload);
  }
  j.num("rc", d.stop(std::move(conn)));
  j.num("rss_mb", d.rss_mb);
  j.print();
  return 0;
}

std::uint64_t status_value(const std::string& text, const std::string& key) {
  const auto at = text.find(key + " ");
  return at == std::string::npos ? 0 : std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
}

struct Phase {
  double rate = 0;     ///< offered records per second
  double seconds = 0;  ///< phase length
};

int cmd_load(const std::string& socket, const std::string& clean, const std::string& out_dir,
             double query_rate, const std::vector<Phase>& phases, const std::string& spans_path,
             const std::string& run_id, std::uint64_t expected_events,
             std::uint64_t sat_records, std::vector<std::string> daemon_argv) {
  constexpr double kChunksPerSecond = 200;
  Calibration calib(1);
  DaemonChild d(std::move(daemon_argv), socket);
  auto ctl = d.connect();
  Conn& query = *ctl;
  Conn ingest(socket);
  const LappedStream stream(clean);
  trace::g_on = !spans_path.empty();
  const std::int64_t run_start = now_ns();
  const std::uint32_t root = trace::g_next_id.fetch_add(1, std::memory_order_relaxed);
  trace::g_async_parent = root;

  // Round-trip floor before any load.
  std::vector<double> ping_ms;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t t = now_ns();
    trace::Scope s("daemon.ping");
    query.call(daemon::Verb::kPing, "x");
    ping_ms.push_back(seconds_since(t) * 1e3);
  }

  struct Chunk {
    std::int64_t due;
    std::uint64_t records;
    std::size_t phase;
  };
  std::vector<Chunk> chunks;
  const std::int64_t start = now_ns() + 20'000'000;
  double phase_start = 0;
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const auto n = static_cast<std::size_t>(phases[p].seconds * kChunksPerSecond);
    const auto per = static_cast<std::uint64_t>(phases[p].rate / kChunksPerSecond);
    for (std::size_t i = 0; i < n; ++i) {
      const double at = phase_start + static_cast<double>(i) / kChunksPerSecond;
      chunks.push_back({start + static_cast<std::int64_t>(at * 1e9), per, p});
      total += per;
    }
    phase_start += phases[p].seconds;
  }
  const auto n_queries = static_cast<std::size_t>(phase_start * query_rate);

  std::vector<std::int64_t> ack_at(chunks.size(), 0);
  std::vector<std::int64_t> answered_at(n_queries, 0);
  std::vector<double> query_ms;
  std::map<std::uint16_t, std::size_t> ingest_seq, query_seq;
  std::vector<std::int64_t> query_due(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q)
    query_due[q] = start + static_cast<std::int64_t>(static_cast<double>(q) / query_rate * 1e9);
  std::size_t next_chunk = 0, next_query = 0, acked = 0, answered = 0;
  std::uint64_t sent_records = 0, acked_records = 0, failed = 0;
  std::vector<std::uint64_t> backlog_at_send(chunks.size(), 0);
  double gen_lag_ms = 0;
  std::uint64_t offset = 0;
  std::string payload;
  if (!chunks.empty()) stream.encode(0, chunks[0].records, payload);

  while (acked < chunks.size() || answered < n_queries) {
    const std::int64_t now = now_ns();
    while (next_chunk < chunks.size() && chunks[next_chunk].due <= now) {
      Chunk& c = chunks[next_chunk];
      gen_lag_ms = std::max(gen_lag_ms, static_cast<double>(now - c.due) * 1e-6);
      ingest_seq[ingest.send(daemon::Verb::kIngest, std::move(payload))] = next_chunk;
      backlog_at_send[next_chunk] = sent_records - acked_records;
      sent_records += c.records;
      offset += c.records;
      ++next_chunk;
      if (next_chunk < chunks.size()) {
        payload = std::string();
        stream.encode(offset, chunks[next_chunk].records, payload);
      }
    }
    while (next_query < n_queries && query_due[next_query] <= now) {
      query_seq[query.send(daemon::Verb::kReport, "")] = next_query;
      ++next_query;
    }
    std::int64_t wake = INT64_MAX;
    if (next_chunk < chunks.size()) wake = std::min(wake, chunks[next_chunk].due);
    if (next_query < n_queries) wake = std::min(wake, query_due[next_query]);
    pollfd fds[2] = {
        {ingest.fd(), static_cast<short>(POLLIN | (ingest.wants_write() ? POLLOUT : 0)), 0},
        {query.fd(), static_cast<short>(POLLIN | (query.wants_write() ? POLLOUT : 0)), 0}};
    timespec ts{};
    timespec* tsp = nullptr;
    if (wake != INT64_MAX) {
      const std::int64_t wait = std::max<std::int64_t>(0, wake - now_ns());
      ts.tv_sec = wait / 1'000'000'000;
      ts.tv_nsec = wait % 1'000'000'000;
      tsp = &ts;
    }
    if (::ppoll(fds, 2, tsp, nullptr) < 0 && errno != EINTR) throw std::runtime_error("poll");
    if (fds[0].revents & POLLOUT) ingest.on_writable();
    if (fds[1].revents & POLLOUT) query.on_writable();
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR))
      for (auto& f : ingest.on_readable()) {
        const std::size_t i = ingest_seq.at(f.seq);
        ack_at[i] = now_ns();
        ++acked;
        if (f.status != static_cast<std::uint8_t>(daemon::Status::kOk) ||
            std::strtoull(f.payload.c_str(), nullptr, 10) != chunks[i].records)
          ++failed;
        else
          acked_records += chunks[i].records;
      }
    if (fds[1].revents & (POLLIN | POLLHUP | POLLERR))
      for (auto& f : query.on_readable()) {
        const std::size_t q = query_seq.at(f.seq);
        answered_at[q] = now_ns();
        query_ms.push_back(static_cast<double>(answered_at[q] - query_due[q]) * 1e-6);
        ++answered;
        if (f.status != static_cast<std::uint8_t>(daemon::Status::kOk)) ++failed;
      }
  }

  // Closed-loop saturation, in blocks of about 2 M records. An ingest ack
  // means only that the frame was decoded into the daemon's queue, so each
  // block of this phase is timed
  // until the pipeline has taken its last record: the pipeline's rings
  // hold 16 k records per shard, so a slower pipeline, detector or shard
  // analyzer lowers the rate. The phase starts once the open-loop records
  // have all been fed and keeps at most kWindow records queued but not
  // yet fed (the daemon's queue grows by copying, so a deep one costs
  // more per frame). A `status` drains the snapshot hub on the server
  // thread, so a full window is re-polled only once a millisecond.
  // Between blocks, while the daemon is idle, the calibration work is
  // timed, so run.py sees the host's speed during the phase.
  constexpr std::uint64_t kSatChunk = 20'000;
  constexpr std::uint64_t kWindow = 10 * kSatChunk;
  constexpr std::uint64_t kBlockRecords = 2'000'000;
  const std::uint64_t blocks = std::max<std::uint64_t>(1, sat_records / kBlockRecords);
  constexpr int kCalibRepeats = 9;  // as run.py's CALIB_REPEATS
  const auto status_poll = [&](const char* key) {
    return status_value(query.call(daemon::Verb::kStatus, "").payload, key);
  };
  const auto pause = [] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); };
  std::uint64_t fed = status_poll("ingested_records");
  for (; fed < total; fed = status_poll("ingested_records")) pause();
  std::string block_rates, block_calib_s;
  const auto add_calib = [&] {
    block_calib_s += std::to_string(calib.seconds(kCalibRepeats)) + " ";
  };
  add_calib();
  const std::int64_t sat_start = now_ns();
  std::uint64_t sat_sent = 0, sat_chunks = 0;
  double sat_busy_s = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::uint64_t end = sat_records * (b + 1) / blocks;
    const std::uint64_t block = end - sat_sent;
    const std::int64_t t0 = now_ns();
    while (sat_sent < end) {
      if (total + sat_sent - fed >= kWindow) {
        fed = status_poll("ingested_records");
        if (total + sat_sent - fed >= kWindow) pause();
        continue;
      }
      const std::uint64_t n = std::min(kSatChunk, end - sat_sent);
      stream.encode(total + sat_sent, n, payload);
      const auto f = ingest.call(daemon::Verb::kIngest, std::move(payload));
      if (f.status != kOk || std::strtoull(f.payload.c_str(), nullptr, 10) != n) ++failed;
      ++sat_chunks;
      sat_sent += n;
    }
    for (fed = status_poll("ingested_records"); fed < total + end;
         fed = status_poll("ingested_records"))
      pause();
    const std::int64_t t1 = now_ns();
    trace::add("daemon.saturation_block", t0, t1, root);
    sat_busy_s += static_cast<double>(t1 - t0) * 1e-9;
    block_rates += std::to_string(static_cast<double>(block) /
                                  (static_cast<double>(t1 - t0) * 1e-9)) + " ";
    add_calib();
  }

  // Sentinel, then the status rendezvous: every expected event folded.
  std::string sentinel(sim::kLogRecordBytes, '\0');
  sim::encode_record(stream.sentinel(total + sat_records),
                     reinterpret_cast<std::uint8_t*>(sentinel.data()));
  if (ingest.call(daemon::Verb::kIngest, sentinel).status != kOk) ++failed;
  const std::int64_t sentinel_ack = now_ns();
  std::uint64_t folded = 0;
  for (;;) {
    folded = status_poll("events_folded");
    if (folded >= expected_events) break;
    if (seconds_since(sentinel_ack) > 60) {
      ++failed;
      break;
    }
    pause();
  }
  const std::int64_t folded_at = now_ns();
  const double fold_lag_ms = static_cast<double>(folded_at - sentinel_ack) * 1e-6;
  // The whole phase's records over its busy time plus the fold lag.
  const double saturated_rate = static_cast<double>(sat_records) / (sat_busy_s + fold_lag_ms * 1e-3);
  write_text(out_dir + "/daemon_report.txt", query.call(daemon::Verb::kReport, "").payload);
  write_text(out_dir + "/daemon_metrics.json", query.call(daemon::Verb::kMetrics, "").payload);
  const bool checkpointed =
      query.call(daemon::Verb::kCheckpoint, out_dir + "/daemon.ckpt").status == kOk;
  const int rc = d.stop(std::move(ctl));
  // Each request as a span from when it was due to its reply.
  for (std::size_t i = 0; i < chunks.size(); ++i)
    trace::add("daemon.ingest", chunks[i].due, ack_at[i], root);
  for (std::size_t q = 0; q < n_queries; ++q)
    trace::add("daemon.report", query_due[q], answered_at[q], root);
  trace::add("daemon.saturation", sat_start, folded_at, root);
  trace::add("daemon.fold_wait", sentinel_ack, folded_at, root);
  trace::add("run", run_start, now_ns(), 0, root);
  trace::g_on = false;
  trace::g_async_parent = 0;

  // Per-phase ack latencies (from due), acked throughput, backlog trend.
  JsonOut j;
  double sustained = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    std::vector<double> lat;
    std::vector<std::uint64_t> backlog;
    std::int64_t first_due = INT64_MAX, last_ack = 0;
    std::uint64_t recs = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (chunks[i].phase != p) continue;
      lat.push_back(static_cast<double>(ack_at[i] - chunks[i].due) * 1e-6);
      backlog.push_back(backlog_at_send[i]);
      first_due = std::min(first_due, chunks[i].due);
      last_ack = std::max(last_ack, ack_at[i]);
      recs += chunks[i].records;
    }
    const std::size_t half = backlog.size() / 2;
    double first_half = 0, second_half = 0;
    for (std::size_t i = 0; i < backlog.size(); ++i)
      (i < half ? first_half : second_half) += static_cast<double>(backlog[i]);
    first_half /= std::max<std::size_t>(half, 1);
    second_half /= std::max<std::size_t>(backlog.size() - half, 1);
    const double per_chunk = phases[p].rate / kChunksPerSecond;
    const bool growing = second_half > first_half + 2 * per_chunk;
    const double p99 = percentile(lat, 0.99);
    const double achieved = static_cast<double>(recs) /
                            (static_cast<double>(last_ack - first_due) * 1e-9);
    const std::string k = "phase" + std::to_string(p) + ".";
    j.num(k + "offered_records_per_s", phases[p].rate);
    j.num(k + "achieved_records_per_s", achieved);
    j.num(k + "ingest_p50_ms", percentile(lat, 0.5));
    j.num(k + "ingest_p99_ms", p99);
    j.num(k + "chunks", static_cast<double>(lat.size()));
    j.num(k + "backlog_first_half", first_half);
    j.num(k + "backlog_second_half", second_half);
    j.num(k + "backlog_max",
          backlog.empty() ? 0.0 : static_cast<double>(*std::max_element(backlog.begin(), backlog.end())));
    if (p99 <= 50.0 && !growing) sustained = achieved;
  }
  j.num("sustained_records_per_s", sustained);
  j.num("query_p50_ms", percentile(query_ms, 0.5));
  j.num("query_p90_ms", percentile(query_ms, 0.9));
  j.num("queries", static_cast<double>(query_ms.size()));
  j.num("saturated_records_per_s", saturated_rate);
  j.str("saturation_block_rates", block_rates);
  j.str("saturation_block_calib_s", block_calib_s);
  j.num("fold_lag_ms", fold_lag_ms);
  j.num("ping_rtt_ms", percentile(ping_ms, 0.5));
  j.num("gen_lag_ms", gen_lag_ms);
  j.num("records_sent", static_cast<double>(total + sat_records + 1));
  j.num("events_folded", static_cast<double>(folded));
  j.num("attempted", static_cast<double>(chunks.size() + n_queries + sat_chunks + 1));
  j.num("failed", static_cast<double>(failed));
  j.num("checkpoint_ok", checkpointed ? 1 : 0);
  j.num("rc", rc);
  j.num("rss_mb", d.rss_mb);
  if (!spans_path.empty()) trace::append_jsonl(spans_path, run_id, "daemon_client", trace::collect());
  j.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "world" && argc == 6) {
      const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
      const std::string raw = std::strcmp(argv[3], "-") == 0 ? "" : argv[3];
      const std::string clean = argv[4];
      // The clean world is generated independently, filter applied
      // in-stream: it is the reference `v6sonar filter` must reproduce.
      std::thread t([&] { write_world(seed, true, clean); });
      if (!raw.empty()) write_world(seed, false, raw);
      t.join();
      cut_world(raw, clean, std::strtoull(argv[5], nullptr, 10));
      JsonOut j;
      if (!raw.empty()) j.num("raw_records", static_cast<double>(LogFile(raw).records()));
      j.num("clean_records", static_cast<double>(LogFile(clean).records()));
      j.print();
      return 0;
    }
    if (cmd == "churn" && argc == 4) {
      JsonOut j;
      j.num("records", static_cast<double>(write_churn(std::strtoull(argv[2], nullptr, 10), argv[3])));
      j.print();
      return 0;
    }
    if (cmd == "trace" && argc == 6) return cmd_trace(argv[2], argv[3], argv[4], argv[5]);
    if (cmd == "calib" && argc == 4) return cmd_calib(std::atoi(argv[2]), std::atoi(argv[3]));
    if (cmd == "stream-ref" && argc == 5)
      return cmd_stream_ref(argv[2], std::strtoull(argv[3], nullptr, 10), argv[4]);
    // The v6sonard command line follows `--`.
    int dd = 1;
    while (dd < argc && std::strcmp(argv[dd], "--") != 0) ++dd;
    const std::vector<std::string> daemon_argv(argv + std::min(dd + 1, argc), argv + argc);
    if (cmd == "daemon" && dd == 4) return cmd_daemon(argv[2], argv[3], daemon_argv);
    if (cmd == "load" && dd >= 9) {
      std::vector<Phase> phases;
      std::string spans, run_id;
      for (int i = 8; i < dd; ++i) {
        if (std::strcmp(argv[i], "--spans") == 0 && i + 2 < dd) {
          spans = argv[i + 1];
          run_id = argv[i + 2];
          i += 2;
          continue;
        }
        Phase p;
        if (std::sscanf(argv[i], "%lf:%lf", &p.rate, &p.seconds) != 2)
          throw std::runtime_error(std::string("bad phase ") + argv[i]);
        phases.push_back(p);
      }
      return cmd_load(argv[2], argv[3], argv[4], std::atof(argv[5]), phases, spans, run_id,
                      std::strtoull(argv[6], nullptr, 10), std::strtoull(argv[7], nullptr, 10),
                      daemon_argv);
    }
    std::fputs("usage: see the comment at the top of perfbench/pbtool.cpp\n", stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbtool: %s\n", e.what());
    return 1;
  }
}
