// Binary serialization of scan events.
//
// The bench harness detects once over the 15-month world and caches
// the event sets per aggregation level; every table/figure bench then
// loads events in milliseconds instead of re-running detection. The
// CLI uses the same format to spill a detection run's events
// (`detect --events`) and re-analyze them later (`report`) without
// ever materializing the set in memory: EventWriter is a
// core::EventSink, EventReader hands events back in batches.
//
// Format (little-endian, host == file layout on all supported
// targets): magic u64 "V6EVTS01", count u64, then per event the fixed
// header (source hi/lo/len, first_us, last_us, packets, distinct_dsts,
// distinct_dsts_in_dns, src_asn) followed by the variable port and
// weekly count lists. The writer backpatches the count on close, so a
// crashed run leaves a file whose count mismatches its size instead of
// silently truncated-but-valid data — the reader checks a size lower
// bound at open, like sim::MappedLogReader.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/event_sink.hpp"
#include "core/scan_event.hpp"

namespace v6sonar::core {

/// Streaming writer: serializes each event as it arrives (an
/// EventSink endpoint for detection-time spilling). flush() — or
/// close(), or destruction — finalizes the header count.
/// Throws std::runtime_error on I/O failure.
class EventWriter final : public EventSink {
 public:
  /// kDurable: close() pushes the finished file to stable storage.
  /// kScratch: close() does not, and the stdio buffer is 64 KB instead
  /// of 1 MB — for per-shard spills that are merged into a durable
  /// file and then deleted (checkpoint_sync() still syncs them).
  enum class Durability : bool { kDurable, kScratch };

  explicit EventWriter(const std::string& path, Durability d = Durability::kDurable);

  /// Resume an interrupted spill at a checkpointed position: the
  /// existing file is truncated to `resume_offset` bytes (discarding
  /// any events written after the checkpoint) and writing continues
  /// from there with the count restored to `resume_count`. Both values
  /// come from a prior checkpoint_sync()/written() pair.
  EventWriter(const std::string& path, std::uint64_t resume_count, std::uint64_t resume_offset,
              Durability d = Durability::kDurable);

  /// Closes (best effort — errors are swallowed; call close() first
  /// if you need them reported).
  ~EventWriter() override;
  EventWriter(const EventWriter&) = delete;
  EventWriter& operator=(const EventWriter&) = delete;

  void on_event(ScanEvent&& ev) override;
  /// Sink-contract flush: finalize the header count and close.
  void flush() override { close(); }
  /// Idempotent close; throws on finalize failure. A durable writer
  /// fsyncs the finished file; a scratch writer does not.
  void close();

  /// Make everything written so far durable without closing:
  /// backpatches the header count, pushes the file to stable storage,
  /// and returns to the append position. After a crash, the file is a
  /// valid event file holding at least the events present at the last
  /// checkpoint_sync(); the resume constructor truncates the rest.
  void checkpoint_sync();

  [[nodiscard]] std::uint64_t written() const noexcept { return count_; }
  /// Current append position in bytes (header included) — the
  /// resume_offset to checkpoint alongside written().
  [[nodiscard]] std::uint64_t offset() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t count_ = 0;
};

/// Streaming reader: validates the header at open (magic + a
/// count-vs-file-size lower bound), then hands events back one at a
/// time or in batches — memory stays bounded by the batch, not the
/// file. Throws std::runtime_error on corrupt or truncated input.
class EventReader final {
 public:
  /// `buffer_bytes` sizes the stdio read buffer: readers that run side
  /// by side (one per shard spill in a merge) take a smaller one.
  explicit EventReader(const std::string& path, std::size_t buffer_bytes = 1 << 20);
  ~EventReader();
  EventReader(const EventReader&) = delete;
  EventReader& operator=(const EventReader&) = delete;

  /// Read the next event into `out`; false at end-of-stream.
  [[nodiscard]] bool next(ScanEvent& out);
  /// Read up to `max` events; returns how many were produced (0 at
  /// end). Observes the report.reader.batch_size histogram.
  std::size_t next_batch(ScanEvent* out, std::size_t max);

  /// Events the header claims (== events a complete read returns).
  [[nodiscard]] std::uint64_t total_events() const noexcept { return total_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t total_ = 0;
  std::uint64_t read_ = 0;
};

/// Write events to `path`. Throws std::runtime_error on I/O failure.
void write_events(const std::string& path, const std::vector<ScanEvent>& events);

/// Read events back. Throws std::runtime_error on missing/corrupt files.
[[nodiscard]] std::vector<ScanEvent> read_events(const std::string& path);

}  // namespace v6sonar::core
