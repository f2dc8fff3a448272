// Versioned state lifecycle: the freeze/thaw seam and its container.
//
// Every long-lived pipeline stage — ScanDetector, the
// analysis::Analyzer family — implements StateCodec:
// save() serializes the stage's complete accumulated state into a
// StateWriter, load() reconstructs it into a same-configured instance.
// The contract mirrors Analyzer::merge: load() onto a fresh instance
// followed by feeding records k.. must be output-byte-identical to
// feeding records 0.. into one uninterrupted instance. Derived caches
// (expiry reminder heaps, week-slot pointers, prefetch scratch) are
// NOT serialized — they are rebuilt, and the stages' own invariants
// make the rebuild output-invisible.
//
// CheckpointWriter/CheckpointReader frame saved sections into a
// single-file container:
//
//   magic "V6CKPT01" | format u32 | state_version u32 | sections u32
//   per section: name (u32 len + bytes) | payload u64 len | crc32 u32
//                | payload bytes
//
// A section's CRC is computed when it is sealed (CheckpointSection),
// so commit() is pure I/O. Durability follows the event-spill lessons:
// the writer streams the container header and then each section header
// and payload straight from the section buffers (no assembly copy)
// into <path>.tmp, fsyncs, renames over <path>, and fsyncs the
// directory — a crash mid-checkpoint leaves either the previous
// complete checkpoint or none, never a torn file. The reader loads the
// file with one sized read, keeps sections as views into that buffer,
// and validates magic, versions, and every section CRC before handing
// a byte out; any anomaly is a std::runtime_error, never a crash (the
// corruption-fuzz test flips bits over the whole file to pin this
// down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/scan_event.hpp"
#include "net/prefix.hpp"
#include "util/state_io.hpp"

namespace v6sonar::core {

/// Interface every checkpointable pipeline stage implements.
class StateCodec {
 public:
  virtual ~StateCodec() = default;

  /// Serialize complete accumulated state (configuration fingerprint
  /// first, so load() can reject a mismatched instance).
  virtual void save(util::StateWriter& w) const = 0;

  /// Reconstruct state saved by save() into this instance, which must
  /// be freshly constructed with the same configuration. Throws
  /// std::runtime_error on a truncated/corrupt payload or a
  /// configuration mismatch. Consumes exactly the bytes save() wrote —
  /// never calls expect_end(), so payloads compose (a stage can embed
  /// another stage's payload mid-section); whoever owns the section
  /// asserts end-of-section after the outermost load.
  virtual void load(util::StateReader& r) = 0;
};

/// Bump when any stage's save() schema changes incompatibly; readers
/// reject checkpoints from other versions (version-skew test).
inline constexpr std::uint32_t kCheckpointStateVersion = 1;

/// Shared serdes for the value types multiple stages carry. Explicit
/// field-by-field little-endian encoding (not pod images): these types
/// hold vectors and padding, so a raw image would be neither compact
/// nor well-defined.
inline void save_prefix(util::StateWriter& w, const net::Ipv6Prefix& p) {
  w.u64(p.address().hi());
  w.u64(p.address().lo());
  w.i32(p.length());
}

inline net::Ipv6Prefix load_prefix(util::StateReader& r) {
  const std::uint64_t hi = r.u64();
  const std::uint64_t lo = r.u64();
  const int len = r.i32();
  if (len < 0 || len > 128) throw std::runtime_error("state: bad prefix length");
  return net::Ipv6Prefix(net::Ipv6Address{hi, lo}, len);
}

inline void save_scan_event(util::StateWriter& w, const ScanEvent& ev) {
  save_prefix(w, ev.source);
  w.i64(ev.first_us);
  w.i64(ev.last_us);
  w.u64(ev.packets);
  w.u32(ev.distinct_dsts);
  w.u32(ev.distinct_dsts_in_dns);
  w.u32(ev.src_asn);
  w.u64(ev.port_packets.size());
  for (const auto& [port, n] : ev.port_packets) {
    w.u16(port);
    w.u64(n);
  }
  w.u64(ev.weekly_packets.size());
  for (const auto& [week, n] : ev.weekly_packets) {
    w.i32(week);
    w.u64(n);
  }
}

[[nodiscard]] inline ScanEvent load_scan_event(util::StateReader& r) {
  ScanEvent ev;
  ev.source = load_prefix(r);
  ev.first_us = r.i64();
  ev.last_us = r.i64();
  ev.packets = r.u64();
  ev.distinct_dsts = r.u32();
  ev.distinct_dsts_in_dns = r.u32();
  ev.src_asn = r.u32();
  const std::uint64_t n_ports = r.count(10);
  ev.port_packets.reserve(static_cast<std::size_t>(n_ports));
  for (std::uint64_t i = 0; i < n_ports; ++i) {
    const std::uint16_t port = r.u16();
    ev.port_packets.emplace_back(port, r.u64());
  }
  const std::uint64_t n_weeks = r.count(12);
  ev.weekly_packets.reserve(static_cast<std::size_t>(n_weeks));
  for (std::uint64_t i = 0; i < n_weeks; ++i) {
    const std::int32_t week = r.i32();
    ev.weekly_packets.emplace_back(week, r.u64());
  }
  return ev;
}

inline void save_attribution(util::StateWriter& w, const Attribution& a) {
  save_prefix(w, a.source);
  w.i32(a.level);
  w.u64(a.packets);
  w.u64(a.child_packets);
  w.u64(a.children);
  w.u32(a.src_asn);
}

[[nodiscard]] inline Attribution load_attribution(util::StateReader& r) {
  Attribution a;
  a.source = load_prefix(r);
  a.level = r.i32();
  a.packets = r.u64();
  a.child_packets = r.u64();
  a.children = static_cast<std::size_t>(r.u64());
  a.src_asn = r.u32();
  return a;
}

/// One named checkpoint section, sealed: the payload plus its CRC-32,
/// computed when the section is constructed. Seal on the thread that
/// produced the payload — a shard worker inside with_shard_state() —
/// and the checksum work runs there, in parallel, instead of inside
/// commit().
class CheckpointSection {
 public:
  CheckpointSection() = default;
  CheckpointSection(std::string name, util::StateWriter&& payload);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept {
    return payload_.bytes();
  }
  [[nodiscard]] std::uint32_t crc() const noexcept { return crc_; }

 private:
  std::string name_;
  util::StateWriter payload_;
  std::uint32_t crc_ = 0;
};

/// Collects sealed sections; commit() makes the file appear atomically.
/// Section names must be unique per checkpoint.
class CheckpointWriter {
 public:
  /// Add one sealed section. Throws on a duplicate name.
  void add(CheckpointSection&& section);
  /// Seal `w`'s bytes (consumed) as section `name` on this thread and add it.
  void add(std::string name, util::StateWriter&& w) {
    add(CheckpointSection(std::move(name), std::move(w)));
  }

  /// Write-to-temp + fsync + rename + directory fsync, streaming each
  /// section header and payload straight from the section buffers.
  /// Throws std::runtime_error on any I/O failure (the target path is
  /// left untouched in that case).
  void commit(const std::string& path) const;

 private:
  std::vector<CheckpointSection> sections_;
};

/// Loads and validates a whole checkpoint file up front; sections are
/// then looked up by name and read in place.
class CheckpointReader {
 public:
  /// Reads the file with one sized read into one buffer, validates
  /// magic/versions, parses every section header and checks every CRC.
  /// Throws std::runtime_error on any corruption, truncation, or
  /// version skew.
  explicit CheckpointReader(const std::string& path);

  [[nodiscard]] bool has(const std::string& name) const noexcept;
  /// A reader over the named section's payload (a view into this
  /// reader's buffer, valid while it lives); throws if absent.
  [[nodiscard]] util::StateReader section(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;
    std::size_t len = 0;
  };
  [[nodiscard]] const Section* find(const std::string& name) const noexcept;

  std::unique_ptr<std::uint8_t[]> bytes_;
  std::vector<Section> sections_;
};

}  // namespace v6sonar::core
