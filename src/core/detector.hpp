// Streaming large-scale IPv6 scan detector (§2.2).
//
// Packets are first aggregated by source prefix (the paper's central
// methodological knob: /128 = none, /64, /48, or any length including
// /32 for the AS #18 case study), then carved into events by a
// maximum packet inter-arrival timeout, and reported as scans when
// they reach the minimum destination-address count.
//
// The detector is single-pass and runs in memory bounded by the number
// of concurrently active sources; 15 months of telescope traffic
// stream through it without buffering.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "core/event_sink.hpp"
#include "core/scan_event.hpp"
#include "core/state_codec.hpp"
#include "net/prefix.hpp"
#include "sim/record.hpp"
#include "util/arena.hpp"
#include "util/flat_hash.hpp"

namespace v6sonar::core {

struct DetectorConfig {
  /// Source aggregation length: 128 treats every address separately.
  int source_prefix_len = 64;
  /// Minimum distinct destination IPs for a scan (paper: 100;
  /// sensitivity analysis also uses 50; prior work used 25 and 5).
  std::uint32_t min_destinations = 100;
  /// Maximum packet inter-arrival gap within one scan (paper: 3600 s;
  /// sensitivity analysis: 1800 s, 900 s).
  sim::TimeUs timeout_us = 3'600LL * 1'000'000;
  /// Hot/cold state tiering: demote a source's arena-backed hot state
  /// into a compact immutable cold record once it has been idle this
  /// long (0 = tiering off). Must be positive and strictly less than
  /// timeout_us when set — past the timeout the event finalizes
  /// instead. Demotion and the transparent promotion on the source's
  /// next packet are output-invisible: emitted events, their order,
  /// and every counter are byte-identical to an untiered run.
  sim::TimeUs demote_idle_us = 0;
  /// Track per source only what attribution reads: first/last time,
  /// packets and ASN, plus the destination set until it holds
  /// min_destinations entries — no port map, weekly map or DNS count.
  /// Qualification is monotone (a source past min_destinations
  /// qualifies whatever arrives later), so the emitted events and
  /// their order are unchanged in source, first_us, last_us, packets
  /// and src_asn; distinct_dsts becomes min(true count,
  /// min_destinations), distinct_dsts_in_dns is 0, and the port and
  /// weekly vectors are empty. The IDS ladder sets it; detect and the
  /// daemon, whose analyzers read those fields, do not. save() keeps
  /// the full layout, so either mode loads the other's state.
  bool summary_only = false;
};

class ScanDetector : public StateCodec {
 public:
  /// Legacy callable sink; wrapped in a FunctionSink internally.
  using EventFn = std::function<void(ScanEvent&&)>;

  /// Events that qualify are emitted into `sink` as they are finalized
  /// (i.e. when their source goes quiet past the timeout, or at
  /// flush()). Sub-threshold activity is counted but never reported.
  /// `sink` is borrowed (it must outlive the detector) and is never
  /// flush()ed by the detector — the chain's assembler flushes it
  /// after the detector's own flush().
  ///
  /// Emission order is deterministic: timed-out events arrive sorted
  /// by (last_us, source) — expiry time is last_us + timeout, so due
  /// order is end-time order — and flush() then emits the remainder
  /// sorted by source. core::ParallelScanPipeline reproduces exactly
  /// this order from its per-shard detectors.
  ScanDetector(const DetectorConfig& config, EventSink& sink);
  /// Legacy adapter: wraps `fn` in an owned FunctionSink.
  ScanDetector(const DetectorConfig& config, EventFn fn);
  ~ScanDetector();

  /// Feed one record. Records must arrive in non-decreasing time order
  /// (out-of-order input throws std::invalid_argument — feeding a
  /// detector unsorted logs is a programming error, not a data error).
  void feed(const sim::LogRecord& r);

  /// Feed a whole batch (same ordering contract as feed()). Output is
  /// byte-identical to feeding each record in turn — verified by test
  /// across batch sizes — but substantially faster: when the batch
  /// provably contains no event boundary (see detector.cpp), updates
  /// commute across sources, so records are grouped by source and each
  /// source's run is applied with one state-index probe and cache-hot
  /// per-source tables. Batches that may finalize an event fall back
  /// to the strict record-at-a-time order.
  void feed_batch(std::span<const sim::LogRecord> batch);

  /// Advance the clock without a packet: finalizes events whose source
  /// has been quiet past the timeout as of `now`. No-op if `now` is
  /// not ahead of the last record. The sharded pipeline ticks idle
  /// shards with this so their events finalize without traffic.
  void advance(sim::TimeUs now);

  /// Finalize all in-flight events. Call once after the last record.
  void flush();

  /// Freeze/thaw (core::StateCodec): save() serializes configuration
  /// fingerprint plus every live source (hot and cold tier alike);
  /// load() reconstructs into a freshly constructed, identically
  /// configured detector. The expiry and demotion reminder heaps are
  /// NOT serialized — load() re-seeds one reminder per live source at
  /// its true due time, which is output-identical because finalization
  /// always fires at the (true due, key) point regardless of how many
  /// interim stale reminders preceded it.
  void save(util::StateWriter& w) const override;
  void load(util::StateReader& r) override;

  /// Counters over everything seen (pre-qualification).
  [[nodiscard]] std::uint64_t packets_seen() const noexcept { return packets_seen_; }
  /// Number of sources currently tracked across both tiers
  /// (diagnostics / benchmarks).
  [[nodiscard]] std::size_t active_sources() const noexcept {
    return states_.size() + cold_.size();
  }
  /// Tier split: arena-backed hot states vs compact cold records.
  [[nodiscard]] std::size_t hot_sources() const noexcept { return states_.size(); }
  [[nodiscard]] std::size_t cold_sources() const noexcept { return cold_.size(); }
  [[nodiscard]] const DetectorConfig& config() const noexcept { return config_; }
  /// The arena backing per-source container storage (diagnostics: its
  /// recycled/fresh counters quantify allocator traffic avoided).
  [[nodiscard]] const util::SlabPool& pool() const noexcept { return pool_; }

 private:
  /// Below this many tracked sources, the serial fallback loop skips
  /// its prefetch lookahead (the state fits in cache; hints would be
  /// overhead).
  static constexpr std::size_t kPrefetchMinSources = 1'024;

  /// Multiplicative hash for the destination set — the hottest hash in
  /// the pipeline (probed once per record). Scans sweep low-entropy
  /// structured ranges, which the golden-ratio multiplies spread
  /// evenly; std::hash's full-avalanche finalizer buys nothing here.
  /// The set is never iterated (only counted), so distribution quality
  /// has no observable effect beyond probe length.
  struct DstHash {
    std::size_t operator()(const net::Ipv6Address& a) const noexcept {
      return static_cast<std::size_t>(
          (a.hi() ^ (a.lo() * 0x9E3779B97F4A7C15ULL)) * 0x9E3779B97F4A7C15ULL);
    }
  };

  struct SourceState {
    /// All slot storage comes from the detector's pool: an expiring
    /// source hands its arrays straight to the next one appearing.
    explicit SourceState(util::SlabPool* pool) noexcept
        : dsts(pool), ports(pool), weekly(pool) {}

    /// Start a fresh event in place (timeout split): counters zeroed,
    /// container storage kept — the same source tends to reach a
    /// similar size again, so re-growing from 8 slots is waste.
    void restart(sim::TimeUs now, std::uint32_t src_asn) noexcept {
      first_us = now;
      last_us = 0;
      packets = 0;
      dsts_in_dns = 0;
      asn = src_asn;
      week_next_us = INT64_MIN;
      week_slot = nullptr;
      dsts.reset();
      ports.reset();
      weekly.reset();
    }

    sim::TimeUs first_us = 0;
    sim::TimeUs last_us = 0;
    std::uint64_t packets = 0;
    std::uint32_t dsts_in_dns = 0;
    std::uint32_t asn = 0;
    // Cached weekly-histogram slot: the week index changes once per
    // 604800 s while records arrive microseconds apart, so feed()
    // only recomputes (and re-probes `weekly`) when the timestamp
    // crosses `week_next_us`. Timestamps are monotonic, so a single
    // upper bound is exact. Only refresh() writes to `weekly`, so the
    // slot pointer can't be invalidated by growth between refreshes.
    sim::TimeUs week_next_us = INT64_MIN;
    std::uint64_t* week_slot = nullptr;
    util::FlatSet<net::Ipv6Address, DstHash> dsts;
    util::FlatMap<std::uint32_t, std::uint64_t, util::IntHash> ports;
    util::FlatMap<std::uint32_t, std::uint64_t, util::IntHash> weekly;
  };

  /// Cold-tier record: an idle source's state packed into exact-size
  /// heap arrays. Immutable while cold; the hot state's FlatSet/FlatMap
  /// blocks (power-of-two slab classes at <= 75% load) go back to the
  /// pool for the next hot source, so steady-state arena growth is
  /// bounded by the *concurrently hot* working set, not by every live
  /// source. The destination list keeps full contents (promotion must
  /// keep deduplicating future inserts); ports/weekly keep (key, count)
  /// pairs. Everything an emitted event needs is preserved exactly —
  /// finalize sorts the lists either way — so tiering never changes
  /// output.
  struct ColdState {
    sim::TimeUs first_us = 0;
    sim::TimeUs last_us = 0;
    std::uint64_t packets = 0;
    std::uint32_t dsts_in_dns = 0;
    std::uint32_t asn = 0;
    std::vector<net::Ipv6Address> dsts;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> ports;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> weekly;
  };

  void finalize(const net::Ipv6Prefix& key, SourceState& st);
  void finalize_cold(const net::Ipv6Prefix& key, const ColdState& cs);
  void expire_up_to(sim::TimeUs now);
  /// Pop demotion reminders due before `now`: stale ones (source active
  /// since) re-queue at the true demote time, fresh ones demote. Runs
  /// only with tiering enabled; demotion is output-invisible, so the
  /// sweep may run at any point between records.
  void demote_up_to(sim::TimeUs now);
  void demote(const net::Ipv6Prefix& key, std::size_t key_hash, SourceState* st);
  /// Rehydrate `key`'s cold record into a hot state (nullptr if the
  /// source is not cold). The caller owns wiring it into states_.
  [[nodiscard]] SourceState* promote(const net::Ipv6Prefix& key, std::size_t key_hash);
  [[nodiscard]] bool refine_expiries(sim::TimeUs last);
  [[nodiscard]] SourceState* new_state();
  void delete_state(SourceState* st) noexcept;
  /// feed() with the aggregation key and its hash already derived —
  /// the single definition of the per-record update; every feed path
  /// funnels through it so key/hash derivation happens exactly once
  /// per record.
  void feed_one(const sim::LogRecord& r, const net::Ipv6Prefix& key, std::size_t key_hash);
  /// Fill batch_keys_/batch_hashes_ for the whole batch: a tight
  /// mask-and-multiply loop over the source addresses (two ANDs, two
  /// or three multiplies, one finalizer per record) that the compiler
  /// can software-pipeline, feeding both the grouped and the serial
  /// path below.
  void derive_batch(std::span<const sim::LogRecord> batch);
  void feed_serial(std::span<const sim::LogRecord> batch);
  bool feed_grouped(std::span<const sim::LogRecord> batch);

  DetectorConfig config_;
  /// Precomputed masks + salt for config_.source_prefix_len; derives
  /// (key, hash) pairs bit-identical to std::hash<Ipv6Prefix>, so the
  /// *_hashed container entry points interoperate with plain ones.
  net::PrefixKeyDeriver deriver_;
  std::unique_ptr<FunctionSink> owned_sink_;  ///< legacy-adapter storage, if any
  EventSink* sink_;
  util::SlabPool pool_;  // declared before states_: destroyed after its users

  // Flat open-addressed index of pool-allocated states. Flat so the
  // batch path can prefetch the home slot from the key alone; the
  // states live in pool blocks (stable addresses across rehash).
  util::FlatMap<net::Ipv6Prefix, SourceState*> states_;

  // Lazy expiry heap: (earliest possible expiry, key). Stale entries
  // (source was active since the push) are re-pushed at their true due
  // time on pop — never finalized directly, so finalization happens in
  // exact (due, key) order. Ties on expiry time break by key, which
  // makes the emission order a total order — the contract the parallel
  // pipeline's k-way merge relies on.
  struct Expiry {
    sim::TimeUs at;
    net::Ipv6Prefix key;
    /// std::hash<Ipv6Prefix>(key), carried so the sweep's per-pop
    /// state-index probe (and the final erase) reuses the hash
    /// computed when the event started.
    std::size_t key_hash;
    friend bool operator<(const Expiry& a, const Expiry& b) noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.key > b.key;
    }
  };
  std::priority_queue<Expiry> expiries_;

  // Cold tier (demote_idle_us > 0 only): key -> packed record, plus a
  // second lazy reminder heap driving demotion, run with the same
  // stale-requeue discipline as expiries_. Cold sources keep their
  // entries in expiries_, so finalization order is untouched; the
  // expiry sweep finalizes them straight from the packed arrays.
  util::FlatMap<net::Ipv6Prefix, ColdState*> cold_;
  std::priority_queue<Expiry> demotions_;

  sim::TimeUs last_ts_ = INT64_MIN;
  std::uint64_t packets_seen_ = 0;

  // feed_batch() grouping scratch (capacity persists across batches;
  // see feed_grouped in detector.cpp). A run is one source's records
  // within the current batch; per-run aggregates let the apply loop
  // update packets / last_us / weekly once per run instead of once per
  // record.
  struct Run {
    net::Ipv6Prefix key;
    std::size_t key_hash;  ///< std::hash<Ipv6Prefix>(key), derived once in pass 1
    std::uint32_t len;
    std::uint32_t offset;  ///< start of this run's entries in batch_entries_
    sim::TimeUs first_ts;
    sim::TimeUs last_ts;
    std::uint32_t asn;  ///< src_asn of the run's first record
  };
  /// The per-record fields the apply loop still needs, scattered
  /// run-contiguously so each run reads sequentially. The destination
  /// hash rides along from the scatter pass so the apply loop's set
  /// insert (and the lookahead prefetch) never re-hashes.
  struct BatchEntry {
    net::Ipv6Address dst;
    std::size_t dst_hash;  ///< DstHash{}(dst)
    sim::TimeUs ts;
    std::uint16_t port;
    bool dns;
  };
  std::vector<Run> runs_;
  std::vector<std::uint32_t> batch_run_;  ///< record index -> run index
  std::vector<BatchEntry> batch_entries_;
  /// Per-record derived aggregation keys and their hashes (see
  /// derive_batch); hot scratch reused across batches.
  std::vector<net::Ipv6Prefix> batch_keys_;
  std::vector<std::size_t> batch_hashes_;
  /// Open-addressed key -> run index, epoch-stamped: a slot is live
  /// only if its upper half matches batch_epoch_, so batches start
  /// from an "empty" table without memsetting it.
  std::vector<std::uint64_t> run_slots_;
  std::uint32_t batch_epoch_ = 0;
};

/// Run a whole record stream through detectors at several aggregation
/// levels in ONE pass (the stream is visited exactly once regardless
/// of how many levels run), emitting each level's events into its own
/// sink chain. `sinks.size()` must equal `configs.size()`; every sink
/// is flushed after its detector, in level order.
void detect_multi(sim::RecordStream& stream, const std::vector<DetectorConfig>& configs,
                  const std::vector<EventSink*>& sinks);

/// Materializing adapter over the sink version: collects events per
/// level into vectors (legacy bench/test entry point).
[[nodiscard]] std::vector<std::vector<ScanEvent>> detect_multi(
    sim::RecordStream& stream, const std::vector<DetectorConfig>& configs);

}  // namespace v6sonar::core
