#include "core/detector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"
#include "util/timebase.hpp"

namespace v6sonar::core {

namespace {

/// Lazily-registered handles for the detector's fast-path telemetry
/// (docs/OBSERVABILITY.md documents each name). One guard check per
/// dm() call; all record calls are gated on metrics::enabled().
struct DetectorMetrics {
  util::metrics::Counter batch_calls{"detector.batch.calls"};
  util::metrics::Counter batch_records{"detector.batch.records"};
  util::metrics::Counter grouped_batches{"detector.batch.grouped.batches"};
  util::metrics::Counter grouped_records{"detector.batch.grouped.records"};
  util::metrics::Counter grouped_runs{"detector.batch.grouped.runs"};
  util::metrics::Counter serial_records{"detector.batch.serial.records"};
  // Guard-failure breakdown: why a batch fell back to the serial loop.
  util::metrics::Counter fb_small{"detector.batch.fallback.small_batch"};
  util::metrics::Counter fb_expiry{"detector.batch.fallback.expiry_due"};
  util::metrics::Counter fb_span{"detector.batch.fallback.span_exceeds_timeout"};
  util::metrics::Counter fb_behind{"detector.batch.fallback.starts_before_last"};
  util::metrics::Counter fb_unsorted{"detector.batch.fallback.unsorted"};
  util::metrics::Counter expiry_pops{"detector.expiry.pops"};
  util::metrics::Counter expiry_stale{"detector.expiry.stale_requeues"};
  util::metrics::Counter expiry_dead{"detector.expiry.dead_keys"};
  util::metrics::Counter expiry_finalized{"detector.expiry.finalized"};
  util::metrics::Counter events_emitted{"detector.events.emitted"};
  // Hot/cold tiering traffic and high-water tier sizes (gauges are
  // high-water marks; noted per sweep/batch, not per record).
  util::metrics::Counter demotions{"detector.state.demotions"};
  util::metrics::Counter promotions{"detector.state.promotions"};
  util::metrics::Gauge hot_sources{"detector.state.hot_sources"};
  util::metrics::Gauge cold_sources{"detector.state.cold_sources"};
};

DetectorMetrics& dm() {
  static DetectorMetrics m;
  return m;
}

void validate_config(const DetectorConfig& config) {
  if (config.source_prefix_len < 0 || config.source_prefix_len > 128)
    throw std::invalid_argument("ScanDetector: bad aggregation length");
  if (config.min_destinations == 0)
    throw std::invalid_argument("ScanDetector: min_destinations must be positive");
  if (config.timeout_us <= 0) throw std::invalid_argument("ScanDetector: bad timeout");
  if (config.demote_idle_us < 0 ||
      (config.demote_idle_us > 0 && config.demote_idle_us >= config.timeout_us))
    throw std::invalid_argument(
        "ScanDetector: demote_idle_us must be 0 or in (0, timeout_us)");
}

}  // namespace

ScanDetector::ScanDetector(const DetectorConfig& config, EventSink& sink)
    : config_(config), deriver_(config.source_prefix_len), sink_(&sink) {
  validate_config(config_);
}

ScanDetector::ScanDetector(const DetectorConfig& config, EventFn fn)
    : config_(config), deriver_(config.source_prefix_len) {
  validate_config(config_);
  if (!fn) throw std::invalid_argument("ScanDetector: null sink");
  owned_sink_ = std::make_unique<FunctionSink>(std::move(fn));
  sink_ = owned_sink_.get();
}

ScanDetector::~ScanDetector() {
  // States are pool blocks holding live containers; destroy them
  // explicitly (clear()ing the index only drops the pointers).
  states_.for_each([this](const net::Ipv6Prefix&, SourceState* st) { delete_state(st); });
  cold_.for_each([](const net::Ipv6Prefix&, ColdState* cs) { delete cs; });
}

ScanDetector::SourceState* ScanDetector::new_state() {
  void* p = pool_.acquire(sizeof(SourceState));
  return new (p) SourceState(&pool_);
}

void ScanDetector::delete_state(SourceState* st) noexcept {
  st->~SourceState();
  pool_.release(st, sizeof(SourceState));
}

void ScanDetector::feed(const sim::LogRecord& r) {
  const net::PrefixKeyDeriver::Derived d = deriver_(r.src);
  feed_one(r, d.key, d.hash);
}

void ScanDetector::feed_one(const sim::LogRecord& r, const net::Ipv6Prefix& key,
                            std::size_t key_hash) {
  if (r.ts_us < last_ts_)
    throw std::invalid_argument("ScanDetector: records must be time-ordered");
  last_ts_ = r.ts_us;
  ++packets_seen_;

  expire_up_to(r.ts_us);
  if (config_.demote_idle_us > 0) demote_up_to(r.ts_us);

  SourceState*& slot = states_.insert_hashed(key, key_hash);
  if (slot == nullptr) {
    // A miss is either a brand-new source or a cold one waking up. A
    // cold source found here cannot have gapped out: expire_up_to()
    // just finalized every source (either tier) whose true due time
    // precedes r.ts_us, so the surviving cold record continues its
    // event — rehydrate it and skip the split check.
    if (SourceState* thawed = promote(key, key_hash)) {
      slot = thawed;
    } else {
      slot = new_state();
      slot->first_us = r.ts_us;
      slot->asn = r.src_asn;
      expiries_.push(Expiry{r.ts_us + config_.timeout_us, key, key_hash});
      if (config_.demote_idle_us > 0)
        demotions_.push(Expiry{r.ts_us + config_.demote_idle_us, key, key_hash});
    }
  } else if (r.ts_us - slot->last_us > config_.timeout_us) {
    // The previous event of this source ended; finalize it and start a
    // fresh one in place, reusing its container storage.
    finalize(key, *slot);
    slot->restart(r.ts_us, r.src_asn);
    expiries_.push(Expiry{r.ts_us + config_.timeout_us, key, key_hash});
  }
  SourceState& st = *slot;
  st.last_us = r.ts_us;
  ++st.packets;
  if (config_.summary_only) {
    // A qualified source stays qualified: its set stops growing.
    if (st.dsts.size() < config_.min_destinations) st.dsts.insert(r.dst);
    return;
  }
  if (st.dsts.insert(r.dst) && r.dst_in_dns) ++st.dsts_in_dns;
  ++st.ports[r.dst_port];
  if (r.ts_us >= st.week_next_us || st.week_slot == nullptr) {
    const std::int64_t week = util::window_week(sim::seconds_of(r.ts_us));
    st.week_slot = &st.weekly[static_cast<std::uint32_t>(week)];
    // Exact validity bound: the first microsecond of week+1. Weeks
    // before the window start (truncating division) get no bound and
    // recompute every record — correct, and never hit in practice.
    st.week_next_us =
        week >= 0 && r.ts_us >= 0
            ? sim::us_from_seconds(util::kWindowStart + (week + 1) * util::kSecondsPerWeek)
            : INT64_MIN;
  }
  ++*st.week_slot;
}

void ScanDetector::feed_batch(std::span<const sim::LogRecord> batch) {
  const std::size_t n = batch.size();
  const bool counting = util::metrics::enabled();
  if (counting) {
    dm().batch_calls.add();
    dm().batch_records.add(n);
  }
  // Demotion is output-invisible (no event, no expiry-heap change), so
  // sweeping at batch start keeps the grouped path — which never calls
  // the per-record sweep — demoting on schedule. A demoted source with
  // records inside this batch simply promotes again at its first probe.
  if (config_.demote_idle_us > 0 && n > 0) demote_up_to(batch[0].ts_us);
  if (n < 2) {
    if (counting) {
      dm().fb_small.add();
      dm().serial_records.add(n);
    }
    feed_serial(batch);
    return;
  }
  // The grouped fast path reorders work across sources, which is only
  // observable if something *finalizes* during the batch. Three guards
  // prove nothing can:
  //
  //  1. The batch is internally time-sorted and starts at or after
  //     last_ts_ (also ensures feed()'s order check would pass, so the
  //     reordered path throws exactly when the serial one would — by
  //     falling back to it).
  //  2. No pre-existing source's *true* due time (last_us + timeout)
  //     falls before the batch's last timestamp, so expire_up_to()
  //     would finalize nothing. Every live event keeps a heap entry at
  //     <= last_us + timeout (pushed at event start; stale pops
  //     re-push at the true due time), so this also rules out a
  //     timeout *split* for any pre-existing source: a gap > timeout
  //     inside the batch would imply a true due time before the batch
  //     end. Stale reminders due before the batch end are refined in
  //     place by refine_expiries() rather than treated as failures.
  //  3. The batch spans at most the timeout, so a source first seen
  //     inside the batch cannot gap out within it, and entries pushed
  //     during the batch (due >= batch[0] + timeout >= batch end)
  //     cannot fire within it either.
  //
  // Under the guards no sink_ call, erase, or restart happens, and
  // per-source updates commute across sources — grouping by source is
  // output-identical to the serial order. (The heap then holds the
  // same multiset of entries as after the serial order, and Expiry's
  // comparator is a total order, so later pop order is identical too.)
  //
  // Guards 2 and 3 are O(1) and checked here; guard 1's scan is fused
  // into feed_grouped()'s bucketing pass (which mutates only batch
  // scratch, so bailing out to the serial path mid-pass is safe — the
  // serial path then throws exactly where feed() would).
  const sim::TimeUs last = batch[n - 1].ts_us;
  const bool spans_timeout = last - batch[0].ts_us > config_.timeout_us;
  const bool starts_behind = batch[0].ts_us < last_ts_;
  // Guard 2 would go stale-positive on any long steady stream: after
  // one timeout of stream time the heap always holds *stale* reminders
  // due before the batch end (their sources were active since, so the
  // true due time is later), and a literal heap-top check would exile
  // every subsequent batch to the serial path. refine_expiries() pops
  // those reminders and re-queues them at their current true due time
  // — the exact no-output refinement expire_up_to() performs — and
  // only reports a genuine guard failure when some source could
  // actually finalize or split within the batch.
  const bool expiry_due =
      !spans_timeout && !starts_behind && !refine_expiries(last);
  if (!expiry_due && !spans_timeout && !starts_behind && feed_grouped(batch)) {
    if (counting) {
      dm().grouped_batches.add();
      dm().grouped_records.add(n);
      dm().grouped_runs.add(runs_.size());
    }
    return;
  }
  if (counting) {
    // One reason per fallback. Span/behind report first — the expiry
    // refinement only runs once they hold, so a true expiry_due here
    // always means a possible genuine finalization inside the batch.
    if (spans_timeout)
      dm().fb_span.add();
    else if (starts_behind)
      dm().fb_behind.add();
    else if (expiry_due)
      dm().fb_expiry.add();
    else
      dm().fb_unsorted.add();
    dm().serial_records.add(n);
  }
  feed_serial(batch);
}

void ScanDetector::derive_batch(std::span<const sim::LogRecord> batch) {
  const std::size_t n = batch.size();
  batch_keys_.resize(n);
  batch_hashes_.resize(n);
  // Tight mask+multiply pre-pass over the source addresses: no table
  // probes, no branches beyond the deriver's level check (constant per
  // detector), so the compiler can pipeline/unroll it freely. Every
  // downstream probe, prefetch, and expiry entry reuses these values —
  // the "hash once per record" half of the hot-path contract.
  for (std::size_t i = 0; i < n; ++i) {
    const net::PrefixKeyDeriver::Derived d = deriver_(batch[i].src);
    batch_keys_[i] = d.key;
    batch_hashes_[i] = d.hash;
  }
}

void ScanDetector::feed_serial(std::span<const sim::LogRecord> batch) {
  derive_batch(batch);
  // With few tracked sources the per-source tables are cache-resident
  // and lookahead would be pure overhead (an extra probe per record);
  // only a large state spills the caches and makes the prefetch
  // pipeline pay.
  if (states_.size() < kPrefetchMinSources) {
    for (std::size_t i = 0; i < batch.size(); ++i)
      feed_one(batch[i], batch_keys_[i], batch_hashes_[i]);
    return;
  }
  // Two-stage software pipeline, ~12 records ≈ one memory round-trip
  // apart: the far stage prefetches the state-index slot for record
  // i+2L so the near stage's find() at i+L hits cache; the near
  // stage then prefetches that source's destination-set and port-map
  // slots so the update at i hits all three. Hints are read-only
  // (prefetch + find), so output is identical to feed().
  constexpr std::size_t kLookahead = 12;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i + 2 * kLookahead < batch.size())
      states_.prefetch_hash(batch_hashes_[i + 2 * kLookahead]);
    if (i + kLookahead < batch.size()) {
      const auto& near = batch[i + kLookahead];
      if (SourceState* const* p =
              states_.find_hashed(batch_keys_[i + kLookahead], batch_hashes_[i + kLookahead])) {
        (*p)->dsts.prefetch(near.dst);
        (*p)->ports.prefetch(near.dst_port);
      }
    }
    feed_one(batch[i], batch_keys_[i], batch_hashes_[i]);
  }
}

bool ScanDetector::feed_grouped(std::span<const sim::LogRecord> batch) {
  const std::size_t n = batch.size();

  // Pass 0 — derive every record's aggregation key and hash in one
  // vectorizable sweep; passes 1 and 3 (and the serial fallback, which
  // re-derives only if this pass was skipped) consume the arrays.
  derive_batch(batch);

  // Pass 1 — bucket records by source with a batch-local
  // open-addressed index (run_slots_ maps the key hash to an index
  // into runs_), accumulating per-run aggregates: length, first/last
  // timestamp, first record's ASN. The bucketing reuses the top bits
  // of the precomputed state-index hash — the bottom bits pick the
  // state-index slot, so both ends of the same value are spent and no
  // extra hash is computed per record. The pass also verifies the
  // batch is internally time-sorted (guard 1); a false return means
  // nothing was applied.
  const std::size_t cap = std::bit_ceil(2 * n);
  const int shift = 64 - std::countr_zero(cap);
  if (run_slots_.size() < cap) run_slots_.assign(cap, 0);
  if (++batch_epoch_ == 0) {
    // Epoch wrapped: stale stamps could alias as live. Once per 2^32
    // batches, pay the full reset.
    std::fill(run_slots_.begin(), run_slots_.end(), 0);
    batch_epoch_ = 1;
  }
  const std::uint64_t live = static_cast<std::uint64_t>(batch_epoch_) << 32;
  runs_.clear();
  runs_.reserve(64);
  batch_run_.resize(n);
  sim::TimeUs prev_ts = batch[0].ts_us;
  bool sorted = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = batch[i];
    sorted &= r.ts_us >= prev_ts;
    prev_ts = r.ts_us;
    const net::Ipv6Prefix& key = batch_keys_[i];
    const std::uint64_t h = batch_hashes_[i];
    std::size_t s = static_cast<std::size_t>(h >> shift);
    const std::size_t mask = cap - 1;
    for (;; s = (s + 1) & mask) {
      const std::uint64_t slot = run_slots_[s];
      if ((slot & ~0xFFFF'FFFFULL) != live) {
        const std::uint32_t run = static_cast<std::uint32_t>(runs_.size());
        run_slots_[s] = live | run;
        runs_.push_back(Run{key, h, 1, 0, r.ts_us, r.ts_us, r.src_asn});
        batch_run_[i] = run;
        break;
      }
      const std::uint32_t run = static_cast<std::uint32_t>(slot);
      Run& rn = runs_[run];
      if (rn.key == key) {
        ++rn.len;
        rn.last_ts = r.ts_us;
        batch_run_[i] = run;
        break;
      }
    }
  }
  if (!sorted) return false;

  // Pass 2 — scatter the fields the apply loop needs into
  // run-contiguous order (offset = prefix sum of run lengths), so each
  // run reads its records sequentially instead of striding through the
  // batch.
  std::uint32_t off = 0;
  for (Run& rn : runs_) {
    rn.offset = off;
    off += rn.len;
  }
  batch_entries_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = batch[i];
    Run& rn = runs_[batch_run_[i]];
    batch_entries_[rn.offset++] =
        BatchEntry{r.dst, DstHash{}(r.dst), r.ts_us, r.dst_port, r.dst_in_dns};
  }
  for (Run& rn : runs_) rn.offset -= rn.len;  // restore

  // Pass 3 — apply each run with ONE state-index probe, and the
  // bookkeeping feed() repeats per record hoisted to per run: packet
  // count and last_us are run aggregates, and when the whole run lands
  // in the cached week (last_ts is the run's max, so it bounds every
  // record) the weekly histogram takes a single += len. The port
  // counter is run-length encoded — a scan hammers one service port,
  // so consecutive entries nearly always share it. The guards in
  // feed_batch() guarantee no finalize/restart/expiry can occur here
  // (the gap checks feed() performs are provably false), so only the
  // insert-or-update half of feed() is replicated.
  last_ts_ = batch[n - 1].ts_us;
  packets_seen_ += n;
  // Same two-stage software pipeline as feed_serial(), one run ahead
  // instead of one record: with a large state the per-run probe is a
  // DRAM miss, and a random-source batch degenerates to one run per
  // record — prefetching the state slot (far) and the run's first
  // destination/port slots (near) hides most of that latency. Hints
  // are read-only, so output is identical.
  const bool pipelined = states_.size() >= kPrefetchMinSources;
  constexpr std::size_t kRunLookahead = 8;
  const std::size_t n_runs = runs_.size();
  for (std::size_t ri = 0; ri < n_runs; ++ri) {
    if (pipelined) {
      if (ri + 2 * kRunLookahead < n_runs)
        states_.prefetch_hash(runs_[ri + 2 * kRunLookahead].key_hash);
      if (ri + kRunLookahead < n_runs) {
        const Run& nr = runs_[ri + kRunLookahead];
        if (SourceState* const* p = states_.find_hashed(nr.key, nr.key_hash)) {
          const BatchEntry& fe = batch_entries_[nr.offset];
          (*p)->dsts.prefetch_hash(fe.dst_hash);
          (*p)->ports.prefetch(fe.port);
        }
      }
    }
    const Run& run = runs_[ri];
    SourceState*& slot = states_.insert_hashed(run.key, run.key_hash);
    if (slot == nullptr) {
      // Cold source inside a grouped batch: guard 2 (via the cold-aware
      // refine_expiries) proved its event cannot finalize or split
      // before the batch ends, so rehydrating and appending the run is
      // exactly what the serial path would do.
      if (SourceState* thawed = promote(run.key, run.key_hash)) {
        slot = thawed;
      } else {
        slot = new_state();
        slot->first_us = run.first_ts;
        slot->asn = run.asn;
        expiries_.push(Expiry{run.first_ts + config_.timeout_us, run.key, run.key_hash});
        if (config_.demote_idle_us > 0)
          demotions_.push(Expiry{run.first_ts + config_.demote_idle_us, run.key, run.key_hash});
      }
    }
    SourceState& st = *slot;
    st.last_us = run.last_ts;
    st.packets += run.len;
    const BatchEntry* e = batch_entries_.data() + run.offset;
    const BatchEntry* const end = e + run.len;
    if (config_.summary_only) {
      // A qualified source stays qualified: its set stops growing.
      for (; e != end && st.dsts.size() < config_.min_destinations; ++e)
        st.dsts.insert_hashed(e->dst, e->dst_hash);
      continue;
    }
    if (st.week_slot != nullptr && run.last_ts < st.week_next_us) {
      *st.week_slot += run.len;
    } else {
      for (const BatchEntry* w = e; w != end; ++w) {
        if (w->ts >= st.week_next_us || st.week_slot == nullptr) {
          const std::int64_t week = util::window_week(sim::seconds_of(w->ts));
          st.week_slot = &st.weekly[static_cast<std::uint32_t>(week)];
          st.week_next_us =
              week >= 0 && w->ts >= 0
                  ? sim::us_from_seconds(util::kWindowStart + (week + 1) * util::kSecondsPerWeek)
                  : INT64_MIN;
        }
        ++*st.week_slot;
      }
    }
    std::uint32_t run_port = e->port;
    std::uint64_t port_n = 0;
    for (; e != end; ++e) {
      if (st.dsts.insert_hashed(e->dst, e->dst_hash) && e->dns) ++st.dsts_in_dns;
      if (e->port != run_port) {
        st.ports[run_port] += port_n;
        run_port = e->port;
        port_n = 0;
      }
      ++port_n;
    }
    st.ports[run_port] += port_n;
  }
  return true;
}

void ScanDetector::finalize(const net::Ipv6Prefix& key, SourceState& st) {
  // Summary-only states never fill ports or weekly, so their events
  // carry empty vectors and a distinct_dsts capped at the threshold.
  if (st.dsts.size() < config_.min_destinations) return;
  ScanEvent ev;
  ev.source = key;
  ev.first_us = st.first_us;
  ev.last_us = st.last_us;
  ev.packets = st.packets;
  ev.distinct_dsts = static_cast<std::uint32_t>(st.dsts.size());
  ev.distinct_dsts_in_dns = st.dsts_in_dns;
  ev.src_asn = st.asn;
  ev.port_packets.reserve(st.ports.size());
  st.ports.for_each([&](std::uint32_t port, std::uint64_t n) {
    ev.port_packets.emplace_back(static_cast<std::uint16_t>(port), n);
  });
  std::sort(ev.port_packets.begin(), ev.port_packets.end());
  ev.weekly_packets.reserve(st.weekly.size());
  st.weekly.for_each([&](std::uint32_t week, std::uint64_t n) {
    ev.weekly_packets.emplace_back(static_cast<std::int32_t>(week), n);
  });
  std::sort(ev.weekly_packets.begin(), ev.weekly_packets.end());
  dm().events_emitted.add();
  sink_->on_event(std::move(ev));
}

void ScanDetector::advance(sim::TimeUs now) {
  if (now < last_ts_) return;
  last_ts_ = now;
  expire_up_to(now);
  if (config_.demote_idle_us > 0) demote_up_to(now);
  note_tiers();
}

// The tier gauges are noted only where the input decides the state:
// after advance()'s sweeps and at flush. Worker batch boundaries
// follow thread timing, so a note at batch start would make the
// high-water differ between runs of one input.
void ScanDetector::note_tiers() const noexcept {
  dm().hot_sources.note(states_.size());
  dm().cold_sources.note(cold_.size());
}

void ScanDetector::finalize_cold(const net::Ipv6Prefix& key, const ColdState& cs) {
  if (cs.dsts.size() < config_.min_destinations) return;
  ScanEvent ev;
  ev.source = key;
  ev.first_us = cs.first_us;
  ev.last_us = cs.last_us;
  ev.packets = cs.packets;
  ev.distinct_dsts = static_cast<std::uint32_t>(cs.dsts.size());
  ev.distinct_dsts_in_dns = cs.dsts_in_dns;
  ev.src_asn = cs.asn;
  ev.port_packets.reserve(cs.ports.size());
  for (const auto& [port, n] : cs.ports)
    ev.port_packets.emplace_back(static_cast<std::uint16_t>(port), n);
  std::sort(ev.port_packets.begin(), ev.port_packets.end());
  ev.weekly_packets.reserve(cs.weekly.size());
  for (const auto& [week, n] : cs.weekly)
    ev.weekly_packets.emplace_back(static_cast<std::int32_t>(week), n);
  std::sort(ev.weekly_packets.begin(), ev.weekly_packets.end());
  dm().events_emitted.add();
  sink_->on_event(std::move(ev));
}

void ScanDetector::demote_up_to(sim::TimeUs now) {
  std::uint64_t demoted = 0;
  while (!demotions_.empty() && demotions_.top().at < now) {
    const Expiry e = demotions_.top();
    demotions_.pop();
    SourceState* const* p = states_.find_hashed(e.key, e.key_hash);
    if (p == nullptr) continue;  // already cold, or finalized
    const sim::TimeUs due = (*p)->last_us + config_.demote_idle_us;
    if (due != e.at) {
      // Stale reminder: the source was active since. Re-queue at its
      // current true demote time, same discipline as the expiry heap.
      demotions_.push(Expiry{due, e.key, e.key_hash});
      continue;
    }
    demote(e.key, e.key_hash, *p);
    ++demoted;
  }
  if (demoted && util::metrics::enabled()) dm().demotions.add(demoted);
}

void ScanDetector::demote(const net::Ipv6Prefix& key, std::size_t key_hash, SourceState* st) {
  auto cs = std::make_unique<ColdState>();
  cs->first_us = st->first_us;
  cs->last_us = st->last_us;
  cs->packets = st->packets;
  cs->dsts_in_dns = st->dsts_in_dns;
  cs->asn = st->asn;
  cs->dsts.reserve(st->dsts.size());
  st->dsts.for_each([&](const net::Ipv6Address& a) { cs->dsts.push_back(a); });
  cs->ports.reserve(st->ports.size());
  st->ports.for_each(
      [&](std::uint32_t port, std::uint64_t n) { cs->ports.emplace_back(port, n); });
  cs->weekly.reserve(st->weekly.size());
  st->weekly.for_each(
      [&](std::uint32_t week, std::uint64_t n) { cs->weekly.emplace_back(week, n); });
  delete_state(st);
  states_.erase_hashed(key, key_hash);
  cold_.insert_hashed(key, key_hash) = cs.release();
}

ScanDetector::SourceState* ScanDetector::promote(const net::Ipv6Prefix& key,
                                                 std::size_t key_hash) {
  ColdState** p = cold_.find_hashed(key, key_hash);
  if (p == nullptr) return nullptr;
  std::unique_ptr<ColdState> cs(*p);
  cold_.erase_hashed(key, key_hash);
  SourceState* st = new_state();
  st->first_us = cs->first_us;
  st->last_us = cs->last_us;
  st->packets = cs->packets;
  st->dsts_in_dns = cs->dsts_in_dns;
  st->asn = cs->asn;
  st->dsts.reserve(cs->dsts.size());
  for (const auto& a : cs->dsts) st->dsts.insert(a);
  st->ports.reserve(cs->ports.size());
  for (const auto& [port, n] : cs->ports) st->ports[port] = n;
  st->weekly.reserve(cs->weekly.size());
  for (const auto& [week, n] : cs->weekly) st->weekly[week] = n;
  // week_slot stays null — the next record recomputes the cached
  // weekly-histogram slot lazily, against the rebuilt `weekly` map.
  demotions_.push(Expiry{cs->last_us + config_.demote_idle_us, key, key_hash});
  if (util::metrics::enabled()) dm().promotions.add();
  return st;
}

bool ScanDetector::refine_expiries(sim::TimeUs last) {
  // Batch-path companion of expire_up_to(): pops every reminder due
  // before the batch end and either discards it (dead source),
  // re-queues it at the source's current true due time (stale — the
  // refinement expire_up_to() itself performs, which provably never
  // emits), or reports failure when the true due time falls inside
  // the batch, i.e. the source could genuinely finalize — or gap out
  // across a batch-internal quiet stretch — before the batch ends.
  // Only in that last case must the serial path take over. Re-queued
  // entries land at >= `last`, so the loop pops each entry at most
  // once. Heap-content note: the serial path would refine the same
  // reminders a little later (possibly to an even later due time, if
  // the source sends again mid-batch); both refinements are interim
  // lower-bound alarms that get re-refined on the next pop, and
  // finalization fires at the variant-independent (true due, key)
  // point either way, so the output is unchanged.
  std::uint64_t pops = 0, stale = 0, dead = 0;
  bool ok = true;
  while (!expiries_.empty() && expiries_.top().at < last) {
    const Expiry e = expiries_.top();
    SourceState* const* p = states_.find_hashed(e.key, e.key_hash);
    sim::TimeUs due;
    if (p != nullptr) {
      due = (*p)->last_us + config_.timeout_us;
    } else if (ColdState* const* cp = cold_.find_hashed(e.key, e.key_hash)) {
      // Cold sources keep their expiry reminders; the record is
      // immutable, so its true due time is exact — refine or fail by
      // the same rule as a hot source.
      due = (*cp)->last_us + config_.timeout_us;
    } else {
      expiries_.pop();
      ++pops, ++dead;
      continue;
    }
    if (due < last) {
      ok = false;  // genuine finalization (or split) possible in-batch
      break;
    }
    expiries_.pop();
    expiries_.push(Expiry{due, e.key, e.key_hash});
    ++pops, ++stale;
  }
  if (pops && util::metrics::enabled()) {
    dm().expiry_pops.add(pops);
    dm().expiry_stale.add(stale);
    dm().expiry_dead.add(dead);
  }
  return ok;
}

void ScanDetector::expire_up_to(sim::TimeUs now) {
  // Local tallies, flushed once after the sweep: expire_up_to() runs
  // per record and usually pops nothing — the common case must stay a
  // heap-top compare, not four metric calls.
  std::uint64_t pops = 0, stale = 0, dead = 0, finalized = 0;
  // Strictly-less throughout: an entry due exactly now must neither be
  // finalized (its gap equals the timeout, which feed() keeps) nor
  // re-pushed-and-repopped at the same `at` (livelock).
  while (!expiries_.empty() && expiries_.top().at < now) {
    const Expiry e = expiries_.top();
    expiries_.pop();
    ++pops;
    SourceState* const* p = states_.find_hashed(e.key, e.key_hash);
    if (p == nullptr) {
      // Not hot: a cold-tier source finalizes straight from its packed
      // record, with the identical stale-requeue discipline (the
      // record is immutable, so `due` is exact).
      if (ColdState** cp = cold_.find_hashed(e.key, e.key_hash)) {
        ColdState* cs = *cp;
        const sim::TimeUs due = cs->last_us + config_.timeout_us;
        if (due != e.at) {
          expiries_.push(Expiry{due, e.key, e.key_hash});
          ++stale;
        } else {
          finalize_cold(e.key, *cs);
          ++finalized;
          delete cs;
          cold_.erase_hashed(e.key, e.key_hash);
        }
      } else {
        ++dead;
      }
      continue;
    }
    SourceState* st = *p;
    const sim::TimeUs due = st->last_us + config_.timeout_us;
    if (due != e.at) {
      // Stale: the source was active after this entry was pushed, so
      // `at` is not the event's end time. Finalizing here would emit
      // in heap-pop order of the stale `at`, not (due, key) order —
      // re-queue at the true due time instead; if that is still < now
      // the entry pops again later in this very sweep, in order.
      expiries_.push(Expiry{due, e.key, e.key_hash});
      ++stale;
      continue;
    }
    // Fresh entry with at == due < now: the gap strictly exceeds the
    // timeout (a gap of exactly the timeout still belongs to the same
    // event; feed() uses the matching strict > to split).
    finalize(e.key, *st);
    ++finalized;
    delete_state(st);
    states_.erase_hashed(e.key, e.key_hash);
  }
  if (pops && util::metrics::enabled()) {
    dm().expiry_pops.add(pops);
    dm().expiry_stale.add(stale);
    dm().expiry_dead.add(dead);
    dm().expiry_finalized.add(finalized);
  }
}

void ScanDetector::flush() {
  note_tiers();
  // Finalize in key order so flushed-event order is deterministic
  // regardless of hash-table iteration order. Hot and cold sources
  // interleave in one key-sorted pass — the tier a source happens to
  // sit in at flush time never shows in the output.
  struct Live {
    net::Ipv6Prefix key;
    SourceState* hot;
    ColdState* cold;
  };
  std::vector<Live> live;
  live.reserve(states_.size() + cold_.size());
  states_.for_each(
      [&](const net::Ipv6Prefix& key, SourceState* st) { live.push_back({key, st, nullptr}); });
  cold_.for_each(
      [&](const net::Ipv6Prefix& key, ColdState* cs) { live.push_back({key, nullptr, cs}); });
  std::sort(live.begin(), live.end(), [](const Live& a, const Live& b) { return a.key < b.key; });
  for (auto& l : live) {
    if (l.hot != nullptr) {
      finalize(l.key, *l.hot);
      delete_state(l.hot);
    } else {
      finalize_cold(l.key, *l.cold);
      delete l.cold;
    }
  }
  states_.clear();
  cold_.clear();
  while (!expiries_.empty()) expiries_.pop();
  while (!demotions_.empty()) demotions_.pop();
}

void ScanDetector::save(util::StateWriter& w) const {
  // Configuration fingerprint first — load() rejects an instance whose
  // knobs differ, since per-source state is only meaningful under the
  // aggregation/timeout that produced it.
  w.i32(config_.source_prefix_len);
  w.u32(config_.min_destinations);
  w.i64(config_.timeout_us);
  w.i64(config_.demote_idle_us);
  w.i64(last_ts_);
  w.u64(packets_seen_);
  const auto put_key = [&w](const net::Ipv6Prefix& key) {
    w.u64(key.address().hi());
    w.u64(key.address().lo());
    w.i32(key.length());
  };
  w.u64(states_.size());
  states_.for_each([&](const net::Ipv6Prefix& key, SourceState* st) {
    put_key(key);
    w.i64(st->first_us);
    w.i64(st->last_us);
    w.u64(st->packets);
    w.u32(st->dsts_in_dns);
    w.u32(st->asn);
    w.u64(st->dsts.size());
    st->dsts.for_each([&](const net::Ipv6Address& a) {
      w.u64(a.hi());
      w.u64(a.lo());
    });
    w.u64(st->ports.size());
    st->ports.for_each([&](std::uint32_t port, std::uint64_t n) {
      w.u32(port);
      w.u64(n);
    });
    w.u64(st->weekly.size());
    st->weekly.for_each([&](std::uint32_t week, std::uint64_t n) {
      w.u32(week);
      w.u64(n);
    });
  });
  w.u64(cold_.size());
  cold_.for_each([&](const net::Ipv6Prefix& key, ColdState* cs) {
    put_key(key);
    w.i64(cs->first_us);
    w.i64(cs->last_us);
    w.u64(cs->packets);
    w.u32(cs->dsts_in_dns);
    w.u32(cs->asn);
    w.u64(cs->dsts.size());
    for (const auto& a : cs->dsts) {
      w.u64(a.hi());
      w.u64(a.lo());
    }
    w.u64(cs->ports.size());
    for (const auto& [port, n] : cs->ports) {
      w.u32(port);
      w.u64(n);
    }
    w.u64(cs->weekly.size());
    for (const auto& [week, n] : cs->weekly) {
      w.u32(week);
      w.u64(n);
    }
  });
}

void ScanDetector::load(util::StateReader& r) {
  if (packets_seen_ != 0 || !states_.empty() || !cold_.empty())
    throw std::runtime_error("ScanDetector::load: detector already fed");
  if (r.i32() != config_.source_prefix_len || r.u32() != config_.min_destinations ||
      r.i64() != config_.timeout_us || r.i64() != config_.demote_idle_us)
    throw std::runtime_error("ScanDetector::load: configuration mismatch");
  last_ts_ = r.i64();
  packets_seen_ = r.u64();
  const auto get_key = [&r] {
    const std::uint64_t hi = r.u64();
    const std::uint64_t lo = r.u64();
    const int len = r.i32();
    if (len < 0 || len > 128)
      throw std::runtime_error("ScanDetector::load: bad prefix length");
    return net::Ipv6Prefix(net::Ipv6Address{hi, lo}, len);
  };
  // A summary-only detector loads full-mode state by keeping what it
  // would have tracked itself: the first min_destinations destinations
  // (a full set has no duplicates, so qualification carries over) and
  // no port, weekly or DNS counts.
  const bool summary = config_.summary_only;
  const std::uint64_t dst_cap = summary ? config_.min_destinations : UINT64_MAX;
  // The reminder heaps are rebuilt, not restored: one entry per live
  // source at its exact current due time. The original heap may have
  // held earlier (stale) reminders, but those are interim alarms that
  // only ever get re-queued — finalization and demotion fire at the
  // (true due, key) point either way, so emitted output is unchanged.
  const std::uint64_t hot_n = r.count(64);
  states_.reserve(static_cast<std::size_t>(hot_n));
  for (std::uint64_t i = 0; i < hot_n; ++i) {
    const net::Ipv6Prefix key = get_key();
    const std::size_t key_hash = std::hash<net::Ipv6Prefix>{}(key);
    SourceState*& slot = states_.insert_hashed(key, key_hash);
    if (slot != nullptr) throw std::runtime_error("ScanDetector::load: duplicate source");
    SourceState* st = new_state();
    slot = st;
    st->first_us = r.i64();
    st->last_us = r.i64();
    st->packets = r.u64();
    const std::uint32_t in_dns = r.u32();
    st->dsts_in_dns = summary ? 0 : in_dns;
    st->asn = r.u32();
    const std::uint64_t n_dsts = r.count(16);
    st->dsts.reserve(static_cast<std::size_t>(std::min(n_dsts, dst_cap)));
    for (std::uint64_t d = 0; d < n_dsts; ++d) {
      const std::uint64_t hi = r.u64();
      const net::Ipv6Address a{hi, r.u64()};
      if (st->dsts.size() < dst_cap) st->dsts.insert(a);
    }
    const std::uint64_t n_ports = r.count(12);
    if (!summary) st->ports.reserve(static_cast<std::size_t>(n_ports));
    for (std::uint64_t d = 0; d < n_ports; ++d) {
      const std::uint32_t port = r.u32();
      const std::uint64_t n = r.u64();
      if (!summary) st->ports[port] = n;
    }
    const std::uint64_t n_weeks = r.count(12);
    if (!summary) st->weekly.reserve(static_cast<std::size_t>(n_weeks));
    for (std::uint64_t d = 0; d < n_weeks; ++d) {
      const std::uint32_t week = r.u32();
      const std::uint64_t n = r.u64();
      if (!summary) st->weekly[week] = n;
    }
    expiries_.push(Expiry{st->last_us + config_.timeout_us, key, key_hash});
    if (config_.demote_idle_us > 0)
      demotions_.push(Expiry{st->last_us + config_.demote_idle_us, key, key_hash});
  }
  const std::uint64_t cold_n = r.count(64);
  cold_.reserve(static_cast<std::size_t>(cold_n));
  for (std::uint64_t i = 0; i < cold_n; ++i) {
    const net::Ipv6Prefix key = get_key();
    const std::size_t key_hash = std::hash<net::Ipv6Prefix>{}(key);
    if (states_.find_hashed(key, key_hash) != nullptr ||
        cold_.find_hashed(key, key_hash) != nullptr)
      throw std::runtime_error("ScanDetector::load: duplicate source");
    auto cs = std::make_unique<ColdState>();
    cs->first_us = r.i64();
    cs->last_us = r.i64();
    cs->packets = r.u64();
    const std::uint32_t in_dns = r.u32();
    cs->dsts_in_dns = summary ? 0 : in_dns;
    cs->asn = r.u32();
    const std::uint64_t n_dsts = r.count(16);
    cs->dsts.reserve(static_cast<std::size_t>(std::min(n_dsts, dst_cap)));
    for (std::uint64_t d = 0; d < n_dsts; ++d) {
      const std::uint64_t hi = r.u64();
      const net::Ipv6Address a{hi, r.u64()};
      if (cs->dsts.size() < dst_cap) cs->dsts.push_back(a);
    }
    const std::uint64_t n_ports = r.count(12);
    if (!summary) cs->ports.reserve(static_cast<std::size_t>(n_ports));
    for (std::uint64_t d = 0; d < n_ports; ++d) {
      const std::uint32_t port = r.u32();
      const std::uint64_t n = r.u64();
      if (!summary) cs->ports.emplace_back(port, n);
    }
    const std::uint64_t n_weeks = r.count(12);
    if (!summary) cs->weekly.reserve(static_cast<std::size_t>(n_weeks));
    for (std::uint64_t d = 0; d < n_weeks; ++d) {
      const std::uint32_t week = r.u32();
      const std::uint64_t n = r.u64();
      if (!summary) cs->weekly.emplace_back(week, n);
    }
    expiries_.push(Expiry{cs->last_us + config_.timeout_us, key, key_hash});
    cold_.insert_hashed(key, key_hash) = cs.release();
  }
  // No expect_end(): this payload may be embedded mid-section (the IDS
  // serializes one detector per ladder level); the outermost section
  // consumer asserts end-of-section.
}

void detect_multi(sim::RecordStream& stream, const std::vector<DetectorConfig>& configs,
                  const std::vector<EventSink*>& sinks) {
  if (sinks.size() != configs.size())
    throw std::invalid_argument("detect_multi: one sink per config required");
  for (EventSink* s : sinks)
    if (s == nullptr) throw std::invalid_argument("detect_multi: null sink");
  std::vector<std::unique_ptr<ScanDetector>> detectors;
  detectors.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    detectors.push_back(std::make_unique<ScanDetector>(configs[i], *sinks[i]));
  // ONE pass over the stream regardless of level count: each batch is
  // fanned to every detector before the next batch is fetched.
  std::array<sim::LogRecord, 1024> batch;
  for (std::size_t n; (n = stream.next_batch(batch.data(), batch.size())) > 0;) {
    const std::span<const sim::LogRecord> span{batch.data(), n};
    for (auto& d : detectors) d->feed_batch(span);
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    detectors[i]->flush();
    sinks[i]->flush();
  }
}

std::vector<std::vector<ScanEvent>> detect_multi(sim::RecordStream& stream,
                                                 const std::vector<DetectorConfig>& configs) {
  std::vector<std::vector<ScanEvent>> results(configs.size());
  std::vector<VectorSink> vec_sinks;
  vec_sinks.reserve(configs.size());
  for (auto& r : results) vec_sinks.emplace_back(r);
  std::vector<EventSink*> sinks;
  sinks.reserve(configs.size());
  for (auto& s : vec_sinks) sinks.push_back(&s);
  detect_multi(stream, configs, sinks);
  return results;
}

}  // namespace v6sonar::core
