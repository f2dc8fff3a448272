#!/usr/bin/env bash
# Sanitized check of the threaded pipeline and the batched data plane,
# plus an end-to-end metrics smoke check.
#
#   tools/check.sh [thread|address|metrics|perf|bench-guard|report|daemon|checkpoint|docs|all]    (default: thread)
#
# `thread`/`address` configure a separate build tree (build-tsan/ or
# build-asan/) with -DV6SONAR_SANITIZE=<kind>, build the relevant test
# binaries, and run them under the sanitizer. `thread` covers the
# concurrency-sensitive targets (SPSC ring, parallel pipeline, batch
# feed, the daemon's snapshot seam and socket server, the sharded
# checkpoint resume, whose sections are sealed on the worker threads,
# and the day-parallel artifact filter);
# `address` additionally covers the mmap log reader, the arena-backed
# flat containers, the daemon's framing/tailing paths, and the
# checkpoint byte handling (CRC-32, StateWriter, container reader),
# and the IDS ladder (streaming IDS, summary-only detector state and
# its cross-mode loads), whose bugs are memory bugs rather than races. `metrics` builds every
# target, tests included, with warnings as errors (-DV6SONAR_WERROR=ON),
# generates a small world, runs
# `v6sonar detect --mmap --threads 4 --metrics=…`, and validates the
# JSON snapshot (nonzero ingestion/feed counters, per-shard ring
# gauges, full guard-fallback breakdown), then runs `v6sonar filter`
# and checks its read/work/write timers cover >= 95 % of its wall time. `perf` builds the release
# bench tree and runs `bench_parallel_pipeline` on a small record
# count (V6SONAR_PIPELINE_RECORDS) in a scratch directory, verifying
# the speedup and bulk-consumption fields land in the
# `parallel_pipeline_bulk` section of BENCH_pipeline.json — a smoke
# test for the bench plumbing, not a performance measurement.
# `bench-guard` is the actual performance gate: it replays the
# standard 4 M-record serial-detector workload (bench_detector_
# throughput's detector_serial section, min-of-3 passes) and fails if
# either the record-at-a-time or the batched-replay records/s falls
# more than 10% below the committed BENCH_pipeline.json baseline.
# `report`
# exercises the streaming analytics path end to end: generate a small
# world, run `detect --mmap --report --events` (analyzer chain inline,
# event stream spilled), replay the spill with `report`, and assert
# the two reports are byte-for-byte identical — the sink pipeline's
# equivalence guarantee. `daemon` is the v6sonard smoke: the daemon
# tails a log that appears, grows, and rotates underneath it while a
# subscriber and concurrent query clients are attached; the live
# report must be byte-identical to a batch `detect --report` over the
# same records, and SIGTERM must drain cleanly — exit 0, socket
# unlinked, spill finalized, metrics written. `checkpoint` is the
# freeze/thaw durability smoke (docs/CHECKPOINT.md): a 4 M-record
# replay is SIGKILLed mid-run while checkpointing every 250k records,
# then resumed from the surviving checkpoint; the resumed report and
# spilled event stream must be byte-identical to an uninterrupted
# run, serial and sharded (--threads 2) alike. `docs` is a grep-based
# lint needing no build:
# every metric-name literal in src/ must appear in
# docs/OBSERVABILITY.md and every CLI flag in tools/v6sonar_cli.cpp
# must appear in README.md, so the reference docs cannot silently fall
# behind the code. `all` runs every config. Exits non-zero on any
# sanitizer report, test failure, new warning in the metrics build,
# missing/zero metric, report mismatch, or undocumented name.
set -euo pipefail
cd "$(dirname "$0")/.."

kind="${1:-thread}"
case "$kind" in
  thread|address|metrics|perf|bench-guard|report|daemon|checkpoint|docs) ;;
  all) "$0" docs && "$0" thread && "$0" address && "$0" metrics && "$0" report \
       && "$0" daemon && "$0" checkpoint && "$0" perf && exec "$0" bench-guard ;;
  *) echo "usage: tools/check.sh [thread|address|metrics|perf|bench-guard|report|daemon|checkpoint|docs|all]" >&2; exit 2 ;;
esac

if [[ "$kind" == docs ]]; then
  fail=0

  # Every dotted metric-name literal in src/ — full names and the
  # suffix fragments of composed names (pipeline.shard<N>.*,
  # analysis.<name>.flush_us) alike — must appear somewhere in
  # docs/OBSERVABILITY.md. Substring match: the doc's placeholder rows
  # contain every fragment the code concatenates.
  while IFS= read -r name; do
    if ! grep -qF "$name" docs/OBSERVABILITY.md; then
      echo "docs lint: metric name '$name' missing from docs/OBSERVABILITY.md" >&2
      fail=1
    fi
  done < <(grep -rhoE '"[a-z_]*\.[a-z_0-9.]+"' src --include='*.cpp' --include='*.hpp' \
           | tr -d '"' | sort -u)

  # Every flag the CLI parses must be documented in the README.
  while IFS= read -r flag; do
    if ! grep -qF -- "$flag" README.md; then
      echo "docs lint: CLI flag '$flag' missing from README.md" >&2
      fail=1
    fi
  done < <(grep -oE -- '"--[a-z][a-z-]*' tools/v6sonar_cli.cpp | tr -d '"' | sort -u)

  if [[ "$fail" -ne 0 ]]; then
    echo "check.sh: docs lint FAILED" >&2
    exit 1
  fi
  echo "check.sh: docs lint passed (metric names in OBSERVABILITY.md, CLI flags in README.md)"
  exit 0
fi

if [[ "$kind" == perf ]]; then
  tree=build-perf
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$tree" -j"$(nproc)" --target bench_parallel_pipeline

  # Run in a scratch directory: the bench writes BENCH_pipeline.json
  # into its CWD, and smoke-run numbers must not clobber the repo's
  # full-run records.
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  bench="$PWD/$tree/bench/bench_parallel_pipeline"
  (cd "$work" && V6SONAR_PIPELINE_RECORDS=200000 "$bench")

  python3 - "$work/BENCH_pipeline.json" <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    bench = json.load(fh)

failures = []
row = bench.get("parallel_pipeline_bulk")
if row is None:
    failures.append("parallel_pipeline_bulk section missing")
    row = {}
# Every speedup the table prints must land in the JSON, batched and
# record-at-a-time, so regressions in either feed path are visible.
for t in (1, 2, 3, 8):
    for suffix in ("", "_batched"):
        key = f"speedup_{t}t{suffix}"
        if row.get(key, 0) <= 0:
            failures.append(f"field {key} missing or nonpositive")
# Bulk-consumption telemetry: the instrumented pass must show worker
# chunk pops actually carrying multiple records. (merger_drain_mean_8t
# may be 0 here — a 200k-record smoke run emits few or no events.)
if row.get("worker_batch_mean_8t", 0) <= 1:
    failures.append("worker_batch_mean_8t missing or <=1: bulk pop path not engaged")
if "merger_drain_mean_8t" not in row:
    failures.append("merger_drain_mean_8t field missing")
if row.get("serial_rps", 0) <= 0:
    failures.append("serial_rps missing or zero")

if failures:
    print("perf smoke check FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"perf smoke ok: serial {row['serial_rps']} rec/s, "
      f"8t batched speedup {row['speedup_8t_batched']}x, "
      f"mean worker chunk {row['worker_batch_mean_8t']} records")
PY

  echo "check.sh: perf smoke check passed (bench fields present in BENCH_pipeline.json)"
  exit 0
fi

if [[ "$kind" == bench-guard ]]; then
  tree=build-perf
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$tree" -j"$(nproc)" --target bench_detector_throughput

  # Scratch CWD so the guard run's numbers never clobber the repo's
  # committed records; V6SONAR_DETECTOR_SERIAL_ONLY skips the replay
  # comparison and microbench kernels — only the gated section runs.
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  bench="$PWD/$tree/bench/bench_detector_throughput"
  (cd "$work" && V6SONAR_DETECTOR_SERIAL_ONLY=1 "$bench")

  python3 - "$work/BENCH_pipeline.json" BENCH_pipeline.json <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    measured = json.load(fh).get("detector_serial")
with open(sys.argv[2]) as fh:
    committed = json.load(fh).get("detector_serial")

failures = []
if measured is None:
    failures.append("measured detector_serial section missing")
if committed is None:
    failures.append("committed detector_serial baseline missing from BENCH_pipeline.json")
if not failures:
    if measured.get("records", 0) != committed.get("records", -1):
        failures.append(
            f"record counts differ (measured {measured.get('records')}, "
            f"committed {committed.get('records')}): not comparable")
    for key in ("feed_rps", "replay_rps"):
        base, got = committed.get(key, 0), measured.get(key, 0)
        if base <= 0:
            failures.append(f"committed baseline {key} missing or zero")
        elif got < 0.9 * base:
            failures.append(
                f"{key} regressed >10%: measured {got:.0f} rec/s vs committed "
                f"{base:.0f} rec/s ({100 * got / base:.1f}%)")

if failures:
    print("bench-guard FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"bench-guard ok ({measured['probe_scheme']}): "
      f"feed {measured['feed_rps']:.0f} rec/s (baseline {committed['feed_rps']:.0f}), "
      f"replay {measured['replay_rps']:.0f} rec/s (baseline {committed['replay_rps']:.0f})")
PY

  echo "check.sh: bench-guard passed (serial detector within 10% of committed baseline)"
  exit 0
fi

if [[ "$kind" == report ]]; then
  tree=build-report
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$tree" -j"$(nproc)" --target v6sonar

  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  v6sonar="$tree/tools/v6sonar"
  "$v6sonar" generate "$work/world.v6slog" --small > /dev/null

  # Inline: detector -> fan-out -> analyzers, spilling the event
  # stream on the side. Replay: EventReader -> the same analyzers.
  "$v6sonar" detect "$work/world.v6slog" --mmap --report \
      --events "$work/spill.v6ev" > "$work/inline.txt"
  "$v6sonar" report "$work/spill.v6ev" > "$work/replay.txt"

  if ! cmp -s "$work/inline.txt" "$work/replay.txt"; then
    echo "report smoke check FAILED: detect --report and report differ" >&2
    diff "$work/inline.txt" "$work/replay.txt" | head -40 >&2
    exit 1
  fi
  if [[ ! -s "$work/inline.txt" ]]; then
    echo "report smoke check FAILED: empty report output" >&2
    exit 1
  fi

  # The serial and parallel detectors must stream the same report.
  "$v6sonar" detect "$work/world.v6slog" --mmap --report --threads 2 \
      > "$work/parallel.txt"
  if ! cmp -s "$work/inline.txt" "$work/parallel.txt"; then
    echo "report smoke check FAILED: --threads 2 report differs from serial" >&2
    diff "$work/inline.txt" "$work/parallel.txt" | head -40 >&2
    exit 1
  fi

  echo "check.sh: report smoke check passed (inline == spill-replay, serial == parallel)"
  exit 0
fi

if [[ "$kind" == daemon ]]; then
  tree=build-daemon
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$tree" -j"$(nproc)" --target v6sonar v6sonard

  work="$(mktemp -d)"
  daemon_pid=""
  cleanup() {
    if [[ -n "$daemon_pid" ]]; then
      kill "$daemon_pid" 2> /dev/null || true
      wait "$daemon_pid" 2> /dev/null || true
    fi
    rm -rf "$work"
  }
  trap cleanup EXIT
  v6sonar="$PWD/$tree/tools/v6sonar"
  v6sonard="$PWD/$tree/tools/v6sonard"
  sock="$work/v6sonard.sock"

  "$v6sonar" generate "$work/world.v6slog" --small > /dev/null

  # Split the world into two live-append chunks plus a rotated-in file
  # carrying one sentinel probe two detection timeouts past the last
  # record: it forces every in-flight scan in the live daemon to
  # finalize, but is a single packet, so it never becomes a scan event
  # itself. The batch reference sees the identical record set.
  total_records=$(python3 - "$work" <<'PY'
import os, struct, sys

work = sys.argv[1]
with open(os.path.join(work, "world.v6slog"), "rb") as fh:
    blob = fh.read()
magic, body = blob[:8], blob[16:]
n = len(body) // 52
assert n > 0 and n * 52 == len(body), "world log has partial records"

last_ts = struct.unpack_from("<q", body, (n - 1) * 52)[0]
sentinel = struct.pack("<q", last_ts + 2 * 3600 * 1_000_000)
sentinel += struct.pack("<QQ", 0x20010DB800000BAD, 1)   # src hi, lo
sentinel += struct.pack("<QQ", 0x2600000000000000, 99)  # dst hi, lo
sentinel += struct.pack("<IHHH", 0, 40000, 443, 60)     # asn, sport, dport, len
sentinel += bytes([6, 0])                               # proto tcp, not in DNS
assert len(sentinel) == 52

live_header = magic + struct.pack("<Q", 0)  # count 0, like a still-open writer
half = n // 2
with open(os.path.join(work, "tail_part1.bin"), "wb") as fh:
    fh.write(live_header + body[: half * 52])
with open(os.path.join(work, "tail_part2.bin"), "wb") as fh:
    fh.write(body[half * 52 :])  # raw append bytes, no header
with open(os.path.join(work, "tail_rotated.bin"), "wb") as fh:
    fh.write(live_header + sentinel)
with open(os.path.join(work, "batch_all.v6slog"), "wb") as fh:
    fh.write(magic + struct.pack("<Q", n + 1) + body + sentinel)
print(n + 1)
PY
)

  # Batch reference over the same records, spilling the event stream.
  "$v6sonar" detect "$work/batch_all.v6slog" --report --top 10 \
      --events "$work/ref.v6ev" > "$work/batch_report.txt"
  expected=$(python3 - "$work/ref.v6ev" <<'PY'
import struct, sys
with open(sys.argv[1], "rb") as fh:
    print(struct.unpack("<Q", fh.read(16)[8:])[0])
PY
)
  if [[ "$expected" -le 0 ]]; then
    echo "daemon smoke check FAILED: batch reference produced no events" >&2
    exit 1
  fi

  # Start the daemon before its tail file even exists: a missing path
  # means "not created yet", not an error.
  # --top must match the batch reference: the top-ports ranking width
  # is analyzer state fixed at construction, not a render parameter.
  "$v6sonard" --socket "$sock" --tail "$work/tail.v6slog" --threads 2 \
      --snapshot-every 1 --top 10 \
      --events "$work/spill.v6ev" --metrics="$work/metrics.json" \
      2> "$work/daemon.stderr" &
  daemon_pid=$!

  for _ in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  "$v6sonar" query "$sock" ping smoke-hello | grep -q smoke-hello

  # A subscriber rides along while the log grows underneath it.
  "$v6sonar" query "$sock" subscribe --count 1 --timeout-sec 60 \
      > "$work/sub.txt" &
  sub_pid=$!

  # The log appears, grows, and rotates: the old file moves away and a
  # fresh log (carrying the sentinel) replaces it at the same path.
  cp "$work/tail_part1.bin" "$work/tail.v6slog"
  cat "$work/tail_part2.bin" >> "$work/tail.v6slog"
  # Honour the tailer's rotation contract (docs/DAEMON.md): the writer
  # stops appending, pauses one poll interval, then renames.
  sleep 1
  mv "$work/tail.v6slog" "$work/tail.v6slog.1"
  cp "$work/tail_rotated.bin" "$work/tail.v6slog"

  # Exact rendezvous: block until every batch event has been folded
  # into the master snapshot (the status verb drains before replying).
  "$v6sonar" query "$sock" status --wait-key events_folded \
      --wait-min "$expected" --timeout-sec 60 > /dev/null

  # The live report must be byte-identical to the batch reference.
  "$v6sonar" query "$sock" report --top 10 > "$work/daemon_report.txt"
  if ! cmp -s "$work/batch_report.txt" "$work/daemon_report.txt"; then
    echo "daemon smoke check FAILED: live report differs from batch detect --report" >&2
    diff "$work/batch_report.txt" "$work/daemon_report.txt" | head -40 >&2
    exit 1
  fi

  "$v6sonar" query "$sock" status > "$work/status.txt"
  if ! grep -q '^tail_rotations 1$' "$work/status.txt"; then
    echo "daemon smoke check FAILED: rotation not observed in status:" >&2
    cat "$work/status.txt" >&2
    exit 1
  fi

  if ! wait "$sub_pid"; then
    echo "daemon smoke check FAILED: subscriber exited non-zero" >&2
    exit 1
  fi
  if [[ ! -s "$work/sub.txt" ]]; then
    echo "daemon smoke check FAILED: subscriber received no events" >&2
    exit 1
  fi

  # Graceful drain: SIGTERM -> exit 0, socket unlinked, outputs final.
  kill -TERM "$daemon_pid"
  rc=0
  wait "$daemon_pid" || rc=$?
  daemon_pid=""
  if [[ "$rc" -ne 0 ]]; then
    echo "daemon smoke check FAILED: daemon exited $rc after SIGTERM" >&2
    cat "$work/daemon.stderr" >&2
    exit 1
  fi
  if [[ -e "$sock" ]]; then
    echo "daemon smoke check FAILED: socket not unlinked after drain" >&2
    exit 1
  fi

  # The spill was finalized (count header patched + fsync'd) and holds
  # exactly the batch event count; replaying it through the batch
  # analyzers reproduces the reference report byte for byte.
  spilled=$(python3 - "$work/spill.v6ev" <<'PY'
import struct, sys
with open(sys.argv[1], "rb") as fh:
    print(struct.unpack("<Q", fh.read(16)[8:])[0])
PY
)
  if [[ "$spilled" -ne "$expected" ]]; then
    echo "daemon smoke check FAILED: spill holds $spilled events, batch made $expected" >&2
    exit 1
  fi
  "$v6sonar" report "$work/spill.v6ev" --top 10 > "$work/spill_report.txt"
  if ! cmp -s "$work/batch_report.txt" "$work/spill_report.txt"; then
    echo "daemon smoke check FAILED: spill replay differs from batch report" >&2
    diff "$work/batch_report.txt" "$work/spill_report.txt" | head -40 >&2
    exit 1
  fi

  python3 - "$work/metrics.json" "$total_records" <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    snap = json.load(fh)
counters, gauges = snap["counters"], snap["gauges"]
total = int(sys.argv[2])

failures = []
if counters.get("daemon.tail.records", 0) != total:
    failures.append(f"daemon.tail.records {counters.get('daemon.tail.records')} != {total}")
if counters.get("daemon.tail.rotations", 0) != 1:
    failures.append("daemon.tail.rotations != 1")
for name in ("daemon.snapshot.publishes", "daemon.snapshot.merges",
             "daemon.queries.served", "daemon.frames.rx", "daemon.frames.tx",
             "daemon.clients.accepted", "daemon.subscribe.events_tx"):
    if counters.get(name, 0) <= 0:
        failures.append(f"counter {name} missing or zero")
if "daemon.drain.duration_us" not in gauges:
    failures.append("daemon.drain.duration_us gauge missing")

if failures:
    print("daemon metrics check FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"daemon metrics ok: {counters['daemon.tail.records']} records tailed, "
      f"{counters['daemon.queries.served']} queries served")
PY

  echo "check.sh: daemon smoke check passed (live report == batch, rotation survived, clean drain)"
  exit 0
fi

if [[ "$kind" == checkpoint ]]; then
  tree=build-ckpt
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$tree" -j"$(nproc)" --target v6sonar

  work="$(mktemp -d)"
  victim_pid=""
  cleanup() {
    if [[ -n "$victim_pid" ]]; then
      kill -9 "$victim_pid" 2> /dev/null || true
      wait "$victim_pid" 2> /dev/null || true
    fi
    rm -rf "$work"
  }
  trap cleanup EXIT
  v6sonar="$PWD/$tree/tools/v6sonar"

  # 4 M records: the standard bench replay size, sliced from the small
  # world so the smoke shares its traffic shape with everything else.
  "$v6sonar" generate "$work/full.v6slog" --small > /dev/null
  python3 - "$work" <<'PY'
import os, struct, sys
work = sys.argv[1]
n = 4_000_000
with open(os.path.join(work, "full.v6slog"), "rb") as fh:
    header = fh.read(16)
    body = fh.read(n * 52)
assert len(body) == n * 52, "small world has fewer than 4M records"
with open(os.path.join(work, "world.v6slog"), "wb") as fh:
    fh.write(header[:8] + struct.pack("<Q", n) + body)
PY
  rm "$work/full.v6slog"

  # Uninterrupted reference: report + spilled event stream.
  "$v6sonar" detect "$work/world.v6slog" --mmap --report \
      --events "$work/ref.v6ev" > "$work/ref_report.txt"
  if [[ ! -s "$work/ref_report.txt" ]]; then
    echo "checkpoint smoke FAILED: reference run produced no report" >&2
    exit 1
  fi

  # Serial leg: checkpoint every 250k records, SIGKILL as soon as the
  # first checkpoint lands (mid-replay), then resume from it.
  "$v6sonar" detect "$work/world.v6slog" --mmap --report \
      --events "$work/spill.v6ev" \
      --checkpoint "$work/ck.v6ckpt" --checkpoint-every 250000 \
      > /dev/null 2>&1 &
  victim_pid=$!
  for _ in $(seq 1 600); do
    [[ -s "$work/ck.v6ckpt" ]] && break
    sleep 0.05
  done
  kill -9 "$victim_pid" 2> /dev/null || true
  wait "$victim_pid" 2> /dev/null || true
  victim_pid=""
  if [[ ! -s "$work/ck.v6ckpt" ]]; then
    echo "checkpoint smoke FAILED: no checkpoint written before SIGKILL" >&2
    exit 1
  fi

  "$v6sonar" detect "$work/world.v6slog" --mmap --report \
      --events "$work/spill.v6ev" \
      --checkpoint "$work/ck.v6ckpt" --resume > "$work/resumed_report.txt"
  if ! cmp -s "$work/ref_report.txt" "$work/resumed_report.txt"; then
    echo "checkpoint smoke FAILED: resumed serial report differs from uninterrupted run" >&2
    diff "$work/ref_report.txt" "$work/resumed_report.txt" | head -40 >&2
    exit 1
  fi
  if ! cmp -s "$work/ref.v6ev" "$work/spill.v6ev"; then
    echo "checkpoint smoke FAILED: resumed spill differs from uninterrupted spill" >&2
    exit 1
  fi

  # Sharded leg: same kill/resume dance under --threads 2 (sharded
  # ownership), resuming with the checkpointed worker count.
  rm -f "$work/ck2.v6ckpt"
  "$v6sonar" detect "$work/world.v6slog" --mmap --report --threads 2 --order sharded \
      --checkpoint "$work/ck2.v6ckpt" --checkpoint-every 250000 \
      > /dev/null 2>&1 &
  victim_pid=$!
  for _ in $(seq 1 600); do
    [[ -s "$work/ck2.v6ckpt" ]] && break
    sleep 0.05
  done
  kill -9 "$victim_pid" 2> /dev/null || true
  wait "$victim_pid" 2> /dev/null || true
  victim_pid=""
  if [[ ! -s "$work/ck2.v6ckpt" ]]; then
    echo "checkpoint smoke FAILED: no sharded checkpoint written before SIGKILL" >&2
    exit 1
  fi

  "$v6sonar" detect "$work/world.v6slog" --mmap --report --threads 2 --order sharded \
      --checkpoint "$work/ck2.v6ckpt" --resume > "$work/resumed_sharded.txt"
  if ! cmp -s "$work/ref_report.txt" "$work/resumed_sharded.txt"; then
    echo "checkpoint smoke FAILED: resumed sharded report differs from uninterrupted run" >&2
    diff "$work/ref_report.txt" "$work/resumed_sharded.txt" | head -40 >&2
    exit 1
  fi

  # Corrupt checkpoints must be refused, not half-loaded.
  cp "$work/ck.v6ckpt" "$work/bad.v6ckpt"
  python3 - "$work/bad.v6ckpt" <<'PY'
import sys
path = sys.argv[1]
with open(path, "r+b") as fh:
    fh.seek(-1, 2)
    last = fh.read(1)[0]
    fh.seek(-1, 2)
    fh.write(bytes([last ^ 0x01]))
PY
  if "$v6sonar" detect "$work/world.v6slog" --mmap --report \
      --checkpoint "$work/bad.v6ckpt" --resume > /dev/null 2> "$work/bad.err"; then
    echo "checkpoint smoke FAILED: corrupted checkpoint accepted" >&2
    exit 1
  fi

  echo "check.sh: checkpoint smoke passed (SIGKILL + resume == uninterrupted, serial and sharded; corruption refused)"
  exit 0
fi

if [[ "$kind" == metrics ]]; then
  tree=build-metrics
  # Every target, tests included: a fresh warning anywhere fails the
  # build via -Werror before the smoke test runs.
  cmake -B "$tree" -S . -DV6SONAR_WERROR=ON > /dev/null
  cmake --build "$tree" -j"$(nproc)"

  "$tree/tests/util_metrics_test" > /dev/null
  "$tree/tests/core_metrics_test" > /dev/null

  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  "$tree/tools/v6sonar" generate "$work/world.v6slog" --small > /dev/null
  "$tree/tools/v6sonar" detect "$work/world.v6slog" --mmap --threads 4 \
      --metrics="$work/metrics.json" > /dev/null

  python3 - "$work/metrics.json" <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    snap = json.load(fh)
counters, gauges = snap["counters"], snap["gauges"]

failures = []
# The mmap replay and the sharded feed must actually have moved data.
for name in ("log.mmap.bytes_mapped", "log.mmap.batch_records",
             "pipeline.feed.records", "detector.events.emitted"):
    if counters.get(name, 0) <= 0:
        failures.append(f"counter {name} missing or zero")
# Guard-fallback breakdown must be present (zero is fine: it means no
# batch fell off the grouped path) so regressions are attributable.
for reason in ("small_batch", "expiry_due", "span_exceeds_timeout",
               "starts_before_last", "unsorted"):
    if f"detector.batch.fallback.{reason}" not in counters:
        failures.append(f"fallback counter {reason} missing")
shard_gauges = [g for g in gauges if g.startswith("pipeline.shard")
                and g.endswith(".in_ring.occupancy_hw")]
if len(shard_gauges) != 4:
    failures.append(f"expected 4 per-shard in-ring gauges, saw {len(shard_gauges)}")

if failures:
    print("metrics smoke check FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"metrics snapshot ok: {len(counters)} counters, {len(gauges)} gauges, "
      f"{counters['pipeline.feed.records']} records fed, "
      f"{counters['detector.events.emitted']} events")
PY

  # The day-parallel filter's stage timers must account for its wall
  # time (process start and exit aside): read + work + write >= 95 %.
  python3 - "$tree/tools/v6sonar" "$work" <<'PY'
import json, os, subprocess, sys, time

v6sonar, work = sys.argv[1], sys.argv[2]
snap_path = os.path.join(work, "filter_metrics.json")
t0 = time.perf_counter()
subprocess.run([v6sonar, "filter", os.path.join(work, "world.v6slog"),
                os.path.join(work, "clean.v6slog"), f"--metrics={snap_path}"],
               check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
wall_us = (time.perf_counter() - t0) * 1e6
with open(snap_path) as fh:
    hists = json.load(fh)["histograms"]
stages = {name: hists.get(f"filter.{name}_us", {"count": 0, "sum": 0})
          for name in ("read", "work", "write")}
failures = [f"filter.{name}_us has no samples" for name, h in stages.items() if h["count"] == 0]
covered = sum(h["sum"] for h in stages.values()) / wall_us
if covered < 0.95:
    failures.append(f"filter stage timers cover {covered:.1%} of the wall time, want >= 95%")
if failures:
    print("filter metrics check FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"filter stage timers cover {covered:.1%} of {wall_us / 1e6:.2f} s: " +
      ", ".join(f"{name} {h['sum'] / 1e6:.3f} s" for name, h in stages.items()))
PY

  echo "check.sh: metrics smoke check passed (-Werror build + JSON validation)"
  exit 0
fi

case "$kind" in
  thread)
    tree=build-tsan
    targets=(util_spsc_ring_test core_parallel_pipeline_test core_batch_feed_test
             util_flat_hash_fuzz_test daemon_snapshot_test daemon_server_test
             core_checkpoint_resume_test core_filter_stream_test)
    ;;
  address)
    tree=build-asan
    targets=(util_spsc_ring_test core_parallel_pipeline_test core_batch_feed_test
             sim_test util_flat_hash_test util_flat_hash_fuzz_test
             core_event_sink_test core_event_io_test analysis_streaming_test
             daemon_framing_test daemon_tail_test daemon_snapshot_test
             daemon_server_test util_signal_test util_test
             core_state_codec_test core_checkpoint_resume_test
             core_filter_stream_test core_streaming_ids_test
             core_detector_summary_test)
    ;;
esac

cmake -B "$tree" -S . -DV6SONAR_SANITIZE="$kind" > /dev/null
cmake --build "$tree" -j"$(nproc)" --target "${targets[@]}"

# halt_on_error makes a single report fail the run instead of scrolling by.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"

for t in "${targets[@]}"; do
  "$tree/tests/$t"
done

echo "check.sh: $kind-sanitized tests passed (${targets[*]})"
