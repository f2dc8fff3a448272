#!/usr/bin/env bash
# Sanitized check of the threaded pipeline and the batched data plane,
# plus an end-to-end metrics smoke check.
#
#   tools/check.sh [thread|address|metrics|bench-guard|report|daemon|checkpoint|docs|all]    (default: thread)
#
# `thread`/`address` configure a separate build tree (build-tsan/ or
# build-asan/) with -DV6SONAR_SANITIZE=<kind>, build the relevant test
# binaries, and run them under the sanitizer. `thread` covers the
# concurrency-sensitive targets (SPSC ring, parallel pipeline, batch
# feed, the daemon's snapshot seam and socket server, the sharded
# checkpoint resume, whose sections are sealed on the worker threads,
# the day-parallel artifact filter, and the IDS oracle differential,
# whose shards hand their passes back to the feeding thread);
# `address` additionally covers the mmap log reader, the arena-backed
# flat containers, the mutation fuzz of the log and event readers and
# of the daemon's frame decoder, the daemon's framing/tailing paths,
# the checkpoint byte handling (CRC-32, StateWriter, container
# reader), and the IDS ladder
# (streaming IDS, summary-only detector state and its cross-mode
# loads), whose bugs are memory bugs rather than races. `metrics` builds every
# target, tests included, with warnings as errors (-DV6SONAR_WERROR=ON),
# generates a small world, runs
# `v6sonar detect --mmap --threads 4 --metrics=…`, and validates the
# JSON snapshot (nonzero ingestion/feed counters, per-shard ring
# gauges, full guard-fallback breakdown, and `process.maxrss_kb` under
# 128 MB: the mapped reader's window, not the 741 MB log, is what stays
# resident), checks that `v6sonar info` on that world peaks under 64 MB
# (it counts batch by batch), then a `--checkpoint` run
# whose snapshot must hold one `checkpoint.stall_us` and one
# `checkpoint.commit_us` sample per checkpoint, a `--resume` from it
# whose `log.mmap.batch_records` must equal the records after the
# checkpoint's cursor (the reader seeks past the rest), then runs `v6sonar
# filter` and checks its read/work/write timers cover >= 95 % of its
# wall time.
# `bench-guard` is the performance gate: it builds the Release
# `bench_guard` binary and runs it. Its tree and the `daemon` tree are
# Release builds with warnings as errors, so warnings only -O3 raises
# fail there. The binary times pairs of variants
# in one process, alternately for 31 rounds after a warm-up, and fails
# if the median per-round ratio falls below its floor: feed_batch() vs
# per-record feed(), 3 shards vs 1 (on hosts with >= 4 hardware
# threads), the summary-only IDS ladder vs the full one, and the
# detector vs the batch reference model of tests/detector_model.hpp.
# No recorded baseline is involved.
# `report`
# exercises the streaming analytics path end to end: generate a small
# world, run `detect --mmap --report --events` (analyzer chain inline,
# event stream spilled), replay the spill with `report`, and assert
# the two reports are byte-for-byte identical — the sink pipeline's
# equivalence guarantee — then that `--threads 2` reports, the
# `--threads 3` spill and `ids --threads 3` output are byte-identical
# to their `--threads 1` runs, and that the `--threads 1` report, spill
# and ids output still hash to the digests the deleted serial code
# produced. `daemon` is the v6sonard smoke: the daemon
# tails a log that appears, grows, and rotates underneath it while a
# subscriber and concurrent query clients are attached; the live
# report must be byte-identical to a batch `detect --report` over the
# same records, and SIGTERM must drain cleanly — exit 0, socket
# unlinked, spill finalized and byte-identical to the batch
# `--events` spill, metrics written. `checkpoint` is the
# freeze/thaw durability smoke (docs/CHECKPOINT.md): a 4 M-record
# replay is SIGKILLed mid-run while checkpointing every 250k records,
# then resumed from the surviving checkpoint; the resumed report and
# spilled event stream (`detect --events` at one and two shards,
# `detect` at two without a spill, `detect --events` at three
# checkpointing every 1000 records, killed mid-commit, and `detect` at
# two without `--mmap`, whose resume must match the `--mmap` one: the
# flag is an accepted no-op), the resumed
# `ids` output (one
# and two shards), and a `v6sonard --tail --events` restarted from its
# checkpoint verb's file (live report and drained spill against
# `detect --report --events`) must be byte-identical to an
# uninterrupted run. A
# resume against an input shorter than the checkpoint must fail
# (with and without `--mmap`), a
# `--checkpoint-every` of 2^64-1 on a resumed run must write no
# checkpoint, and a corrupt checkpoint must be refused. `docs` is a grep-based
# lint needing no build:
# every metric-name literal in src/ must appear in
# docs/OBSERVABILITY.md and every CLI flag in tools/v6sonar_cli.cpp
# and tools/cli_args.cpp (the flags detect shares with v6sonard)
# must appear in README.md, so the reference docs cannot silently fall
# behind the code, and no doc or source comment may name a bench
# binary that bench/CMakeLists.txt does not build, or the retired perf
# harness's JSON results file or check.sh mode, and README.md,
# DESIGN.md, docs/ and the verify skill may name no `v6sonar <cmd>`
# subcommand that tools/v6sonar_cli.cpp does not dispatch and no
# `-DV6SONAR_*` option that CMakeLists.txt does not declare. `all` runs every
# config. Exits non-zero on any sanitizer report, test failure, new
# warning in the metrics build, missing/zero metric, report mismatch,
# undocumented name, or gate ratio below its floor.
set -euo pipefail
cd "$(dirname "$0")/.."

kind="${1:-thread}"
case "$kind" in
  thread|address|metrics|bench-guard|report|daemon|checkpoint|docs) ;;
  all) "$0" docs && "$0" thread && "$0" address && "$0" metrics && "$0" report \
       && "$0" daemon && "$0" checkpoint && exec "$0" bench-guard ;;
  *) echo "usage: tools/check.sh [thread|address|metrics|bench-guard|report|daemon|checkpoint|docs|all]" >&2; exit 2 ;;
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
  done < <(grep -ohE -- '"--[a-z][a-z-]*' tools/v6sonar_cli.cpp tools/cli_args.cpp \
           | tr -d '"' | sort -u)

  # Docs and source comments may name only the bench binaries that
  # bench/CMakeLists.txt builds (as bench_<name>, build/bench/bench_<name>
  # or bench_<name>.cpp; work dirs such as .bench_build/, the
  # bench_output.txt capture and bench_fig* globs are not binaries), and
  # nothing of the retired perf harness. Of the top-level markdown only
  # the reference docs are scanned; the change log records history.
  built=$(grep -oE '(v6sonar_add_bench|add_executable)\(bench_[a-z0-9_]+' bench/CMakeLists.txt \
          | sed 's/.*(//')
  scan=(grep -rnoE --include='*.md' --include='*.cpp' --include='*.hpp' --include='*.sh'
        --include='*.txt' --include='*.yml'
        --exclude-dir='build*' --exclude-dir='.bench_*' --exclude-dir=.git
        --exclude-dir=.v6sonar_cache)
  scan_paths=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CMakeLists.txt
              .github .claude bench docs examples perfbench src tests tools)
  while IFS=: read -r file line name; do
    name="${name#[^b]}"
    [[ "$name" == *.txt || "$name" == *'*' ]] && continue
    name="${name%%.*}"
    if ! grep -qxF "$name" <<< "$built"; then
      echo "docs lint: $file:$line names '$name', which bench/CMakeLists.txt does not build" >&2
      fail=1
    fi
  done < <("${scan[@]}" '(^|[^.a-z0-9_])bench_[a-z0-9_]+(\.[a-z]+|\*)?' "${scan_paths[@]}")
  while IFS= read -r hit; do
    echo "docs lint: $hit names the retired perf harness" >&2
    fail=1
  done < <("${scan[@]}" 'BENCH_[p]ipeline|check\.sh [p]erf\b' "${scan_paths[@]}")

  # The reference docs and the verify skill may name only the v6sonar
  # subcommands main() in tools/v6sonar_cli.cpp dispatches. A command
  # is `v6sonar <cmd>` after a backtick, a slash (build/tools/v6sonar)
  # or a parenthesis, or at the start of a line; prose such as "how
  # v6sonar is put together" is not one.
  dispatched=$(grep -oE 'cmd == "[a-z-]+"' tools/v6sonar_cli.cpp | sed -E 's/.*"(.*)"/\1/')
  while IFS=: read -r file line hit; do
    cmd="${hit##* }"
    if ! grep -qxF "$cmd" <<< "$dispatched"; then
      echo "docs lint: $file:$line names 'v6sonar $cmd', which tools/v6sonar_cli.cpp does not dispatch" >&2
      fail=1
    fi
  done < <(grep -rnoE --include='*.md' '(^[[:space:]]*|[`/(])v6sonar [a-z][a-z-]*' \
           README.md DESIGN.md docs .claude/skills/verify/SKILL.md)

  # The same docs may name only the -DV6SONAR_* build options that
  # CMakeLists.txt declares (option() or a cache variable).
  declared=$(grep -oE '^(option|set)\(V6SONAR_[A-Z0-9_]+' CMakeLists.txt | sed 's/.*(//')
  while IFS=: read -r file line hit; do
    if ! grep -qxF "${hit#-D}" <<< "$declared"; then
      echo "docs lint: $file:$line names '$hit', which CMakeLists.txt does not declare" >&2
      fail=1
    fi
  done < <(grep -rnoE --include='*.md' -- '-DV6SONAR_[A-Z0-9_]+' \
           README.md DESIGN.md docs .claude/skills/verify/SKILL.md)

  if [[ "$fail" -ne 0 ]]; then
    echo "check.sh: docs lint FAILED" >&2
    exit 1
  fi
  echo "check.sh: docs lint passed (metric names in OBSERVABILITY.md, CLI flags in README.md," \
       "bench binaries, v6sonar subcommands and -DV6SONAR_* options named in docs exist)"
  exit 0
fi

if [[ "$kind" == bench-guard ]]; then
  tree=build-perf
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=Release -DV6SONAR_WERROR=ON > /dev/null
  cmake --build "$tree" -j"$(nproc)" --target bench_guard
  "$tree/bench/bench_guard"
  echo "check.sh: bench-guard passed (every in-run ratio at or above its floor)"
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

  # Every thread count must stream the same report.
  "$v6sonar" detect "$work/world.v6slog" --mmap --report --threads 2 \
      > "$work/parallel.txt"
  if ! cmp -s "$work/inline.txt" "$work/parallel.txt"; then
    echo "report smoke check FAILED: --threads 2 report differs from --threads 1" >&2
    diff "$work/inline.txt" "$work/parallel.txt" | head -40 >&2
    exit 1
  fi

  # A sharded spill merges its per-shard spills into the serial event
  # order: byte-identical at every shard count.
  "$v6sonar" detect "$work/world.v6slog" --mmap --report --threads 3 \
      --events "$work/spill3.v6ev" > /dev/null
  if ! cmp -s "$work/spill.v6ev" "$work/spill3.v6ev"; then
    echo "report smoke check FAILED: --threads 3 --events spill differs from --threads 1" >&2
    exit 1
  fi

  # The IDS prints the same alerts and blocklist at every shard count.
  "$v6sonar" ids "$work/world.v6slog" --mmap --threads 1 > "$work/ids1.txt"
  "$v6sonar" ids "$work/world.v6slog" --mmap --threads 3 > "$work/ids3.txt"
  if [[ ! -s "$work/ids1.txt" ]] || ! cmp -s "$work/ids1.txt" "$work/ids3.txt"; then
    echo "report smoke check FAILED: ids --threads 3 output differs from --threads 1" >&2
    diff "$work/ids1.txt" "$work/ids3.txt" | head -40 >&2
    exit 1
  fi

  # --threads 1 is the sharded pipeline too, so the comparisons above
  # pit it against itself. The independent reference: the digests of
  # the serial code's outputs on this world (detect --report, its
  # --events spill, ids), recorded before the serial paths were
  # deleted.
  while read -r digest file; do
    if [[ "$(sha256sum < "$work/$file" | cut -d' ' -f1)" != "$digest" ]]; then
      echo "report smoke check FAILED: $file differs from the pinned serial output" >&2
      exit 1
    fi
  done <<'DIGESTS'
9a93776fc6d4465ac4021851d5e4cc5af2680b063af948f8d11e9085508577fd inline.txt
443b461f17eac972abfb433b188933cefebc4b5de1aeed8043c0aa4faf290fb3 spill.v6ev
4eca7276afeafb94bbef66427aecec413ecebd1f2af357548e9c2a1fc8a71eab ids1.txt
DIGESTS

  echo "check.sh: report smoke check passed (inline == spill-replay, every thread count" \
       "== --threads 1 == the pinned serial digests for report, spill and ids)"
  exit 0
fi

if [[ "$kind" == daemon ]]; then
  tree=build-daemon
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=Release -DV6SONAR_WERROR=ON > /dev/null
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
  # The drain merges the shard spills in the serial event order: the
  # spill is the batch run's --events file byte for byte.
  if ! cmp -s "$work/ref.v6ev" "$work/spill.v6ev"; then
    echo "daemon smoke check FAILED: spill differs from batch detect --events" >&2
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
  cmake --build "$tree" -j"$(nproc)" --target v6sonar v6sonard

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
  v6sonard="$PWD/$tree/tools/v6sonard"

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

  # Run "$@" in the background, checkpointing to $1 every $every
  # records (default 250k), and SIGKILL it $linger seconds (default 0)
  # after the first checkpoint lands (mid-replay).
  every=250000 linger=0
  kill_after_checkpoint() {
    local ck="$1"
    shift
    rm -f "$ck"
    "$@" --checkpoint "$ck" --checkpoint-every "$every" > /dev/null 2>&1 &
    victim_pid=$!
    for _ in $(seq 1 600); do
      [[ -s "$ck" ]] && break
      sleep 0.05
    done
    sleep "$linger"
    kill -9 "$victim_pid" 2> /dev/null || true
    wait "$victim_pid" 2> /dev/null || true
    victim_pid=""
    if [[ ! -s "$ck" ]]; then
      echo "checkpoint smoke FAILED: no checkpoint written before SIGKILL: $*" >&2
      exit 1
    fi
  }

  # detect legs: one shard and two, with and without --events; each
  # resumes from the surviving checkpoint with the checkpointed shard
  # count, and its report and spill must be the uninterrupted run's.
  # The fourth leg checkpoints every 1000 records, so a commit is in
  # flight at almost every barrier and the SIGKILL, a second into the
  # run, lands mid-commit: the previous checkpoint and its spill
  # cursors must resume. The last leg passes no --mmap: the flag is an
  # accepted no-op, so its resumed report must equal the --mmap legs'.
  for leg in "1 events 250000 0 mmap" "2 events 250000 0 mmap" "2 - 250000 0 mmap" \
             "3 events 1000 1 mmap" "2 - 250000 0 no-mmap"; do
    read -r threads spill every linger reader <<< "$leg"
    events=() mmap=()
    [[ "$spill" == events ]] && events=(--events "$work/spill.v6ev")
    [[ "$reader" == mmap ]] && mmap=(--mmap)
    rm -f "$work/spill.v6ev"*
    kill_after_checkpoint "$work/ck.v6ckpt" "$v6sonar" detect "$work/world.v6slog" "${mmap[@]}" \
        --report --threads "$threads" "${events[@]}"
    "$v6sonar" detect "$work/world.v6slog" "${mmap[@]}" --report "${events[@]}" \
        --checkpoint "$work/ck.v6ckpt" --resume > "$work/resumed_report.txt"
    if ! cmp -s "$work/ref_report.txt" "$work/resumed_report.txt"; then
      echo "checkpoint smoke FAILED: resumed --threads $threads ($reader) report differs" \
           "from uninterrupted run" >&2
      diff "$work/ref_report.txt" "$work/resumed_report.txt" | head -40 >&2
      exit 1
    fi
    if [[ "$spill" == events ]] && ! cmp -s "$work/ref.v6ev" "$work/spill.v6ev"; then
      echo "checkpoint smoke FAILED: resumed --threads $threads spill differs" \
           "from uninterrupted spill" >&2
      exit 1
    fi
  done

  every=250000 linger=0
  # ids legs: the resumed run prints the alerts after the checkpoint,
  # then the summary (whose count includes the alerts before it) and
  # the blocklist — exactly the tail of the uninterrupted output.
  "$v6sonar" ids "$work/world.v6slog" --mmap > "$work/ref_ids.txt"
  for threads in 1 2; do
    kill_after_checkpoint "$work/ids.v6ckpt" "$v6sonar" ids "$work/world.v6slog" --mmap \
        --threads "$threads"
    "$v6sonar" ids "$work/world.v6slog" --mmap --checkpoint "$work/ids.v6ckpt" --resume \
        > "$work/resumed_ids.txt"
    if ! tail -n "$(wc -l < "$work/resumed_ids.txt")" "$work/ref_ids.txt" \
        | cmp -s - "$work/resumed_ids.txt"; then
      echo "checkpoint smoke FAILED: resumed ids --threads $threads output is not the" \
           "tail of the uninterrupted one" >&2
      exit 1
    fi
  done

  # A checkpoint at ~3 M records against a 2 M-record prefix of the
  # same log: the input is not the checkpointed one, and --resume must
  # fail naming both counts rather than print a wrong report, with and
  # without --mmap.
  rm -f "$work/ck3m.v6ckpt"
  "$v6sonar" detect "$work/world.v6slog" --mmap --report --threads 2 \
      --checkpoint "$work/ck3m.v6ckpt" --checkpoint-every 3000000 > /dev/null
  python3 - "$work" <<'PY'
import os, struct, sys
work = sys.argv[1]
n = 2_000_000
with open(os.path.join(work, "world.v6slog"), "rb") as fh:
    header = fh.read(16)
    body = fh.read(n * 52)
with open(os.path.join(work, "short.v6slog"), "wb") as fh:
    fh.write(header[:8] + struct.pack("<Q", n) + body)
PY
  rm -f "$work/ids3m.v6ckpt"
  "$v6sonar" ids "$work/world.v6slog" --mmap --checkpoint "$work/ids3m.v6ckpt" \
      --checkpoint-every 3000000 > /dev/null
  for leg in "detect ck3m.v6ckpt --mmap --report" "ids ids3m.v6ckpt --mmap" \
             "detect ck3m.v6ckpt --report" "ids ids3m.v6ckpt"; do
    read -r cmd ck flags <<< "$leg"
    # shellcheck disable=SC2086  # $flags is a list of flags
    if "$v6sonar" "$cmd" "$work/short.v6slog" $flags --checkpoint "$work/$ck" \
        --resume > /dev/null 2> "$work/short.err"; then
      echo "checkpoint smoke FAILED: $cmd $flags resumed against a shorter input" >&2
      exit 1
    fi
    if ! grep -q "covers [0-9]* records, but .* holds only 2000000" "$work/short.err"; then
      echo "checkpoint smoke FAILED: $cmd $flags refusal does not name both counts:" >&2
      cat "$work/short.err" >&2
      exit 1
    fi
  done

  # --checkpoint-every past the end of any input on a resumed run:
  # the cadence saturates instead of wrapping, so no checkpoint is
  # written (it used to be rewritten after every batch).
  cp "$work/ck3m.v6ckpt" "$work/ck3m.before"
  "$v6sonar" detect "$work/world.v6slog" --mmap --report --threads 2 \
      --checkpoint "$work/ck3m.v6ckpt" --resume --checkpoint-every 18446744073709551615 \
      > "$work/resumed_report.txt"
  if ! cmp -s "$work/ck3m.before" "$work/ck3m.v6ckpt" \
      || ! cmp -s "$work/ref_report.txt" "$work/resumed_report.txt"; then
    echo "checkpoint smoke FAILED: --checkpoint-every 2^64-1 on --resume rewrote the" \
         "checkpoint or changed the report" >&2
    exit 1
  fi

  # daemon leg: v6sonard --tail --events --checkpoint at two shards.
  # The log holds the first 2 M records when the checkpoint verb runs;
  # the rest (plus a sentinel probe two timeouts past the last record,
  # which finalizes every scan without becoming one) is appended after
  # it, and the daemon is SIGKILLed. Restarted on the same files, it
  # resumes the tail and the shard spills at the checkpoint's cursors:
  # its live report and drained spill must be the batch run's.
  python3 - "$work" <<'PY'
import os, struct, sys
work = sys.argv[1]
with open(os.path.join(work, "world.v6slog"), "rb") as fh:
    blob = fh.read()
magic, body = blob[:8], blob[16:]
n = len(body) // 52
last_ts = struct.unpack_from("<q", body, (n - 1) * 52)[0]
sentinel = struct.pack("<q", last_ts + 2 * 3600 * 1_000_000)
sentinel += struct.pack("<QQ", 0x20010DB800000BAD, 1)   # src hi, lo
sentinel += struct.pack("<QQ", 0x2600000000000000, 99)  # dst hi, lo
sentinel += struct.pack("<IHHH", 0, 40000, 443, 60)     # asn, sport, dport, len
sentinel += bytes([6, 0])                               # proto tcp, not in DNS
half = 2_000_000
with open(os.path.join(work, "tail_part1.bin"), "wb") as fh:
    fh.write(magic + struct.pack("<Q", 0) + body[: half * 52])
with open(os.path.join(work, "tail_part2.bin"), "wb") as fh:
    fh.write(body[half * 52 :] + sentinel)
with open(os.path.join(work, "daemon_all.v6slog"), "wb") as fh:
    fh.write(magic + struct.pack("<Q", n + 1) + body + sentinel)
PY
  "$v6sonar" detect "$work/daemon_all.v6slog" --mmap --report \
      --events "$work/daemon_ref.v6ev" > "$work/daemon_ref.txt" 2> /dev/null
  daemon_events=$(python3 -c 'import struct, sys; print(struct.unpack("<Q", open(sys.argv[1], "rb").read(16)[8:])[0])' "$work/daemon_ref.v6ev")
  cp "$work/tail_part1.bin" "$work/tail.v6slog"
  sock="$work/d.sock"
  start_daemon() {
    rm -f "$sock"
    "$v6sonard" --socket "$sock" --tail "$work/tail.v6slog" --threads 2 --snapshot-every 1 \
        --events "$work/daemon_spill.v6ev" --checkpoint "$work/daemon.v6ckpt" \
        2>> "$work/daemon.stderr" &
    victim_pid=$!
    for _ in $(seq 1 100); do
      [[ -S "$sock" ]] && break
      sleep 0.1
    done
  }
  start_daemon
  "$v6sonar" query "$sock" status --wait-key ingested_records --wait-min 2000000 \
      --timeout-sec 60 > /dev/null
  "$v6sonar" query "$sock" checkpoint > /dev/null
  cat "$work/tail_part2.bin" >> "$work/tail.v6slog"
  sleep 0.2
  kill -9 "$victim_pid"
  wait "$victim_pid" 2> /dev/null || true
  start_daemon
  "$v6sonar" query "$sock" status --wait-key events_folded --wait-min "$daemon_events" \
      --timeout-sec 60 > /dev/null
  "$v6sonar" query "$sock" report > "$work/daemon_report.txt"
  "$v6sonar" query "$sock" status > "$work/daemon_status.txt"
  kill -TERM "$victim_pid"
  rc=0
  wait "$victim_pid" || rc=$?
  victim_pid=""
  if [[ "$rc" -ne 0 ]] || ! grep -q "^ingested_records $(( 4000000 + 1 ))$" "$work/daemon_status.txt"; then
    echo "checkpoint smoke FAILED: restored v6sonard exited $rc or re-ingested its log:" >&2
    cat "$work/daemon_status.txt" "$work/daemon.stderr" >&2
    exit 1
  fi
  if ! cmp -s "$work/daemon_ref.txt" "$work/daemon_report.txt"; then
    echo "checkpoint smoke FAILED: restored v6sonard report differs from detect --report" >&2
    diff "$work/daemon_ref.txt" "$work/daemon_report.txt" | head -40 >&2
    exit 1
  fi
  if ! cmp -s "$work/daemon_ref.v6ev" "$work/daemon_spill.v6ev"; then
    echo "checkpoint smoke FAILED: restored v6sonard spill differs from detect --events" >&2
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

  echo "check.sh: checkpoint smoke passed (SIGKILL + resume == uninterrupted for detect" \
       "--events and ids at 1 and 2 shards, detect --events at 3 checkpointing every 1000" \
       "records, detect at 2 without --mmap, and v6sonard --tail --events;" \
       "short input with and without --mmap, cadence overflow and corruption handled)"
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
# The mapped reader keeps one window of the 741 MB log resident, so the
# peak is detector state plus ~32 MiB (~50 MB), not the log's size.
maxrss_kb = gauges.get("process.maxrss_kb", 0)
if not 0 < maxrss_kb < 128 * 1024:
    failures.append(f"process.maxrss_kb {maxrss_kb}, want under 128 MB")

if failures:
    print("metrics smoke check FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"metrics snapshot ok: {len(counters)} counters, {len(gauges)} gauges, "
      f"{counters['pipeline.feed.records']} records fed, "
      f"{counters['detector.events.emitted']} events, peak RSS {maxrss_kb // 1024} MB")
PY

  # `info` streams the log: its peak is one batch and the reader's
  # window, not the log (ru_maxrss of the only child is info's peak).
  python3 - "$tree/tools/v6sonar" "$work/world.v6slog" <<'PY'
import resource, subprocess, sys

subprocess.run([sys.argv[1], "info", sys.argv[2]], check=True, stdout=subprocess.DEVNULL)
maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
if not 0 < maxrss_kb < 64 * 1024:
    print(f"info RSS check FAILED: peak {maxrss_kb} kB, want under 64 MB", file=sys.stderr)
    sys.exit(1)
print(f"info peak RSS {maxrss_kb // 1024} MB")
PY

  # A checkpointing detect: every checkpoint records how long it held
  # the feeding thread and how long its commit took off the feed path.
  "$tree/tools/v6sonar" detect "$work/world.v6slog" --mmap --threads 3 \
      --checkpoint "$work/metrics.v6ckpt" --checkpoint-every 2000000 \
      --metrics="$work/ckpt_metrics.json" > /dev/null
  python3 - "$work/ckpt_metrics.json" <<'PY'
import json, sys

with open(sys.argv[1]) as fh:
    hists = json.load(fh)["histograms"]
counts = {name: hists.get(name, {"count": 0})["count"]
          for name in ("checkpoint.stall_us", "checkpoint.commit_us")}
failures = [f"histogram {name} missing or empty" for name, n in counts.items() if n == 0]
if len(set(counts.values())) != 1:
    failures.append(f"one stall and one commit per checkpoint, saw {counts}")
if failures:
    print("checkpoint metrics check FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
stall, commit = (hists[name]["sum"] / 1e3 for name in counts)
print(f"checkpoint metrics ok: {counts['checkpoint.stall_us']} checkpoints, feeder stalled "
      f"{stall:.1f} ms, commits took {commit:.1f} ms")
PY

  # Resumed from that checkpoint (a copy, which the run may overwrite),
  # the mapped reader must decode exactly the records after the
  # checkpoint's `run` cursor: it seeks past the covered ones.
  cp "$work/metrics.v6ckpt" "$work/resume.v6ckpt"
  "$tree/tools/v6sonar" detect "$work/world.v6slog" --mmap --checkpoint "$work/resume.v6ckpt" \
      --resume --metrics="$work/resume_metrics.json" > /dev/null
  python3 - "$work/resume_metrics.json" "$work/world.v6slog" "$work/metrics.v6ckpt" <<'PY'
import json, struct, sys

with open(sys.argv[1]) as fh:
    counters = json.load(fh)["counters"]
with open(sys.argv[2], "rb") as fh:
    total = struct.unpack("<Q", fh.read(16)[8:])[0]
# Container: magic, format u32, state version u32, section count u32,
# then per section name (u32 length + bytes), u64 length, u32 CRC,
# payload. The run section opens with u8 producer, u32 shards, u64
# records.
with open(sys.argv[3], "rb") as fh:
    blob = fh.read()
at, covered = 20, None
for _ in range(struct.unpack_from("<I", blob, 16)[0]):
    name_len = struct.unpack_from("<I", blob, at)[0]
    name = blob[at + 4:at + 4 + name_len]
    at += 4 + name_len
    length = struct.unpack_from("<Q", blob, at)[0]
    at += 12
    if name == b"run":
        covered = struct.unpack_from("<Q", blob, at + 5)[0]
    at += length
decoded = counters.get("log.mmap.batch_records", 0)
if covered is None or decoded != total - covered:
    print(f"resume metrics check FAILED: log.mmap.batch_records {decoded}, want {total} records"
          f" - {covered} covered by the checkpoint", file=sys.stderr)
    sys.exit(1)
print(f"resume metrics ok: decoded {decoded} of {total} records, skipped the {covered} covered")
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
             core_checkpoint_resume_test core_filter_stream_test core_filter_oracle_test
             core_ids_oracle_test)
    ;;
  address)
    tree=build-asan
    targets=(util_spsc_ring_test core_parallel_pipeline_test core_batch_feed_test
             sim_test util_flat_hash_test util_flat_hash_fuzz_test
             core_event_sink_test core_event_io_test io_reader_fuzz_test
             analysis_streaming_test
             daemon_framing_test daemon_frame_fuzz_test daemon_tail_test daemon_snapshot_test
             daemon_server_test util_signal_test util_test
             core_state_codec_test core_checkpoint_resume_test
             core_filter_stream_test core_filter_oracle_test core_streaming_ids_test
             core_detector_summary_test core_ids_oracle_test)
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
