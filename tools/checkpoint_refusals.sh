#!/bin/sh
# Checkpoints that must not resume (docs/CHECKPOINT.md, the compatibility
# list and the producer check); ctest runs
# this from tools/CMakeLists.txt.
#
#   checkpoint_refusals.sh older     <v6sonar> <v6sonard> <tests/data>
#   checkpoint_refusals.sh producers <v6sonar> <v6sonard> <tests/data>
#
# `older`: every checkpoint an older version wrote over
# eight_records.v6slog (the serial detect and ids; the sharded detect
# --events, ids and v6sonard that came after them) is refused by
# detect, ids and v6sonard with a message naming "older version", and
# a v6sonard checkpoint that still holds an `events` section (the
# blocklist state of the versions before the master served it) is
# refused by v6sonard with a message naming that section.
# `producers`: a checkpoint resumes only in the front end that wrote
# it — the refusal names both — and v6sonard refuses an explicit
# --threads that differs from its checkpoint's shard count, naming
# both counts; and a detect whose checkpoint cannot be committed fails,
# naming the path, without printing a report.
set -u
mode=$1 v6sonar=$2 v6sonard=$3 data=$4
in=$data/eight_records.v6slog
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# refused <pattern> <command...>: the command fails, printing <pattern>.
refused() {
  pattern=$1
  shift
  if "$@" > /dev/null 2> "$work/err"; then
    echo "accepted: $*" >&2
    exit 1
  fi
  if ! grep -q -- "$pattern" "$work/err"; then
    echo "refusal of '$*' does not say '$pattern':" >&2
    cat "$work/err" >&2
    exit 1
  fi
}

resume() { "$v6sonar" "$1" "$in" --resume --checkpoint "$2"; }
daemon() { "$v6sonard" --socket "$work/d.sock" --tail "$in" --checkpoint "$@"; }

if [ "$mode" = older ]; then
  for ck in serial_detect serial_ids older_detect_events older_ids older_daemon; do
    for cmd in detect ids; do
      refused 'older version' resume "$cmd" "$data/$ck.v6ckpt"
    done
  done
  refused 'older version' daemon "$data/older_daemon.v6ckpt"
  refused 'older version of v6sonard (its events section' \
    daemon "$data/older_daemon_events.v6ckpt"
  exit 0
fi

"$v6sonar" detect "$in" --checkpoint "$work/detect.v6ckpt" --checkpoint-every 4 > /dev/null
"$v6sonar" ids "$in" --checkpoint "$work/ids.v6ckpt" --checkpoint-every 4 > /dev/null
# A daemon checkpoint: tail the log, checkpoint it, drain.
daemon "$work/daemon.v6ckpt" --threads 2 2> /dev/null &
pid=$!
for _ in $(seq 1 100); do
  [ -S "$work/d.sock" ] && break
  sleep 0.1
done
if ! { "$v6sonar" query "$work/d.sock" status --wait-key ingested_records --wait-min 8 \
          --timeout-sec 30 > /dev/null \
        && "$v6sonar" query "$work/d.sock" checkpoint > /dev/null; }; then
  kill "$pid"
  echo "v6sonard did not checkpoint" >&2
  exit 1
fi
"$v6sonar" query "$work/d.sock" shutdown > /dev/null
wait "$pid" || { echo "v6sonard exited $?" >&2; exit 1; }

refused 'checkpoint of v6sonar detect, not of v6sonar ids' resume ids "$work/detect.v6ckpt"
refused 'checkpoint of v6sonar detect, not of v6sonard' daemon "$work/detect.v6ckpt"
refused 'checkpoint of v6sonar ids, not of v6sonar detect' resume detect "$work/ids.v6ckpt"
refused 'checkpoint of v6sonard, not of v6sonar detect' resume detect "$work/daemon.v6ckpt"
refused 'checkpoint has 2 shards; got --threads 3' daemon "$work/daemon.v6ckpt" --threads 3

# detect commits off its feeding thread; a failed commit still fails
# the run before anything is reported.
if "$v6sonar" detect "$in" --report --checkpoint "$work/gone/detect.v6ckpt" \
    --checkpoint-every 4 > "$work/out" 2> "$work/err"; then
  echo "accepted: detect --checkpoint into a missing directory" >&2
  exit 1
fi
if ! grep -qF "$work/gone/detect.v6ckpt" "$work/err" || [ -s "$work/out" ]; then
  echo "a failed commit was not reported, or a report was printed:" >&2
  cat "$work/err" "$work/out" >&2
  exit 1
fi
