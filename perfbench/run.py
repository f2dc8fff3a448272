#!/usr/bin/env python3
"""perfbench: the v6sonar benchmark.

Builds v6sonar, v6sonard and pbtool from the checkout, generates one
seed's inputs, runs a workload end to end through the shipped binaries,
checks every output, and prints the metrics as the last stdout line:

    python3 perfbench/run.py --workload world_raw --seed 42 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced in-process run. --diagnostic scaling|tiering runs the
ungated shard-scaling or tiering-cost table instead. perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
V6SONAR = os.path.join(BUILD, "v6sonar", "tools", "v6sonar")
V6SONARD = os.path.join(BUILD, "v6sonar", "tools", "v6sonard")
PBTOOL = os.path.join(BUILD, "pbtool")

WORKLOADS = ("world_raw", "state_churn", "daemon_live")
DEFAULT_SEED = 42
SHARDS = 3  # feeder + 3 workers = 4 cores
REPLAYS = 9  # daemon restarts / spill replays per resume_s sample
# World inputs are cut at the UTC midnight that leaves at most this many
# clean records, so input size barely varies by seed.
CLEAN_RECORDS = 3_900_000
PROC_TIMEOUT_S = 120

# daemon_live: offered ingest rates (records/s) and the share of
# --seconds each phase takes. v6sonard --threads 2 --snapshot-every 1
# folded 3.4-3.7 M records/s in the saturation phase below when these
# rates were set on the commit that introduced this benchmark (4-core
# Xeon VM), 2.9-5.5 M over later runs (the range is host load); the
# rates are 25, 50 and 88 % of 3.4 M.
DAEMON_PHASES = ((850_000, 0.2), (1_700_000, 0.1), (3_000_000, 0.1))
# Then a closed-loop phase of 2 M-record blocks, this many per second of
# --seconds; its block rates give daemon_live's records_per_s.
DAEMON_BLOCK_RECORDS = 2_000_000
DAEMON_BLOCKS_PER_S = 0.6
DAEMON_QUERY_RATE = 20
DAEMON_TOP = 10

LOG_MAGIC = 0x5636534C4F473031  # .v6slog header magic, "V6SLOG01"

# Host-speed normalisation. The shared host's speed drifts by 15-50 %
# over minutes and hours, more than any bound a run-to-run comparison
# can carry. `pbtool calib` times fixed work (hashing and random
# read-modify-write over a 32 MiB table on one thread) that uses none of
# the library's code, so no change to v6sonar moves it, but host drift
# moves it with the program. Every timing metric is scaled, by
# calibrations taken beside it, towards a host on which that work takes
# CALIB_REF_S (the 4-vCPU Xeon VM the benchmark was defined on, in a
# fast spell). The programs' times move less than the calibration's:
# over the host's slow and fast spells, log pass time against log
# calibration time had slopes from 0.5 (detect) to 1.0 (ids), and the
# batch workloads mix I/O into their passes, so the scale factor is
# (CALIB_REF_S / calibration) ** CALIB_EXPONENT. Raw timings are printed
# as details.
CALIB_REF_S = 0.04
CALIB_EXPONENT = 0.75
CALIB_REPEATS = 9

# Metric name -> unit, as declared in BENCHMARK.json.
UNITS = {"records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "resume_s": "s"}
PER_LAYER = {
    "sim.map_s": "s",
    "sim.decode_s": "s",
    "sim.decode_records_per_s": "1/s",
    "filter.busy_s": "s",
    "filter.records_in": "count",
    "filter.kept_ratio": "ratio",
    "detector.busy_s": "s",
    "detector.flush_s": "s",
    "detector.events": "count",
    "detector.grouped_ratio": "ratio",
    "detector.hot_sources_end": "count",
    "detector.cold_sources_end": "count",
    "pipeline.feed_s": "s",
    "pipeline.flush_s": "s",
    "pipeline.producer_blocked": "count",
    "pipeline.shard_skew": "ratio",
    "pipeline.speedup_vs_1shard": "ratio",
    "analysis.sink_s": "s",
    "analysis.merge_s": "s",
    "analysis.render_s": "s",
    "analysis.events_per_s": "1/s",
    "spill.write_s": "s",
    "spill.bytes": "bytes",
    "checkpoint.save_ms_p50": "ms",
    "checkpoint.save_ms_max": "ms",
    "checkpoint.bytes": "bytes",
    "checkpoint.load_s": "s",
    "ids.feed_s": "s",
    "ids.flush_s": "s",
    "ids.attribute_s": "s",
    "ids.alerts": "count",
    "daemon.ping_rtt_ms": "ms",
    "daemon.snapshot_merge_us": "us",
    "daemon.queries_us": "us",
    "daemon.gen_lag_ms": "ms",
    "daemon.backlog_records": "count",
    "daemon.ingest_p50_ms": "ms",
    "daemon.ingest_p99_ms": "ms",
    "daemon.query_p50_ms": "ms",
    "daemon.query_p90_ms": "ms",
    "daemon.fold_lag_ms": "ms",
    "daemon.sustained_records_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.self_coverage": "ratio",
}


class Failure(Exception):
    """The benchmark itself cannot run (build error, missing tree)."""


# --------------------------------------------------------------------- #
# Processes


class Proc:
    """One finished child: wall time, exit code, peak RSS."""

    def __init__(self, wall_s, rc, rss_mb):
        self.wall_s, self.rc, self.rss_mb = wall_s, rc, rss_mb


def run(cmd, stdout=None, timeout=PROC_TIMEOUT_S, log=None):
    """Run cmd to completion; wall time is measured around fork..reap."""
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    err = log if log is not None else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout:
            out.close()
    return Proc(wall, p.returncode, ru.ru_maxrss / 1024.0)


def run_json(cmd, log):
    """Run a pbtool subcommand and parse its one-line JSON output."""
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                       timeout=PROC_TIMEOUT_S)
    if p.returncode != 0:
        raise Failure(f"{os.path.basename(cmd[0])} {cmd[1]} exited {p.returncode}")
    return json.loads(p.stdout.decode().strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# Build


def build(log):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise Failure("no v6sonar source tree next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                             cwd=ROOT, stdout=log, stderr=log)
        if rc != 0:
            raise Failure("cmake configure failed")
    rc = subprocess.call(["cmake", "--build", BUILD, "-j4", "--target",
                          "v6sonar", "v6sonard", "pbtool"],
                         cwd=ROOT, stdout=log, stderr=log)
    if rc != 0:
        raise Failure("build failed")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(seed, inputs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL).stdout.decode().splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        commit = p.stdout.decode().strip() or "unknown"
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in sorted(paths):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"), "commit": commit,
            "source_sha256": h.hexdigest()[:16], "seed": seed, "inputs": inputs}


# --------------------------------------------------------------------- #
# Inputs


def log_records(path):
    return (os.path.getsize(path) - 16) // 52


def write_header_only(path):
    with open(path, "wb") as f:
        f.write(struct.pack("<QQ", LOG_MAGIC, 0))


def read(path):
    with open(path, "rb") as f:
        return f.read()


def blocklist_of(path):
    """The blocklist table of `v6sonar ids` output (alert lines differ
    by front end by design; the final blocklist may not)."""
    text = read(path)
    at = text.find(b"final blocklist")
    return text[text.index(b"\n", at) + 1:] if at >= 0 else None


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def sha(data):
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------- #
# Workloads. Each returns a Result; every command and every output
# check is one attempted operation.


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.details = {}
        self.inputs = {}

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def proc(self, p, what):
        return self.op(p.rc == 0, f"{what} exited {p.rc}")

    def add_input(self, name, path):
        self.inputs[name] = {"records": log_records(path) if path.endswith(".v6slog") else None,
                             "bytes": os.path.getsize(path)}


def calib(log):
    """Seconds the host takes for pbtool's fixed calibration work now."""
    return float(run_json([PBTOOL, "calib", "1", str(CALIB_REPEATS)], log)["seconds"])


def normalized(t, host_s, exponent=CALIB_EXPONENT):
    """A timing scaled towards the reference host speed (CALIB_REF_S)."""
    return t * (CALIB_REF_S / host_s) ** exponent


def measure_loop(seconds, one_pass, samples, log, min_passes=3):
    """Repeat one_pass until `seconds` have elapsed (at least min_passes),
    timing the calibration work after each pass."""
    os.sync()  # input generation's writeback must not land in the first pass
    t0 = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - t0 < seconds:
        one_pass()
        samples["host_s"].append(calib(log))
        passes += 1


def setup_time(res, cmds, work, log, repeats=41):
    """Fast mean of the wall time of the workload's commands over a header-only
    log, normalized by the calibrations before and after."""
    empty = os.path.join(work, "empty.v6slog")
    walls = []
    host = calib(log)
    for _ in range(repeats):
        write_header_only(empty)
        total = 0.0
        for cmd in cmds(empty):
            p = run(cmd, stdout=os.path.join(work, "setup.out"), log=log)
            res.proc(p, "setup " + cmd[1])
            total += p.wall_s
        walls.append(total)
    host = (host + calib(log)) / 2
    res.details["setup_host_s"] = host
    res.details["raw_setup_s"] = fast_mean(walls)
    return normalized(fast_mean(walls), host)


def gen_world(res, seed, work, log, raw=True):
    raw_path = os.path.join(work, "raw.v6slog") if raw else "-"
    clean = os.path.join(work, "clean_ref.v6slog")
    run_json([PBTOOL, "world", str(seed), raw_path, clean, str(CLEAN_RECORDS)], log)
    if raw:
        res.add_input("raw", raw_path)
    res.add_input("clean", clean)
    return raw_path, clean


def fast_mean(times):
    """Mean of the fastest three quarters of repeated timings. On a shared
    host interference mostly adds time, so dropping the slowest quarter
    and averaging the rest estimates the program's own cost more steadily
    than the median or the lower quartile does."""
    keep = sorted(times)[:max(1, len(times) - len(times) // 4)]
    return statistics.fmean(keep)


def finish(res, records, samples):
    """records_per_s and resume_s from the fast mean of the pass and
    resume times, normalized by the fast mean of the calibrations (more
    steady than pairing each pass with its own calibration), peak_rss_mb
    as the median of the passes' peaks."""
    host = fast_mean(samples["host_s"])
    res.metrics["records_per_s"] = records / normalized(fast_mean(samples["wall_s"]), host)
    res.metrics["resume_s"] = normalized(fast_mean(samples["resume_s"]), host)
    res.metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    res.details["raw_records_per_s"] = records / fast_mean(samples["wall_s"])
    res.details["raw_resume_s"] = fast_mean(samples["resume_s"])
    for k, v in samples.items():
        res.details[k + ".samples"] = " ".join(f"{x:.4g}" for x in v)


def new_samples():
    return {"wall_s": [], "resume_s": [], "peak_rss_mb": [], "host_s": []}


def ids_reference(res, seed, clean, work, log):
    """The serial `ids` blocklist of the clean world, checked against the
    recorded digest and against a serial `--resume` from its checkpoint."""
    ck = os.path.join(work, "ids.ckpt")
    serial = os.path.join(work, "ids_serial.txt")
    resumed = os.path.join(work, "ids_resumed.txt")
    res.proc(run([V6SONAR, "ids", clean, "--mmap", "--threads", "1", "--checkpoint", ck,
                  "--checkpoint-every", str(ckpt_every(log_records(clean)))],
                 stdout=serial, log=log), "reference ids --threads 1")
    ref = blocklist_of(serial)
    res.op(ref is not None, "serial ids printed no blocklist")
    check_digest(res, seed, "world_raw.ids_blocklist", ref or b"")
    res.proc(run([V6SONAR, "ids", clean, "--mmap", "--threads", "1", "--checkpoint", ck,
                  "--resume"], stdout=resumed, log=log), "resumed ids")
    res.op(blocklist_of(resumed) == ref, "resumed blocklist differs from serial")
    return ref


def w_world_raw(seed, seconds, work, log, res):
    raw, clean = gen_world(res, seed, work, log)
    n = log_records(raw)
    ref = os.path.join(work, "ref_report.txt")
    res.proc(run([V6SONAR, "detect", clean, "--mmap", "--report", "--threads", "1"],
                 stdout=ref, log=log), "reference detect --threads 1")
    check_digest(res, seed, "world_raw.report", read(ref))
    ref_blocklist = ids_reference(res, seed, clean, work, log)
    empty_clean = os.path.join(work, "empty_clean.v6slog")
    res.metrics["setup_s"] = setup_time(res, lambda e: [
        [V6SONAR, "filter", e, empty_clean],
        [V6SONAR, "detect", empty_clean, "--mmap", "--report",
         "--events", os.path.join(work, "empty.v6ev"), "--threads", str(SHARDS)],
        [V6SONAR, "ids", empty_clean, "--mmap", "--threads", str(SHARDS)]], work, log)
    ref_bytes = read(ref)
    samples = new_samples()
    spill = os.path.join(work, "spill.v6ev")
    report = os.path.join(work, "report.txt")
    replay = os.path.join(work, "replay.txt")
    ids_out = os.path.join(work, "ids.txt")

    outputs = []

    def one_pass():
        # A fresh output file each pass, removed after the loop: truncating
        # the previous pass's 200 MB inside the timed region would add the
        # filesystem's block freeing (and discard) to the filter's time.
        out_clean = os.path.join(work, f"clean{len(outputs)}.v6slog")
        outputs.append(out_clean)
        f = run([V6SONAR, "filter", raw, out_clean], log=log)
        d = run([V6SONAR, "detect", out_clean, "--mmap", "--report", "--events", spill,
                 "--threads", str(SHARDS)], stdout=report, log=log)
        i = run([V6SONAR, "ids", out_clean, "--mmap", "--threads", str(SHARDS)],
                stdout=ids_out, log=log)
        res.proc(f, "filter")
        res.proc(d, "detect")
        res.proc(i, "ids")
        res.op(filecmp.cmp(out_clean, clean, shallow=False), "filter output differs from the in-stream filtered world")
        res.op(read(report) == ref_bytes, "sharded report differs from --threads 1")
        res.op(blocklist_of(ids_out) == ref_blocklist, "sharded blocklist differs from serial")
        replays = []
        for _ in range(REPLAYS):  # the replay is short: several per pass
            r = run([V6SONAR, "report", spill], stdout=replay, log=log)
            res.proc(r, "report")
            res.op(read(replay) == ref_bytes, "spill replay report differs from --threads 1")
            replays.append(r)
        samples["wall_s"].append(f.wall_s + d.wall_s + i.wall_s)
        samples["peak_rss_mb"].append(max([f.rss_mb, d.rss_mb, i.rss_mb] + [r.rss_mb for r in replays]))
        samples["resume_s"] += [r.wall_s for r in replays]

    measure_loop(seconds, one_pass, samples, log)
    for path in outputs:
        os.unlink(path)
    finish(res, n, samples)


def ckpt_every(n):
    return n // 6 + 1  # five checkpoints over n records


def w_state_churn(seed, seconds, work, log, res):
    churn = os.path.join(work, "churn.v6slog")
    run_json([PBTOOL, "churn", str(seed), churn], log)
    res.add_input("churn", churn)
    n = log_records(churn)
    every = str(ckpt_every(n))
    ck = os.path.join(work, "churn.ckpt")
    base = ["--mmap", "--report", "--threads", str(SHARDS), "--cold-after", "600"]
    res.metrics["setup_s"] = setup_time(res, lambda e: [
        [V6SONAR, "detect", e] + base + ["--checkpoint", os.path.join(work, "empty.ckpt"),
                                         "--checkpoint-every", every]], work, log)
    samples = new_samples()
    report = os.path.join(work, "report.txt")
    resumed = os.path.join(work, "resumed.txt")
    first_report = None

    def one_pass():
        nonlocal first_report
        for path in (ck, ck + ".tmp"):
            if os.path.exists(path):
                os.unlink(path)
        d = run([V6SONAR, "detect", churn] + base + ["--checkpoint", ck, "--checkpoint-every", every],
                stdout=report, log=log)
        r = run([V6SONAR, "detect", churn] + base + ["--checkpoint", ck, "--resume"],
                stdout=resumed, log=log)
        res.proc(d, "checkpointed detect")
        res.proc(r, "resumed detect")
        full = read(report)
        res.op(read(resumed) == full, "resumed report differs from the uninterrupted one")
        if first_report is None:
            first_report = full
            check_digest(res, seed, "state_churn.report", full)
        else:
            res.op(full == first_report, "report differs between passes")
        samples["wall_s"].append(d.wall_s)
        samples["peak_rss_mb"].append(max(d.rss_mb, r.rss_mb))
        samples["resume_s"].append(r.wall_s)

    measure_loop(seconds, one_pass, samples, log)
    finish(res, n, samples)


def check_digest(res, seed, key, data):
    """On the default seed, outputs must match the recorded digests."""
    if seed != DEFAULT_SEED:
        return
    want = load_digests().get(key)
    if want is not None:
        res.op(sha(data) == want, f"{key} digest differs from the recorded one")


# --------------------------------------------------------------------- #
# daemon_live


def daemon_cmd(work, extra=()):
    """A fresh socket path and the `-- v6sonard ...` tail of a pbtool
    command that launches, drives, drains and reaps the daemon."""
    # Relative to the checkout root (the cwd): socket paths are limited
    # to 107 bytes, checkout paths are not.
    sock = os.path.relpath(os.path.join(work, f"d{time.monotonic_ns() % 10**9}.sock"), ROOT)
    return sock, ["--", V6SONARD, "--socket", sock, "--threads", "2", "--top", str(DAEMON_TOP),
                  "--snapshot-every", "1"] + list(extra)


def daemon_phases(seconds):
    return [(rate, share * seconds) for rate, share in DAEMON_PHASES]


def daemon_sat_records(seconds):
    return DAEMON_BLOCK_RECORDS * max(1, round(DAEMON_BLOCKS_PER_S * seconds))


def daemon_session(res, clean, work, log, seconds, expected_events, ref_bytes, spans=None,
                   run_id=""):
    """Launch, load, saturate, rendezvous, check, checkpoint; then restart
    from the checkpoint. Returns the client's JSON."""
    sock, tail = daemon_cmd(work, ["--metrics=" + os.path.join(work, "daemon_metrics_drain.json")]
                            if spans else [])
    cmd = [PBTOOL, "load", sock, clean, work, str(DAEMON_QUERY_RATE), str(expected_events),
           str(daemon_sat_records(seconds))] + [f"{r}:{s}" for r, s in daemon_phases(seconds)]
    if spans:
        cmd += ["--spans", spans, run_id]
    client = run_json(cmd + tail, log)
    res.attempted += int(client["attempted"])
    res.failed += int(client["failed"])
    if client["failed"]:
        res.problems.append(f"{int(client['failed'])} daemon requests failed")
    res.op(read(os.path.join(work, "daemon_report.txt")) == ref_bytes,
           "daemon report differs from batch detect --report --top 10")
    res.op(client["checkpoint_ok"] == 1, "checkpoint verb refused")
    res.op(client["rc"] == 0, "v6sonard exited nonzero")
    # Resume: restart from the checkpoint until the report is answered.
    ck = os.path.join(work, "daemon.ckpt")
    restored = os.path.join(work, "restored_report.txt")
    resumes, rss = [], []
    host = calib(log)
    for _ in range(REPLAYS):
        sock, tail = daemon_cmd(work, ["--checkpoint", ck])
        r = run_json([PBTOOL, "daemon", sock, restored] + tail, log)
        resumes.append(r["report_s"])
        res.op(r["report_ok"] == 1 and read(restored) == ref_bytes,
               "restored daemon report differs")
        res.op(r["rc"] == 0, "restored v6sonard exited nonzero")
        rss.append(r["rss_mb"])
    host = (host + calib(log)) / 2
    client["raw_resume_s"] = fast_mean(resumes)
    client["resume_s"] = normalized(client["raw_resume_s"], host)
    client["restored_rss_mb"] = statistics.median(rss)
    return client


def daemon_plan_records(seconds):
    return daemon_sat_records(seconds) + sum(int(rate / 200) * int(secs * 200)
                                             for rate, secs in daemon_phases(seconds))


def daemon_reference(res, seed, clean, work, log, seconds):
    ref = os.path.join(work, "daemon_ref.txt")
    out = run_json([PBTOOL, "stream-ref", clean, str(daemon_plan_records(seconds)), ref], log)
    res.inputs["daemon_stream"] = {"records": int(out["records"]),
                                   "bytes": int(out["records"]) * 52}
    # The stream's length follows --seconds, so the digest is per length.
    check_digest(res, seed, f"daemon_live.report.{out['records']}", read(ref))
    return int(out["events"]), read(ref)


def daemon_setup(res, work, log, repeats=31):
    walls = []
    host = calib(log)
    for _ in range(repeats):
        sock, tail = daemon_cmd(work)
        d = run_json([PBTOOL, "daemon", sock, "-"] + tail, log)
        walls.append(d["ready_s"])
        res.op(d["rc"] == 0, "v6sonard exited nonzero")
    host = (host + calib(log)) / 2
    res.details["setup_host_s"] = host
    res.details["raw_setup_s"] = fast_mean(walls)
    return normalized(fast_mean(walls), host)


def w_daemon_live(seed, seconds, work, log, res):
    _, clean = gen_world(res, seed, work, log, raw=False)
    events, ref = daemon_reference(res, seed, clean, work, log, seconds)
    res.metrics["setup_s"] = daemon_setup(res, work, log)
    c = daemon_session(res, clean, work, log, seconds, events, ref)
    # Records through the pipeline (acks only mean decoded, so the
    # open-loop phases' acked rates do not see it): a saturation block's
    # records over the fast mean of the block times, normalized by the
    # fast mean of the calibrations pbtool timed between the blocks. The
    # blocks do no file I/O and each sits between two calibrations, so
    # they are scaled by the full ratio.
    rates = [float(x) for x in c["saturation_block_rates"].split()]
    host = [float(x) for x in c["saturation_block_calib_s"].split()]
    block_s = fast_mean([1 / r for r in rates])  # per record
    res.metrics["records_per_s"] = 1 / normalized(block_s, fast_mean(host), exponent=1)
    raw = 1 / block_s
    # Memory for the whole stream's state, as the restored daemon holds
    # it. The ingesting daemon's peak also holds whatever ingest frames
    # queue up, which follows the host's speed at the top rate; it is
    # printed as a detail.
    res.metrics["peak_rss_mb"] = c["restored_rss_mb"]
    res.metrics["resume_s"] = c["resume_s"]
    res.details.update({
        "raw_records_per_s": raw,
        "raw_resume_s": c["raw_resume_s"],
        "saturation_records": daemon_sat_records(seconds),
        "saturated_records_per_s": c["saturated_records_per_s"],
        "saturation_block_rates.samples": " ".join(f"{x:.4g}" for x in rates),
        "saturation_host_s.samples": " ".join(f"{x:.4g}" for x in host),
        "ingest_peak_rss_mb": c["rss_mb"],
        "ingest_p50_ms": c["phase0.ingest_p50_ms"], "ingest_p99_ms": c["phase0.ingest_p99_ms"],
        "ingest_chunks": c["phase0.chunks"], "query_p50_ms": c["query_p50_ms"],
        "query_p90_ms": c["query_p90_ms"], "queries": c["queries"],
        "fold_lag_ms": c["fold_lag_ms"],
        "sustained_records_per_s": c["sustained_records_per_s"]})
    for p in range(len(DAEMON_PHASES)):
        for k in ("offered_records_per_s", "achieved_records_per_s", "ingest_p50_ms",
                  "ingest_p99_ms", "backlog_first_half", "backlog_second_half"):
            res.details[f"phase{p}.{k}"] = c[f"phase{p}.{k}"]


# --------------------------------------------------------------------- #
# Traced runs (per-layer metrics)


def fresh_spans_file(workload, seed):
    """Where a traced run writes its spans (emptied first)."""
    path = os.path.join(OUT, f"spans-{workload}-s{seed}.jsonl")
    if os.path.exists(path):
        os.unlink(path)
    return path


def trace_batch(workload, seed, work, log, res):
    if workload == "state_churn":
        churn = os.path.join(work, "churn.v6slog")
        run_json([PBTOOL, "churn", str(seed), churn], log)
        res.add_input("churn", churn)
        ref = os.path.join(work, "ref_report.txt")
        res.proc(run([V6SONAR, "detect", churn, "--mmap", "--report", "--threads", str(SHARDS),
                      "--cold-after", "600"], stdout=ref, log=log), "reference detect")
    else:
        _, clean = gen_world(res, seed, work, log)
        ref = os.path.join(work, "ref_report.txt")
        res.proc(run([V6SONAR, "detect", clean, "--mmap", "--report", "--threads", "1"],
                     stdout=ref, log=log), "reference detect --threads 1")
        ids_ref = os.path.join(work, "ids_serial.txt")
        res.proc(run([V6SONAR, "ids", clean, "--mmap", "--threads", "1"], stdout=ids_ref, log=log),
                 "reference ids --threads 1")
    run_id = f"{workload}-s{seed}-{os.getpid()}-{time.time_ns()}"
    spans = fresh_spans_file(workload, seed)
    out = run_json([PBTOOL, "trace", workload, work, spans, run_id], log)
    res.op(out.pop("check.inline_equals_sharded") == "yes", "1-shard and 3-shard traced outputs differ")
    if workload == "state_churn":  # the only traced composition that resumes
        res.op(out.pop("check.resumed_equals_full") == "yes", "traced resume differs from the full run")
    res.op(read(os.path.join(work, "trace_inline_report.txt")) == read(ref),
           "traced report differs from v6sonar detect")
    if workload == "world_raw":
        # The IDS ladder over the same clean world, as a run of its own.
        ids = run_json([PBTOOL, "trace", "ids", work, spans, run_id + "-ids"], log)
        res.op(ids.pop("check.inline_equals_sharded") == "yes",
               "1-shard and 3-shard traced blocklists differ")
        res.op(read(os.path.join(work, "trace_inline_blocklist.txt")) == blocklist_of(ids_ref),
               "traced blocklist differs from v6sonar ids")
        out.update({k: v for k, v in ids.items() if k.startswith("ids.")})
    res.details["run_id"] = run_id
    res.details["spans"] = os.path.relpath(spans, ROOT)
    res.metrics.update(out)


def hist_mean(metrics, name):
    h = metrics.get("histograms", {}).get(name)
    return h["sum"] / h["count"] if h and h["count"] else 0.0


def trace_daemon(seed, seconds, work, log, res):
    _, clean = gen_world(res, seed, work, log, raw=False)
    events, ref = daemon_reference(res, seed, clean, work, log, seconds)
    plain = daemon_session(res, clean, work, log, seconds, events, ref)
    run_id = f"daemon_live-s{seed}-{os.getpid()}-{time.time_ns()}"
    spans = fresh_spans_file("daemon_live", seed)
    c = daemon_session(res, clean, work, log, seconds, events, ref, spans=spans, run_id=run_id)
    with open(os.path.join(work, "daemon_metrics.json")) as f:
        m = json.load(f)
    res.metrics.update({k: 0.0 for k in PER_LAYER})
    backlog = max(c[f"phase{p}.backlog_max"] for p in range(len(DAEMON_PHASES)))
    res.metrics.update({
        "analysis.merge_s": m.get("histograms", {}).get("analysis.merge_us", {}).get("sum", 0) / 1e6,
        "daemon.ping_rtt_ms": c["ping_rtt_ms"],
        "daemon.snapshot_merge_us": hist_mean(m, "daemon.snapshot.merge_us"),
        "daemon.queries_us": hist_mean(m, "daemon.queries.us"),
        "daemon.gen_lag_ms": c["gen_lag_ms"],
        "daemon.backlog_records": backlog,
        "daemon.ingest_p50_ms": c["phase0.ingest_p50_ms"],
        "daemon.ingest_p99_ms": c["phase0.ingest_p99_ms"],
        "daemon.query_p50_ms": c["query_p50_ms"],
        "daemon.query_p90_ms": c["query_p90_ms"],
        "daemon.fold_lag_ms": c["fold_lag_ms"],
        "daemon.sustained_records_per_s": c["sustained_records_per_s"],
        "trace.overhead_ratio": (c["phase0.ingest_p50_ms"] / plain["phase0.ingest_p50_ms"]
                                 if plain["phase0.ingest_p50_ms"] else 0.0),
    })
    res.details["run_id"] = run_id
    res.details["spans"] = os.path.relpath(spans, ROOT)


# --------------------------------------------------------------------- #
# Diagnostics (not gated): shard scaling and tiering cost.


def diag_scaling(seed, work, log, repeats=3):
    res = Result()
    _, clean = gen_world(res, seed, work, log, raw=False)
    churn = os.path.join(work, "churn.v6slog")
    run_json([PBTOOL, "churn", str(seed), churn], log)
    inputs = {"world_raw detect (clean world)": (clean, []),
              "state_churn detect": (churn, ["--cold-after", "600"])}
    threads = [1, 2, 3, 8]
    rows = []
    for name, (path, extra) in inputs.items():
        walls = {t: [] for t in threads}
        for r in range(repeats):
            order = threads[r % len(threads):] + threads[:r % len(threads)]
            for t in order:  # interleaved, rotated each pass
                p = run([V6SONAR, "detect", path, "--mmap", "--report", "--threads", str(t)] + extra,
                        stdout=os.path.join(work, "diag.txt"), log=log)
                res.proc(p, f"detect --threads {t}")
                walls[t].append(p.wall_s)
        base = statistics.median(walls[1])
        for t in threads:
            med = statistics.median(walls[t])
            rows.append((name, t, med, min(walls[t]), max(walls[t]), base / med))
    print(f"{'input':32} {'threads':>7} {'median_s':>9} {'min_s':>7} {'max_s':>7} {'speedup':>7}")
    for name, t, med, lo, hi, sp in rows:
        print(f"{name:32} {t:>7} {med:>9.3f} {lo:>7.3f} {hi:>7.3f} {sp:>7.2f}")
    return res


def diag_tiering(seed, work, log, pairs=5):
    res = Result()
    churn = os.path.join(work, "churn.v6slog")
    run_json([PBTOOL, "churn", str(seed), churn], log)
    base = [V6SONAR, "detect", churn, "--mmap", "--report", "--threads", str(SHARDS)]
    runs = {"untiered": [], "tiered": []}
    outs = {}
    for i in range(pairs):
        order = ("tiered", "untiered") if i % 2 == 0 else ("untiered", "tiered")
        for mode in order:  # each run is its own child; order alternates
            extra = ["--cold-after", "600"] if mode == "tiered" else []
            out = os.path.join(work, f"{mode}.txt")
            p = run(base + extra, stdout=out, log=log)
            res.proc(p, mode)
            runs[mode].append(p)
            outs[mode] = read(out)
    res.op(outs["tiered"] == outs["untiered"], "tiering changed the report")
    print(f"{'mode':10} {'median_s':>9} {'min_s':>7} {'max_s':>7} {'peak_rss_mb':>11}")
    med = {}
    for mode, ps in runs.items():
        walls = [p.wall_s for p in ps]
        med[mode] = statistics.median(walls)
        print(f"{mode:10} {med[mode]:>9.3f} {min(walls):>7.3f} {max(walls):>7.3f} "
              f"{statistics.median(p.rss_mb for p in ps):>11.1f}")
    print(f"tiering cost: {100 * (med['tiered'] / med['untiered'] - 1):+.1f} % wall time")
    return res


# --------------------------------------------------------------------- #


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--diagnostic", choices=("scaling", "tiering"))
    args = ap.parse_args()
    if not args.workload and not args.diagnostic:
        ap.error("--workload or --diagnostic is required")

    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "last-run.log")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload or args.diagnostic}-{os.getpid()}")
    with open(log_path, "wb") as log:
        try:
            build(log)
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            if args.diagnostic:
                fn = diag_scaling if args.diagnostic == "scaling" else diag_tiering
                res = fn(args.seed, work, log)
                for p in res.problems:
                    print("FAILED:", p, file=sys.stderr)
                return 0 if res.failed == 0 else 1
            res = Result()
            if args.trace:
                if args.workload == "daemon_live":
                    trace_daemon(args.seed, args.seconds, work, log, res)
                else:
                    trace_batch(args.workload, args.seed, work, log, res)
                units = PER_LAYER
            else:
                fn = {"world_raw": w_world_raw, "state_churn": w_state_churn,
                      "daemon_live": w_daemon_live}[args.workload]
                fn(args.seed, args.seconds, work, log, res)
                units = UNITS
        except (Failure, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
            print(f"perfbench: {e} (log: {os.path.relpath(log_path, ROOT)})", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            os.sync()  # settle this run's writeback before the next run starts

    print("provenance " + json.dumps(provenance(args.seed, res.inputs)))
    for k, v in res.details.items():
        print(f"detail {k} = {v}")
    res.details["error_rate"] = res.failed / max(res.attempted, 1)
    print(f"detail error_rate = {res.details['error_rate']:.6g} "
          f"({res.failed} failed of {res.attempted} attempted)")
    for p in res.problems:
        print("FAILED:", p, file=sys.stderr)
    metrics = {}
    for k, unit in units.items():
        v = float(res.metrics.get(k, 0.0))
        metrics[k] = {"value": v, "unit": unit}
        print(f"metric {k:32} {v:>16.6g} {unit}")
    correct = res.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(res.attempted, 1),
                      "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
