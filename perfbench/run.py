#!/usr/bin/env python3
"""One run of the treewalk benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload serve-walk --seed 1 --seconds 10 --trace 0

Builds `twq` and `perfbench_driver` from the checkout into .bench_build/,
generates the workload's inputs from --seed (perfbench/gen.py), drives the
real front ends from outside for --seconds, checks every verdict against
the generator's ground truth, and prints one JSON object as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 repeats the run with
the per-layer instruments on and reports the per-layer metrics (a traced
in-process replay, written as Chrome trace JSON under .bench_build/).
Human-readable lines (stamp, every metric with its unit) precede the JSON
line.  Exits non-zero without a result when the build or set-up fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True  # write nothing outside .bench_build/
import gen  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
WORKLOADS = ("serve-walk", "serve-mix", "batch-cold")
# Load shape: one client process with at most 2 threads, against a
# daemon with 2 workers or a batch with 2 jobs (headroom on 4 cores).
CLIENT_THREADS = 2
WORKERS = 2
DAEMON_STARTS = 5      # set-up repetitions; setup_s is their median
SNAPSHOT_EVERY = 2     # batch-cold: a set-up round after every 2nd sample
SAMPLE_TIMEOUT = 60    # seconds before a hung batch process is killed
RESIDENT_SECONDS = 5   # batch-cold traced run: resident window
MIB = 1024.0 * 1024.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class SetupError(Exception):
    pass


# --------------------------------------------------------------- build

def build():
    """Configures and builds the two targets; returns the build stamp."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SetupError("no treewalk sources next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "twq",
                      "perfbench_driver", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SetupError("build failed: " + " ".join(cmd))
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=")[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type == "Debug":
        raise SetupError("refusing a Debug build")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {"build_type": build_type,
            "compiler": version[0] if version else compiler}


def source_commit():
    """The git commit when the checkout is a clone, else a hash of the
    sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def binary(name):
    sub = "treewalk_tools" if name == "twq" else ""
    return os.path.join(BUILD_DIR, sub, name)


# -------------------------------------------------------------- inputs

def prepare_inputs(workload, seed, work):
    """Generates the inputs and lays out the corpus directory the program
    reads: .term files copied, .twsnap files built with `twq snapshot
    build`.  Returns (plan, plan file path, corpus dir, snapshot build
    seconds)."""
    plan = gen.build(workload, seed, os.path.join(work, "inputs"))
    corpus = os.path.join(work, "corpus")
    os.makedirs(corpus, exist_ok=True)
    snap_s = build_snapshots(plan, corpus)
    plan_path = os.path.join(work, "plan.txt")
    with open(plan_path, "w") as f:
        for name, path in plan["programs"].items():
            f.write("program %s %s\n" % (name, path))
        for t in plan["trees"]:
            f.write("tree %s %s\n" % (t["name"], t["format"]))
        for prog, tree, expected in plan["pairs"]:
            f.write("pair %s %s %d\n" % (prog, tree, int(expected)))
        f.write("seq %s\n" % " ".join(map(str, plan["sequence"])))
    return plan, plan_path, corpus, snap_s


def build_snapshots(plan, corpus):
    """Writes every corpus file; returns the seconds each snapshot build
    took (the twsnap part of set-up), in corpus order."""
    times = []
    for t in plan["trees"]:
        dest = os.path.join(corpus, t["name"])
        if t["format"] == "term":
            shutil.copyfile(t["term"], dest)
            continue
        start = time.perf_counter()
        done = subprocess.run([binary("twq"), "snapshot", "build", t["term"],
                               "-o", dest], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SetupError("snapshot build failed: " + done.stderr)
    return times


# -------------------------------------------------------------- daemon

READY_FRAME = struct.pack("<IB", 1, 0x06)  # kReady, empty body


def probe_ready(port):
    """One kReady probe; True when the daemon answers ok=1."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=2) as s:
            s.sendall(READY_FRAME)
            data = b""
            while len(data) < 6:
                chunk = s.recv(6 - len(data))
                if not chunk:
                    return False
                data += chunk
    except OSError:
        return False
    length, kind, ok = struct.unpack("<IBB", data)
    return length == 2 and kind == 0x87 and ok == 1


class Daemon:
    """`twq serve` over a corpus directory; start() returns the seconds
    from exec to the first successful kReady probe."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.proc = None
        self.port = None

    def start(self):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary("twq"), "serve", self.corpus, "--port", "0",
             "--workers", str(WORKERS), "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise SetupError("daemon did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])
        while not probe_ready(self.port):
            if time.perf_counter() - start > 60:
                self.stop()
                raise SetupError("daemon never became ready")
            time.sleep(0.0005)
        return time.perf_counter() - start

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SetupError("no VmHWM for the daemon")

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def start_daemons(corpus, count, daemons):
    """Starts the daemon `count` times (all but the last stopped again);
    returns (the running daemon, median set-up seconds)."""
    times = []
    for i in range(count):
        d = Daemon(corpus)
        daemons.append(d)
        times.append(d.start())
        if i + 1 < count:
            d.stop()
    return daemons[-1], statistics.median(times)


def run_driver(args, out_path, timeout):
    done = subprocess.run([binary("perfbench_driver")] + args +
                          ["--out", out_path], timeout=timeout)
    if done.returncode != 0:
        raise SetupError("perfbench_driver %s failed" % args[0])
    with open(out_path) as f:
        return json.load(f)


def serve_load(daemon, plan_path, work, seconds):
    args = ["load", "--plan", plan_path, "--port", str(daemon.port),
            "--threads", str(CLIENT_THREADS), "--seconds", str(seconds)]
    return run_driver(args, os.path.join(work, "load.json"),
                      timeout=seconds + 120)


def replay(plan, plan_path, corpus, work):
    return run_driver(["replay", "--plan", plan_path, "--corpus", corpus,
                       "--requests", str(len(plan["pairs"])),
                       "--trace-out", os.path.join(work, "trace.json")],
                      os.path.join(work, "replay.json"), timeout=150)


# --------------------------------------------------------------- batch

def batch_sample(manifest, work, metrics_out, verbose=False):
    """One cold `twq batch` process: (wall s, maxrss MB, stdout)."""
    cmd = [binary("twq"), "batch", manifest, "--jobs", str(WORKERS),
           "--deadline-ms", "1000", "--memory-budget-mb", "64"]
    if not verbose:
        cmd.append("--quiet")
    if metrics_out:
        cmd += ["--metrics-out", metrics_out]
    out_path = os.path.join(work, "batch.out")
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(SAMPLE_TIMEOUT, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, text


def check_batch_verdicts(text, pairs):
    """Per-job verdict lines of a non-quiet batch: wrong answers."""
    wrong = 0
    seen = 0
    for line in text.splitlines():
        if not line.startswith("["):
            continue
        index, verdict = line[1:].split("] ", 1)
        seen += 1
        expected = pairs[int(index)][2]
        if verdict.split(" ", 1)[0] != ("ACCEPT" if expected else "REJECT"):
            wrong += 1
            log("wrong batch verdict: " + line)
    return wrong + (len(pairs) - seen)


def summary_counts(text):
    """(accepted, rejected, failed) from the batch summary line."""
    for line in text.splitlines():
        if " jobs on " in line:
            parts = line.split(": ", 1)[1].split(", ")
            return tuple(int(p.split()[0]) for p in parts[:3])
    return None


def run_batch(plan, corpus, work, seconds, setup_round):
    """Cold batch samples for `seconds`; returns the tallies.  Calls
    `setup_round` between samples, every SNAPSHOT_EVERY samples, so the
    set-up timings are spread over the run like the samples."""
    manifest = os.path.join(work, "batch.manifest")
    order = [plan["pairs"][i] for i in plan["sequence"]]
    with open(manifest, "w") as f:
        for prog, tree, _ in order:
            f.write("%s %s\n" % (plan["programs"][prog],
                                 os.path.join(corpus, tree)))
    expected_accepts = sum(1 for p in order if p[2])
    # One verbose run first (untimed): checks every job's verdict.  The
    # timed samples run --quiet and are checked by their summary counts.
    _, _, code, text = batch_sample(manifest, work, None, verbose=True)
    wrong = check_batch_verdicts(text, order)
    failed = 0 if code == 0 else len(order)
    attempted = len(order)
    # Every sample counts, failed or not, so the loop always ends: a
    # failing build is reported through `failed`, not by hanging.
    walls, rss, metric_files = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < 3:
        metrics_out = os.path.join(work, "batch-%d.json" % len(walls))
        wall, maxrss, code, text = batch_sample(manifest, work, metrics_out)
        if len(walls) % SNAPSHOT_EVERY == 0:
            setup_round()
        counts = summary_counts(text)
        attempted += len(order)
        walls.append(wall)
        rss.append(maxrss)
        if code != 0 or counts is None:
            failed += len(order) if counts is None else max(1, counts[2])
            log("batch sample failed with exit code %d" % code)
            continue
        if counts[0] != expected_accepts:
            wrong += abs(counts[0] - expected_accepts)
        metric_files.append((metrics_out, wall))
    return {"order": order, "walls": walls, "rss": rss, "wrong": wrong,
            "failed": failed, "attempted": attempted,
            "metric_files": metric_files}


def read_metrics(path):
    with open(path) as f:
        return json.load(f)["metrics"]


def percentile(values, q):
    """Linear interpolation between closest ranks."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def batch_engine_metrics(samples):
    """engine.* and governor.* from the --metrics-out JSON of the
    successful samples, given as (path, wall seconds)."""
    if not samples:
        raise SetupError("no successful batch sample to read metrics from")
    queue, job_sum, busy, governor = [], [], [], []
    for path, wall in samples:
        peak = 0
        for s in read_metrics(path):
            if s["name"] == "treewalk_engine_queue_wait_ms":
                queue.append(s["p50"])
            elif s["name"] == "treewalk_engine_job_latency_ms":
                job_sum.append(s["sum"])
                busy.append(s["sum"] / (WORKERS * wall * 1000.0))
            elif s["name"] == "treewalk_governor_memory_peak_bytes":
                peak += s["value"]
        governor.append(peak / MIB)
    return {"engine.queue_wait_ms_p50": statistics.median(queue),
            "engine.job_ms_sum": statistics.median(job_sum),
            "engine.busy_ratio": statistics.median(busy),
            "governor.memory_peak_mb": max(governor)}


# ------------------------------------------------------------- metrics

def layer_metrics(load, rep, batch_engine=None):
    """The per-layer metrics from a served window (`load`), the replay
    (`rep`) and, on batch-cold, the cold samples' engine metrics."""
    m = {
        "server.in_daemon_ms_p50": load["in_daemon_p50_ms"],
        "server.outside_ms_p50":
            load["client_bucket_p50_ms"] - load["in_daemon_p50_ms"],
        "server.outside_ms_mean":
            load["client_mean_ms"] - load["in_daemon_mean_ms"],
        "server.shed": load["shed"],
        "server.served_error": load["served_error"],
        "server.books_ok": load["books_ok"],
        "client.attempts_per_query": load["attempts_per_query"],
        "engine.resident_mb": load["resident_bytes"] / MIB,
        "trace.daemon_coverage":
            rep["request_us"] / (1000.0 * load["in_daemon_mean_ms"]),
    }
    for key, value in rep.items():
        if "." in key:
            m[key] = value
    if batch_engine is not None:
        m.update(batch_engine)
    else:
        m["engine.queue_wait_ms_p50"] = max(
            0.0, load["in_daemon_p50_ms"] - load["job_p50_ms"])
        m["engine.job_ms_sum"] = load["job_ms_sum"]
        m["engine.busy_ratio"] = load["job_ms_sum"] / (
            WORKERS * load["wall_s"] * 1000.0)
        m["governor.memory_peak_mb"] = load["governor_peak_bytes"] / MIB
    return m


def load_bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    stamp = build()
    stamp.update({"workload": workload, "seed": seed, "trace": trace,
                  "seconds": seconds, "nproc": os.cpu_count(),
                  "commit": source_commit()})
    work = os.path.join(BUILD_DIR, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan, plan_path, corpus, snap_s = prepare_inputs(workload, seed, work)

    daemons = []
    try:
        if workload == "batch-cold":
            # Set-up is the snapshot builds, redone between the samples
            # into a spare directory: per snapshot the median of its
            # builds, and setup_s is their sum.
            spare = os.path.join(work, "setup")
            os.makedirs(spare)
            rounds = [snap_s]
            b = run_batch(plan, corpus, work, seconds, lambda: rounds.append(
                build_snapshots(plan, spare)))
            setup_s = sum(statistics.median(per_tree)
                          for per_tree in zip(*rounds))
            end = {
                "qps": len(b["order"]) * len(b["walls"]) / sum(b["walls"]),
                "latency_p50_ms": 1000.0 * percentile(b["walls"], 0.50),
                "latency_p95_ms": 1000.0 * percentile(b["walls"], 0.95),
                "peak_rss_mb": statistics.median(b["rss"]),
                "setup_s": setup_s,
            }
            attempted, failed, wrong = b["attempted"], b["failed"], b["wrong"]
            samples = len(b["walls"])  # batch processes
            if trace:
                # The resident counterpart: the same jobs served from a
                # daemon, in manifest order, for a short window.
                daemon, _ = start_daemons(corpus, 1, daemons)
                load = serve_load(daemon, plan_path, work,
                                  min(seconds, RESIDENT_SECONDS))
                daemon.stop()
                attempted += int(load["attempted"])
                failed += int(load["errors"])
                wrong += int(load["wrong"])
        else:
            daemon, setup_s = start_daemons(corpus, DAEMON_STARTS, daemons)
            load = serve_load(daemon, plan_path, work, seconds)
            end = {
                "qps": load["qps"],
                "latency_p50_ms": load["latency_p50_ms"],
                "latency_p95_ms": load["latency_p95_ms"],
                "peak_rss_mb": daemon.peak_rss_mb(),
                "setup_s": setup_s,
            }
            daemon.stop()
            attempted = int(load["attempted"])
            failed, wrong = int(load["errors"]), int(load["wrong"])
            samples = int(load["ok"])  # timed requests
        if trace:
            rep = replay(plan, plan_path, corpus, work)
            wrong += int(rep["wrong"])
            engine = None
            if workload == "batch-cold":
                engine = batch_engine_metrics(b["metric_files"])
            metrics = layer_metrics(load, rep, engine)
        else:
            metrics = end
    finally:
        for d in daemons:
            d.stop()

    spec = load_bench_spec()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    missing = set(units) - set(metrics)
    if missing:
        raise SetupError("metrics not produced: " + ", ".join(sorted(missing)))
    result = {name: {"value": metrics[name], "unit": units[name]}
              for name in sorted(units)}

    print("perfbench " + " ".join("%s=%s" % kv for kv in stamp.items()))
    for name, v in result.items():
        print("  %-36s %16.6f %s" % (name, v["value"], v["unit"]))
    print("  %-36s %16.6f ratio (%d failed of %d attempted)" %
          ("error_ratio", failed / max(1, attempted), failed, attempted))
    print("  %-36s %16d count" % ("wrong_answers", wrong))
    print("  %-36s %16d count" % ("samples", samples))
    if workload == "batch-cold" and not trace:
        print("  %-36s %16.6f 1/s" % ("jobs_per_s", end["qps"]))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (SetupError, OSError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
