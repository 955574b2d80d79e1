#!/usr/bin/env python3
"""The repository benchmark: the shipped CLIs, timed end to end.

    python3 perfbench/run.py --workload W [--seed S] [--seconds N]
                             [--trace 0|1] [--campaign-seed C]

Run from the repository root.  It builds unp_report, unp_query, unp_serve
and the benchmark's probe into .bench_build, then runs one workload:

  cold_report  unp_report --all on an empty cache directory, at
               --threads nproc and --threads 1, alternating;
  warm_report  the same command on the cache that set-up filled;
  serve_mix    unp_serve over the store set-up built, driven by an
               open-loop generator at a fixed rate and then up a ladder
               of rates; plus unp_report --store at both thread counts.

Set-up, repeated SETUPS times and reported as its median, is the cache fill
and store build (unp_query --build) in a fresh directory, plus for
serve_mix the server start up to its port file.

Every run checks outputs (report stdout against unp_report --store over
the set-up store, every served body against render_request_to_string),
counts attempted and failed operations, prints a table, and ends with one
JSON line holding the gated metrics of BENCHMARK.json.  serve_mix also
prints its latency percentiles and max_qps, which are too unsteady to
gate.  --trace 1 runs the in-process probe instead and reports the
per-layer metrics.  See perfbench/README.md for what each metric measures
on each workload.
"""

import argparse
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reqstream  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bench")
OUT = os.path.join(ROOT, ".bench_out")
TARGETS = ("unp_report", "unp_query", "unp_serve", "unp_bench_probe")
WORKLOADS = ("cold_report", "warm_report", "serve_mix")

# The timed campaign is always the study's seed-42 campaign: the campaign
# seed changes how much work the pipeline does (cold walls of 2.5-4.1 s
# across seeds), so tying it to --seed would measure the seed, not the
# program.  --campaign-seed re-runs every check on another campaign.
CAMPAIGN_SEED = 42
SETUPS = 3
MIN_REPS = 3
FIXED_RATE = 1000          # q/s of the serve_mix latency phases
FIXED_PHASES = 7           # phases of the traced run's serve probe
LADDER_AT = 0.75           # share of the run before the ladder starts
LADDER = (2500, 5000, 10000, 20000)  # q/s, climbed until a rung fails
RUNG_PHASES = 3            # a rung passes on its median phase
RUNG_S = 0.25              # minimum length of one rung phase
LATENCY_LIMIT_MS = 50.0    # p99 bound a ladder rung must meet
MIN_SAMPLES = 1000         # p99 needs ten samples beyond it
PHASE_GAP_S = 0.1
MAX_QPS_NOT_GATED = (
    "the rung where p99 crosses the limit sits at the 4-connection "
    "capacity, and on a shared 4-vCPU VM it moved between 2400 and "
    "20000 q/s from run to run, so the ladder result is too unsteady to "
    "bound")
LATENCY_NOT_GATED = (
    "on a shared 4-vCPU VM the median over ten seeds moved with the "
    "machine's speed, amplified: p50 (mostly thread wake-ups) by 25-75% "
    "and p99 (the whole-campaign listings plus queueing) by 20-33% "
    "interquartile, against 7-17% for the report walls")

NPROC = len(os.sched_getaffinity(0))


class BenchError(Exception):
    """Set-up or build failure: the run cannot produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def binpath(name):
    return os.path.join(BIN, name)


# --- build -------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("repository sources not found: %s is missing"
                             % os.path.join(ROOT, need))
    os.makedirs(BUILD, exist_ok=True)
    blog = os.path.join(BUILD, "perfbench-build.log")
    with open(blog, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cfg = ["cmake", "-S", ROOT, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   "-DCMAKE_PROJECT_unprotected_INCLUDE="
                   + os.path.join(HERE, "probe.cmake")]
            if subprocess.run(cfg, stdout=out, stderr=out).returncode != 0:
                raise BenchError("cmake configure failed; see " + blog)
        cmd = ["cmake", "--build", BUILD, "-j", str(NPROC), "--target"]
        if subprocess.run(cmd + list(TARGETS), stdout=out,
                          stderr=out).returncode != 0:
            raise BenchError("build failed; see " + blog)


# --- processes ---------------------------------------------------------------

class Proc:
    """Outcome of one child process reaped with wait4."""

    def __init__(self, rc, wall_s, rss_mib, stdout):
        self.rc, self.wall_s, self.rss_mib, self.stdout = (rc, wall_s,
                                                           rss_mib, stdout)


def reap(popen):
    _, status, usage = os.wait4(popen.pid, 0)
    popen.returncode = os.waitstatus_to_exitcode(status)
    return popen.returncode, usage.ru_maxrss / 1024.0


def run_timed(args, workdir, tag):
    """Spawn `args`, wait for exit; wall time is spawn to exit."""
    out_path = os.path.join(workdir, tag + ".out")
    err_path = os.path.join(workdir, tag + ".err")
    env = dict(os.environ, UNP_CACHE_DIR=os.path.join(workdir, "cache"))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        rc, rss = reap(p)
        wall = time.perf_counter() - t0
    with open(out_path, "rb") as f:
        stdout = f.read()
    return Proc(rc, wall, rss, stdout)


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Server:
    """unp_serve child: started to its port file, stopped by `shutdown`."""

    def __init__(self, store, workdir):
        self.port_file = os.path.join(workdir, "port")
        self.err = open(os.path.join(workdir, "serve.err"), "wb")
        env = dict(os.environ, UNP_CACHE_DIR=os.path.join(workdir, "cache"))
        self.popen = subprocess.Popen(
            [binpath("unp_serve"), "--store", store, "--port", "0",
             "--port-file", self.port_file, "--workers", str(NPROC)],
            stdout=subprocess.DEVNULL, stderr=self.err, env=env, cwd=ROOT)
        self.rc = None
        self.rss_mib = 0.0
        self.port = None
        deadline = time.perf_counter() + 60
        while self.port is None:
            if self.popen.poll() is not None:
                self.rc = self.popen.returncode
                self.err.close()
                raise BenchError("unp_serve exited during start-up")
            try:
                with open(self.port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
            except (FileNotFoundError, ValueError):
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("unp_serve wrote no port file")
            time.sleep(0.001)

    def stop(self):
        """Send `shutdown`, then reap by pid with wait4 (which also gives the
        peak RSS); kill only if it ignores the request."""
        if self.rc is not None:
            return self.rc
        if self.port is not None:
            try:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=10) as s:
                    s.sendall(b"shutdown\n")
                    s.recv(64)
            except OSError:
                pass
        pid = self.popen.pid
        deadline = time.perf_counter() + 20
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() > deadline:
                self.popen.kill()
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.005)
        self.rc = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.rc
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.err.close()
        return self.rc


# --- set-up ------------------------------------------------------------------

def setup(workdir, campaign_seed, serve):
    """Cache fill + store build (+ server start); returns (seconds, state)."""
    fresh(os.path.join(workdir, "cache"))
    store = os.path.join(workdir, "store.unpf")
    t0 = time.perf_counter()
    p = run_timed([binpath("unp_query"), "--build", store, "--seed",
                   str(campaign_seed), "--threads", str(NPROC),
                   "--cache-dir", os.path.join(workdir, "cache")],
                  workdir, "build")
    if p.rc != 0:
        raise BenchError("unp_query --build failed (exit %d)" % p.rc)
    server = Server(store, workdir) if serve else None
    return time.perf_counter() - t0, store, server


def repeated_setup(campaign_seed, workload, base):
    """SETUPS fresh set-ups; keeps the last one, discards the others."""
    times = []
    for k in range(SETUPS):
        workdir = fresh(os.path.join(base, "setup%d" % k))
        secs, store, server = setup(workdir, campaign_seed,
                                    workload == "serve_mix")
        times.append(secs)
        if k + 1 < SETUPS:
            if server:
                server.stop()
            shutil.rmtree(workdir, ignore_errors=True)
    return times, workdir, store, server


# --- workloads ---------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def report_loop(args_for, workdir, reference, seconds, tally, fresh_cache,
                between=None):
    """Rounds of one nproc and one 1-thread report (order alternating)
    until `seconds` pass, at least MIN_REPS rounds; `between(k)`, if given,
    runs more work in each round so every sample series spans the run.
    Returns {threads: [Proc, ...]}."""
    runs = {NPROC: [], 1: []}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_REPS or time.perf_counter() < deadline:
        for t in ((NPROC, 1) if k % 2 == 0 else (1, NPROC)):
            cache = os.path.join(workdir, "cold")
            if fresh_cache:
                fresh(cache)
            p = run_timed(args_for(t, cache), workdir, "report")
            if fresh_cache:
                shutil.rmtree(cache, ignore_errors=True)
            ok = p.rc == 0 and p.stdout == reference
            tally.op(ok, "report --threads %d: exit %d, stdout %s" % (
                t, p.rc, "equal" if p.stdout == reference else "differs"))
            runs[t].append(p)
        if between:
            between(k)
        k += 1
    return runs


def report_metrics(runs):
    return {
        "wall_s": (median([p.wall_s for p in runs[NPROC]]), "s"),
        "wall_1t_s": (median([p.wall_s for p in runs[1]]), "s"),
        "peak_rss_mib": (max(p.rss_mib for ps in runs.values() for p in ps),
                         "MiB"),
    }


def store_reference(store, workdir):
    p = run_timed([binpath("unp_report"), "--store", store, "--all",
                   "--threads", str(NPROC)], workdir, "reference")
    if p.rc != 0 or not p.stdout:
        raise BenchError("unp_report --store failed (exit %d)" % p.rc)
    return p.stdout


def write_schedule(path, rows):
    with open(path, "w") as f:
        for due, phase, line in rows:
            f.write("%d\t%s\t%s\n" % (round(due * 1e6), phase, line))


def drive(port, store, workdir, rows, tag, tally):
    """One generator process over `rows`; returns its rows per phase."""
    sched = os.path.join(workdir, tag + ".sched")
    write_schedule(sched, rows)
    res = os.path.join(workdir, tag + ".res")
    p = subprocess.run(
        [binpath("unp_bench_probe"), "loadgen", "--port", str(port),
         "--schedule", sched, "--conns", str(NPROC), "--store", store,
         "--out", res], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT)
    if p.returncode != 0:
        raise BenchError("load generator failed: "
                         + p.stderr.decode(errors="replace")[-400:])
    summary = json.loads(p.stdout.decode().strip().splitlines()[-1])
    phases = {}
    with open(res) as f:
        for row, (due, _, line) in zip(f, rows):
            phase, ok, late_ms, lat_ms, done_ms = row.split()
            phases.setdefault(phase, []).append(
                {"ok": ok == "1", "late_ms": float(late_ms),
                 "lat_ms": float(lat_ms), "due_s": due,
                 "done_s": float(done_ms) / 1e3, "line": line})
            tally.op(ok == "1", "request failed: " + line)
    bad = summary["mismatched"]
    # A body mismatch is one more failed operation on top of the request.
    tally.failed += bad
    if bad:
        tally.notes.append("%d served bodies differ from "
                           "render_request_to_string" % bad)
    return [phases[name] for name in dict.fromkeys(r[1] for r in rows)]


def phased(stream, name, rate, seconds_each, count):
    """`count` back-to-back phases at `rate`, PHASE_GAP_S apart."""
    rows, offset = [], 0.0
    duration = max(MIN_SAMPLES / rate, seconds_each)
    for k in range(count):
        rows += reqstream.phase_schedule(stream, "%s%d" % (name, k), rate,
                                         duration, offset)
        offset = rows[-1][0] + PHASE_GAP_S
    return rows


def phase_stats(rows):
    """Latency from due (failed requests count as infinitely late),
    lateness and backlog growth of one phase."""
    lat = [r["lat_ms"] if r["ok"] else float("inf") for r in rows]
    late = [r["late_ms"] for r in rows]
    first_due = rows[0]["due_s"]
    last_due = rows[-1]["due_s"]
    mid = 0.5 * (first_due + last_due)
    dones = sorted(r["done_s"] for r in rows)

    def backlog(t):
        due = sum(1 for r in rows if r["due_s"] <= t)
        return due - sum(1 for d in dones if d <= t)

    span = max(dones[-1] - first_due, 1e-9)
    return {
        "n": len(rows),
        "p50": reqstream.percentile_with_tail(lat, 50.0),
        "p99": reqstream.percentile_with_tail(lat, 99.0),
        "late_tail": reqstream.highest_percentile(late)[1],
        "grows": backlog(last_due) > backlog(mid) + NPROC,
        "achieved_qps": sum(1 for r in rows if r["ok"]) / span,
    }


def serve_measure(seed, seconds, store, server, workdir, tally, reference):
    """Fixed-rate phases interleaved with store reports, then the ladder."""
    stream = reqstream.RequestStream(seed)
    fixed = []

    def fixed_phase(k):
        rows = reqstream.phase_schedule(stream, "fixed%d" % k, FIXED_RATE,
                                        MIN_SAMPLES / FIXED_RATE, 0.0)
        fixed.extend(phase_stats(r) for r in drive(
            server.port, store, workdir, rows, "fixed", tally))

    # The store-backed report is the offline view of the served store.
    runs = report_loop(
        lambda t, _: [binpath("unp_report"), "--store", store, "--all",
                      "--threads", str(t)],
        workdir, reference, LADDER_AT * seconds, tally, fresh_cache=False,
        between=fixed_phase)
    p50 = median([st["p50"] for st in fixed])
    p99 = median([st["p99"] for st in fixed])
    print("serve_mix fixed %d q/s, %d phases of %d: p50 %.3f ms, p99 %.3f ms "
          "(phase p99s %s; the first carries the cold-start herd); "
          "generator lateness tail %s ms; backlog grew in %d" % (
              FIXED_RATE, len(fixed), fixed[0]["n"], p50, p99,
              " ".join("%.1f" % st["p99"] for st in fixed),
              " ".join("%.1f" % st["late_tail"] for st in fixed),
              sum(st["grows"] for st in fixed)))

    max_qps = 0.0
    for rate in LADDER:
        time.sleep(PHASE_GAP_S)
        rung = [phase_stats(rows) for rows in drive(
            server.port, store, workdir,
            phased(stream, "r%d_" % rate, rate, RUNG_S, RUNG_PHASES),
            "r%d" % rate, tally)]
        rung_p99 = median([st["p99"] for st in rung])
        grew = sum(st["grows"] for st in rung)
        passed = rung_p99 <= LATENCY_LIMIT_MS and 2 * grew < len(rung)
        print("serve_mix ladder %5d q/s: p99 %.3f ms (phases %s), backlog "
              "grew in %d/%d, achieved %.0f q/s: %s" % (
                  rate, rung_p99, " ".join("%.1f" % st["p99"] for st in rung),
                  grew, len(rung), median([st["achieved_qps"] for st in rung]),
                  "pass" if passed else "fail"))
        if not passed:
            break
        max_qps = median([st["achieved_qps"] for st in rung])
    print("serve_mix p50_ms %.4f ms, p99_ms %.4f ms -- printed, not gated: %s"
          % (p50, p99, LATENCY_NOT_GATED))
    print("serve_mix max_qps %.0f q/s (p99 limit %.0f ms) -- printed, not "
          "gated: %s" % (max_qps, LATENCY_LIMIT_MS, MAX_QPS_NOT_GATED))

    rc = server.stop()
    tally.op(rc == 0, "unp_serve exit %s" % rc)
    metrics = report_metrics(runs)
    metrics["peak_rss_mib"] = (max(metrics["peak_rss_mib"][0],
                                   server.rss_mib), "MiB")
    return metrics


def run_untraced(workload, seed, seconds, campaign_seed):
    base = fresh(os.path.join(OUT, workload))
    tally = Tally()
    setup_times, workdir, store, server = repeated_setup(campaign_seed,
                                                         workload, base)
    try:
        reference = store_reference(store, workdir)
        if workload == "serve_mix":
            metrics = serve_measure(seed, seconds, store, server, workdir,
                                    tally, reference)
        else:
            cold = workload == "cold_report"
            cache = os.path.join(workdir, "cache")
            runs = report_loop(
                lambda t, c: [binpath("unp_report"), "--all", "--seed",
                              str(campaign_seed), "--threads", str(t),
                              "--cache-dir", c if cold else cache],
                workdir, reference, seconds, tally, fresh_cache=cold)
            metrics = report_metrics(runs)
    finally:
        if server:
            server.stop()
    metrics["setup_s"] = (median(setup_times), "s")
    shutil.rmtree(base, ignore_errors=True)
    return metrics, tally


def run_traced(workload, seed, seconds, campaign_seed):
    base = fresh(os.path.join(OUT, workload + "_trace"))
    tally = Tally()
    _, store, _ = setup(base, campaign_seed, serve=False)
    reference = store_reference(store, base)
    stream = reqstream.RequestStream(seed)
    rows = phased(stream, "fixed", FIXED_RATE, 0.0, FIXED_PHASES)
    sched = os.path.join(base, "fixed.sched")
    write_schedule(sched, rows)
    report_out = os.path.join(base, "traced_report.out")
    spans_out = os.path.join(OUT, workload + "_spans.json")
    p = subprocess.run(
        [binpath("unp_bench_probe"), "trace", "--workload", workload,
         "--seed", str(campaign_seed), "--threads", str(NPROC),
         "--store", store, "--cache-dir", os.path.join(base, "cache"),
         "--work-dir", base, "--schedule", sched, "--report-out", report_out,
         "--spans-out", spans_out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        env=dict(os.environ, UNP_CACHE_DIR=os.path.join(base, "cache")))
    sys.stderr.write(p.stderr.decode(errors="replace"))
    if p.returncode != 0:
        raise BenchError("traced probe failed (exit %d)" % p.returncode)
    probe = json.loads(p.stdout.decode().strip().splitlines()[-1])
    tally.op(probe["correct"], "traced probe checks failed")
    with open(report_out, "rb") as f:
        tally.op(f.read() == reference,
                 "traced report differs from the untraced report")
    tally.attempted += len(rows)
    metrics = {k: (v[0], v[1]) for k, v in probe["metrics"].items()}
    shutil.rmtree(base, ignore_errors=True)
    return metrics, tally


def emit(metrics, tally, names):
    for name in names:
        value, unit = metrics[name]
        if not math.isfinite(value):  # e.g. every request of a phase failed
            tally.op(False, "%s is not finite" % name)
            metrics[name] = (0.0, unit)
    print("%-36s %16s  %s" % ("metric", "value", "unit"))
    for name in names:
        value, unit = metrics[name]
        shown = ("%.6f" % value).rstrip("0").rstrip(".")
        print("%-36s %16s  %s" % (name, shown, unit))
    print("attempted %d, failed %d" % (tally.attempted, tally.failed))
    for note in tally.notes[:20]:
        print("FAILED: " + note)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names},
    }
    print(json.dumps(result))


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42,
                    help="request-stream seed (serve_mix)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--campaign-seed", type=int, default=CAMPAIGN_SEED,
                    help="campaign simulated, checked and timed")
    a = ap.parse_args()
    try:
        names = metric_names(a.trace == 1)
        build()
        run = run_traced if a.trace else run_untraced
        metrics, tally = run(a.workload, a.seed, a.seconds, a.campaign_seed)
        missing = [n for n in names if n not in metrics]
        if missing:
            raise BenchError("metrics not produced: " + ", ".join(missing))
        emit(metrics, tally, names)
    except (BenchError, OSError, ValueError) as e:
        log("perfbench: " + str(e))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
