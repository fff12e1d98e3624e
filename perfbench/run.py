#!/usr/bin/env python3
"""The fepia layered benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds fepia_cli and perfbench_layers (Release) from the checkout's
sources on first use, generates the workload's inputs from --seed, runs
the workload for about --seconds seconds, checks every output, and
prints the result as one JSON object on the last line of stdout (one
block per workload with --workload all). It exits 1 when an output
check failed, after printing the result. With
--trace 0 it reports the end-to-end metrics of the unmodified program;
with --trace 1 the per-layer breakdown from a separate traced pass.
See README.md for the workloads, the metrics and the layer map.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing next to the sources

import checks  # noqa: E402
import gen  # noqa: E402
import serve  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(BUILD, "fepia_tools", "fepia_cli")
LAYERS = os.path.join(BUILD, "perfbench_layers")
THREADS = min(4, os.cpu_count() or 1)
CONNECTIONS = 4
# fepiad: request workers plus compute-pool threads, at most 4 together
# on a 4-core host so the generator keeps a core.
SERVE_WORKERS = max(1, THREADS // 2)
SERVE_THREADS = max(1, THREADS // 2)
# Set-up probes per run, half before and half after the measured
# section, so they sample the host at both ends of the run.
SETUP_REPS = 31
# serve-mix: a rung meets the limit when its tail latency stays under
# this and its backlog does not grow.
LATENCY_LIMIT_MS = 50.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("io.load_s", "s"), ("registry.solve_s", "s"), ("registry.calls", "count"),
    ("validate.estimate_s", "s"), ("validate.chunk_phase_s", "s"),
    ("validate.polish_s", "s"), ("validate.tail_s", "s"),
    ("validate.classifications", "count"),
    ("validate.polish_classifications", "count"),
    ("classify.busy_s", "s"), ("classify.calls", "count"),
    ("classify.lanes_per_call", "count"),
    ("parallel.chunk_efficiency", "ratio"), ("parallel.speedup_4v1", "x"),
    ("fault.estimate_s", "s"), ("des.runs", "count"), ("des.run_ms", "ms"),
    ("des.runs_x_run_ms_s", "s"),
    ("sweep.shard_p50_s", "s"), ("sweep.shard_max_s", "s"),
    ("sweep.cache_hit_ratio", "ratio"), ("sweep.pcache_hit_ratio", "ratio"),
    ("sweep.journal_bytes", "bytes"), ("sweep.pcache_bytes", "bytes"),
    ("server.ping_rtt_ms", "ms"), ("server.queue_wait_ms", "ms"),
    ("server.rejected", "count"), ("session_cache.problem_hit_ratio", "ratio"),
    ("bench.gen_lag_ms", "ms"), ("bench.trace_overhead", "x"),
    ("bench.unattributed_frac", "ratio"),
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot run at all (no sources, build failure,
    harness crash): exit non-zero without a result line."""


# ---------------------------------------------------------------------
# Build and environment.

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("no fepia sources next to perfbench/ (expected ../src)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise Failure("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "fepia_cli",
           "perfbench_layers", "-j", str(THREADS)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise Failure("build failed")


def environment():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or sha
    return {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg()[0],
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"), "compiler": version,
            "git_sha": sha, "threads": THREADS, "connections": CONNECTIONS}


# ---------------------------------------------------------------------
# Helpers.

def run_program(argv, cwd, tag="run"):
    """One program invocation with stdout/stderr in files under `cwd`.
    Returns (wall s, exit code, stdout, stderr, peak RSS MB)."""
    out_path = os.path.join(cwd, tag + ".stdout")
    err_path = os.path.join(cwd, tag + ".stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


class TraceError(Exception):
    """The traced pass could not read what it needs (perfbench_layers
    failed, e.g. a timed radius differed from the module's own; a
    counter is missing): counted as a failed check, not a crash."""


def harness(args, cwd):
    proc = subprocess.run([LAYERS] + args, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise TraceError("perfbench_layers %s: %s" % (args[0], proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs)


def percentile(xs, p):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(round(p / 100.0 * (len(xs) - 1))))]


def upper_quartile(xs):
    return statistics.quantiles(xs, n=4)[2] if len(xs) > 1 else xs[0]


def tail_percentile(xs):
    """The highest of p99.9 ... p90 with at least ten samples beyond it,
    else the maximum. Returns (value, label)."""
    for p in (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return percentile(xs, p), "p%g" % p
    return max(xs), "max"


def measure_loop(seconds, once, unit=1):
    """Calls once(i) in whole units of `unit` calls until another unit
    would overrun `seconds` (at least one unit). Returns the results."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for _ in range(unit):
            results.append(once(len(results)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return results


def metrics_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("metrics: "):
            return json.loads(line[len("metrics: "):])
    raise TraceError("no --metrics line in the program output")


def same_radii(traced, untraced):
    return len(traced) == len(untraced) and all(
        a == b for a, b in zip(traced, untraced))


def fault_layers(inp, work):
    """The fault and des layers under the first of gen.fault_sim's plans:
    perfbench_layers times fault::estimateDegradedRadius, wraps its DES
    predicate and times one nominal DES run. Returns (harness output,
    layer metrics)."""
    h = harness(["fault", "--system", inp["system"], "--samples",
                 str(inp["samples"]), "--seed", str(inp["seed"]),
                 "--gens", str(inp["gens"]), "--threads", str(THREADS)]
                + inp["plans"][0], work)
    return h, {
        "fault.estimate_s": h["fault.estimate_s"],
        "des.runs": h["des.runs"],
        "des.run_ms": h["des.run_ms"],
        # Computed, not measured: DES runs times one nominal run.
        "des.runs_x_run_ms_s": h["des.runs"] * h["des.run_ms"] / 1e3,
    }


def phase_metrics(h, parallel):
    """Per-layer values from the estimator wrapper (see layers.cpp)."""
    m = {k: h[k] for k in ("io.load_s", "registry.solve_s",
                           "validate.estimate_s", "validate.chunk_phase_s",
                           "validate.polish_s", "validate.tail_s",
                           "validate.classifications",
                           "validate.polish_classifications",
                           "classify.busy_s", "classify.calls")}
    m["classify.lanes_per_call"] = h["classify.lanes"] / max(1, h["classify.calls"])
    if parallel:
        m["parallel.chunk_efficiency"] = h["chunk_busy_s"] / (
            h["threads"] * max(1e-12, h["validate.chunk_phase_s"]))
    m["bench.trace_overhead"] = h["traced_s"] / h["untraced_s"]
    m["bench.unattributed_frac"] = max(0.0, 1.0 - h["covered_s"] / h["wall_s"])
    return m


# ---------------------------------------------------------------------
# Workloads. Each one generates its inputs in __init__ and implements
# end_to_end(seconds) -> (metrics, notes) and traced() -> (per-layer
# metrics, notes), counting attempted and failed operations.

class Workload:
    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.selftest_failures = []

    def record(self, errs):
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs[:5])

    def selftest(self, kind, real):
        self.selftest_failures.extend(checks.selftest(kind, real))


class OneShot(Workload):
    """A workload that runs fepia_cli once per unit of work."""

    unit = 1  # invocations that together cover the workload's inputs

    def setup(self, reps):
        """Walls of `reps` minimum-work invocations on the same inputs:
        process start, input parse, pool start and a token of work."""
        walls = []
        for i in range(reps):
            wall, code, _, err, _ = run_program(self.setup_argv(i), self.work, "setup")
            # A minimum-work probe may end in exit 2 (too few directions
            # to bracket the analytic radius); an error or a crash fails.
            if code not in (0, 2):
                self.record(["setup probe exit %d: %s" % (code, err.strip()[-200:])])
            walls.append(wall)
        return walls

    def invoke(self, tag, i=0, extra=()):
        wall, code, out, err, rss = run_program(self.argv(tag, i) + list(extra),
                                                self.work, tag)
        errs = self.check(tag, code)
        if errs and err.strip():
            errs.append(err.strip().splitlines()[-1])
        self.record(errs)
        return wall, rss, out

    def end_to_end(self, seconds):
        setups = self.setup(SETUP_REPS // 2)
        runs = measure_loop(seconds, lambda i: self.invoke("r%d" % i, i), self.unit)
        setups += self.setup(SETUP_REPS - SETUP_REPS // 2)
        walls = [w for w, _, _ in runs]
        self.selftest(self.name, self.last)
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "latency_p50_ms": median(walls) * 1e3,
            # A one-shot request is one invocation: too few of them for
            # a percentile with ten samples beyond it, so the tail is the
            # upper quartile of the invocation walls.
            "latency_tail_ms": upper_quartile(walls) * 1e3,
            "peak_rss_mb": max(r for _, r, _ in runs),
        }
        work, unit = self.unit_of_work()
        notes = {"invocations": len(walls),
                 "latency_tail": "upper quartile of %d" % len(walls),
                 unit: work / metrics["wall_s"]}
        return metrics, notes


class ValidateHiperd(OneShot):
    name = "validate-hiperd"

    def __init__(self, seed, work, seconds):
        super().__init__(work)
        self.inp = gen.validate_hiperd(seed, work, LAYERS)
        # fault-sim is not among the benchmark's workloads (README.md):
        # its fault and des layers are timed in this workload's traced
        # pass, on the same reference system.
        self.fault = gen.fault_sim(seed, work, LAYERS)

    def common(self):
        return ["--hiperd", self.inp["system"], "--seed", str(self.inp["seed"])]

    def setup_argv(self, i):
        return [CLI, "validate"] + self.common() + [
            "--samples", "64", "--threads", str(THREADS)]

    def argv(self, tag, i=0, threads=THREADS):
        return [CLI, "validate"] + self.common() + [
            "--samples", str(self.inp["samples"]), "--threads", str(threads),
            "--json", tag + ".json"]

    def inputs(self):
        return [self.argv("run")]

    def check(self, tag, code):
        self.last = (code, checks.load_json(os.path.join(self.work, tag + ".json")))
        return checks.check_validate(*self.last)

    def unit_of_work(self):
        # Every report row samples its own directions.
        rows = len(self.last[1]["rows"]) - 1 if self.last[1] else 0
        return self.inp["samples"] * rows, "directions_per_s"

    def traced(self):
        wall_n, _, out = self.invoke("tn", 0, ["--metrics"])
        ref = self.last[1]
        wall_1, code_1, _, _, _ = run_program(self.argv("t1", threads=1),
                                              self.work, "t1")
        self.record(checks.check_validate(
            code_1, checks.load_json(os.path.join(self.work, "t1.json"))))
        h = harness(["validate", "--system", self.inp["system"], "--samples",
                     str(self.inp["samples"]), "--seed", str(self.inp["seed"]),
                     "--threads", str(THREADS)], self.work)
        rows = ref["rows"] if ref else []
        # Harness order: per-feature rows then the joint region; the
        # report has the rho row between them.
        untraced = [r["empirical"] for r in rows[:-2]] + [r["empirical"] for r in rows[-1:]]
        self.record([] if same_radii(h["radii"], untraced)
                    else ["validate-hiperd: traced radii differ from the untraced run"])
        layers = phase_metrics(h, parallel=True)
        layers["registry.calls"] = metrics_line(out)["counters"]["registry.solves"]
        layers["parallel.speedup_4v1"] = wall_1 / wall_n
        layers.update(fault_layers(self.fault, self.work)[1])
        return layers, {"threads_for_speedup": [1, THREADS],
                        "fault plan": " ".join(self.fault["plans"][0])}


class SweepGrid(OneShot):
    name = "sweep-grid"

    def __init__(self, seed, work, seconds):
        super().__init__(work)
        self.inp = gen.sweep_grid(seed, work)

    def fresh(self, tag):
        for suffix in (".journal", ".pcache", ".json"):
            path = os.path.join(self.work, tag + suffix)
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)

    def setup_argv(self, i):
        # Shards of one point, stopped after the first (the smallest
        # point of the grid).
        self.fresh("setup")
        return [CLI, "sweep", self.inp["spec"], "--threads", str(THREADS),
                "--chunk", "1", "--stop-after", "1", "--journal", "setup.journal",
                "--cache-dir", "setup.pcache"]

    def argv(self, tag, i=0):
        # A cold journal and on-disk cache every time.
        self.fresh(tag)
        return [CLI, "sweep", self.inp["spec"], "--threads", str(THREADS),
                "--journal", tag + ".journal", "--cache-dir", tag + ".pcache",
                "--json", tag + ".json"]

    def inputs(self):
        return [self.argv("run")]

    def check(self, tag, code):
        try:
            with open(os.path.join(self.work, tag + ".journal")) as f:
                journal = f.read()
        except OSError:
            journal = ""
        self.last = (code, checks.load_json(os.path.join(self.work, tag + ".json")),
                     journal, self.inp["points"])
        return checks.check_sweep(*self.last)

    def unit_of_work(self):
        return self.inp["points"], "points_per_s"

    def traced(self):
        # The engine's own per-shard heartbeats and counters, read from
        # the --telemetry stream and --metrics dump of one run.
        _, _, out = self.invoke("tt", 0, ["--telemetry", "tt.jsonl", "--metrics"])
        ref = self.last[1]
        journal_bytes = os.path.getsize(os.path.join(self.work, "tt.journal"))
        pdir = os.path.join(self.work, "tt.pcache")
        pcache_bytes = sum(os.path.getsize(os.path.join(pdir, f))
                           for f in os.listdir(pdir))
        shard_s = []
        with open(os.path.join(self.work, "tt.jsonl")) as f:
            for line in f:
                event = json.loads(line)
                if event.get("type") == "heartbeat":
                    shard_s.append(event["shard_seconds"])
        c = metrics_line(out)["counters"]
        h = harness(["sweep", "--spec", self.inp["spec"], "--threads",
                     str(THREADS)], self.work)
        untraced = [r["empirical_radius"] for r in ref["results"]] if ref else []
        self.record([] if same_radii(h["radii"], untraced)
                    else ["sweep-grid: traced radii differ from the untraced run"])
        layers = phase_metrics(h, parallel=False)
        hits, misses = c["sweep.cache_hits"], c["sweep.cache_misses"]
        phits, pmisses = c["sweep.persistent_hits"], c["sweep.persistent_misses"]
        layers.update({
            # The engine dispatches through the registry with metrics off,
            # so it exports no registry.solves: one analytic solve per
            # computed point plus one empirical solve per on-disk miss.
            "registry.calls": c["sweep.points_computed"] + pmisses,
            "sweep.shard_p50_s": median(shard_s),
            "sweep.shard_max_s": max(shard_s),
            "sweep.cache_hit_ratio": hits / max(1, hits + misses),
            "sweep.pcache_hit_ratio": phits / max(1, phits + pmisses),
            "sweep.journal_bytes": journal_bytes,
            "sweep.pcache_bytes": pcache_bytes,
        })
        return layers, {"shards": len(shard_s),
                        "registry.calls": "sweep.points_computed + sweep.persistent_misses"}


class FaultSim(OneShot):
    name = "fault-sim"
    unit = gen.FAULT_PLANS

    def __init__(self, seed, work, seconds):
        super().__init__(work)
        self.inp = gen.fault_sim(seed, work, LAYERS)

    def setup_argv(self, i):
        # One direction of one-generation simulations after the nominal
        # run: process start, system parse, plan validation, pool start.
        return [CLI, "fault-sim", "--hiperd", self.inp["system"]] + self.plan(i) + [
            "--samples", "1", "--gens", "1", "--threads", str(THREADS)]

    def plan(self, i):
        return self.inp["plans"][i % len(self.inp["plans"])]

    def argv(self, tag, i=0):
        # Invocation i runs plan i mod FAULT_PLANS; whole units of
        # FAULT_PLANS invocations are measured.
        return [CLI, "fault-sim", "--hiperd", self.inp["system"]] + self.plan(i) + [
            "--samples", str(self.inp["samples"]), "--gens", str(self.inp["gens"]),
            "--seed", str(self.inp["seed"]), "--threads", str(THREADS),
            "--json", tag + ".json"]

    def inputs(self):
        return [self.argv("run", i) for i in range(len(self.inp["plans"]))]

    def check(self, tag, code):
        self.last = (code, checks.load_json(os.path.join(self.work, tag + ".json")))
        return checks.check_fault(*self.last)

    def unit_of_work(self):
        return self.inp["samples"], "directions_per_s"

    def traced(self):
        _, _, out = self.invoke("tt", 0, ["--metrics"])
        ref = self.last[1]
        h, fault = fault_layers(self.inp, self.work)
        untraced = [ref["degraded"]["radius"]] if ref else []
        self.record([] if same_radii(h["radii"], untraced)
                    else ["fault-sim: traced radius differs from the untraced run"])
        layers = phase_metrics(h, parallel=True)
        layers.update(fault)
        layers["registry.calls"] = metrics_line(out)["counters"]["registry.solves"]
        return layers, {"plan": " ".join(self.plan(0))}


class ServeMix(Workload):
    """fepiad under an open-loop request schedule (see gen.serve_mix):
    `passes` repetitions of a rate ladder plus a saturating burst. Each
    end-to-end figure is the median over the passes, so a few seconds of
    host noise move it less than one pass."""
    name = "serve-mix"

    def __init__(self, seed, work, seconds):
        super().__init__(work)
        passes = max(2, int((seconds - gen.SERVE_WARMUP_SECONDS) // gen.SERVE_PASS_SECONDS))
        self.inp = gen.serve_mix(seed, work, passes)
        self.requests = self.inp["requests"]
        self.schedule = self.inp["schedule"]
        self.rungs = len(self.inp["rates"])

    def inputs(self):
        return [[q["kind"]] + q["args"] for q in self.requests]

    def launch(self):
        return serve.Daemon(CLI, workers=SERVE_WORKERS, threads=SERVE_THREADS,
                            cwd=self.work)

    def one_pass(self, daemon, poll_stats=False):
        """Runs the whole schedule once; returns per-request records."""
        sched = [(due, i) for i, (due, _, _) in enumerate(self.schedule)]
        if not poll_stats:
            return serve.open_loop(daemon.port, sched, self.requests, CONNECTIONS)
        # The traced pass also reads fepiad's counters every 100 ms on its
        # own connection while the schedule runs.
        stop = threading.Event()

        def poll():
            c = serve.Conn(daemon.port)
            while not stop.wait(0.1):
                c.call({"id": "stats", "kind": "stats"})
            c.close()
        poller = threading.Thread(target=poll)
        poller.start()
        try:
            return serve.open_loop(daemon.port, sched, self.requests, CONNECTIONS)
        finally:
            stop.set()
            poller.join()

    def verify(self, records):
        """Every reply ok with exit 0 and, once per distinct request, the
        one-shot CLI's bytes for the same arguments."""
        keys = [json.dumps(self.requests[rec["req"]]) for rec in records]
        first = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)

        def cli(key):
            q = json.loads(key)
            argv = [CLI] + ([] if q["kind"] == "radius" else [q["kind"]]) + q["args"]
            p = subprocess.run(argv, cwd=self.work, capture_output=True, text=True)
            return key, p.returncode, p.stdout

        with ThreadPoolExecutor(THREADS) as pool:
            oneshot = {k: (code, out) for k, code, out in pool.map(cli, first)}
        for i, (rec, key) in enumerate(zip(records, keys)):
            code, out = oneshot[key]
            errs = [] if code == 0 else ["one-shot CLI exit %d for %s" % (code, key)]
            errs += checks.check_reply(rec.get("reply"), 0,
                                       out if first[key] == i else None)
            self.record(errs)
        kinds = [self.requests[rec["req"]]["kind"] for rec in records]
        radius = records[kinds.index("radius")]
        valid = records[kinds.index("validate")]
        self.selftest("serve-mix", (
            radius["reply"], oneshot[keys[kinds.index("radius")]][1],
            valid["reply"], oneshot[keys[kinds.index("validate")]][1]))

    def group(self, records, p, rung):
        return [(r["done"] - r["due"]) * 1e3 for r in records
                if self.schedule[r["req"]][1] == p and self.schedule[r["req"]][2] == rung]

    def summarize(self, records):
        passes = self.inp["passes"]
        rates = self.inp["rates"]
        # A rung meets the limit in a pass when its tail stays under it
        # and its backlog does not grow (late quarter no slower than twice
        # the early one, plus a millisecond).
        meets = [0] * self.rungs
        p50s = [[] for _ in rates]
        tails = [[] for _ in rates]
        drains, labels = [], set()
        for p in range(passes):
            for k in range(self.rungs):
                rl = self.group(records, p, k)
                tail, label = tail_percentile(rl)
                p50s[k].append(median(rl))
                tails[k].append(tail)
                labels.add("%s of %d" % (label, len(rl)))
                q = max(1, len(rl) // 4)
                if tail <= LATENCY_LIMIT_MS and median(rl[-q:]) <= 2.0 * median(rl[:q]) + 1.0:
                    meets[k] += 1
            # The burst's drain: SERVE_BURST requests due at once, from
            # their due time to the last reply.
            burst = [r for r in records if self.schedule[r["req"]][1:] == (p, self.rungs)]
            drains.append(max(r["done"] for r in burst) - burst[0]["due"])
        max_rate = max([0] + [rate for k, rate in enumerate(rates) if meets[k] * 2 > passes])
        # Per rung, the median over passes of each pass's p50 and tail, so
        # a stall of the host in one pass does not set them. The gated
        # figures are those of the lowest rung, where the server is far
        # from saturation; the loaded rungs queue and vary several-fold
        # from run to run on a shared host, so they are reported, not gated.
        drain = median(drains)
        return {"latency_p50_ms": median(p50s[0]), "latency_tail_ms": median(tails[0]),
                "wall_s": drain}, {
            "passes": passes,
            "latency": "lowest rung (%d req/s); tail per pass: %s" % (
                rates[0], ", ".join(sorted(labels))),
            "rung_p50_ms": {r: round(median(x), 3) for r, x in zip(rates, p50s)},
            "rung_tail_ms": {r: round(median(x), 3) for r, x in zip(rates, tails)},
            "wall_s": "median burst drain of %d requests" % gen.SERVE_BURST,
            "req_per_s": gen.SERVE_BURST / drain, "max_rate_rps": max_rate,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "fepiad": "%d workers, %d pool threads" % (SERVE_WORKERS, SERVE_THREADS)}

    def setup(self, reps):
        """Launch → first answered ping of `reps` fresh fepiads."""
        setups = []
        for _ in range(reps):
            d = self.launch()
            try:
                setups.append(d.first_ping())
            finally:
                d.shutdown()
        return setups

    def end_to_end(self, seconds):
        # The measured fepiad's own launch is one of the SETUP_REPS.
        setups = self.setup(SETUP_REPS // 2)
        daemon = self.launch()
        try:
            setups.append(daemon.first_ping())
            records = self.one_pass(daemon)
            rss = daemon.peak_rss_mb()
        finally:
            daemon.shutdown()
        setups += self.setup(SETUP_REPS - SETUP_REPS // 2 - 1)
        self.verify(records)
        metrics, notes = self.summarize(records)
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = rss
        return metrics, notes

    def traced(self):
        daemon = self.launch()
        try:
            daemon.first_ping()
            plain = self.one_pass(daemon)
            # Read right after the schedule, before anything else asks.
            stats = json.loads(daemon.stats()["json"])
            rtts = serve.ping_rtts(daemon.port, 200)
        finally:
            daemon.shutdown()
        # The polled schedule runs on a fresh daemon, so both start with a
        # cold SessionCache and see the same parse misses.
        daemon = self.launch()
        try:
            daemon.first_ping()
            polled = self.one_pass(daemon, poll_stats=True)
        finally:
            daemon.shutdown()
        self.verify(plain)
        self.verify(polled)
        # In-process time of every distinct request through the server's
        # own query runners; queue wait is latency minus that.
        distinct = sorted({json.dumps([q["kind"]] + q["args"]) for q in self.requests})
        with open(os.path.join(self.work, "distinct.tsv"), "w") as f:
            for key in distinct:
                f.write("\t".join(json.loads(key)) + "\n")
        h = harness(["queries", "--list", "distinct.tsv", "--threads",
                     str(SERVE_THREADS), "--reps", "3"], self.work)
        inproc = dict(zip(distinct, h["inproc_s"]))
        waits = []
        for r in plain:
            if self.schedule[r["req"]][1] >= 0 and self.schedule[r["req"]][2] < self.rungs:
                q = self.requests[r["req"]]
                key = json.dumps([q["kind"]] + q["args"])
                waits.append((r["done"] - r["due"] - inproc[key]) * 1e3)
        # The gated latency: the lowest rung.
        lowest = lambda recs: median([median(self.group(recs, p, 0))
                                      for p in range(self.inp["passes"])])
        hits = stats["cache"]["problem_hits"]
        misses = stats["cache"]["problem_misses"]
        rejected = {"overloaded": stats["overloaded"],
                    "deadline": stats["deadline_expired"],
                    "other": stats["errors"] - stats["overloaded"] - stats["deadline_expired"]}
        layers = {
            "io.load_s": h["io.load_s"],
            "registry.solve_s": h["registry.solve_s"],
            # fepiad keeps no aggregate registry counters: the harness's
            # own count of the solves it timed.
            "registry.calls": h["registry.calls"],
            "server.ping_rtt_ms": median(rtts) * 1e3,
            "server.queue_wait_ms": median(waits),
            "server.rejected": stats["errors"],
            "session_cache.problem_hit_ratio": hits / max(1, hits + misses),
            "bench.gen_lag_ms": median([
                percentile([(r["sent"] - r["due"]) * 1e3 for r in plain
                            if self.schedule[r["req"]][1] == p
                            and self.schedule[r["req"]][2] < self.rungs], 99)
                for p in range(self.inp["passes"])]),
            "bench.trace_overhead": lowest(polled) / lowest(plain),
            "bench.unattributed_frac": max(0.0, 1.0 - h["covered_s"] / h["wall_s"]),
        }
        return layers, {"rejected_by_type": rejected, "bench.gen_lag": "median over passes of p99 over ladder requests",
                        "server.queue_wait": "median over ladder requests",
                        "io.load_s, registry.solve_s": "per call",
                        "registry.calls": "harness count: 2 schemes x distinct radius problems"}


WORKLOADS = {"validate-hiperd": ValidateHiperd, "sweep-grid": SweepGrid,
             "fault-sim": FaultSim, "serve-mix": ServeMix}


def run_one(name, args, env):
    """Runs one workload and prints its result block; returns whether
    every check passed."""
    work = os.path.join(WORK, "%s-%d-%d" % (name, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[name](args.seed, work, args.seconds)
    # The program's path is left out: it names the checkout.
    inputs_hash = gen.inputs_hash(
        work, [a[1:] if a[0] == CLI else a for a in wl.inputs()])
    if args.trace:
        try:
            values, notes = wl.traced()
        except (TraceError, OSError, KeyError, ValueError) as e:
            wl.record(["traced pass: %s" % e])
            values, notes = {}, {}
        spec = PER_LAYER
    else:
        values, notes = wl.end_to_end(args.seconds)
        spec = END_TO_END
    notes["failed_frac"] = wl.failed / max(1, wl.attempted)

    # Layers that do no work on this workload report 0 (see README.md).
    metrics = {m: {"value": float(values.get(m, 0.0)), "unit": unit}
               for m, unit in spec}
    correct = wl.failed == 0 and not wl.selftest_failures
    for e in wl.errors + wl.selftest_failures:
        log("CHECK FAILED:", e)
    print("workload %s seed %d trace %d: %s" % (
        name, args.seed, args.trace, "correct" if correct else "INCORRECT"))
    print("environment: " + json.dumps(env))
    print("inputs_hash: " + inputs_hash)
    for m, v in metrics.items():
        print("  %-34s %14.6g %s" % (m, v["value"], v["unit"]))
    for m, value in notes.items():
        print("  %-34s %s" % (m, value))
    print(json.dumps({"correct": correct, "attempted": max(1, wl.attempted),
                      "failed": wl.failed, "metrics": metrics}), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(name, args, env) for name in names]
    # A failed output check still prints its result, then fails the run.
    return 0 if all(results) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        log("perfbench: %s" % e)
        sys.exit(2)
