#!/usr/bin/env python3
"""Suite-level solve benchmark for LazyMC.

Builds the solver from source (solvebench/CMakeLists.txt, Release only),
materializes the gen:NAME:medium suite offline through lazymc-convert, and
drives the shipped binaries over one workload:

  social-vc   `lazymc --manifest --threads 4` batch over flickr, LiveJournal
              and orkut, loaded from DIMACS text: the k-VC route's heaviest
              instances.
  gene-dense  the same batch over the five dense gene networks, loaded from
              .lmg stores with prebuilt rows: mmap load, row adoption, and
              a degree heuristic that is most of the solve.
  serve-mix   `lazymcd --threads 4` (2 executors) serving the 18 sparse and
              zero-gap graphs, loaded once at set-up; two client
              connections each send a seeded sequence of solves and wait
              for every reply (a closed loop, like lazymc-ctl callers).

usage: python3 solvebench/run.py --workload NAME|all --seed N --seconds S
                                 --trace 0|1

The seed fixes the inputs: the instance order of every batch pass and each
client's request sequence.  The graphs themselves are the suite's fixed
instances, whose omega is recorded in solvebench/expected_omega.tsv and
checked on every solve.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 is a
separate run: an untraced CLI pass (and, for serve-mix, an untraced daemon
loop), then the traced driver lazymc-trace, which runs LazyMC's pipeline
step by step with one span per layer and checks its counts against
mc::lazy_mc at one thread.  Spans are kept under the build directory in
traces/.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary.
Build output goes to stderr.
"""

import argparse
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT,
                         os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BIN = os.path.join(BUILD_DIR, "bin")
TARGETS = ["lazymc", "lazymcd", "lazymc-convert", "lazymc-trace"]

THREADS = 4            # solver threads for every measured solve
CLIENTS = 2            # serve-mix client connections
SETUP_REPEATS = (3, 7)  # set-ups per run, at least / at most; setup_s is
SETUP_BUDGET_S = 2.0     # their median.  Past the least, repeats stop once
                         # set-up has taken this many seconds.
MIN_PASSES = 3         # batch passes per run, however short --seconds is
TRACE_REPS = 3         # untraced/traced rounds per instance in the driver
SOLVE_LIMIT_S = 60     # a solve slower than this counts as failed
PROCESS_LIMIT_S = 120  # a benchmark subprocess slower than this is killed

SUBPROCESS_ENV = dict(os.environ, LAZYMC_SUITE_CACHE="off")

WORKLOADS = {
    "social-vc": {"mode": "batch", "form": "clq"},
    "gene-dense": {"mode": "batch", "form": "lmg"},
    "serve-mix": {"mode": "serve", "form": "lmg"},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "solve_geomean_s": "s",
    "req_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
    "peak_rss_mb": "MB",
}

KERNELS = ["merge", "gallop", "hash", "hash_batched", "bitset_probe",
           "bitset_word", "array_gallop", "run_and"]

PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "cli.overhead_s": "s",
    "mc.degree_heuristic_s": "s",
    "mc.degree_heuristic_cpu_s": "s",
    "mc.coreness_heuristic_s": "s",
    "mc.heuristic_gap": "count",
    "kcore.s": "s",
    "lazygraph.build_s": "s",
    "lazygraph.rows_built": "count",
    "lazygraph.rows_prebuilt": "count",
    "lazygraph.hash_built": "count",
    "lazygraph.row_bytes": "bytes",
    "lazygraph.hash_use_ratio": "ratio",
    "mc.systematic_s": "s",
    "mc.systematic_cpu_s": "s",
    "mc.parallel_eff": "ratio",
    "mc.retired_chunks": "count",
    "intersect.filter_cpu_s": "s",
    **{f"intersect.calls.{k}": "count" for k in KERNELS},
    "intersect.survival": "ratio",
    "vc.cpu_s": "s",
    "vc.nodes": "count",
    "vc.solved": "count",
    "vc.fallback_ratio": "ratio",
    "mc.bb_cpu_s": "s",
    "mc.bb_nodes": "count",
    "mc.bb_solved": "count",
    "daemon.overhead_ms": "ms",
    "daemon.interference": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, build failed, ...)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build ---

def build():
    """Configures (once) and builds the measured binaries; returns the
    driver's build stamp.  Refuses anything but a clean Release build."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"{ROOT} is not a lazymc source checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", "-DLAZYMC_CHECKED=OFF",
                     "-DLAZYMC_FAULTS=OFF", "-DLAZYMC_SANITIZE=",
                     "-DLAZYMC_SIMD="]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            raise BenchError("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", str(THREADS),
                        "--target", *TARGETS], stdout=sys.stderr) != 0:
        raise BenchError("build failed")
    stamp = json.loads(subprocess.check_output(
        [tool("lazymc-trace"), "--build-info"]))
    if stamp["build_type"] != "Release" or not stamp["ndebug"]:
        raise BenchError(f"refusing to measure a non-Release build: {stamp}")
    stamp["nproc"] = len(os.sched_getaffinity(0))
    return stamp


def tool(name):
    return os.path.join(BIN, name)


# ---------------------------------------------------------- processes ---

def run_process(argv, stdout_path, cwd, limit=PROCESS_LIMIT_S):
    """Runs argv to completion; returns (wall seconds, exit code, peak RSS
    in MB).  A process past `limit` seconds is killed."""
    with open(stdout_path, "wb") as out, \
            open(os.path.join(cwd, "stderr.log"), "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd,
                                env=SUBPROCESS_ENV)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def convert(argv, cwd):
    _, code, _ = run_process([tool("lazymc-convert"), *argv],
                             os.path.join(cwd, "convert.log"), cwd)
    if code != 0:
        raise BenchError(f"lazymc-convert {' '.join(argv)} exited {code}")


def read_json_lines(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -------------------------------------------------------------- inputs ---

def load_expected():
    """name -> (omega, workload) from expected_omega.tsv, in file order."""
    expected = {}
    with open(os.path.join(BENCH_DIR, "expected_omega.tsv")) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, omega, workload, _ = line.rstrip("\n").split("\t")
            expected[name] = (int(omega), workload)
    return expected


def materialize(names, form, dest):
    """Writes NAME.clq (and NAME.lmg with rows, for form 'lmg') for every
    instance into dest; returns the file names the workload loads."""
    os.makedirs(dest)
    files = []
    for name in names:
        clq = f"{name}.clq"
        convert([f"gen:{name}:medium", clq, "--emit", "dimacs"], dest)
        if form == "lmg":
            convert([clq, f"{name}.lmg", "--with-rows",
                     "--threads", str(THREADS)], dest)
        files.append(f"{name}.{form}")
    return files


def instance_of(graph_field):
    """'file:flickr.clq' -> 'flickr'."""
    base = graph_field.split(":", 1)[-1]
    return os.path.splitext(os.path.basename(base))[0]


class Tally:
    """Attempted/failed solve counts, with every divergence printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, name, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(f"{name}: {why}")

    def problem(self, message):
        self.problems.append(message)
        print(f"FAIL {message}", flush=True)

    def check_report(self, name, report, expected):
        """One solve report (CLI batch line or daemon reply)."""
        omega = expected[name][0] if name in expected else None
        if "omega" not in report:
            self.check(name, False, f"error {report.get('error_kind')}: "
                                    f"{report.get('error')}")
        elif report["omega"] != omega:
            self.check(name, False, f"omega {report['omega']} != {omega}")
        elif report.get("timed_out") or report.get("interrupted"):
            self.check(name, False, "timed out")
        elif report.get("verification") != "ok":
            self.check(name, False,
                       f"verification {report.get('verification')}")
        else:
            self.check(name, True, "")


# ---------------------------------------------------------------- batch ---

def batch_pass(files, rng, cwd, expected, tally):
    """One `lazymc --manifest` process over the files in a seeded order.
    Returns (wall s, peak RSS MB, [report per instance])."""
    order = list(files)
    rng.shuffle(order)
    with open(os.path.join(cwd, "manifest.txt"), "w") as f:
        f.write("\n".join(order) + "\n")
    out = os.path.join(cwd, "pass.jsonl")
    wall, code, rss = run_process(
        [tool("lazymc"), "--manifest", "manifest.txt", "--threads",
         str(THREADS), "--time-limit", str(SOLVE_LIMIT_S)], out, cwd)
    reports = read_json_lines(out)
    seen = set()
    for report in reports:
        name = instance_of(report.get("graph", ""))
        seen.add(name)
        tally.check_report(name, report, expected)
    for spec in order:
        name = os.path.splitext(spec)[0]
        if name not in seen:
            tally.check(name, False, f"no report (lazymc exited {code})")
    if code != 0:
        tally.problem(f"lazymc batch exited {code}")
    return wall, rss, [r for r in reports if "solve_seconds" in r]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure_batch(files, seed, seconds, cwd, expected, tally):
    rng = random.Random(seed)
    batch_pass(files, rng, cwd, expected, tally)  # warm-up, not timed
    walls, rss, geomeans, latencies = [], [], [], []
    completed = 0
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, peak, reports = batch_pass(files, rng, cwd, expected, tally)
        walls.append(wall)
        rss.append(peak)
        completed += len(reports)
        if reports:
            geomeans.append(geomean([r["solve_seconds"] for r in reports]))
        latencies += [1e3 * (r["load_seconds"] + r["solve_seconds"])
                      for r in reports]
    print(f"# {len(walls)} passes, {len(latencies)} instance solves")
    return {
        "pass_s": statistics.median(walls),
        "solve_geomean_s": statistics.median(geomeans),
        "req_per_s": completed / sum(walls),
        "latency_ms.p50": statistics.median(latencies),
        "latency_ms.p99": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(rss),
    }


def cli_overhead(files, seed, cwd, expected, tally):
    """Untraced CLI pass: wall time minus the reported load and solve."""
    wall, _, reports = batch_pass(files, random.Random(seed), cwd, expected,
                                  tally)
    return wall - sum(r["load_seconds"] + r["solve_seconds"] for r in reports)


# ---------------------------------------------------------------- serve ---

class Daemon:
    """lazymcd on a short relative socket path inside `cwd`."""

    def __init__(self, cwd):
        self.socket_path = os.path.join(os.path.relpath(cwd), "d.sock")
        with open(os.path.join(cwd, "lazymcd.log"), "ab") as err:
            self.proc = subprocess.Popen(
                [tool("lazymcd"), "--socket", "d.sock", "--threads",
                 str(THREADS)], stdout=subprocess.DEVNULL, stderr=err,
                cwd=cwd, env=SUBPROCESS_ENV)
        deadline = time.monotonic() + 30
        while True:
            try:
                self.control = Connection(self.socket_path)
                break
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.kill()
                    raise BenchError("lazymcd did not come up")
                time.sleep(0.005)

    def request(self, obj):
        return self.control.request(obj)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for lazymcd")

    def stop(self):
        """Sends stop and waits for the daemon to exit; True when it exited
        0 on its own."""
        try:
            ack = self.request({"verb": "stop"})
            self.control.close()
            code = self.proc.wait(timeout=30)
            return ack.get("ok") is True and code == 0
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.kill()
            return False

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Connection:
    """One newline-JSON connection to lazymcd.  Requests are sent compact:
    the daemon's parser takes no whitespace around separators."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.sock.settimeout(SOLVE_LIMIT_S)
        self.file = self.sock.makefile("rwb")

    def request(self, obj):
        self.file.write(json.dumps(obj, separators=(",", ":")).encode()
                        + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise OSError("lazymcd closed the connection")
        return json.loads(line)

    def close(self):
        self.file.close()
        self.sock.close()


def start_serving(files, cwd):
    """Daemon up with every graph loaded; the serve-mix set-up."""
    daemon = Daemon(cwd)
    try:
        for spec in files:
            reply = daemon.request({"verb": "load", "graph": spec})
            if not reply.get("ok"):
                raise BenchError(f"lazymcd could not load {spec}: {reply}")
    except BaseException:
        daemon.kill()
        raise
    return daemon


def client_loop(cid, files, seed, deadline, socket_path, samples, passes,
                errors):
    """Closed loop: send a solve, wait for the reply, send the next.  The
    sequence is the file list reshuffled per pass from the seed.  Every
    reply goes to `samples`; each finished pass goes to `passes` as
    (seconds, its replies)."""
    rng = random.Random(f"{seed}:{cid}")
    conn = None
    try:
        conn = Connection(socket_path)
        k = 0
        while time.perf_counter() < deadline:
            order = list(files)
            rng.shuffle(order)
            pass_start = time.perf_counter()
            replies = []
            for spec in order:
                if time.perf_counter() >= deadline:
                    break
                k += 1
                sent = time.perf_counter()
                reply = conn.request({"verb": "solve", "graph": spec,
                                      "id": f"c{cid}-{k}"})
                samples.append((spec, time.perf_counter() - sent, reply))
                replies.append(reply)
            else:
                passes.append((time.perf_counter() - pass_start, replies))
    except (OSError, ValueError) as e:
        errors.append(f"client {cid}: {e}")
    finally:
        if conn:
            conn.close()


def serve_loop(daemon, files, seed, seconds, expected, tally):
    """Runs the two closed-loop clients against a warmed daemon; returns
    (samples, pass times, wall seconds).  Checks every reply and the
    daemon's request accounting."""
    for spec in files:  # warm-up: every graph solved once, not timed
        tally.check_report(os.path.splitext(spec)[0],
                             daemon.request({"verb": "solve", "graph": spec}),
                             expected)
    samples, passes, errors = [], [], []
    start = time.perf_counter()
    threads = [threading.Thread(
        target=client_loop,
        args=(cid, files, seed, start + seconds, daemon.socket_path, samples,
              passes, errors)) for cid in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    for message in errors:
        tally.check("client", False, message)
    for spec, _, reply in samples:
        tally.check_report(os.path.splitext(spec)[0], reply, expected)
    requests = daemon.request({"verb": "status"})["requests"]
    sent = len(files) + len(samples)
    if (requests["admitted"] != requests["completed"] + requests["failed"]
            + requests["shed"] or requests["in_flight"] != 0
            or requests["admitted"] != sent):
        tally.problem(f"daemon accounting off: {requests}, {sent} sent")
    return samples, passes, wall


def measure_serve(daemon, files, seed, seconds, expected, tally):
    samples, passes, wall = serve_loop(daemon, files, seed, seconds,
                                       expected, tally)
    latencies = [1e3 * lat for _, lat, r in samples if "solve_seconds" in r]
    geomeans = [geomean([r["solve_seconds"] for r in replies])
                for _, replies in passes
                if all("solve_seconds" in r for r in replies)]
    print(f"# {len(samples)} requests from {CLIENTS} clients, "
          f"{len(passes)} full passes")
    return {
        "pass_s": statistics.median(t for t, _ in passes),
        "solve_geomean_s": statistics.median(geomeans),
        "req_per_s": len(latencies) / wall,
        "latency_ms.p50": statistics.median(latencies),
        "latency_ms.p99": percentile(latencies, 99),
        "peak_rss_mb": daemon.peak_rss_mb(),
    }


# ---------------------------------------------------------------- trace ---

def run_driver(files, cwd, trace_path, tally, expected):
    """lazymc-trace over the files; returns (per-instance records, spans)."""
    out = os.path.join(cwd, "driver.jsonl")
    _, code, _ = run_process(
        [tool("lazymc-trace"), "--threads", str(THREADS), "--reps",
         str(TRACE_REPS), "--trace-out", trace_path, *files], out, cwd)
    records = read_json_lines(out)
    for rec in records:
        name = instance_of(rec["graph"])
        omega = expected[name][0]
        why = (f"guard mismatch: {'; '.join(rec['mismatches'])}"
               if rec["mismatches"] else
               "driver solve not verified" if not rec["verified"] else
               f"omega {rec['omega']} != {omega}")
        tally.check(name, not rec["mismatches"] and rec["verified"]
                    and rec["omega"] == omega, why)
    if code != 0 or len(records) != len(files):
        tally.problem(f"lazymc-trace exited {code} after "
                      f"{len(records)}/{len(files)} instances")
    if not records or not os.path.isfile(trace_path):
        raise BenchError(f"lazymc-trace exited {code} without a trace")
    return records, read_json_lines(trace_path)


def span_totals(spans):
    """name -> (wall s, cpu s) over the timed rounds: the median round per
    instance, summed over instances.  Loads happen once per instance."""
    per = {}
    for s in spans:
        if s["pass"] not in ("timed", "load"):
            continue
        key = (s["name"], s["instance"])
        per.setdefault(key, []).append((s["end_s"] - s["start_s"], s["cpu_s"]))
    totals = {}
    for (name, _), rounds in per.items():
        wall, cpu = totals.get(name, (0.0, 0.0))
        totals[name] = (wall + statistics.median(r[0] for r in rounds),
                        cpu + statistics.median(r[1] for r in rounds))
    return totals


def solo_solve_seconds(spans):
    """instance id -> median traced solve wall over the timed rounds."""
    per = {}
    for s in spans:
        if s["pass"] == "timed" and s["name"] == "solve":
            per.setdefault(s["instance"], []).append(s["end_s"] - s["start_s"])
    return {i: statistics.median(v) for i, v in per.items()}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records, spans, cli_s, serve=None):
    totals = span_totals(spans)
    counts = {k: sum(r["counts"][k] for r in records)
              for k in records[0]["counts"]}

    def timed(key):
        return sum(statistics.median(r["timed"][key]) for r in records)

    systematic_s, systematic_cpu = totals.get("mc.systematic", (0.0, 0.0))
    m = {
        "graph.load_s": totals.get("graph.load", (0.0, 0.0))[0],
        "cli.overhead_s": cli_s,
        "mc.degree_heuristic_s": totals["mc.degree_heuristic"][0],
        "mc.degree_heuristic_cpu_s": totals["mc.degree_heuristic"][1],
        "mc.coreness_heuristic_s": totals["mc.coreness_heuristic"][0],
        "mc.heuristic_gap": counts["omega"] - counts["heuristic_degree_omega"],
        "kcore.s": totals["kcore"][0],
        "lazygraph.build_s": totals["lazygraph.build"][0],
        "lazygraph.rows_built": counts["bitset_built"],
        "lazygraph.rows_prebuilt": counts["rows_prebuilt"],
        "lazygraph.hash_built": counts["hash_built"],
        "lazygraph.row_bytes": counts["bitset_bytes"],
        "lazygraph.hash_use_ratio": ratio(
            counts["kernel_hash"] + counts["kernel_hash_batched"],
            counts["hash_built"]),
        "mc.systematic_s": systematic_s,
        "mc.systematic_cpu_s": systematic_cpu,
        "mc.parallel_eff": ratio(systematic_cpu, systematic_s * THREADS),
        "mc.retired_chunks": timed("retired_chunks"),
        "intersect.filter_cpu_s": timed("filter_s"),
        **{f"intersect.calls.{k}": counts[f"kernel_{k}"] for k in KERNELS},
        "intersect.survival": ratio(counts["pass_filter3"],
                                    counts["evaluated"]),
        "vc.cpu_s": timed("vc_s"),
        "vc.nodes": counts["vc_nodes"],
        "vc.solved": counts["solved_vc"],
        "vc.fallback_ratio": ratio(
            counts["vc_fallbacks"],
            counts["solved_vc"] + counts["vc_fallbacks"]),
        "mc.bb_cpu_s": timed("mc_s"),
        "mc.bb_nodes": counts["mc_nodes"],
        "mc.bb_solved": counts["solved_mc"],
        # Only serve-mix runs the daemon; the batch workloads report 0.
        "daemon.overhead_ms": 0.0,
        "daemon.interference": 0.0,
        "trace.overhead_s": sum(
            statistics.median(r["timed"]["traced_s"])
            - statistics.median(r["timed"]["untraced_s"]) for r in records),
    }
    if serve:
        samples, files = serve
        solo = solo_solve_seconds(spans)
        index = {spec: i for i, spec in enumerate(files)}
        done = [(spec, lat, r) for spec, lat, r in samples
                if "solve_seconds" in r]
        m["daemon.overhead_ms"] = statistics.median(
            1e3 * (lat - r["solve_seconds"]) for _, lat, r in done)
        m["daemon.interference"] = ratio(
            sum(r["solve_seconds"] for _, _, r in done),
            sum(solo[index[spec]] for spec, _, _ in done))
    return m


# ------------------------------------------------------------- workload ---

def run_workload(name, seed, seconds, trace, workdir):
    spec = WORKLOADS[name]
    expected = load_expected()
    names = [n for n, (_, w) in expected.items() if w == name]
    serve = spec["mode"] == "serve"
    tally = Tally()

    # Set-up: corpus materialization (+ daemon start and graph loads for
    # serve-mix), repeated; the last repeat's inputs are the ones measured.
    setup_times = []
    daemon = None
    least, most = (1, 1) if trace else SETUP_REPEATS
    try:
        while len(setup_times) < least or (
                len(setup_times) < most and sum(setup_times) < SETUP_BUDGET_S):
            i = len(setup_times)
            if daemon:
                if not daemon.stop():
                    tally.problem("set-up lazymcd did not stop cleanly")
            cwd = os.path.join(workdir, f"s{i}")
            start = time.perf_counter()
            files = materialize(names, spec["form"], cwd)
            if serve:
                daemon = start_serving(files, cwd)
            setup_times.append(time.perf_counter() - start)

        if not trace:
            if serve:
                metrics = measure_serve(daemon, files, seed, seconds,
                                        expected, tally)
            else:
                metrics = measure_batch(files, seed, seconds, cwd, expected,
                                        tally)
            metrics["setup_s"] = statistics.median(setup_times)
            units = END_TO_END_UNITS
        else:
            serve_data = None
            if serve:
                samples, _, _ = serve_loop(daemon, files, seed, seconds,
                                           expected, tally)
                serve_data = (samples, files)
            if daemon:
                if not daemon.stop():
                    tally.problem("lazymcd did not stop cleanly")
                daemon = None
            cli_s = cli_overhead(files, seed, cwd, expected, tally)
            os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
            trace_path = os.path.join(BUILD_DIR, "traces",
                                      f"{name}-seed{seed}.jsonl")
            records, spans = run_driver(files, cwd, trace_path, tally,
                                        expected)
            metrics = layer_metrics(records, spans, cli_s, serve_data)
            print(f"# spans: {os.path.relpath(trace_path, ROOT)} "
                  f"({len(spans)} spans)")
            units = PER_LAYER_UNITS
    finally:
        if daemon:
            if not daemon.stop():
                tally.problem("lazymcd did not stop cleanly")
    return {k: metrics[k] for k in units}, units, tally


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    os.chdir(ROOT)  # keeps the daemon's relative socket path short

    try:
        stamp = build()
    except BenchError as e:
        log(f"solvebench: {e}")
        return 2
    print(f"# build {stamp['build_type']}, simd tier {stamp['simd_tier']}, "
          f"nproc {stamp['nproc']}, {THREADS} solver threads, "
          f"trace {args.trace}, seed {args.seed}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, problems = {}, 0, 0, []
    for name in names:
        workdir = os.path.join(BUILD_DIR, "runs", f"{name}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            values, units, tally = run_workload(
                name, args.seed, args.seconds, args.trace, workdir)
        except BenchError as e:
            log(f"solvebench: {name}: {e}")
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted += tally.attempted
        failed += tally.failed
        problems += tally.problems
        print(f"# {name}: fail_ratio {ratio(tally.failed, tally.attempted)} "
              f"({tally.failed}/{tally.attempted} solves)")
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, value in values.items():
            print(f"{name:11s} {key:28s} {value!r:>24} {units[key]}")
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
