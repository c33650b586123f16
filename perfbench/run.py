#!/usr/bin/env python3
"""perfbench: the cold end-to-end benchmark of anonet, with per-layer
attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  The script builds the `anonet`
binary and the benchmark's `probe` helper with dune, runs the workload's
job list cold through the binary (one fresh process per CLI job, or one
fresh `anonet serve` driven over its socket), checks every job's outcome,
and prints a JSON result as its last stdout line.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones.  See README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_DIR = ".bench_run"
ANONET = os.path.join("_build", "default", "bin", "anonet_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
HOSTREF = os.path.join("_build", "default", "perfbench", "hostref.exe")

JOB_CAP_S = 30.0  # wall-clock cap of one job; past it the job is killed
RUN_CAP_S = 170.0  # every subprocess is stopped before the run gets here
SETUP_SAMPLES = 15
SERVE_CHUNKS = 25  # serve-mix load is split in chunks, with hostref between
HOSTREF_GAP = 3  # hostref runs in each gap between serve-mix chunks

# The end-to-end metrics that are times, and the one that is a rate.  Both
# are reported at the host speed of baseline.json (see HostSpeed).
TIMES = ("wall_s", "latency_p50_ms", "latency_p95_ms", "setup_s", "cpu_s")
RATES = ("jobs_per_s",)

REFUSAL = re.compile(r"branching[ _-]?limit", re.IGNORECASE)


class BenchError(Exception):
    """The benchmark itself cannot run (build failure, broken checkout)."""


# ---------------------------------------------------------------- processes

class Proc:
    def __init__(self, wall, code, out, err, cpu, rss_kb, timed_out):
        self.wall, self.code, self.out, self.err = wall, code, out, err
        self.cpu, self.rss_kb, self.timed_out = cpu, rss_kb, timed_out


def run_proc(argv, timeout):
    """Runs argv to completion, draining both pipes; returns its wall time
    (spawn to reaped), exit code, output and its own rusage.  A process
    still running after `timeout` seconds is killed."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killed = []

    def kill():
        killed.append(True)
        p.kill()

    timer = threading.Timer(max(timeout, 0.1), kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    reader.join()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return Proc(wall, p.returncode, out, err[0], ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss, bool(killed))


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self, cap=JOB_CAP_S):
        return max(0.5, min(cap, self.end - time.perf_counter()))


def probe(deadline, *args, cap=JOB_CAP_S):
    p = run_proc([PROBE, *args], deadline.left(cap))
    if p.code != 0 or p.timed_out:
        raise BenchError("probe %s failed (%d): %s"
                         % (args[0], p.code, p.err.decode(errors="replace")[-400:]))
    return [json.loads(line) for line in p.out.decode().splitlines() if line]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                        "./" + ANONET, "./" + PROBE, "./" + HOSTREF],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if p.returncode != 0:
        raise BenchError("dune build failed")


# ---------------------------------------------------------------- workloads

class Job:
    """One job: its CLI argv and the equivalent key=value job line.

    `expect` is "valid" (exit 0 with an output the benchmark re-validates),
    "refusal" (the A* branching-limit refusal) or "ok" (exit 0; experiment
    jobs have no per-node output to validate)."""

    def __init__(self, kind, pairs, expect="valid"):
        self.kind, self.pairs, self.expect = kind, dict(pairs), expect
        self.line = " ".join(["kind=" + kind]
                             + ["%s=%s" % kv for kv in pairs])
        p = self.pairs
        if kind == "solve":
            self.argv = ["solve", p["problem"], p["graph"], "--seed", p["seed"]]
        elif kind == "derandomize":
            self.argv = ["derandomize", p["problem"], p["graph"],
                         "--colors", p.get("colors", "random:1"),
                         "--method", p.get("method", "a-infinity")]
        else:
            self.argv = ["experiments", p["id"]]

    @property
    def method(self):
        return self.pairs.get("method", "a-infinity")


def derand(problem, graph, colors=None, method="a-star", expect="valid"):
    pairs = [("problem", problem), ("graph", graph)]
    if colors:
        pairs.append(("colors", colors))
    return Job("derandomize", pairs + [("method", method)], expect)


def solve(problem, graph, seed):
    return Job("solve", [("problem", problem), ("graph", graph),
                         ("seed", str(seed))])


def cli_cold(seed, tiny):
    """One fresh `anonet` process per job.  Three groups of jobs, each
    chosen for the layer it loads: small A* searches (Update-Bits), A* on
    G(26, 3/26) up to its branching-limit refusal (Update-Graph), and
    Las-Vegas solves on G(n,p) up to 10^5 nodes (graph build, executors,
    validation, rendering).  The inputs are fixed and the seed orders the
    list: seed-dependent graphs moved a run's time by a fifth.

    A job's time moves by 10-20% from one process to the next, so a run
    needs several samples of each.  The search jobs take 0.2-0.5 s, where
    the others take up to 3 s, and they are where the median job falls; so
    each of them is in the list three times, and has about a dozen
    samples in a run instead of four or five.  Repeats count once in
    wall_s, which sums a time per distinct job."""
    search = [derand("2hop", "cycle:6", "unique"),
              derand("mis", "cycle:8", "unique"),
              derand("2hop", "cycle:15", "mod:5"),
              derand("2hop", "grid:2x3", "unique"),
              derand("mis", "grid:3x3", "unique", method="a-infinity")]
    gnp = [derand("mis", "gnp:26,3,6", expect="refusal")]
    big, small = (2000, 300) if tiny else (100000, 5000)
    scale = [solve("mis", "gnp:%d,8,1" % big, 1),
             solve("2hop", "gnp:%d,8,1" % small, 1),
             solve("matching", "gnp:%d,8,1" % small, 1)]
    if tiny:
        search = [search[1], search[4]]
    jobs = search * 3 + gnp + scale
    random.Random(seed).shuffle(jobs)
    return jobs


def serve_mix(seed, tiny):
    # Fixed inputs, as in cli-cold.  The load generator shuffles every list
    # afresh from the seed.
    return [derand("2hop", "cycle:6", "mod:3"),
            derand("matching", "cycle:15", "mod:5"),
            derand("mis", "grid:2x3", "unique", method="a-infinity"),
            derand("mis", "cycle:12", "mod:3"),
            solve("2hop", "petersen", 1),
            solve("mis", "gnp:%d,8,1" % (200 if tiny else 2000), 1),
            solve("2hop", "gnp:%d,6,1" % (50 if tiny else 300), 1),
            Job("experiment", [("id", "f1")], expect="ok")]


def known_bad(seed, tiny):
    # A* with the default random:1 colors on C12 exhausts the search's
    # state budget: a failure the self-test expects to see counted.
    return [derand("mis", "cycle:12")]


WORKLOADS = {"cli-cold": cli_cold, "serve-mix": serve_mix}


# ---------------------------------------------------------------- checking

def node_md5(stdout):
    lines = [l for l in stdout.split(b"\n") if l.startswith(b"  node ")]
    return hashlib.md5(b"".join(l + b"\n" for l in lines)).hexdigest()


def fatal_exn(stderr):
    """The exception an uncaught-exception exit names, if any."""
    m = re.search(rb"Fatal error: exception (.*)", stderr)
    return m.group(1).decode(errors="replace").strip() if m else None


def classify(job, proc):
    """Why a CLI run of `job` is wrong, or None when it is right as far as
    the run itself shows."""
    if proc.timed_out:
        return "killed at the %.0f s job cap" % JOB_CAP_S
    diag = proc.err.decode(errors="replace")
    if job.expect == "refusal":
        if proc.code != 0 and REFUSAL.search(diag):
            return None
        return "expected the branching-limit refusal, got exit %d: %s" % (
            proc.code, diag.strip()[-200:])
    if proc.code != 0:
        return "exit %d: %s" % (proc.code, diag.strip()[-200:])
    if job.expect == "valid" and not proc.out.endswith(b"valid: true\n"):
        return "output not reported valid"
    return None


def check_replays(deadline, jobs, cli):
    """Compares each job's CLI run (`cli`: job line -> Proc) with the
    benchmark's own layer-by-layer replay, which re-validates the outputs
    (a refusal has none: the replay must raise it too).  The timed part of
    the run is over, so the replays use both cores.  Traced runs add the
    in-process Runner.execute; serve-mix runs add the serve replies.
    Returns {job line: failure reason} for the jobs that disagree."""
    def check(job):
        if job.expect == "ok":
            return None  # no per-node output to replay
        try:
            return compare_replay(job, probe(deadline, "replay", job.line)[0],
                                  cli[job.line])
        except BenchError as e:
            return str(e)

    distinct = list({j.line: j for j in jobs}.values())
    with ThreadPoolExecutor(2) as pool:
        whys = list(pool.map(check, distinct))
    return {j.line: why for j, why in zip(distinct, whys) if why}


def compare_exec(job, ex, proc):
    if "exn" in ex:
        if fatal_exn(proc.err) == ex["exn"]:
            return None
        return "in-process run raised %s, CLI said %r" % (
            ex["exn"], proc.err.decode(errors="replace")[-200:])
    if ex["code"] != proc.code:
        return "in-process exit %d, CLI exit %d" % (ex["code"], proc.code)
    if ex["out_md5"] != hashlib.md5(proc.out).hexdigest():
        return "CLI stdout differs from the in-process Runner.execute"
    return None


def compare_replay(job, rp, proc):
    if job.expect == "refusal":
        if "refused" in rp and REFUSAL.search(rp["refused"]):
            return None
        return "replay did not reproduce the refusal: %s" % rp.get("refused")
    if "refused" in rp:
        return "replay failed: %s" % rp["refused"]
    if rp["valid"] is not True:
        return "the benchmark's validity check rejects the outputs"
    if rp["nodes_md5"] != node_md5(proc.out):
        return "replayed outputs differ from the CLI's"
    return None


# ---------------------------------------------------------------- measuring

def median(xs):
    return statistics.median(xs) if xs else 0.0


def trimmed_mean(xs):
    """The mean without the smallest and the largest value, when there are
    more than two."""
    xs = sorted(xs)
    return statistics.mean(xs[1:-1] if len(xs) > 2 else xs)


def pct(xs, q):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def load_baseline():
    with open(os.path.join(HERE, "baseline.json")) as f:
        return json.load(f)


class HostSpeed:
    """Puts a run's times at a fixed host speed.

    The 2-vCPU virtual machines this benchmark runs on share their host,
    and its speed drifts by a fifth within minutes, for every process
    alike, a no-work start as much as a job.  Ten runs of the same code
    spread by up to 0.25 (IQR over median) in their wall time, past their
    0.24 bound.  So the timed part of a run also times hostref.exe, a fixed
    piece of OCaml work with no link to anonet, between the jobs under
    test, and every time is reported at the speed the host had when
    baseline.json was taken: time x the baseline's hostref time / the
    run's median hostref time (rates the other way round).  Over 35
    windows of 50 s of the cli-cold list, this took the spread of the
    list's time from 0.057 to 0.024.  The measured figures are printed
    beside them."""

    def __init__(self):
        self.samples = []

    @contextlib.contextmanager
    def window(self):
        """The timed part of a run.  It runs pinned to one CPU, this process
        and so every process it starts: hostref and the work under test
        then share one vCPU, which the hypervisor schedules on its own, and
        a closed loop of millisecond jobs does not wait on the other vCPU
        waking up."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            yield
        finally:
            os.sched_setaffinity(0, cpus)

    def sample(self, deadline):
        p = run_proc([HOSTREF], deadline.left())
        if p.code != 0 or p.timed_out:
            raise BenchError("hostref failed (%d)" % p.code)
        self.samples.append(p.wall)

    def rescale(self, res):
        """Puts res's times and rates at baseline speed; returns the run's
        slowdown against the baseline."""
        slow = median(self.samples) / load_baseline()["hostref_s"]
        res.measured = {k: m["value"] for k, m in res.metrics.items()}
        for name in TIMES:
            res.metrics[name]["value"] /= slow
        for name in RATES:
            res.metrics[name]["value"] *= slow
        res.samples["hostref"] = len(self.samples)
        return slow


def setup_cli(deadline):
    """A no-work `anonet` process start, which every cold CLI job pays."""
    return [run_proc([ANONET, "--version"], deadline.left()).wall
            for _ in range(SETUP_SAMPLES)]


class Result:
    def __init__(self):
        self.metrics, self.samples, self.measured = {}, {}, {}
        self.attempted = self.failed = 0
        self.failures, self.notes = [], []

    def put(self, name, value, unit, samples=1):
        self.metrics[name] = {"value": value, "unit": unit}
        self.samples[name] = samples

    def fail(self, what, why):
        self.failed += 1
        self.failures.append("%s: %s" % (what, why))


def judge_cli(res, lists, deadline, check=True):
    """Classifies every CLI job of the run; jobs whose repeated runs
    disagree, or that disagree with the in-process checks, fail.  Returns
    the first good run of each job."""
    first, outs = {}, {}
    for procs in lists:
        for job, proc in procs:
            why = classify(job, proc)
            key = (proc.code, hashlib.md5(proc.out).hexdigest())
            if why is None and outs.setdefault(job.line, key) != key:
                why = "output differs between repetitions"
            if why:
                res.fail(" ".join(job.argv), why)
            else:
                first.setdefault(job.line, (job, proc))
    if check and first:
        bad = check_replays(deadline, [j for j, _ in first.values()],
                               {k: p for k, (_, p) in first.items()})
        for line, why in bad.items():
            res.fail(line, why)
    return first


def measure_cli(res, jobs, seconds, speed, deadline):
    """Runs the job list repeatedly, one fresh process per job, for about
    `seconds` (at least one list).  A no-work start and a hostref run
    before each job add a set-up and a host-speed sample, so those samples
    span the run as the jobs do.  A job's time is the trimmed mean over its
    repetitions, which keeps one slow moment on the host from deciding a
    percentile between two kinds of job.  Over 35 windows of 50 s, about
    five repetitions of each job, the median put the spread of
    latency_p50_ms at 0.080 and the trimmed mean at 0.050."""
    lists = []
    with speed.window():
        setup = setup_cli(deadline)
        start = time.perf_counter()
        while True:
            procs = []
            for job in jobs:
                setup.append(run_proc([ANONET, "--version"],
                                      deadline.left()).wall)
                speed.sample(deadline)
                procs.append((job, run_proc([ANONET, *job.argv],
                                            deadline.left())))
            lists.append(procs)
            # Start another list only if half of it fits: runs then last
            # `seconds` on average, on slow hosts as on fast ones.
            if (time.perf_counter() - start
                    + sum(p.wall for _, p in procs) / 2 > seconds):
                break
    judge_cli(res, lists, deadline)
    runs = {}
    for procs in lists:
        for job, p in procs:
            runs.setdefault(job.line, []).append(p)
    per_job = [trimmed_mean([p.wall for p in ps]) for ps in runs.values()]
    n = sum(len(ps) for ps in runs.values())
    res.attempted += n
    res.put("wall_s", sum(per_job), "s", n)
    res.put("jobs_per_s", n / sum(p.wall for ps in runs.values() for p in ps),
            "1/s", n)
    res.put("latency_p50_ms", pct(per_job, 50) * 1e3, "ms", n)
    res.put("latency_p95_ms", pct(per_job, 95) * 1e3, "ms", n)
    res.put("setup_s", median(setup), "s", len(setup))
    res.put("peak_rss_mb", max(p.rss_kb for ps in runs.values() for p in ps)
            / 1024, "MB", n)
    res.put("cpu_s",
            sum(trimmed_mean([p.cpu for p in ps]) for ps in runs.values()),
            "s", n)


class Server:
    """A fresh `anonet serve --jobs 1` on a Unix socket in the run
    directory; `setup` is spawn until it reports that it accepts.

    One worker: with two on the two vCPUs, beside the load generator and
    the server's I/O threads, the run measured the scheduler.  Its peak
    RSS moved by 0.15 (IQR over median) with the jobs that happened to
    overlap.  Two connections still keep a job queued behind the one
    running."""

    def __init__(self, name="serve.sock"):
        self.sock = os.path.join(RUN_DIR, name)
        t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [ANONET, "serve", "--listen", "unix:" + self.sock, "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.p.stdout.readline()
        self.setup = time.perf_counter() - t0
        if b"listening" not in line:
            self.stop()
            raise BenchError("anonet serve did not start")

    def stop(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
        _, _, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = 0
        self.p.stdout.close()
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        return ru


def write_jobs(jobs, name):
    path = os.path.join(RUN_DIR, name)
    with open(path, "w") as f:
        f.write("\n".join(j.line for j in jobs) + "\n")
    return path


def judge_serve(res, jobs, lg, deadline):
    """Every reply must match the job's CLI run byte for byte (and hence,
    through the CLI checks, the in-process run and its validity)."""
    res.attempted += len(lg["lat_s"])
    if lg["inconsistent"]:
        res.fail("serve", "%d replies differ from the same job's first reply"
                 % lg["inconsistent"])
    cli = judge_cli(res, [[(j, run_proc([ANONET, *j.argv], deadline.left()))
                           for j in jobs]], deadline)
    for r in lg["replies"]:
        job = jobs[r["idx"]]
        if job.line not in cli:
            continue  # already counted as failed by the CLI check
        proc = cli[job.line][1]
        body = proc.out if proc.code == 0 else proc.err.rstrip(b"\n")
        if r["code"] != proc.code or r["digest"] != hashlib.md5(body).hexdigest():
            res.fail("serve " + job.line,
                     "reply (code %d) differs from the CLI run (exit %d)"
                     % (r["code"], proc.code))


def measure_serve(res, jobs, seconds, seed, speed, deadline):
    """The closed loop runs in SERVE_CHUNKS chunks against one server, each
    chunk a fresh load generator with its own seed.  Between the chunks,
    while the server idles, hostref runs and a second server is started and
    stopped for a set-up sample, so those samples span the run as the load
    does."""
    path = write_jobs(jobs, "serve.jobs")
    setup = []

    def gap():
        for _ in range(HOSTREF_GAP):
            speed.sample(deadline)
        spare = Server("setup.sock")
        setup.append(spare.setup)
        spare.stop()

    chunks = []
    with speed.window():
        server = Server()
        try:
            for k in range(SERVE_CHUNKS):
                gap()
                chunks.append(probe(deadline, "loadgen", "unix:" + server.sock,
                                    path, str(seconds / SERVE_CHUNKS),
                                    str(seed * SERVE_CHUNKS + k),
                                    cap=seconds + 60)[0])
            gap()
        finally:
            ru = server.stop()
    lg = {"elapsed_s": sum(c["elapsed_s"] for c in chunks),
          "inconsistent": sum(c["inconsistent"] for c in chunks)}
    for key in ("lists_s", "idx", "lat_s", "replies"):
        lg[key] = [x for c in chunks for x in c[key]]
    judge_serve(res, jobs, lg, deadline)
    lat = [x * 1e3 for x in lg["lat_s"]]
    n = len(lat)
    by_job = {}
    for i, x in zip(lg["idx"], lat):
        by_job.setdefault(i, []).append(x)
    res.put("wall_s", median(lg["lists_s"]), "s", len(lg["lists_s"]))
    res.put("jobs_per_s", n / lg["elapsed_s"], "1/s", n)
    # The median over the job kinds of each kind's median round trip: the
    # pooled median falls where the kinds' distributions meet, and moved by
    # a fifth between runs.  p95 stays pooled, to keep the queueing tail.
    res.put("latency_p50_ms", pct([median(xs) for xs in by_job.values()], 50),
            "ms", n)
    res.put("latency_p95_ms", pct(lat, 95), "ms", n)
    res.put("setup_s", median(setup), "s", len(setup))
    res.put("peak_rss_mb", ru.ru_maxrss / 1024, "MB", 1)
    res.put("cpu_s", (ru.ru_utime + ru.ru_stime) * len(jobs) / n, "s", n)


# ---------------------------------------------------------------- tracing

LAYER_SUMS = ["layers", "graph", "edges", "colors", "render", "validate",
              "lv", "lv_rounds", "lv_messages", "lv_attempts", "exchange",
              "phase_end", "bits", "phases", "rounds", "ainf", "states",
              "pruned", "probes", "s_hits", "s_miss", "v_hits", "v_miss",
              "e_hits", "e_miss", "minor", "major"]
LAYER_MAXES = ["v_nodes", "e_entries", "top_heap"]


def trace_job(res, t, job, cli, deadline):
    """Adds one job's cold attribution to the sums in `t`.  `probe exec`
    reads the program's own spans and counters from one cold
    Runner.execute on a live registry; `probe replay` times the public
    entry points layer by layer (and steps A* round by round).  Both must
    reproduce `cli`, the job's plain CLI run.  Each probe gets a fresh
    process, so both run as cold as the CLI does."""
    res.attempted += 1
    try:
        ex = probe(deadline, "exec", job.line)[0]
        rp = probe(deadline, "replay", job.line)[0]
    except BenchError as e:
        res.fail("trace " + job.line, str(e))
        return
    why = compare_exec(job, ex, cli) or compare_replay(job, rp, cli)
    if why:
        res.fail("trace " + job.line, why)
    spans, ctr = ex["spans"], ex["counters"]
    layers = ("graph_s", "colors_s", "core_s", "validate_s", "render_s")
    add = {
        "layers": sum(rp.get(k, 0.0) for k in layers),
        "graph": rp["graph_s"],
        "edges": rp["edges"],
        "colors": rp.get("colors_s", 0.0),
        "validate": rp.get("validate_s", 0.0),
        "render": rp.get("render_s", 0.0),
        "states": ctr.get("search.states_explored", 0),
        "pruned": ctr.get("search.pruned", 0),
        "probes": ctr.get("search.core_probes", 0),
        "s_hits": ctr.get("cache.search.hits", 0),
        "s_miss": ctr.get("cache.search.misses", 0),
        "v_hits": ex["view_hits"],
        "v_miss": ex["view_misses"],
        "e_hits": ex["encode_hits"],
        "e_miss": ex["encode_misses"],
        "minor": ex["gc_minor_words"],
        "major": ex["gc_major_words"],
    }
    if job.kind == "solve":
        add.update(lv=spans.get("las_vegas.solve", 0.0),
                   lv_rounds=ctr.get("lv.rounds", 0),
                   lv_messages=ctr.get("lv.messages", 0),
                   lv_attempts=ctr.get("lv.attempts", 0))
    elif job.method == "a-star":
        add.update(exchange=rp["a_star_exchange_s"],
                   phase_end=rp["a_star_phase_end_s"],
                   bits=sum(v for k, v in rp["spans"].items()
                            if k.startswith("min_search.")),
                   phases=rp["a_star_phases"], rounds=rp["a_star_rounds"])
    else:
        add.update(ainf=spans.get("a_infinity.solve", 0.0))
    for k, v in add.items():
        t[k] += v
    note = "job %-58s %8.3f s in the timed layers" % (" ".join(job.argv),
                                                   add["layers"])
    if "phase_end" in add:
        a_star = add["exchange"] + add["phase_end"]
        note += ("; A* %.3f s: Update-Bits %.1f%%, Update-Graph %.1f%%"
                 % (a_star, 100 * ratio(add["bits"], a_star),
                    100 * ratio(add["phase_end"] - add["bits"], a_star)))
    if add["validate"]:
        note += "; validation %.3f s" % add["validate"]
    res.notes.append(note)
    for k, v in (("v_nodes", ex["view_nodes"]),
                 ("e_entries", ex["encode_entries"]),
                 ("top_heap", ex["gc_top_heap_words"])):
        t[k] = max(t[k], v)


def ratio(a, b):
    return a / b if b else 0.0


def put_layers(res, t):
    put = res.put
    put("graph.build_s", t["graph"], "s")
    put("graph.edges", t["edges"], "count")
    put("runner.colors_s", t["colors"], "s")
    put("runner.render_s", t["render"], "s")
    put("problems.validate_s", t["validate"], "s")
    put("runtime.las_vegas_s", t["lv"], "s")
    put("runtime.rounds", t["lv_rounds"], "count")
    put("runtime.messages", t["lv_messages"], "count")
    put("runtime.attempts", t["lv_attempts"], "count")
    put("runtime.ns_per_message", ratio(t["lv"] * 1e9, t["lv_messages"]), "ns")
    put("a_star.exchange_s", t["exchange"], "s")
    put("a_star.phase_end_s", t["phase_end"], "s")
    put("a_star.update_bits_s", t["bits"], "s")
    put("a_star.update_graph_s", t["phase_end"] - t["bits"], "s")
    put("a_star.phases", t["phases"], "count")
    put("a_star.rounds", t["rounds"], "count")
    put("a_infinity.solve_s", t["ainf"], "s")
    put("min_search.states", t["states"], "count")
    put("min_search.pruned", t["pruned"], "count")
    put("min_search.core_probes", t["probes"], "count")
    put("a_star.search_cache_hit_ratio",
        ratio(t["s_hits"], t["s_hits"] + t["s_miss"]), "ratio")
    put("views.intern_hit_ratio", ratio(t["v_hits"], t["v_hits"] + t["v_miss"]),
        "ratio")
    put("views.arena_nodes", t["v_nodes"], "count")
    put("encode.hit_ratio", ratio(t["e_hits"], t["e_hits"] + t["e_miss"]),
        "ratio")
    put("encode.entries", t["e_entries"], "count")
    put("gc.minor_words", t["minor"], "words")
    put("gc.major_words", t["major"], "words")
    put("gc.top_heap_words", t["top_heap"], "words")
    for key in ("serve.exec_ms_p50", "net.overhead_ms_p50"):
        put(key, 0.0, "ms")
    put("net.bytes_out", 0.0, "B/job")


def serve_trace_metrics(res, jobs, seconds, seed, deadline):
    """The serve-mix load against an in-process server: the server-side
    execution span, the wire overhead and the warm process-wide caches."""
    path = write_jobs(jobs, "serve.jobs")
    st = probe(deadline, "serve-trace", path, str(seconds), str(seed),
               os.path.join(RUN_DIR, "trace.sock"), cap=seconds + 60)[0]
    res.attempted += len(st["lat_s"])
    if st["inconsistent"]:
        res.fail("serve-trace", "%d replies differ" % st["inconsistent"])
    lat, ex = st["lat_s"], st["exec_s"]
    n = len(lat)
    res.put("serve.exec_ms_p50", pct([x * 1e3 for x in ex], 50), "ms", n)
    res.put("net.overhead_ms_p50",
            pct([(a - b) * 1e3 for a, b in zip(lat, ex)], 50), "ms", n)
    res.put("net.bytes_out", st["bytes"] / n, "B/job", n)
    res.put("views.intern_hit_ratio",
            ratio(st["view_hits"], st["view_hits"] + st["view_misses"]),
            "ratio", n)
    res.put("views.arena_nodes", st["view_nodes"], "count", n)
    res.put("encode.hit_ratio",
            ratio(st["encode_hits"], st["encode_hits"] + st["encode_misses"]),
            "ratio", n)
    res.put("encode.entries", st["encode_entries"], "count", n)
    res.put("gc.minor_words", st["gc_minor_words"], "words", n)
    res.put("gc.major_words", st["gc_major_words"], "words", n)
    res.put("gc.top_heap_words", st["gc_top_heap_words"], "words", n)


def measure_trace(res, name, jobs, seconds, seed, deadline):
    """One pass over the distinct jobs of the list (the experiment job has
    no layers), each job's samples taken back to back so that the host's
    drift hits them alike: a plain and a traced CLI run (`--metrics json
    --events FILE`), then the probes.  More plain/traced pairs follow for
    about half of `seconds`; serve-mix spends the other half on
    `probe serve-trace`.  Layer metrics are sums over the pass."""
    setup = median(setup_cli(deadline))
    distinct = [j for j in {j.line: j for j in jobs}.values()
                if j.kind != "experiment"]
    traced_argv = ("--metrics", "json", "--events",
                   os.path.join(RUN_DIR, "events.ndjson"))
    plain = {j.line: [] for j in distinct}
    traced = {j.line: [] for j in distinct}
    t = dict.fromkeys(LAYER_SUMS + LAYER_MAXES, 0)
    start = time.perf_counter()
    while True:
        for job in distinct:
            p = run_proc([ANONET, *job.argv], deadline.left())
            tp = run_proc([ANONET, *job.argv, *traced_argv], deadline.left())
            body = tp.out[:tp.out.rfind(b"\n", 0, len(tp.out) - 1) + 1]
            if tp.code != p.code or body != p.out:
                res.fail("traced " + job.line,
                         "tracing changed the output (exit %d vs %d)"
                         % (tp.code, p.code))
            if not plain[job.line]:
                trace_job(res, t, job, p, deadline)
            plain[job.line].append(p)
            traced[job.line].append(tp)
        if time.perf_counter() - start >= seconds / 2:
            break
    passes = [[(j, plain[j.line][i]) for j in distinct]
              for i in range(len(plain[distinct[0].line]))]
    judge_cli(res, passes, deadline, check=False)
    res.attempted += len(passes) * len(distinct)
    put_layers(res, t)
    if name == "serve-mix":
        serve_trace_metrics(res, jobs, seconds / 2, seed, deadline)
    plain_wall = sum(median([p.wall for p in ps]) for ps in plain.values())
    traced_wall = sum(median([p.wall for p in ps]) for ps in traced.values())
    res.put("unattributed_share",
            ratio(plain_wall - len(distinct) * setup - t["layers"], plain_wall),
            "ratio", len(passes))
    res.put("trace.overhead_share",
            ratio(traced_wall - plain_wall, plain_wall), "ratio", len(passes))


# ---------------------------------------------------------------- reporting

def cpu_times():
    """(stolen, total) CPU jiffies of the host so far, from /proc/stat;
    None where the kernel does not publish them."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def provenance(args, deadline):
    info = probe(deadline, "info")[0]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    shape = {"nproc": len(os.sched_getaffinity(0)),
             "domains": info["domains"], "ocaml": info["ocaml"]}
    base = load_baseline()["host"]
    return dict(commit=commit or "unknown", workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                host_matches_baseline=shape == base, **shape)


def report(res, prov, cpu0):
    """Prints the result.  `cpu0` is `cpu_times()` at the start of the run:
    a virtual machine whose host takes its CPUs away for a while (steal)
    runs everything slower, so the stolen share goes with the figures."""
    cpu1 = cpu_times()
    prov["steal_share"] = (round((cpu1[0] - cpu0[0]) / max(1, cpu1[1] - cpu0[1]), 4)
                           if cpu0 and cpu1 else None)
    prov["samples"] = res.samples
    print("provenance " + json.dumps(prov, sort_keys=True))
    if not prov["host_matches_baseline"]:
        print("WARNING: host shape differs from the baseline's: "
              "figures are not comparable with perfbench/baseline.json")
    if res.measured:
        print("times and rates at baseline host speed; measured in brackets")
    for name, m in res.metrics.items():
        measured = ("[%.6g]" % res.measured[name]
                    if name in TIMES + RATES and name in res.measured else "")
        print("  %-32s %14.6g %-6s %-14s (n=%d)"
              % (name, m["value"], m["unit"], measured, res.samples[name]))
    for note in res.notes:
        print(note)
    for f in res.failures:
        print("FAILED " + f)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))


def run(args, tiny=False):
    deadline = Deadline(RUN_CAP_S)
    os.makedirs(RUN_DIR, exist_ok=True)
    builder = WORKLOADS.get(args.workload) or known_bad
    jobs = builder(args.seed, tiny)
    res = Result()
    if args.trace:
        measure_trace(res, args.workload, jobs, args.seconds, args.seed,
                      deadline)
        return res, None
    speed = HostSpeed()
    if args.workload == "serve-mix":
        measure_serve(res, jobs, args.seconds, args.seed, speed, deadline)
    else:
        measure_cli(res, jobs, args.seconds, speed, deadline)
    return res, speed.rescale(res)


# ---------------------------------------------------------------- self-test

def smoke():
    """Every workload's code path at tiny sizes, traced and untraced: each
    declared metric must be emitted with its declared unit, no job may
    fail, and the known-bad job must land in `failed`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=wl, seed=1, seconds=1,
                                      trace=trace)
            res, _ = run(args, tiny=True)
            for m in spec[group]:
                got = res.metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s trace=%d: metric %s missing or not in %s"
                                    % (wl, trace, m["name"], m["unit"]))
            extra = set(res.metrics) - {m["name"] for m in spec[group]}
            if extra:
                problems.append("%s trace=%d: undeclared metrics %s"
                                % (wl, trace, sorted(extra)))
            if res.failed or res.attempted < 1:
                problems.append("%s trace=%d: %d of %d jobs failed: %s"
                                % (wl, trace, res.failed, res.attempted,
                                   res.failures))
    args = argparse.Namespace(workload="known-bad", seed=1, seconds=1, trace=0)
    res, _ = run(args, tiny=True)
    if res.failed != res.attempted or "limit" not in " ".join(res.failures).lower():
        problems.append("known-bad job not counted as failed: %d of %d, %s"
                        % (res.failed, res.attempted, res.failures))
    for p in problems:
        print("smoke: " + p)
    print("smoke: %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's self-test and exit")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        build()
        if args.smoke:
            return smoke()
        cpu0 = cpu_times()
        prov = provenance(args, Deadline(60))
        res, prov["host_slowdown"] = run(args)
        report(res, prov, cpu0)
        return 0
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
