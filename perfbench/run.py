"""The btkit benchmark: wall time and peak memory of each verification suite,
one fresh `btkit` process per suite run, each report checked.

    python3 perfbench/run.py --workload defaults|n4 --seed N --seconds S --trace 0|1

Run from the repository root; the program is taken from ``src/``.  With
``--trace 0`` the run starts one untimed ``btkit --help``, then makes whole
rounds of the workload's suite runs, one process at a time with ``--jobs 1``
and ``--seed N`` (``N + k`` for the k-th repeat of a suite in a round), until
S seconds have been spent (at least one round).  A round also times
``SETUPS`` set-ups: a fresh interpreter until the CLI has parsed ``--help``.
Each suite's repeats and the set-ups are spread evenly over the round.  Each
metric is the median over the run.
A suite process still running ``RUN_LIMIT_S`` seconds after S is killed, and
its run counts as failed.  With ``--trace 1`` it runs one round in which every
suite run is made twice at the same time, once plain and once under
``tracer.py``; the traced copy gives the per-module metrics, the pair gives
the tracing overhead.  The last line of standard output is one JSON object:
correct, attempted and failed (suite runs) and metrics.  Suite reports and
traces go to ``.perfbench/`` at the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402

SUITES = ("relations", "quotient", "rank", "trace")
# seconds after --seconds when suite processes still running are killed: room
# for the last round, which starts before --seconds have passed
RUN_LIMIT_S = 160
# set-ups timed per round
SETUPS = 6
SETUP = "setup"


class Run:
    """One suite invocation of a workload: suite, n range, points and how
    many times a round repeats it."""

    def __init__(self, suite, n, n_max=None, points=None, repeats=1):
        self.suite, self.n, self.n_max = suite, n, n_max
        self.points, self.repeats = points, repeats

    @property
    def ns(self):
        return list(range(self.n, (self.n_max or self.n) + 1))

    @property
    def point_list(self):
        """The requested points, or None for the CLI's defaults."""
        return self.points.split(",") if self.points else None

    def argv(self, seed, out):
        args = [self.suite, "--n", str(self.n)]
        if self.n_max:
            args += ["--n-max", str(self.n_max)]
        if self.points:
            args += ["--points", self.points]
        return args + ["--jobs", "1", "--seed", str(seed), "--format",
                       "json", "--out", out]


# Each workload runs all four suites.  `defaults` is every suite at its
# default n, exact in Q(sqrt(u)), where scalar arithmetic dominates; the
# suites repeat within a round so that each median rests on several seconds
# of work spread over the whole round (`relations`, whose work depends on the
# seed, on three seeds).  `n4` is every suite at n = 4, where generator
# actions, IntMod boxing, modular elimination, engine products and the trace
# solve dominate; rank and trace run at the point 5/7 only (rank at both
# primes, trace at one), which keeps one round near 70 s instead of 125 s.
WORKLOADS = {
    "defaults": (Run("relations", 3, repeats=3),
                 Run("quotient", 3, repeats=8),
                 Run("rank", 2, 3, repeats=8),
                 Run("trace", 2, 3, repeats=8)),
    "n4": (Run("relations", 4, repeats=2), Run("quotient", 4, repeats=2),
           Run("rank", 4, points="5/7"), Run("trace", 4, points="5/7")),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, stderr_path, deadline):
    """Run argv to its end; wall seconds from spawn to exit, peak RSS in MiB
    of that process alone (its own rusage) and its exit code.  A process
    still running at the deadline is killed."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or ^C: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def read(path):
    try:
        with open(path, errors="replace") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def suite_run(run, seed, workdir, tag, deadline, ref, traced=False):
    """Spawn one suite process and check what it wrote; returns wall, RSS
    and the list of problems."""
    out = os.path.join(workdir, tag + ".json")
    err = os.path.join(workdir, tag + ".err")
    argv = run.argv(seed, out)
    if traced:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                os.path.join(workdir, tag + ".trace.json")] + argv
    else:
        argv = [sys.executable, "-m", "btkit.cli"] + argv
    wall, rss, code = spawn(argv, err, deadline)
    problems = checks.check_run(run.suite, run.ns, run.point_list, seed, code,
                                read(err), read(out), ref)
    for p in problems:
        print("FAIL %s %s: %s" % (tag, run.suite, p), file=sys.stderr)
    return wall, rss, problems


def round_order(workload):
    """One round as (run, repeat) pairs, with (SETUP, k) for the k-th set-up.
    The repeats of each suite, and the set-ups, sit at evenly spaced points
    of the round, so that each median draws on the whole round."""
    slots = [((k + 0.5) / r.repeats, i, r, k)
             for i, r in enumerate(WORKLOADS[workload])
             for k in range(r.repeats)]
    slots += [((k + 0.5) / SETUPS, -1, SETUP, k) for k in range(SETUPS)]
    return [(r, k) for _, _, r, k in sorted(slots, key=lambda s: s[:2])]


def setup_time(workdir, deadline):
    """Seconds from spawn until the CLI has parsed ``--help``; a program that
    cannot get that far ends the benchmark without a result."""
    err = os.path.join(workdir, "setup.err")
    wall, _, code = spawn([sys.executable, "-m", "btkit.cli", "--help"], err,
                          deadline)
    if code != 0:
        sys.exit("btkit does not start (exit %d): %s" % (code, read(err)))
    return wall


def plain(args, workdir, deadline, ref):
    setup = []
    walls = {s: [] for s in SUITES}
    rss = {s: [] for s in SUITES}
    attempted = failed = 0
    setup_time(workdir, deadline)  # warm-up: bytecode caches, page cache
    start = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - start < args.seconds:
        for k, (run, repeat) in enumerate(round_order(args.workload)):
            if run == SETUP:
                setup.append(setup_time(workdir, deadline))
                continue
            # each repeat draws another sample, so that no single seed's
            # sample sets the median
            wall, mib, problems = suite_run(
                run, args.seed + repeat, workdir, "r%d-%d" % (rounds, k),
                deadline, ref)
            attempted += 1
            failed += bool(problems)
            walls[run.suite].append((wall, not problems))
            rss[run.suite].append((mib, not problems))
        rounds += 1
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for s in SUITES:
        metrics[s + "_s"] = (median_of_passed(walls[s]), "s")
    metrics["total_s"] = (sum(metrics[s + "_s"][0] for s in SUITES), "s")
    for s in SUITES:
        metrics[s + "_rss_mib"] = (median_of_passed(rss[s]), "MiB")
    return attempted, failed, metrics


def median_of_passed(samples):
    """Median of the (value, passed) samples over the runs that passed; a
    failed or killed run is counted in `failed` instead.  If none passed the
    result reads correct: false, and the median is over all runs."""
    passed = [v for v, ok in samples if ok]
    return statistics.median(passed or [v for v, _ in samples])


def traced(args, workdir, deadline, ref):
    setup_time(workdir, deadline)
    attempted = failed = 0
    plain_wall = traced_wall = 0.0
    traces = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for run in WORKLOADS[args.workload]:
            pair = [pool.submit(suite_run, run, args.seed, workdir,
                                run.suite + ("-traced" if t else "-plain"),
                                deadline, ref, traced=t)
                    for t in (False, True)]
            (w0, _, p0), (w1, _, p1) = [f.result() for f in pair]
            attempted += 2
            failed += bool(p0) + bool(p1)
            plain_wall += w0
            traced_wall += w1
            path = os.path.join(workdir, run.suite + "-traced.trace.json")
            traces[run.suite] = json.loads(read(path) or "{}")
    with open(os.path.join(OUT_DIR, "trace-%s.json" % args.workload),
              "w") as fh:
        json.dump(traces, fh)
    metrics = layer_metrics(traces.values())
    metrics["tracing.overhead"] = (traced_wall / plain_wall, "ratio")
    return attempted, failed, metrics


def layer_metrics(traces):
    count, incl, self_s = {}, {}, {}
    for t in traces:
        for src, dst in ((t.get("counters", {}), count),
                         (t.get("inclusive_s", {}), incl),
                         (t.get("self_s", {}), self_s)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v

    def c(name):
        return count.get(name, 0)

    m = {}
    for mod in ("scalars", "domains", "partitions", "permutations",
                "algebra", "tensor", "linalg", "quotient", "trace"):
        m[mod + ".self_s"] = (self_s.get(mod, 0.0), "s")
    m["scalars.calls"] = (c("scalars.calls"), "count")
    m["domains.intmod_created"] = (c("domains.intmod_created"), "count")
    m["algebra.products"] = (c("algebra.products"), "count")
    mul_s = incl.get("algebra.products", 0.0)
    m["algebra.products_per_s"] = (
        c("algebra.products") / mul_s if mul_s else 0.0, "1/s")
    m["tensor.word_applications"] = (c("tensor.word_applications"), "count")
    m["tensor.generator_actions"] = (c("tensor.generator_actions"), "count")
    offered = c("linalg.rows_offered")
    grown = c("linalg.rows_offered.growth")
    m["linalg.rows_offered"] = (offered, "count")
    m["linalg.rank_growth"] = (grown, "count")
    m["linalg.insert_yield"] = (grown / offered if offered else 0.0, "ratio")
    m["linalg.reductions"] = (c("linalg.reductions"), "count")
    m["quotient.ideal_builds"] = (c("quotient.build_ideal"), "count")
    m["quotient.build_ideal_s"] = (incl.get("quotient.build_ideal", 0.0), "s")
    m["quotient.closure_check_s"] = (
        incl.get("quotient.closure_check", 0.0), "s")
    m["quotient.spanning_s"] = (incl.get("quotient.spanning", 0.0), "s")
    m["trace.solve_s"] = (incl.get("trace.solve", 0.0), "s")
    m["trace.param_poly_ops"] = (c("trace.param_poly_ops"), "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "btkit", "cli.py")):
        sys.exit("no btkit sources under %s" % SRC)
    deadline = time.monotonic() + args.seconds + RUN_LIMIT_S
    ref = checks.load_reference_dims()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        measure = traced if args.trace else plain
        attempted, failed, metrics = measure(args, workdir, deadline, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
