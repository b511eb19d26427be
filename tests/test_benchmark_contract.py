"""The parts of the CLI and the library that ``perfbench/`` relies on.

The benchmark calls every suite with the arguments of its workloads, and its
tracer wraps library names that it looks up one by one.  A dropped flag or a
dropped name fails here instead of in a benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys

from btkit import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_perfbench(name):
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_parser_accepts_every_workload_run():
    run = _load_perfbench("run")
    parser = cli.build_parser()
    for workload in run.WORKLOADS.values():
        for r in workload:
            args = parser.parse_args(r.argv(101, "report.json"))
            assert args.suite == r.suite


def test_checks_pass_every_golden_report():
    # the benchmark's own checks, the trace table checks at n = 3 among
    # them, accept each golden report as the run that wrote it
    checks = _load_perfbench("checks")
    ref = checks.load_reference_dims()
    golden = os.path.join(ROOT, "tests", "golden")
    names = sorted(os.listdir(golden))
    assert len(names) == 8
    for name in names:
        with open(os.path.join(golden, name)) as fh:
            text = fh.read()
        report = json.loads(text)
        code = 1 if report["summary"]["failed"] else 0
        problems = checks.check_run(
            report["suite"], report["params"]["n"], None,
            report["params"].get("seed", 0), code, "", text, ref)
        assert problems == [], (name, problems)


def _tracer_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), PERFBENCH]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_tracer_installs():
    code = "import tracer; tracer.install(tracer.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], env=_tracer_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_the_trace_solver(tmp_path):
    # the trace per-layer metrics count the rows the solver offers and the
    # arithmetic on the trace values, which are ParamPolys in every domain
    out = tmp_path / "trace.json"
    argv = [sys.executable, os.path.join(PERFBENCH, "tracer.py"), str(out),
            "trace", "--n", "2", "--n-max", "3", "--format", "json",
            "--out", str(tmp_path / "report.json")]
    proc = subprocess.run(argv, env=_tracer_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        counters = json.load(fh)["counters"]
    assert counters["linalg.rows_offered"] > 0
    assert counters["trace.param_poly_ops"] > 0
