import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from btkit import blocks, cli, quotient, suites, trace
from btkit.domains import PRIMES, PointError, PrimeDomain

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_relations_suite_passes(capsys):
    code, out = run_cli(["relations", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] > 50


def test_quotient_suite_reports_structural_failures(capsys):
    code, out = run_cli(["quotient", "--n", "3", "--format", "json"], capsys)
    assert code == 1
    report = json.loads(out)
    failed = {c["id"] for c in report["checks"] if c["status"] == "fail"}
    assert failed == {"spanning-rank-equals-quotient-dim",
                      "quot-F-sandwich", "quot-L-sandwich"}
    block = report["quotient"][0]
    assert block["ideal_dim"] == 1
    assert block["quotient_dim"] == 29
    assert block["conjectured_dim"] == 25
    assert block["spanning_rank"] == 25
    assert block["steinberg_quotient_dim"] == 19
    assert {"n", "ideal_dim", "quotient_dim", "conjectured_dim",
            "spanning_rank", "presentation_checks",
            "specialization_points"} <= set(block)


def test_trace_suite(capsys):
    code, out = run_cli(["trace", "--n", "2", "--n-max", "3",
                         "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["failed"] == 0
    ids = {c["id"] for c in report["checks"]}
    assert "trace-ideal-value-polynomial" in ids
    assert "trace-vanishing-lines" in ids
    tables = {b["n"]: b for b in report["trace"]}
    assert tables[2]["table"]["0,1 2,1"] == "A"
    assert "factorization" in tables[3]


def test_rank_suite(capsys):
    code, out = run_cli(["rank", "--n", "2", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ranks"][0]["rank"] == 4


def test_suite_flag_alias(capsys):
    code1, out1 = run_cli(["--suite", "rank", "--n", "2", "--format", "json"],
                          capsys)
    code2, out2 = run_cli(["rank", "--n", "2", "--format", "json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_determinism_byte_identical(capsys):
    args = ["relations", "--n", "2", "--seed", "7", "--format", "json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2
    args_md = ["quotient", "--n", "3", "--seed", "7"]
    _, md1 = run_cli(args_md, capsys)
    _, md2 = run_cli(args_md, capsys)
    assert md1 == md2


def test_markdown_format(capsys):
    code, out = run_cli(["relations", "--n", "2"], capsys)
    assert code == 0
    assert out.startswith("# btkit relations report")
    assert "| id | instance | status |" in out


# sha256 of cli.render_markdown over each golden report
MARKDOWN_SHA256 = {
    "quotient.json":
        "3aafa21bbaf6032e8faa6d46b4dfec17074ff8557aeb7564559b951a75746f1d",
    "quotient_n4.json":
        "38994a6d0c9fcb43ccdb94211d6cc51ca7da06a30b80e3292cdc4d02b83919e4",
    "rank.json":
        "731f6f60eff6277b60929d8d30cb46815fa2a879d379f4135cfefd20139ea3dc",
    "rank_n4.json":
        "073c2135cad011bb1dae3163f28e306251401de54b8cacbfa6eb70fc9c41f83d",
    "relations.json":
        "ae441dfdc9fd064083cebc951e86c8beb7093de1e80961688301b323df3834b8",
    "relations_n4.json":
        "c919b75ea5c798b63f20b4d9c9bbd198ace86b4af3be78a8e848ff6b5b94ad26",
    "trace.json":
        "d6e619e15c2263a0ce3a0f5cb83c460cf7d23d01b7603f28f748e5c3785922df",
    "trace_n4.json":
        "705242803c86a489425c53c7f352cf98214e6af259d7ff7784fd0441e3e0c3f3",
}


def test_markdown_pinned():
    # every section of the markdown renderer, Failures and Findings included
    # (the quotient reports have both), pinned on the golden reports
    assert sorted(os.listdir(GOLDEN)) == sorted(MARKDOWN_SHA256)
    for name, digest in MARKDOWN_SHA256.items():
        with open(os.path.join(GOLDEN, name)) as fh:
            text = cli.render_markdown(json.load(fh))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(["rank", "--n", "2", "--format", "json",
                         "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["suite"] == "rank"


def test_usage_errors(capsys, tmp_path, monkeypatch):
    assert cli.main([]) == 2
    assert cli.main(["rank", "--n", "9"]) == 2
    assert cli.main(["rank", "--n", "3", "--n-max", "1"]) == 2

    def assert_one_error_line(argv):
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # bad specialization points: one `error:` line, no traceback
    assert_one_error_line(["quotient", "--n", "4", "--points", "0,1"])
    assert_one_error_line(["rank", "--n", "2", "--points", "1/0"])
    # s = 0, a pole of the engine constants, is refused by every suite
    assert_one_error_line(["trace", "--n", "2", "--points", "0"])
    assert_one_error_line(["quotient", "--n", "3", "--points", "0"])
    assert_one_error_line(["relations", "--n", "2", "--points", "0"])
    # an n range with no n at the suite's floor (quotient needs n >= 3)
    assert_one_error_line(["quotient", "--n", "2"])
    assert_one_error_line(["quotient", "--n", "1", "--n-max", "2"])
    assert_one_error_line(["relations", "--n", "1"])
    # relations runs up to n = 6
    assert_one_error_line(["relations", "--n", "7"])
    # every run is one process: --jobs takes only 1
    assert_one_error_line(["relations", "--n", "2", "--jobs", "2"])
    assert_one_error_line(["relations", "--n", "2", "--jobs", "0"])
    # an output path that cannot be written is refused before the suite runs
    from btkit import suites
    for name in ("trace_suite", "rank_suite"):
        monkeypatch.setattr(suites, name, None)
    assert_one_error_line(["trace", "--n", "2", "--out",
                           str(tmp_path / "no" / "dir" / "r.json")])
    taken = tmp_path / "taken"
    taken.write_text("")
    assert_one_error_line(["rank", "--n", "2", "--export-ops", str(taken)])
    # an empty path is refused, not read as no path
    assert_one_error_line(["rank", "--n", "2", "--out", ""])
    assert_one_error_line(["rank", "--n", "2", "--export-ops", ""])
    # a report the device refuses, after the suite ran
    if os.path.exists("/dev/full"):
        assert_one_error_line(["relations", "--n", "2", "--out", "/dev/full"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_rank_bounds_are_usage_errors(capsys, tmp_path, monkeypatch):
    # rank runs up to n = 6, its operator export only up to n = 4; both
    # refusals come before the suite runs
    monkeypatch.setattr(suites, "rank_suite", None)
    ops = tmp_path / "ops"
    for argv in (["rank", "--n", "7"],
                 ["rank", "--n", "5", "--export-ops", str(ops)],
                 ["rank", "--n", "2", "--n-max", "5",
                  "--export-ops", str(ops)]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not ops.exists()


def test_jobs_do_not_change_output(capsys, monkeypatch):
    # `--jobs 1` is still accepted, for scripts that pass it, and the
    # environment no longer holds a worker count
    base = ["relations", "--n", "2", "--format", "json"]
    code1, out1 = run_cli(base + ["--jobs", "1"], capsys)
    code2, out2 = run_cli(base, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    monkeypatch.setenv("BTKIT_JOBS", "abc")
    code3, out3 = run_cli(base, capsys)
    assert code3 == 0
    assert out3 == out2


class _RecordingCache(dict):
    """A table cache that records every key it is given."""

    def __init__(self):
        super().__init__()
        self.built = []

    def __setitem__(self, key, value):
        self.built.append(key)
        super().__setitem__(key, value)


@pytest.mark.parametrize("suite, levels", [("quotient", [4])])
def test_each_table_set_is_built_once(suite, levels, capsys, monkeypatch):
    # each (n, sqrt(u)) block structure is built once, and only the last is
    # kept
    tables = _RecordingCache()
    monkeypatch.setattr(blocks, "_CACHE", tables)
    monkeypatch.setattr(trace, "_CACHE", {})
    run_cli([suite, "--n", "4", "--format", "json"], capsys)
    expected = [(n, PrimeDomain(pt, p).sqrt_u)
                for pt, p in zip(suites.DEFAULT_POINTS, PRIMES)
                for n in levels]
    assert tables.built == expected
    assert list(tables) == expected[-1:]


def test_trace_suite_builds_no_action_tables(capsys, monkeypatch):
    # the trace solve works on the engine's sparse right products, so it
    # builds no block structure of the quotient
    tables = _RecordingCache()
    monkeypatch.setattr(blocks, "_CACHE", tables)
    monkeypatch.setattr(trace, "_CACHE", {})
    assert run_cli(["trace", "--n", "4", "--format", "json"], capsys)[0] == 0
    assert tables.built == []


def test_points_beyond_the_primes_are_refused_at_n4(capsys):
    # quotient and trace pair the k-th point with the k-th prime at n >= 4;
    # a third point would be dropped, so it is a usage error there
    three = "5/7,3/2,2"
    for argv in (["quotient", "--n", "4"], ["trace", "--n", "4"],
                 ["trace", "--n", "2", "--n-max", "4"]):
        capsys.readouterr()
        assert cli.main(argv + ["--points", three]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "3 points" in err
    # below n = 4 every point runs exactly, and rank uses every point in
    # both primes at n = 4
    code, out = run_cli(["trace", "--n", "2", "--points", three,
                         "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["points"] == ["5/7", "3/2", "2"]
    args = cli.build_parser().parse_args(["rank", "--n", "4", "--points",
                                          three])
    assert len(cli._points(args)) == 3


def test_suites_refuse_points_beyond_the_primes(monkeypatch):
    # library callers get the same refusal as the CLI, before any work
    calls = []
    monkeypatch.setattr(trace, "solve_trace",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setattr(quotient, "build_ideal",
                        lambda *a, **k: calls.append(a))
    three = [Fraction(5, 7), Fraction(3, 2), Fraction(2)]
    with pytest.raises(PointError, match="3 points"):
        suites.trace_suite([2, 3, 4], points=three)
    with pytest.raises(PointError, match="3 points"):
        suites.quotient_suite([3, 4], points=three)
    assert calls == []


def test_export_ops(tmp_path, capsys):
    code, _ = run_cli(["rank", "--n", "2", "--format", "json",
                       "--export-ops", str(tmp_path / "ops")], capsys)
    assert code == 0
    files = sorted(os.listdir(tmp_path / "ops"))
    assert files == ["n2_E1.txt", "n2_T1.txt"]
    body = (tmp_path / "ops" / "n2_T1.txt").read_text()
    assert body.strip()
    for line in body.strip().split("\n"):
        row, col, scalar = line.split(None, 2)
        int(row), int(col)
        assert scalar


@pytest.mark.parametrize("suite", ["relations", "quotient", "rank", "trace"])
def test_golden_report(suite, capsys):
    # each golden file is `btkit <suite> --format json` at the default n and
    # seed; any change to a report's bytes must be deliberate
    cli.main([suite, "--format", "json"])
    with open(os.path.join(GOLDEN, suite + ".json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_golden_trace_n4(capsys):
    # `btkit trace --n 4 --format json`: the n = 4 trace at both default
    # (point, prime) combinations
    cli.main(["trace", "--n", "4", "--format", "json"])
    with open(os.path.join(GOLDEN, "trace_n4.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_golden_quotient_n4(capsys):
    # `btkit quotient --n 4 --format json`: the n = 4 ideals, their closure
    # and spanning checks at both default (point, prime) combinations
    cli.main(["quotient", "--n", "4", "--format", "json"])
    with open(os.path.join(GOLDEN, "quotient_n4.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_golden_rank_n4(capsys):
    # `btkit rank --n 4 --format json`: the n = 4 representation rank at
    # both default points, each in both primes
    cli.main(["rank", "--n", "4", "--format", "json"])
    with open(os.path.join(GOLDEN, "rank_n4.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_golden_relations_n4(capsys):
    # `btkit relations --n 4 --format json`: the n = 4 relations, identity
    # lemmas and sampled homomorphism check at the default seed
    cli.main(["relations", "--n", "4", "--format", "json"])
    with open(os.path.join(GOLDEN, "relations_n4.json")) as fh:
        assert capsys.readouterr().out == fh.read()


def fresh_env():
    """The environment of a fresh interpreter that imports btkit from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_fresh(code):
    """Run Python code in a fresh interpreter that imports btkit from src/."""
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_refused_stdout_is_a_usage_error(unbuffered):
    # a report that stdout refuses: exit 2 and one `error:` line, with no
    # traceback and nothing more when the interpreter flushes at exit.
    # Buffered stdout (the default) keeps the short report until the flush
    # fails; unbuffered stdout fails in the write itself
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "btkit.cli", "relations", "--n", "2"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1


def test_no_suite_loads_numpy(tmp_path):
    # no suite needs numpy: the four suites at their default n are exact,
    # and each run is one process; the GF(p) rank at n = 4 is proved by its
    # leading columns, with no echelon, and the GF(p) quotient and trace
    # eliminate on sparse rows; ast serves only the scalar text parser,
    # which no suite calls
    runs = [["relations", "--n", "3"], ["quotient", "--n", "3"],
            ["rank", "--n", "2", "--n-max", "3"],
            ["trace", "--n", "2", "--n-max", "3"],
            ["quotient", "--n", "4"],
            ["rank", "--n", "4", "--points", "5/7"],
            ["trace", "--n", "4", "--points", "5/7"]]
    code = ("import sys\nfrom btkit import cli\n"
            "for argv in %r:\n"
            "    cli.main(argv + ['--out', %r])\n"
            "    if 'numpy' in sys.modules:\n"
            "        sys.exit('numpy loaded by ' + ' '.join(argv))\n"
            "for name in ('concurrent.futures', 'multiprocessing', 'ast'):\n"
            "    if name in sys.modules:\n"
            "        sys.exit(name + ' loaded')\n"
            % (runs, str(tmp_path / "report.md")))
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr


# the modules every suite run loads: the CLI, the suite orchestration and
# the basis engine under it
ENGINE = {"btkit.cli", "btkit.suites", "btkit.algebra", "btkit.domains",
          "btkit.scalars", "btkit.partitions", "btkit.permutations"}


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], {"btkit.cli"}),
    (["relations"], ENGINE | {"btkit.tensor"}),
    (["quotient"], ENGINE | {"btkit.quotient", "btkit.blocks",
                             "btkit.linalg"}),
    (["rank"], ENGINE | {"btkit.tensor"}),
    (["trace"], ENGINE | {"btkit.trace", "btkit.linalg"}),
], ids=["help", "relations", "quotient", "rank", "trace"])
def test_each_run_loads_only_its_modules(argv, loaded, tmp_path):
    # a process compiles only the modules its command runs: --help loads
    # no suite, and no suite loads another suite's modules
    if argv != ["--help"]:
        argv = argv + ["--out", str(tmp_path / "report.md")]
    code = ("import sys\nfrom btkit import cli\n"
            "try:\n    cli.main(%r)\nexcept SystemExit:\n    pass\n"
            "print(' '.join(m for m in sys.modules if m.startswith('btkit.')))"
            % argv)
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.splitlines()[-1].split()) == loaded
