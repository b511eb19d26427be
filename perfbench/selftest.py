"""Self-test of the report checks on doctored reports.

    python3 perfbench/selftest.py

Runs `btkit quotient --n 3` once, checks that its report passes, then that
each of these counts the suite run as failed: one changed dimension, one
extra `fail` entry (with a summary that counts it), the report cut in half,
and a process that writes a good report and then exits with a traceback.
Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

# POINTS None: the suite runs at the CLI's default points
SUITE, NS, POINTS, SEED = "quotient", [3], None, 0


def verdict(code, stderr_text, report_text, ref):
    return checks.check_run(SUITE, NS, POINTS, SEED, code, stderr_text,
                            report_text, ref)


def main():
    ref = checks.load_reference_dims()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    try:
        out = os.path.join(workdir, "q.json")
        err = os.path.join(workdir, "q.err")
        cli = ["quotient", "--n", "3", "--jobs", "1", "--seed", str(SEED),
               "--format", "json", "--out", out]
        _, _, code = run.spawn([sys.executable, "-m", "btkit.cli"] + cli,
                               err, deadline)
        text, err_text = run.read(out), run.read(err)
        good = json.loads(text)

        changed = json.loads(text)
        changed["quotient"][0]["steinberg_ideal_dim"] += 1

        extra = json.loads(text)
        extra["checks"].append({"id": "ideal-closure",
                                "instance": [3, "symbolic"],
                                "status": "fail"})
        extra["summary"]["total"] += 1
        extra["summary"]["failed"] += 1

        raising = ("import sys; from btkit import cli; cli.main(%r); "
                   "raise RuntimeError('after the report')" % cli)
        _, _, tb_code = run.spawn([sys.executable, "-c", raising], err,
                                  deadline)

        cases = [
            ("unchanged report passes", False,
             verdict(code, err_text, text, ref)),
            ("changed dimension", True,
             verdict(code, err_text, json.dumps(changed), ref)),
            ("extra fail id", True,
             verdict(1, err_text, json.dumps(extra), ref)),
            ("truncated report", True,
             verdict(code, err_text, text[:len(text) // 2], ref)),
            ("traceback after the report", True,
             verdict(tb_code, run.read(err), run.read(out), ref)),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = good["summary"]["total"] > 0
    for name, should_fail, problems in cases:
        behaves = bool(problems) == should_fail
        ok = ok and behaves
        print("%s  %s: %s" % ("ok  " if behaves else "BAD ", name,
                              problems[:2] if problems else "no problems"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
