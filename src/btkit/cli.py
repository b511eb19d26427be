"""Command-line driver: btkit <suite> [options].

Suites: relations, quotient, rank, trace (also reachable as
``btkit --suite NAME``).  Exit codes: 0 all checks pass, 1 verification
failure, 2 usage error or a report that cannot be written.  With a fixed
seed the report bytes are identical across runs.

This module imports no other btkit module at load time: ``btkit --help``
and arguments the parser rejects load nothing else, and a suite run imports
``suites`` only once its arguments are parsed, so each suite loads only the
modules it runs.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

DEFAULT_N = {"relations": (3,), "quotient": (3,), "rank": (2, 3), "trace": (2, 3)}
MAX_N = {"relations": 6, "quotient": 5, "rank": 6, "trace": 5}
# --export-ops writes every column of n^(2n) tensor indices: 65,536 at n = 4
MAX_EXPORT_N = 4


def _parse_points(text):
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            if "/" in chunk:
                num, den = chunk.split("/")
                points.append(Fraction(int(num), int(den)))
            else:
                points.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError):
            raise UsageError("bad specialization point %r" % chunk) from None
    return points


def build_parser():
    parser = argparse.ArgumentParser(
        prog="btkit",
        description="Exact verification suites for the braids-and-ties "
                    "algebra and its partition Temperley-Lieb quotient.")
    sub = parser.add_subparsers(dest="suite")
    for name, help_text in (
            ("relations", "defining relations and identity suites, in the "
                          "basis engine and as tensor operators"),
            ("quotient", "quotient ideal dimensions, presentations and "
                         "spanning evidence"),
            ("rank", "rank of the represented algebra inside the tensor "
                     "endomorphisms"),
            ("trace", "tower trace functionals and the quotient "
                      "factorization condition")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=None,
                       help="strand count (default: suite-specific)")
        p.add_argument("--n-max", type=int, default=None,
                       help="run for every n from --n up to this value")
        p.add_argument("--points", default=None,
                       help="specialization points for sqrt(u), e.g. 5/7,3/2")
        # accepted for scripts that still pass it; every run is one process
        p.add_argument("--jobs", default=None, help=argparse.SUPPRESS)
        p.add_argument("--format", choices=("json", "markdown"),
                       default="markdown", dest="fmt")
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        if name == "rank":
            p.add_argument("--export-ops", default=None, metavar="DIR",
                           help="export generator operator matrices as "
                                "sparse triplet files (n <= %d)"
                                % MAX_EXPORT_N)
    return parser


class UsageError(Exception):
    pass


def _n_values(args):
    lo = args.n if args.n is not None else DEFAULT_N[args.suite][0]
    hi = args.n_max if args.n_max is not None else (
        args.n if args.n is not None else DEFAULT_N[args.suite][-1])
    if lo < 1 or hi < lo:
        raise UsageError("bad n range: %d..%d" % (lo, hi))
    if hi > MAX_N[args.suite]:
        raise UsageError("n=%d beyond the supported bound %d for suite %s"
                          % (hi, MAX_N[args.suite], args.suite))
    floor = {"relations": 2, "quotient": 3, "rank": 1, "trace": 1}[args.suite]
    if hi < floor:
        raise UsageError("suite %s needs n >= %d, none in %d..%d"
                         % (args.suite, floor, lo, hi))
    return list(range(max(lo, floor), hi + 1))


def _points(args):
    """The sqrt(u) points of a run, each refused in every suite where the
    engine constants have a pole (PointError); how many, each suite checks."""
    if args.points is None:
        from .suites import DEFAULT_POINTS
        return list(DEFAULT_POINTS)
    from .domains import RationalDomain
    return [RationalDomain(pt).s for pt in _parse_points(args.points)]


def run_suite(args):
    from . import suites
    if args.jobs not in (None, "1"):
        raise UsageError("--jobs takes only 1, got %r" % args.jobs)
    ns = _n_values(args)
    points = _points(args)
    _check_output_paths(args, ns)
    if args.suite == "relations":
        report = suites.relations_suite(ns, seed=args.seed)
    elif args.suite == "quotient":
        report = suites.quotient_suite(ns, points=points, seed=args.seed)
    elif args.suite == "rank":
        report = suites.rank_suite(ns, points=points)
        if args.export_ops:
            _export_generator_ops(ns, args.export_ops)
            report["exported_ops"] = args.export_ops
    elif args.suite == "trace":
        report = suites.trace_suite(ns, points=points)
    else:
        raise UsageError("unknown suite %r" % args.suite)
    return report


def _check_output_paths(args, ns):
    """Refuse, before the suite runs, an empty path, a report file in no
    directory, an operator directory that cannot be made (an ancestor is a
    file) and an operator export beyond MAX_EXPORT_N."""
    outdir = getattr(args, "export_ops", None)
    if "" in (args.out, outdir):
        raise UsageError("an empty path names no file or directory")
    if args.out is not None:
        folder = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out) or not os.path.isdir(folder):
            raise UsageError("cannot write the report to %r" % args.out)
    if outdir:
        if ns[-1] > MAX_EXPORT_N:
            raise UsageError("--export-ops takes n <= %d, got n=%d"
                             % (MAX_EXPORT_N, ns[-1]))
        path = os.path.abspath(outdir)
        while not os.path.exists(path):
            path = os.path.dirname(path)
        if not os.path.isdir(path):
            raise UsageError("cannot make the directory %r: %r is a file"
                             % (outdir, path))


def _export_generator_ops(ns, outdir):
    from . import algebra, tensor
    os.makedirs(outdir, exist_ok=True)
    for n in ns:
        for kind, builder in (("T", algebra.T), ("E", algebra.E)):
            for i in range(1, n):
                op = tensor.represent(builder(i, n))
                path = os.path.join(outdir, "n%d_%s%d.txt" % (n, kind, i))
                with open(path, "w") as fh:
                    tensor.export_operator_triplets(op, n, fh)


def render_markdown(report):
    lines = ["# btkit %s report" % report["suite"], ""]
    lines.append("- params: `%s`" % json.dumps(report["params"], sort_keys=True))
    s = report["summary"]
    lines.append("- checks: %d total, %d passed, %d failed, %d informational"
                 % (s["total"], s["passed"], s["failed"], s["info"]))
    lines.append("")
    for status, title in (("fail", "Failures"), ("info", "Findings")):
        entries = [c for c in report["checks"] if c["status"] == status]
        if entries:
            lines.append("## " + title)
            lines.append("")
            for c in entries:
                extra = {k: v for k, v in c.items()
                         if k not in ("id", "instance", "status")}
                lines.append("- `%s` %s %s" % (
                    c["id"], json.dumps(c["instance"], default=str),
                    json.dumps(extra, sort_keys=True, default=str)
                    if extra else ""))
            lines.append("")
    for key in ("quotient", "ranks", "trace"):
        if key in report:
            lines.append("## %s" % key)
            lines.append("")
            lines.append("```json")
            lines.append(json.dumps(report[key], indent=2, sort_keys=True,
                                    default=str))
            lines.append("```")
            lines.append("")
    lines.append("## All checks")
    lines.append("")
    lines.append("| id | instance | status |")
    lines.append("|---|---|---|")
    for c in report["checks"]:
        lines.append("| %s | %s | %s |" % (
            c["id"], json.dumps(c["instance"], default=str), c["status"]))
    lines.append("")
    return "\n".join(lines)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # accept the flag spelling `--suite NAME` as an alias for the subcommand
    if "--suite" in argv:
        k = argv.index("--suite")
        if k + 1 >= len(argv):
            print("error: --suite needs a value", file=sys.stderr)
            return 2
        name = argv[k + 1]
        argv = [name] + argv[:k] + argv[k + 2:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.suite:
        parser.print_help()
        return 2
    from .domains import PointError
    try:
        report = run_suite(args)
    except (UsageError, PointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    else:
        text = render_markdown(report)
        if not text.endswith("\n"):
            text += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: cannot write the report to %r: %s"
                  % (args.out, exc.strerror), file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            print("error: cannot write the report to stdout: %s"
                  % exc.strerror, file=sys.stderr)
            # the unwritten bytes stay in stdout's buffer; point fd 1 at
            # devnull so that the flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 2
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
