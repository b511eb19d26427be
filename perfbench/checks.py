"""Checks of btkit suite reports.

Each check compares a report with facts established apart from the suite
that wrote it: counts fixed by definition (Bell(n) n!, Catalan(n)), the
defining relations of E_n(u) as listed by their index conditions, the
reference ideal dimensions of ``regen_dims.py`` (a different construction of
the same ideals), the faithfulness of the tensor representation
(Ryom-Hansen 2011) and the existence and uniqueness of the Markov trace
(Aicardi-Juyumaya 2016), plus properties the returned trace table must have.
``check_run`` returns the list of problems; an empty list is a pass.
"""

import json
import os
import random
import sys
from fractions import Fraction
from math import comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIMS = os.path.join(HERE, "reference_dims.json")
# the trace-table checks evaluate products with the btkit engine
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# the checks the quotient suite reports as `fail` although they are proved
# refutations of the conjectured dimension Bell(n) Catalan(n)
PROVED_REFUTATIONS = {"spanning-rank-equals-quotient-dim",
                      "quot-F-sandwich", "quot-L-sandwich"}


def bell(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def algebra_dim(n):
    return bell(n) * factorial(n)


def defining_relations(n):
    """(relation id, params) of every instance of the defining relations
    (1)-(9) of E_n(u) on generators 1..n-1, from their index conditions."""
    gens = range(1, n)
    out = set()
    for i in gens:
        out.add(("quadratic", (i,)))                   # (3)
        out.add(("tie-idempotent", (i,)))              # (5)
        out.add(("tie-own-braid-commute", (i,)))       # (7)
        for j in gens:
            if j - i > 1:
                out.add(("braid-commute", (i, j)))     # (1), unordered
            if j == i + 1:
                out.add(("braid", (i, j)))             # (2), unordered
            if i < j:
                out.add(("tie-commute", (i, j)))       # (4), unordered
            if abs(i - j) > 1:
                out.add(("tie-far-braid-commute", (i, j)))  # (6)
            if abs(i - j) == 1:
                out.add(("tie-pair-slide", (i, j)))    # (8), first equality
                out.add(("tie-pair-project", (i, j)))  # (8), second equality
                out.add(("tie-cross", (i, j)))         # (9)
    return out


def load_reference_dims(path=REFERENCE_DIMS):
    """{n: {dimension name: value}}, requiring the combinations to agree."""
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    for n, combos in data["dims"].items():
        values = list(combos.values())
        if any(v != values[0] for v in values):
            raise ValueError("reference combinations disagree at n=%s" % n)
        out[int(n)] = values[0]
    return out


def _summary_problems(report):
    checks = report["checks"]
    counts = {status: sum(1 for c in checks if c["status"] == status)
              for status in ("pass", "fail", "info")}
    if counts["pass"] + counts["fail"] + counts["info"] != len(checks):
        return ["unknown check status"]
    expected = {"total": len(checks), "passed": counts["pass"],
                "failed": counts["fail"], "info": counts["info"]}
    if report.get("summary") != expected:
        return ["summary %r does not count the checks %r"
                % (report.get("summary"), expected)]
    return []


def _fails(report, allowed=()):
    return ["check %s %s failed" % (c["id"], c["instance"])
            for c in report["checks"]
            if c["status"] == "fail" and c["id"] not in allowed]


def check_relations(report, ns, points, seed, ref):
    problems = _fails(report)
    have = {(c["id"], tuple(c["instance"])) for c in report["checks"]
            if c["status"] == "pass"}
    for n in ns:
        for rel, params in sorted(defining_relations(n)):
            for prefix in ("engine-", "rep-"):
                if (prefix + rel, (n,) + params) not in have:
                    problems.append("relation %s%s%r at n=%d not verified"
                                    % (prefix, rel, params, n))
    if not any(c["id"] == "rep-homomorphism" and c["status"] == "pass"
               for c in report["checks"]):
        problems.append("no passing homomorphism check")
    return problems


def check_quotient(report, ns, points, seed, ref):
    problems = _fails(report, allowed=PROVED_REFUTATIONS)
    blocks = report.get("quotient", [])
    if [b["n"] for b in blocks] != list(ns):
        return problems + ["quotient blocks for n=%r, expected %r"
                           % ([b["n"] for b in blocks], list(ns))]
    for b in blocks:
        n = b["n"]
        dim = algebra_dim(n)
        r = ref[n]
        want = {"ideal_dim": r["ideal_dim"],
                "quotient_dim": dim - r["ideal_dim"],
                "steinberg_ideal_dim": r["steinberg_ideal_dim"],
                "steinberg_quotient_dim": dim - r["steinberg_ideal_dim"],
                "conjectured_dim": bell(n) * catalan(n)}
        if n == 3:
            # proved at n = 3 (see CHANGES.md): the defining ideal is the
            # line through E_1E_2T_12; the 25 candidate words stay independent
            # modulo it and span the quotient by the bare Steinberg ideal
            want.update(ideal_dim=1, quotient_dim=29,
                        spanning_rank=bell(3) * catalan(3),
                        steinberg_spanning_rank=dim - r["steinberg_ideal_dim"])
        for key, value in sorted(want.items()):
            if b.get(key) != value:
                problems.append("n=%d %s = %r, expected %r"
                                % (n, key, b.get(key), value))
        if b.get("ideal_dim", 0) + b.get("quotient_dim", 0) != dim:
            problems.append("n=%d ideal dim + quotient dim != %d" % (n, dim))
        if not b.get("spanning_rank", dim) <= min(b.get("quotient_dim", 0),
                                                  bell(n) * catalan(n)):
            problems.append("n=%d spanning rank %r exceeds min(quotient dim, "
                            "Bell*Catalan)" % (n, b.get("spanning_rank")))
        labels = b.get("specialization_points", [])
        expected_combos = 1 if n <= 3 else len(points)
        if len(labels) != expected_combos:
            problems.append("n=%d ran %d combinations, expected %d"
                            % (n, len(labels), expected_combos))
        for label in labels:
            for cid in ("ideal-closure", "steinberg-ideal-closure"):
                if not _passed(report, cid, [n, label]):
                    problems.append("%s not passed at n=%d %s"
                                    % (cid, n, label))
        if len(labels) > 1:
            agree = _find(report, "quotient-dim-agreement", [n])
            if agree is None or agree["status"] != "pass":
                problems.append("n=%d combinations disagree" % n)
            elif (set(agree["dims"]) != {r["ideal_dim"]}
                  or set(agree["steinberg_dims"])
                  != {r["steinberg_ideal_dim"]}):
                problems.append("n=%d per-combination dims %r/%r differ from "
                                "the reference" % (n, agree["dims"],
                                                   agree["steinberg_dims"]))
    return problems


def check_rank(report, ns, points, seed, ref):
    problems = _fails(report)
    blocks = report.get("ranks", [])
    if [b["n"] for b in blocks] != list(ns):
        return problems + ["rank blocks for n=%r" % [b["n"] for b in blocks]]
    for b in blocks:
        n = b["n"]
        dim = algebra_dim(n)
        if b.get("algebra_dim") != dim:
            problems.append("n=%d algebra_dim %r" % (n, b.get("algebra_dim")))
        if n <= 3 and b.get("symbolic_rank") != dim:
            problems.append("n=%d symbolic rank %r, expected %d"
                            % (n, b.get("symbolic_rank"), dim))
        per_point = 1 if n <= 3 else 2   # n = 4 runs each point at two primes
        if len(b.get("ranks", [])) != per_point * len(points):
            problems.append("n=%d ran %d specializations, expected %d"
                            % (n, len(b.get("ranks", [])),
                               per_point * len(points)))
        for r in b.get("ranks", []):
            if r.get("rank") != dim:
                problems.append("n=%d rank %r at %r, expected %d"
                                % (n, r.get("rank"), r, dim))
        if b.get("rank") != dim or b.get("kernel_dim") != 0:
            problems.append("n=%d rank %r kernel %r" % (
                n, b.get("rank"), b.get("kernel_dim")))
    return problems


def check_trace(report, ns, points, seed, ref):
    problems = _fails(report)
    blocks = report.get("trace", [])
    tables = {}
    level4 = []
    for n in ns:
        dim = algebra_dim(n)
        mine = [b for b in blocks if b["n"] == n]
        if n <= 3:
            if len(mine) != 1 or not mine[0].get("table"):
                problems.append("n=%d: no symbolic trace table" % n)
                continue
            tables[n] = mine[0]["table"]
            if len(tables[n]) != dim:
                problems.append("n=%d table has %d entries, expected %d"
                                % (n, len(tables[n]), dim))
            unique = _find(report, "trace-unique", [n, "symbolic"])
            if not _passed(report, "trace-exists", [n, "symbolic"]) or \
                    unique is None or unique["status"] != "pass" or \
                    unique.get("rank") != dim:
                problems.append("n=%d trace not existing and unique with "
                                "rank %d" % (n, dim))
        else:
            if len(mine) != len(points):
                problems.append("n=%d ran %d combinations, expected %d"
                                % (n, len(mine), len(points)))
            for b in mine:
                if not (b.get("exists") and b.get("unique")
                        and b.get("rank") == dim):
                    problems.append("n=%d %s: trace not existing and unique "
                                    "with rank %d" % (n, b.get("mode"), dim))
                level4.append((b.get("rank"), b.get("implied_middle_rules")))
    if len(set(level4)) > 1:
        problems.append("n=4 combinations disagree on rank and implied "
                        "middle rules: %r" % level4)
    if 3 in tables:
        problems.extend(_check_table3(tables, seed))
    return problems


def _check_table3(tables, seed):
    """rho(1) = 1, the tower rules from level n-1, rho(ab) = rho(ba) on a
    seeded sample of basis pairs, and the ideal value, all compared as
    rational functions evaluated at random rational (sqrt(u), A, B)."""
    from btkit import algebra, scalars
    from btkit.partitions import SetPartition, intern_partition
    from btkit.permutations import Permutation, intern_perm

    rng = random.Random(seed)
    # sqrt(u) in (0, 1), so u is neither 1 nor -1
    pts = [(Fraction(rng.randint(2, 97), rng.randint(98, 197)),
            Fraction(rng.randint(1, 97), rng.randint(1, 97)),
            Fraction(rng.randint(1, 97), rng.randint(1, 97)))
           for _ in range(2)]

    def pair_of(key):
        rgs, images = key.split(" ")
        return (intern_partition(tuple(int(x) for x in rgs.split(","))),
                intern_perm(tuple(int(x) for x in images.split(","))))

    def key_of(I, w):
        return "%s %s" % (",".join(map(str, I.rgs)),
                          ",".join(map(str, w.images)))

    def values(table, pt):
        s, a, b = pt
        return {k: scalars.parse_scalar(v).evaluate(s=s, A=a, B=b)
                for k, v in table.items()}

    def rho(vals, elem, pt):
        s, a, b = pt
        return sum((c.evaluate(s=s, A=a, B=b) * vals[key_of(I, w)]
                    for (I, w), c in elem.terms.items()), Fraction(0))

    problems = []
    for pt in pts:
        s, a, b = pt
        u = s * s
        vals = {n: values(t, pt) for n, t in tables.items()}
        vals.setdefault(1, {"0 1": Fraction(1)})
        for n in sorted(tables):
            ident = key_of(SetPartition.unit(n), Permutation.identity(n))
            if vals[n][ident] != 1:
                problems.append("n=%d rho(1) != 1" % n)
            if n - 1 not in vals:
                continue
            t_last = algebra.T(n - 1, n)
            e_last = algebra.E(n - 1, n)
            for key, prev in vals[n - 1].items():
                I, w = pair_of(key)
                x = algebra.AlgebraElement(n, {(
                    intern_partition(I.rgs + (max(I.rgs) + 1,)),
                    intern_perm(w.images + (n,))): scalars.ONE})
                for name, elem, want in (
                        ("x T", x * t_last, a * prev),
                        ("x E", x * e_last, b * prev),
                        ("x E T", x * e_last * t_last, a * prev)):
                    if rho(vals[n], elem, pt) != want:
                        problems.append("n=%d tower rule rho(%s) fails at "
                                        "x=%s" % (n, name, key))
        keys = sorted(tables[3])
        for _ in range(40):
            k1, k2 = rng.choice(keys), rng.choice(keys)
            x1 = algebra.AlgebraElement(3, {pair_of(k1): scalars.ONE})
            x2 = algebra.AlgebraElement(3, {pair_of(k2): scalars.ONE})
            if rho(vals[3], x1 * x2, pt) != rho(vals[3], x2 * x1, pt):
                problems.append("rho(ab) != rho(ba) for %s, %s" % (k1, k2))
        # E_1E_2 T_12 = sum over w in S_3 of the basis terms E_{123} T_w
        full = ",".join(map(str, SetPartition.full(3).rgs))
        value = sum(v for k, v in vals[3].items() if k.split(" ")[0] == full)
        if value != (u + 1) * a * a + (u + 2) * a * b + b * b:
            problems.append("rho(E_1E_2T_12) != (u+1)A^2 + (u+2)AB + B^2")
    return problems


def _find(report, check_id, instance):
    for c in report["checks"]:
        if c["id"] == check_id and c["instance"] == instance:
            return c
    return None


def _passed(report, check_id, instance):
    c = _find(report, check_id, instance)
    return c is not None and c["status"] == "pass"


SUITE_CHECKS = {"relations": check_relations, "quotient": check_quotient,
                "rank": check_rank, "trace": check_trace}
# the quotient suite exits 1 on its proved refutations today; the check reads
# the reported numbers, so 0 is accepted too
ALLOWED_EXIT = {"relations": {0}, "quotient": {0, 1}, "rank": {0},
                "trace": {0}}


def check_run(suite, ns, points, seed, exit_code, stderr_text, report_text,
              ref):
    """Problems with one suite process: its exit code, its stderr and the
    report it wrote, checked against the requested n range and points.
    ``points`` is None when the CLI's default points were requested; the
    suite checks take the points from the report's params."""
    if "Traceback (most recent call last)" in stderr_text:
        return ["traceback on stderr"]
    if exit_code not in ALLOWED_EXIT[suite]:
        return ["exit code %r" % exit_code]
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc]
    try:
        if report.get("suite") != suite:
            return ["report is for suite %r" % report.get("suite")]
        if report["params"]["n"] != list(ns):
            return ["report params n=%r" % report["params"]["n"]]
        ran = report["params"].get("points", [])
        if points is not None and ran != list(points):
            return ["report params points=%r, requested %r" % (ran, points)]
        problems = _summary_problems(report)
        problems += SUITE_CHECKS[suite](report, ns, ran, seed, ref)
    except (KeyError, TypeError, AttributeError, ValueError,
            ZeroDivisionError) as exc:
        return ["malformed report: %r" % exc]
    return problems
