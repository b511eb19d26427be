"""Named verification suites: deterministic orchestration of the library
modules into machine-readable reports.

Each suite returns a plain dict: ``checks`` is the flat pass/fail/info list
(the exit-code contract counts only ``fail`` entries), suite-specific blocks
carry the numbers.  Reports contain no timestamps; a fixed seed gives
byte-identical output.  Each suite imports the one module it runs
(``tensor``, ``quotient`` or ``trace``), so a process that runs one suite
loads no other suite's modules.
"""

import random
from fractions import Fraction

from . import algebra
from .domains import PRIMES, SYMBOLIC, PointError, PrimeDomain
from .partitions import bell_number

SCHEMA_VERSION = 1
DEFAULT_POINTS = (Fraction(5, 7), Fraction(3, 2))


def _entry(check_id, instance, ok, **extra):
    e = {"id": check_id, "instance": instance,
         "status": "pass" if ok else "fail"}
    e.update(extra)
    return e


def _info(check_id, instance, **extra):
    e = {"id": check_id, "instance": instance, "status": "info"}
    e.update(extra)
    return e


def _summarize(report):
    checks = report["checks"]
    report["summary"] = {
        "total": len(checks),
        "passed": sum(1 for c in checks if c["status"] == "pass"),
        "failed": sum(1 for c in checks if c["status"] == "fail"),
        "info": sum(1 for c in checks if c["status"] == "info"),
    }
    return report


def _check_point_count(suite, ns, points):
    """At n >= 4 the quotient and trace suites pair the k-th point with the
    k-th prime, so they take at most len(PRIMES) points there."""
    if any(n >= 4 for n in ns) and len(points) > len(PRIMES):
        raise PointError("suite %s pairs each point with one of %d primes at "
                         "n >= 4, got %d points"
                         % (suite, len(PRIMES), len(points)))


def relations_suite(ns, seed=0):
    from . import tensor
    report = {"schema_version": SCHEMA_VERSION, "suite": "relations",
              "params": {"n": list(ns), "seed": seed},
              "checks": []}
    checks = report["checks"]
    for n in ns:
        for c in algebra.verify_relations(n):
            checks.append(_entry("engine-" + c["id"], [n] + c["instance"],
                                 c["ok"]))
        if n >= 3:
            for c in tensor.verify_relations_in_rep(n, seed=seed):
                checks.append(_entry(c["id"], [n] + c["instance"], c["ok"]))
    for c in tensor.classical_jimbo_check():
        checks.append(_entry(c["id"], c["instance"], c["ok"]))
    return _summarize(report)


def _quotient_combos(n, points):
    """The (label, domain) pairs a quotient at n is computed in: exact for
    n <= 3; above, points[k] in the field of PRIMES[k], and a single point
    in both fields, so that two specializations can agree."""
    if n <= 3:
        return [("symbolic", SYMBOLIC)]
    if len(points) == 1:
        points = list(points) * len(PRIMES)
    return [("s=%s p=%d" % (pt, p), PrimeDomain(pt, p))
            for pt, p in zip(points, PRIMES)]


def quotient_suite(ns, points=DEFAULT_POINTS, seed=0):
    from . import quotient
    _check_point_count("quotient", ns, points)
    report = {"schema_version": SCHEMA_VERSION, "suite": "quotient",
              "params": {"n": list(ns), "points": [str(p) for p in points],
                         "seed": seed},
              "checks": [], "quotient": []}
    checks = report["checks"]
    for n in ns:
        conjectured = bell_number(n) * quotient.catalan_number(n)
        combos = _quotient_combos(n, points)
        block = {"n": n, "conjectured_dim": conjectured,
                 "specialization_points": [label for label, _ in combos],
                 "presentation_checks": []}
        dims, udims, spans = [], [], []
        for ci, (label, dom) in enumerate(combos):
            # the tied ideal's own checks run before the bare-Steinberg
            # ideal (8 times its size at n = 5) is built, so that the two
            # live together only for the checks that need both
            ib = quotient.build_ideal(n, dom)
            closed = quotient.verify_ideal_closure(ib)
            dims.append(ib.dim)
            span = quotient.spanning_check(ib)
            spans.append(span["spanning_rank"])
            if ci == 0:
                sane = _reduction_sanity(ib, seed)
                if n >= 4:
                    alt_pair = _alt_pair_equality(ib)
                flip = _flip_generator_contained(ib)
            ib_untied = quotient.build_ideal(n, dom, tied=False)
            checks.append(_entry("ideal-closure", [n, label], closed))
            checks.append(_entry("steinberg-ideal-closure", [n, label],
                                 quotient.verify_ideal_closure(ib_untied)))
            udims.append(ib_untied.dim)
            if ci == 0:
                span_untied = quotient.spanning_check(ib_untied)
                block.update(ideal_dim=ib.dim, quotient_dim=ib.quotient_dim,
                             spanning_rank=span["spanning_rank"],
                             steinberg_ideal_dim=ib_untied.dim,
                             steinberg_quotient_dim=ib_untied.quotient_dim,
                             steinberg_spanning_rank=span_untied["spanning_rank"])
                checks.append(_entry("reduction-sanity", [n, label], sane))
                checks.append(_entry(
                    "spanning-rank-equals-quotient-dim", [n, label],
                    span["spanning_rank"] == ib.quotient_dim,
                    spanning_rank=span["spanning_rank"],
                    quotient_dim=ib.quotient_dim,
                    note="candidate words span the bare-Steinberg quotient "
                         "instead (rank %d = dim %d): %s"
                         % (span_untied["spanning_rank"],
                            ib_untied.quotient_dim,
                            span_untied["spanning_rank"]
                            == ib_untied.quotient_dim)))
                checks.append(_entry(
                    "candidates-nonzero", [n, label],
                    span["nonzero_candidates"] == span["candidates"]))
                for c in quotient.verify_presentations(ib, ib_untied):
                    block["presentation_checks"].append(c)
                    ok = (c["holds_in_algebra"]
                          == (not c["id"].endswith("sandwich")))
                    ok = ok and c["holds_mod_ideal"]
                    checks.append(_entry(
                        c["id"], [n] + c["instance"], ok,
                        holds_in_algebra=c["holds_in_algebra"],
                        holds_mod_ideal=c["holds_mod_ideal"],
                        holds_mod_steinberg_ideal=c[
                            "holds_mod_steinberg_ideal"]))
                if n >= 4:
                    checks.append(_entry(
                        "ideal-independent-of-generator-pair", [n, label],
                        alt_pair))
                checks.append(_entry(
                    "tied-generator-two-sided-flip", [n, label], flip))
            # release this combination's ideals before the next is built
            del ib, ib_untied
        if len(combos) > 1:
            checks.append(_entry("quotient-dim-agreement", [n],
                                 len(set(dims)) == 1 and len(set(udims)) == 1
                                 and len(set(spans)) == 1,
                                 dims=dims, steinberg_dims=udims, spans=spans))
        checks.append(_info(
            "quotient-dim-vs-conjecture", [n],
            quotient_dim=block["quotient_dim"], conjectured_dim=conjectured,
            agrees=block["quotient_dim"] == conjectured,
            steinberg_quotient_dim=block["steinberg_quotient_dim"],
            note="evidence only; disagreement is a finding, not a failure"))
        report["quotient"].append(block)
    return _summarize(report)


def _reduction_sanity(ib, seed):
    """The canonical form in block coordinates: g reduces to 0 and 1 to its
    own form; the reduction is idempotent and linear, and a + g b reduces
    as a does."""
    n, dom = ib.blocks.n, ib.blocks.dom
    form = ib.blocks.form
    rng = random.Random(seed)
    g = algebra.ideal_generator_element(n, dom)
    one = form(algebra.one(n, dom))
    if ib.reduce(form(g)) or ib.reduce(one) != one:
        return False
    for _ in range(10):
        a = algebra.random_basis_element(n, rng, dom)
        b = algebra.random_basis_element(n, rng, dom)
        ra, rb = ib.reduce(form(a)), ib.reduce(form(b))
        if ib.reduce(ra) != ra:
            return False
        rab, zero = ib.reduce(form(a + b)), dom.zero
        if any(rab.get(k, zero) != ra.get(k, zero) + rb.get(k, zero)
               for k in set(rab) | set(ra) | set(rb)):
            return False
        if ib.reduce(form(a + g * b)) != ra:
            return False
    return True


def _alt_pair_equality(ib12):
    from . import quotient
    n, dom = ib12.blocks.n, ib12.blocks.dom
    # block by block: of equal rank, one J_mu inside the other is the other
    return all(o.rank == e.rank and e.spans(o.rows)
               for other in (quotient.build_ideal(n, dom, pair=(i, i + 1))
                             for i in range(2, n - 1))
               for e, o in zip(ib12.echs, other.echs))


def _flip_generator_contained(ib):
    n, dom = ib.blocks.n, ib.blocks.dom
    # T_{12} E_1 E_2 is E_1 E_2 T_{12}, so it generates the same ideal
    flipped = (algebra.steinberg(1, 2, n, dom)
               * algebra.E(1, n, dom) * algebra.E(2, n, dom))
    return flipped == algebra.ideal_generator_element(n, dom)


def rank_suite(ns, points=DEFAULT_POINTS):
    from . import tensor
    report = {"schema_version": SCHEMA_VERSION, "suite": "rank",
              "params": {"n": list(ns), "points": [str(p) for p in points]},
              "checks": [], "ranks": []}
    for n in ns:
        res = tensor.representation_rank(n, points=points)
        report["ranks"].append(res)
        report["checks"].append(_entry("rank-point-agreement", [n],
                                       res["agreement"],
                                       ranks=res["ranks"],
                                       symbolic=res.get("symbolic_rank")))
        report["checks"].append(_entry(
            "representation-rank", [n], res.get("rank") == res["algebra_dim"],
            rank=res.get("rank"), algebra_dim=res["algebra_dim"],
            kernel_dim=res.get("kernel_dim")))
    return _summarize(report)


def trace_suite(ns, points=DEFAULT_POINTS):
    from . import trace
    _check_point_count("trace", ns, points)
    report = {"schema_version": SCHEMA_VERSION, "suite": "trace",
              "params": {"n": list(ns), "points": [str(p) for p in points]},
              "checks": [], "trace": []}
    checks = report["checks"]
    for n in ns:
        if n <= 3:
            tf = trace.solve_trace(n)
            checks.append(_entry("trace-exists", [n, "symbolic"], tf.exists))
            checks.append(_entry("trace-unique", [n, "symbolic"], tf.unique,
                                 rank=tf.rank))
            block = {"n": n, "mode": "symbolic",
                     "implied_middle_rules": tf.implied_middle_rules,
                     "middle_rules": tf.middle_rules,
                     "table": tf.table_json() if tf.exists else None}
            report["trace"].append(block)
            if n == 3 and tf.exists:
                checks.extend(_level3_value_checks(tf))
                fc = trace.factorization_condition(tf)
                block["factorization"] = fc
                checks.append(_entry("trace-ideal-value-polynomial", [3],
                                     fc["matches_expected"],
                                     value=fc["value"]))
                checks.append(_entry("trace-vanishing-lines", [3],
                                     fc["vanishes_at_A_eq_minus_B"]
                                     and fc["vanishes_at_A_eq_minus_B_over_1_plus_u"]
                                     and fc["nonzero_at_A_eq_B"],
                                     at_A_eq_B=fc["value_at_A_eq_B"]))
                checks.append(_entry("trace-scalar-multiple-step", [3],
                                     fc["scalar_multiple_step"]))
        else:
            for pt, p in zip(points, PRIMES):
                dom = PrimeDomain(pt, p)
                tf = trace.solve_trace(n, dom)
                label = "s=%s p=%d" % (pt, p)
                checks.append(_entry("trace-exists", [n, label], tf.exists))
                checks.append(_info("trace-unique-evidence", [n, label],
                                    unique=tf.unique, rank=tf.rank))
                report["trace"].append(
                    {"n": n, "mode": label, "exists": tf.exists,
                     "unique": tf.unique, "rank": tf.rank,
                     "implied_middle_rules": tf.implied_middle_rules,
                     "middle_rules": tf.middle_rules})
    return _summarize(report)


def _level3_value_checks(tf):
    import btkit.scalars as sc
    from .partitions import SetPartition, arc_partition, generator_partition

    U, A, B, ONE, TWO = sc.U, sc.A, sc.B, sc.ONE, sc.TWO
    t12 = algebra.steinberg(1, 2, 3)
    out = []
    example = algebra.E(1, 3) * algebra.T(1, 3) * algebra.T(2, 3) * algebra.T(1, 3)
    out.append(_entry(
        "trace-worked-example", [3],
        tf.evaluate(example) == U * A * B + (U - ONE) * A * A,
        value=str(tf.evaluate(example))))
    out.append(_entry(
        "trace-steinberg-value", [3],
        tf.evaluate(t12) == (U + ONE) * A * A + sc.Scalar.from_int(3) * A
        + (U - ONE) * A * B + ONE,
        value=str(tf.evaluate(t12))))
    full = algebra.E_of_partition(SetPartition.full(3))
    out.append(_entry(
        "trace-full-tie-steinberg-value", [3],
        tf.evaluate(full * t12) == (U + ONE) * A * A + (U + TWO) * A * B + B * B,
        value=str(tf.evaluate(full * t12))))
    expected = (U + ONE) * A * A + (U + ONE) * A * B + A + B
    ok = True
    for I in (generator_partition(1, 3), generator_partition(2, 3),
              arc_partition(1, 3, 3)):
        got = tf.evaluate(algebra.E_of_partition(I) * t12)
        ok = ok and got == expected
    out.append(_entry("trace-two-block-tie-steinberg-value", [3], ok))
    return out

