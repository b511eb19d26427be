import json
import random
from fractions import Fraction

import pytest

from btkit import algebra as alg
from btkit import cli
from btkit import quotient as qt
from btkit.domains import SYMBOLIC, PRIMES, PrimeDomain
from btkit.linalg import Echelon
from btkit.partitions import bell_number, enumerate_partitions
from btkit.quotient import (IdealBasis, build_ideal, catalan_number,
                            enumerate_F_reduced, ideal_generator_element,
                            spanning_check, verify_ideal_closure,
                            verify_presentations)
from oracles import mirror


def build_ideal_by_pairs(n, dom=SYMBOLIC, pair=(1, 2), tied=True):
    """The literal span of {b1 * g * b2} over all basis pairs (the slow
    oracle for :func:`build_ideal` at small n)."""
    index = alg.BasisIndex(n, dom)
    g = ideal_generator_element(n, dom, pair, tied)
    ech = Echelon(width=len(index))
    ib = IdealBasis(ech, index)
    left = [index.basis_elem(k) * g for k in range(len(index))]
    for lg in left:
        for k in range(len(index)):
            ech.insert(ech.from_coeffs(
                index.vector(lg * index.basis_elem(k))))
    return ib


def test_catalan():
    assert [catalan_number(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


def test_tied_ideal_n3_is_the_scalar_line():
    # every one- and two-sided multiple of E_1 E_2 T_{12} is a scalar
    # multiple of it, so the ideal is one-dimensional and the quotient has
    # dimension 29 (not the conjectured 25)
    ib = build_ideal(3)
    assert ib.dim == 1
    assert ib.quotient_dim == 29
    assert verify_ideal_closure(ib)
    g = ideal_generator_element(3)
    assert ib.reduce(g).is_zero()
    assert ib.contains(alg.T(1, 3) * g * alg.E(2, 3))


def test_tied_ideal_matches_pair_enumeration():
    ib = build_ideal(3)
    pairs = build_ideal_by_pairs(3)
    assert pairs.dim == ib.dim
    assert ib.ech.spans(pairs.ech.rows)
    assert pairs.ech.spans(ib.ech.rows)


def test_steinberg_ideal_n3():
    ib = build_ideal(3, tied=False)
    assert ib.dim == 11
    assert ib.quotient_dim == 19
    assert verify_ideal_closure(ib)
    pairs = build_ideal_by_pairs(3, tied=False)
    assert pairs.dim == 11
    # the tied generator lies inside the untied ideal, not conversely
    assert ib.contains(ideal_generator_element(3))
    tied = build_ideal(3)
    assert not tied.contains(alg.steinberg(1, 2, 3))


def test_reduction_is_linear_idempotent():
    rng = random.Random(5)
    ib = build_ideal(3)
    g = ideal_generator_element(3)
    for _ in range(20):
        a = alg.random_basis_element(3, rng).scale(alg.one(3).dom.u)
        b = alg.random_basis_element(3, rng)
        ra = ib.reduce(a)
        assert ib.reduce(ra) == ra
        assert ib.reduce(a + b) == ra + ib.reduce(b)
        assert ib.reduce(a + g * b) == ra
        assert ib.contains(a - (a + g * b))
    assert ib.reduce(alg.one(3)) == alg.one(3)
    assert ib.reduce(g).is_zero()


def test_equal_mod_ideal_is_equivalence():
    rng = random.Random(7)
    ib = build_ideal(3)
    elems = [alg.random_basis_element(3, rng) for _ in range(6)]
    for a in elems:
        assert ib.contains(a - a)
        for b in elems:
            assert ib.contains(a - b) == ib.contains(b - a)


def test_presentation_pattern_n3():
    ib = build_ideal(3)
    ib_untied = build_ideal(3, tied=False)
    checks = verify_presentations(ib, ib_untied)
    for c in checks:
        if c["id"].endswith("sandwich"):
            # equivalent to the bare Steinberg relation: fails in the
            # algebra AND modulo the tied ideal, holds modulo the untied one
            assert not c["holds_in_algebra"], c
            assert not c["holds_mod_ideal"], c
            assert c["holds_mod_steinberg_ideal"], c
        else:
            assert c["holds_in_algebra"], c
            assert c["holds_mod_ideal"], c


@pytest.mark.parametrize("n", [3, 4])
def test_every_identity_id_resolves_to_two_elements(n):
    for instances, sides in ((qt.presentation_instances,
                              qt.presentation_sides),
                             (alg.lemma_instances, alg.lemma_sides)):
        for pid, params in instances(n):
            lhs, rhs = sides(pid, params, n)
            assert isinstance(lhs, alg.AlgebraElement), pid
            assert isinstance(rhs, alg.AlgebraElement), pid


@pytest.mark.parametrize("sides, pid", [
    (qt.presentation_sides, "quot-F-bogus"),
    (qt.presentation_sides, "quot-X-commute"),
    (qt.presentation_sides, "bogus"),
    (alg.lemma_sides, "gamma-conj-X"),
    (alg.lemma_sides, "bogus"),
])
def test_unknown_identity_id_raises_before_building(sides, pid, monkeypatch):
    def no_element(*args, **kwargs):
        raise AssertionError("an element was built for %r" % pid)

    monkeypatch.setattr(alg.AlgebraElement, "__init__", no_element)
    with pytest.raises(ValueError, match="unknown"):
        sides(pid, (1, 2) if pid.startswith("quot") else (1,), 3)


def test_sandwich_difference_is_steinberg_multiple():
    # F_i F_j F_i - (F_i - (1-u) E_i F_i)/(u+1)^2 is a scalar multiple of
    # the Steinberg element
    from btkit import scalars as sc
    lhs, rhs = qt.presentation_sides("quot-F-sandwich", (1, 2), 3)
    diff = lhs - rhs
    st = alg.steinberg(1, 2, 3)
    c = (sc.ONE + sc.U) ** 3
    assert diff.scale(c) == st


def test_F_reduced_words():
    for n in range(1, 7):
        words = enumerate_F_reduced(n)
        assert len(words) == len(set(words)) == catalan_number(n)
    assert sorted(enumerate_F_reduced(3)) == [
        (), (1,), (1, 2), (2,), (2, 1)]
    assert enumerate_F_reduced(2) == [(), (1,)]


def test_spanning_n3():
    ib = build_ideal(3)
    span = spanning_check(ib)
    assert span["candidates"] == 25 == bell_number(3) * catalan_number(3)
    assert span["nonzero_candidates"] == 25
    # the candidates stay independent modulo the tied ideal but do not span
    assert span["spanning_rank"] == 25
    assert ib.quotient_dim == 29
    untied = build_ideal(3, tied=False)
    span_untied = spanning_check(untied)
    # they do span the bare-Steinberg quotient
    assert span_untied["spanning_rank"] == untied.quotient_dim == 19


def test_n4_specialized_dimensions_agree():
    dims = []
    for pt, p in zip((Fraction(5, 7), Fraction(3, 2)), PRIMES):
        dom = PrimeDomain(pt, p)
        ib = build_ideal(4, dom)
        assert verify_ideal_closure(ib)
        untied = build_ideal(4, dom, tied=False)
        span = spanning_check(ib)
        dims.append((ib.dim, untied.dim, span["spanning_rank"],
                     spanning_check(untied)["spanning_rank"]))
    assert dims[0] == dims[1]
    ideal_dim, untied_dim, span_rank, untied_rank = dims[0]
    assert ideal_dim == 26 and 360 - ideal_dim == 334
    assert untied_dim == 262 and 360 - untied_dim == 98
    assert span_rank == 210      # candidates independent mod the tied ideal
    assert untied_rank == 98     # candidates span the untied quotient


def test_tied_ideal_calls_come_before_the_bare_steinberg_build(monkeypatch):
    # at n = 5 the bare-Steinberg ideal is 8 times the tied one, so each
    # combination of the suite builds it only after every ideal build and
    # spanning check on the tied side
    from btkit import suites
    build, span = qt.build_ideal, qt.spanning_check
    calls, untied = [], []

    def record_build(n, dom=SYMBOLIC, *args, **kwargs):
        ib = build(n, dom, *args, **kwargs)
        tied = kwargs.get("tied", True)
        if not tied:
            untied.append(ib)
        calls.append((dom, "build", tied))
        return ib

    def record_span(*args):
        ib = next(a for a in args if isinstance(a, IdealBasis))
        tied = not any(ib is u for u in untied)
        calls.append((ib.index.dom, "span", tied))
        return span(*args)

    monkeypatch.setattr(qt, "build_ideal", record_build)
    monkeypatch.setattr(qt, "spanning_check", record_span)
    report = suites.quotient_suite([4])
    doms = []
    for dom, _, _ in calls:
        if not any(dom is d for d in doms):
            doms.append(dom)
    per_combo = [[(call, tied) for d, call, tied in calls if d is dom]
                 for dom in doms]
    for seq in per_combo:
        cut = seq.index(("build", False))
        assert all(not tied for _, tied in seq[cut:]), seq
    # the first combination also builds the (2, 3) ideal
    assert per_combo == [
        [("build", True), ("span", True), ("build", True),
         ("build", False), ("span", False)],
        [("build", True), ("span", True), ("build", False)]]
    agreement = [c for c in report["checks"]
                 if c["id"] == "quotient-dim-agreement"]
    assert [(c["status"], c["dims"], c["spans"]) for c in agreement] == [
        ("pass", [26, 26], [210, 210])]


def test_n4_ideal_independent_of_generator_pair():
    dom = PrimeDomain(Fraction(5, 7), PRIMES[0])
    ib12 = build_ideal(4, dom)
    ib23 = build_ideal(4, dom, pair=(2, 3))
    assert ib12.dim == ib23.dim
    assert ib12.ech.spans(ib23.ech.rows)
    assert ib23.ech.spans(ib12.ech.rows)


def test_closure_check_sees_a_missing_last_row():
    # the n = 4 bare-Steinberg ideal (262 rows, five blocks) without its
    # last RREF row, which sits in the last block, is not closed
    dom = PrimeDomain(Fraction(5, 7), PRIMES[0])
    ib = build_ideal(4, dom, tied=False)
    assert ib.dim == 262 and verify_ideal_closure(ib)
    ech = dom.echelon(len(ib.index))
    assert ech.insert_block(ib.ech.rows[:-1]) == 261
    assert not verify_ideal_closure(IdealBasis(ech, ib.index))
    # the check scatters every row under every right T_i and E_i table and
    # the mirror's, in blocks of at most qt.BLOCK rows, the last block
    # included
    seen = []
    scatter_batch = ib.ech.scatter_batch
    ib.ech.scatter_batch = lambda table, rows: (
        seen.append(len(rows)) or scatter_batch(table, rows))
    assert verify_ideal_closure(ib)
    assert max(seen) <= qt.BLOCK
    n = ib.index.n
    assert sum(seen) == (2 * (n - 1) + 1) * ib.dim


def test_flipped_generator_same_ideal():
    ib = build_ideal(3)
    flipped = (alg.steinberg(1, 2, 3) * alg.E(1, 3) * alg.E(2, 3))
    assert ib.contains(flipped)
    # T_{12} E_1 E_2 is the generator E_1 E_2 T_{12} itself
    for n in (3, 4, 5):
        assert (alg.steinberg(1, 2, n) * alg.E(1, n) * alg.E(2, n)
                == ideal_generator_element(n))


def test_closure_check_refuses_a_right_ideal():
    # the right ideal of E_1 T_2, closed under the right T_i and E_i tables
    # only, passes every right table but is not two-sided
    index = alg.BasisIndex(3)
    ech = SYMBOLIC.echelon(len(index))
    tables = qt.generator_actions(index, ech)
    right = [tables[name, i] for name in ("RT", "RE") for i in (1, 2)]
    ech.insert(ech.from_coeffs(index.vector(alg.E(1, 3) * alg.T(2, 3))))
    done = 0
    while done < ech.rank:
        lo, done = done, ech.rank
        for table in right:
            ech.insert_block(ech.scatter_batch(table, ech.rows[lo:done]))
    assert all(ech.spans(ech.scatter_batch(table, ech.rows))
               for table in right)
    assert not verify_ideal_closure(IdealBasis(ech, index))


@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (4, PrimeDomain(Fraction(5, 7), PRIMES[0]))],
    ids=["n3-symbolic", "n4-prime"])
@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_mirror_built_ideal_holds_the_engine_left_products(n, dom, tied):
    # the closure is the ideal as the mirror fixes its generator; then g r,
    # from the engine's general product, lies in it for every row r of the
    # ideal and every generator g
    seed = ideal_generator_element(n, dom, tied=tied)
    assert mirror(seed) == seed
    ib = build_ideal(n, dom, tied=tied)
    index, ech = ib.index, ib.ech
    gens = [gen(i, n, dom) for gen in (alg.T, alg.E) for i in range(1, n)]
    rows = [index.element(ech.to_coeffs(row)) for row in ech.rows]
    assert ech.spans([ech.from_coeffs(index.vector(g * r))
                      for r in rows for g in gens])


def test_small_n_rejected():
    with pytest.raises(ValueError):
        build_ideal(2)


def test_n3_specialized_matches_symbolic():
    dom = PrimeDomain(Fraction(5, 7), PRIMES[0])
    for tied, dim in ((True, 1), (False, 11)):
        ib = build_ideal(3, dom, tied=tied)
        assert ib.dim == dim
        assert verify_ideal_closure(ib)


def test_dimension_stability_at_u_equals_one():
    # the ideal dimensions at the special value u = 1 match generic u (n=3)
    from btkit.domains import RationalDomain
    dom = RationalDomain(1)
    assert build_ideal(3, dom).dim == 1
    assert build_ideal(3, dom, tied=False).dim == 11


@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (4, PrimeDomain(Fraction(5, 7), PRIMES[0]))],
    ids=["n3-symbolic", "n4-prime"])
def test_action_tables_match_engine_products(n, dom):
    # every table scatter of a basis row is the row of the engine's general
    # product with the generator, on the table's side
    index = alg.BasisIndex(n, dom)
    ech = dom.echelon(len(index))
    tables = qt.generator_actions(index, ech)
    gens = {"T": alg.T, "E": alg.E, "F": alg.F}
    assert set(tables) == {"mirror"} | {
        (name, i) for name in ("RT", "RE", "RF") for i in range(1, n)}
    for key, table in tables.items():
        for k in range(len(index)):
            x = index.basis_elem(k)
            image = ech.to_coeffs(ech.scatter_batch(
                table, [ech.from_coeffs(index.vector(x))])[0])
            if key == "mirror":
                expected = mirror(x)
            else:
                name, i = key
                expected = x * gens[name[1]](i, n, dom)
            assert image == index.vector(expected), (key, k)


def test_action_table_coefficients_n3():
    # the one-generator products of the basis carry 1, u and u - 1 for T_i
    # and only 1 for E_i (symbolic, n = 3)
    index = alg.BasisIndex(3)
    tables = qt.generator_actions(index, SYMBOLIC.echelon(len(index)))
    one, u = SYMBOLIC.one, SYMBOLIC.u
    for name in ("RT", "RE"):
        for i in (1, 2):
            entries = tables[name, i]
            want = {one, u, u - one} if name[1] == "T" else {one}
            assert {c for images in entries.values()
                    for _, c in images} == want, (name, i)


def test_single_point_pairs_with_both_primes(capsys):
    # one specialization is no genericity evidence: a single n = 4 point is
    # run in both prime fields, and the two must agree
    cli.main(["quotient", "--n", "4", "--points", "5/7", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["quotient"][0]["specialization_points"] == [
        "s=5/7 p=%d" % p for p in PRIMES]
    agreement = [c for c in report["checks"]
                 if c["id"] == "quotient-dim-agreement"]
    assert [c["status"] for c in agreement] == ["pass"]


def test_symbolic_n4_tied_ideal():
    # the exact closure at width 360 = dim E_4, over Q(s): the numbers of
    # tests/golden/quotient_n4.json, there from two specializations, hold
    # at generic u
    ib = build_ideal(4)
    assert ib.dim == 26 and ib.quotient_dim == 334
    assert verify_ideal_closure(ib)
    span = spanning_check(ib)
    assert (span["candidates"], span["nonzero_candidates"],
            span["spanning_rank"]) == (bell_number(4) * catalan_number(4),
                                       210, 210)
