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
            ech.insert(index.vector(lg * index.basis_elem(k)))
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
    checks = verify_presentations(3, ib, SYMBOLIC, ib_untied)
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
    span = spanning_check(3, ib)
    assert span["candidates"] == 25 == bell_number(3) * catalan_number(3)
    assert span["nonzero_candidates"] == 25
    # the candidates stay independent modulo the tied ideal but do not span
    assert span["spanning_rank"] == 25
    assert span["quotient_dim"] == 29
    untied = build_ideal(3, tied=False)
    span_untied = spanning_check(3, untied)
    # they do span the bare-Steinberg quotient
    assert span_untied["spanning_rank"] == untied.quotient_dim == 19


def test_spanning_n2_without_ideal():
    span = spanning_check(2, None)
    assert span["candidates"] == 4
    assert span["spanning_rank"] == 4 == span["quotient_dim"]


def test_n4_specialized_dimensions_agree():
    dims = []
    for pt, p in zip((Fraction(5, 7), Fraction(3, 2)), PRIMES):
        dom = PrimeDomain(pt, p)
        ib = build_ideal(4, dom)
        assert verify_ideal_closure(ib)
        untied = build_ideal(4, dom, tied=False)
        span = spanning_check(4, ib, dom)
        dims.append((ib.dim, untied.dim, span["spanning_rank"],
                     spanning_check(4, untied, dom)["spanning_rank"]))
    assert dims[0] == dims[1]
    ideal_dim, untied_dim, span_rank, untied_rank = dims[0]
    assert ideal_dim == 26 and 360 - ideal_dim == 334
    assert untied_dim == 262 and 360 - untied_dim == 98
    assert span_rank == 210      # candidates independent mod the tied ideal
    assert untied_rank == 98     # candidates span the untied quotient


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
    # the check scatters every row under every table, in blocks of at most
    # qt.BLOCK rows, the last block included
    seen = []
    scatter_batch = ib.ech.scatter_batch
    ib.ech.scatter_batch = lambda table, rows: (
        seen.append(len(rows)) or scatter_batch(table, rows))
    assert verify_ideal_closure(ib)
    assert max(seen) <= qt.BLOCK
    assert sum(seen) == 4 * 3 * ib.dim


def test_flipped_generator_same_ideal():
    ib = build_ideal(3)
    flipped = (alg.steinberg(1, 2, 3) * alg.E(1, 3) * alg.E(2, 3))
    assert ib.contains(flipped)


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
    # product with the generator, on the table's side; the raw commutator
    # entries of each source add up to the row of x g - g x
    index = alg.BasisIndex(n, dom)
    ech = dom.echelon(len(index))
    tables = qt.generator_actions(index, ech)
    gens = {"T": alg.T, "E": alg.E, "F": alg.F}
    assert sorted(tables) == sorted(
        (name, i) for name in ("LT", "RT", "LE", "RE", "RF", "CT", "CE")
        for i in range(1, n))
    for (name, i), table in tables.items():
        g = gens[name[1]](i, n, dom)
        if name[0] == "C":
            rows = [[dom.zero] * len(index) for _ in range(len(index))]
            for s, d, c in zip(*table):
                rows[s][d] = rows[s][d] + c
        for k in range(len(index)):
            x = index.basis_elem(k)
            if name[0] == "C":
                assert rows[k] == index.vector(x * g - g * x), (name, i, k)
                continue
            image = ech.to_coeffs(
                ech.scatter(table, ech.from_coeffs(index.vector(x))))
            expected = {"L": g * x, "R": x * g}[name[0]]
            assert image == index.vector(expected), (name, i, k)


def test_action_table_coefficients_n3():
    # the one-generator products of the basis carry 1, u and u - 1 for T_i
    # and only 1 for E_i (symbolic, n = 3)
    index = alg.BasisIndex(3)
    tables = qt.generator_actions(index, SYMBOLIC.echelon(len(index)))
    one, u = SYMBOLIC.one, SYMBOLIC.u
    for name in ("LT", "RT", "LE", "RE"):
        for i in (1, 2):
            entries, _ = tables[name, i]
            want = {one, u, u - one} if name[1] == "T" else {one}
            assert {c for _, _, c in entries} == want, (name, i)


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
