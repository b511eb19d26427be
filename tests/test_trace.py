import hashlib
import json
import random
from fractions import Fraction

import pytest

from btkit import algebra as alg
from btkit import scalars as sc
from btkit import trace as tr
from btkit.domains import PRIMES, SYMBOLIC, PrimeDomain
from btkit.partitions import (SetPartition, arc_partition,
                              generator_partition)
from btkit.permutations import Permutation
from btkit.algebra import ideal_generator_element
from btkit.linalg import Echelon, merge_classes
from btkit.trace import right_products
from oracles import (commutator_rows, generic_trace_space_dim, in_prime_field,
                     sparse, vector)

ONE, TWO, U, A, B = sc.ONE, sc.TWO, sc.U, sc.A, sc.B


def embed_element(elem, n, dom):
    terms = {}
    for (I, w), c in elem.terms.items():
        terms[tr.embed_pair(I, w, n)] = c
    return alg.AlgebraElement(n, terms, dom)


def test_level2_table():
    tf = tr.solve_trace(2)
    assert tf.exists and tf.unique and tf.rank == 4
    unit, e = SetPartition.unit(2), Permutation.identity(2)
    s1, p1 = Permutation.transposition(1, 2), generator_partition(1, 2)
    assert tf.table[unit, e] == ONE
    assert tf.table[unit, s1] == A
    assert tf.table[p1, e] == B
    assert tf.table[p1, s1] == A


def test_level3_exists_unique():
    tf = tr.solve_trace(3)
    assert tf.exists and tf.unique and tf.rank == 30
    assert tf.table[SetPartition.unit(3), Permutation.identity(3)] == ONE


def test_worked_example():
    tf = tr.solve_trace(3)
    elem = alg.E(1, 3) * alg.T(1, 3) * alg.T(2, 3) * alg.T(1, 3)
    assert tf.evaluate(elem) == U * A * B + (U - ONE) * A * A


def test_steinberg_values():
    tf = tr.solve_trace(3)
    t12 = alg.steinberg(1, 2, 3)
    assert tf.evaluate(t12) == \
        (U + ONE) * A * A + sc.Scalar.from_int(3) * A + (U - ONE) * A * B + ONE
    full = alg.E_of_partition(SetPartition.full(3))
    assert tf.evaluate(full * t12) == \
        (U + ONE) * A * A + (U + TWO) * A * B + B * B
    expected = (U + ONE) * A * A + (U + ONE) * A * B + A + B
    for I in (generator_partition(1, 3), generator_partition(2, 3),
              arc_partition(1, 3, 3)):
        assert tf.evaluate(alg.E_of_partition(I) * t12) == expected


def test_trace_symmetry_on_products():
    rng = random.Random(3)
    tf = tr.solve_trace(3)
    for _ in range(100):
        a = alg.random_basis_element(3, rng)
        b = alg.random_basis_element(3, rng)
        assert tf.evaluate(a * b) == tf.evaluate(b * a)


def test_tower_rules_on_arbitrary_elements():
    rng = random.Random(9)
    tf2 = tr.solve_trace(2)
    tf3 = tr.solve_trace(3)
    tlast = alg.T(2, 3)
    elast = alg.E(2, 3)
    for _ in range(20):
        x2 = alg.random_basis_element(2, rng)
        x = embed_element(x2, 3, x2.dom)
        assert tf3.evaluate(x * tlast) == A * tf2.evaluate(x2)
        assert tf3.evaluate(x * elast * tlast) == A * tf2.evaluate(x2)
        assert tf3.evaluate(x * elast) == B * tf2.evaluate(x2)


def test_factorization_condition():
    fc = tr.factorization_condition(tr.solve_trace(3))
    assert fc["matches_expected"]
    assert fc["value"] == str((U + ONE) * A * A + (U + TWO) * A * B + B * B)
    assert fc["vanishes_at_A_eq_minus_B"]
    assert fc["vanishes_at_A_eq_minus_B_over_1_plus_u"]
    assert fc["nonzero_at_A_eq_B"]
    assert fc["value_at_A_eq_B"] == str((TWO * U + sc.Scalar.from_int(4)) * B * B)
    assert fc["scalar_multiple_step"]


def test_trace_vanishes_on_ideal_iff_on_the_line():
    tf = tr.solve_trace(3)
    g = ideal_generator_element(3)
    rng = random.Random(11)
    for _ in range(10):
        x = alg.random_basis_element(3, rng)
        y = alg.random_basis_element(3, rng)
        val = tf.evaluate(x * g * y)
        assert not val.subs(A=-B)
        assert not val.subs(A=-B / (ONE + U))


def test_middle_rule_redundancy_counts():
    # at level 2 the single middle rule pins a value nothing else reaches;
    # at level 3 only one of the four instances is independent
    tf2 = tr.solve_trace(2)
    assert (tf2.middle_rules, tf2.implied_middle_rules) == (1, 0)
    tf3 = tr.solve_trace(3)
    assert (tf3.middle_rules, tf3.implied_middle_rules) == (4, 3)


def test_specialized_solve_matches_symbolic():
    pt = Fraction(5, 7)
    dom = PrimeDomain(pt, PRIMES[0])
    tf_sym = tr.solve_trace(3)
    tf_p = tr.solve_trace(3, dom)
    assert tf_p.exists and tf_p.unique
    for key, val in tf_sym.table.items():
        # the stored monomial coefficients are the value's, zeros dropped
        assert tf_sym.coeffs[key] == _ab_decompose(val), key
        want = tf_p.table[key]
        got = {}
        for (ea, eb), num in _ab_decompose(val).items():
            got[(ea, eb)] = in_prime_field(num, dom)
        got = {k: v for k, v in got.items() if v}
        assert got == want.coeffs, key


def _ab_decompose(val):
    """Split a trace value into {(degA, degB): Q(s) Scalar}, zeros dropped."""
    return {k: c for k, c in val.coeffs.items() if c}


# sha256 of the n = 4 value tables at the default points, as sorted JSON
# of each basis key's residues [degA, degB, c] of the monomials c A^a B^b
N4_TABLE_DIGESTS = {
    (Fraction(5, 7), PRIMES[0]):
        "f93fa90153fb8beea85782e3cd7ce03dc0b2d3d924eb8a33a1b4fbbff566c93e",
    (Fraction(3, 2), PRIMES[1]):
        "6a5de9e3927cbce91e4957316ac8cf21137d1b4a4224a62fa3e1387d8e91a850",
}


@pytest.mark.parametrize("point, p", sorted(N4_TABLE_DIGESTS))
def test_n4_prime_tables_pinned(point, p):
    # the report gives only rank and the verdicts at n = 4, so every value
    # of the 360-entry table is pinned here, by its residues, not its text
    tf = tr.solve_trace(4, PrimeDomain(point, p))
    res = {"%s %s" % (",".join(map(str, I.rgs)),
                      ",".join(map(str, w.images))):
           sorted([a, b, c.v] for (a, b), c in value.items())
           for (I, w), value in tf.coeffs.items()}
    table = json.dumps(res, sort_keys=True).encode()
    assert len(tf.table) == 360
    assert hashlib.sha256(table).hexdigest() == N4_TABLE_DIGESTS[point, p]


def test_table_export():
    tf = tr.solve_trace(2)
    table = tf.table_json()
    assert table["0,1 1,2"] == "1"
    assert table["0,1 2,1"] == "A"
    assert table["0,0 1,2"] == "B"
    assert table["0,0 2,1"] == "A"


def test_table_export_refuses_prime_field_values():
    # the text form renders Q(s) coefficients only; repr works on any
    tf = tr.solve_trace(3, PrimeDomain(Fraction(5, 7), PRIMES[0]))
    with pytest.raises(ValueError, match=r"only Q\(s\)"):
        tf.table_json()
    assert "IntMod" in repr(next(iter(tf.table.values())))


def test_evaluate_requires_existence():
    bad = tr.TraceFunctional(2, {}, False, False, 0, 0, 0)
    with pytest.raises(ValueError):
        bad.evaluate(alg.one(2))


def _all_pair_rows(index):
    """Oracle: the rows ab - ba of every pair of basis elements, from the
    engine's general products."""
    basis = [index.basis_elem(k) for k in range(len(index))]
    return [sparse(vector(index, a * b - b * a))
            for k, a in enumerate(basis) for b in basis[k + 1:]]


@pytest.mark.parametrize("dom", [SYMBOLIC, PrimeDomain(Fraction(5, 7),
                                                       PRIMES[0])],
                         ids=["symbolic", "prime"])
def test_commutator_rows_span_all_pair_symmetry(dom):
    # [ab, c] = [a, bc] + [b, ca], so the commutators with the generators
    # span the same symmetry rows as all basis pairs
    index = alg.BasisIndex(3, dom)
    comm = Echelon(len(index), dom.zero)
    pairs = Echelon(len(index), dom.zero)
    comm_rows = commutator_rows(index)
    pair_rows = _all_pair_rows(index)
    assert len(comm_rows) == 30 * 4
    for row in comm_rows:
        comm.insert(row)
    for row in pair_rows:
        pairs.insert(row)
    assert comm.rank == pairs.rank == 22
    assert comm.spans(pair_rows) and pairs.spans(comm_rows)


# (live class roots, commutator rows of three or more terms) at n = 3, 4
CLASS_COUNTS = {3: (14, 28), 4: (78, 645)}


@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (3, PrimeDomain(Fraction(5, 7), PRIMES[0])),
    (4, PrimeDomain(Fraction(5, 7), PRIMES[0])),
    (4, PrimeDomain(Fraction(3, 2), PRIMES[1]))],
    ids=["n3-symbolic", "n3-prime", "n4-5_7", "n4-3_2"])
def test_commutator_classes_match_dense_oracle(n, dom):
    # the one- and two-term commutator rows merge the positions into
    # classes, and the longer rows, folded onto the live roots, leave a
    # trace space as large as the dense rank of every commutator row says,
    # and as the generic count of simple modules: 8 at n = 3, 22 at n = 4
    index = alg.BasisIndex(n, dom)
    width = len(index)
    root, factor, rest = merge_classes(
        width, tr._commutators(*right_products(index)), dom.one)
    live = {r: k for k, r in enumerate(sorted(set(root) - {None}))}
    assert (len(live), len(rest)) == CLASS_COUNTS[n]
    folded = Echelon(len(live), dom.zero)
    for row in rest:
        vec = [dom.zero] * len(live)
        for d, c in row.items():
            if root[d] is not None:
                vec[live[root[d]]] = vec[live[root[d]]] + c * factor[d]
        folded.insert(sparse(vec))
    dense = Echelon(width, dom.zero)
    dense.insert_block(commutator_rows(index))
    assert width - len(live) + folded.rank == dense.rank
    assert len(live) - folded.rank == width - dense.rank \
        == generic_trace_space_dim(n) == {3: 8, 4: 22}[n]


@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (4, PrimeDomain(Fraction(5, 7), PRIMES[0]))],
    ids=["n3-symbolic", "n4-prime"])
def test_commutators_match_engine_products(n, dom):
    # each commutator row, from the right products and the mirror, is the
    # row of x g - g x by the engine's general product, with no zero entry
    index = alg.BasisIndex(n, dom)
    rows = tr._commutators(*right_products(index))
    for g in (alg.T, alg.E):
        for i in range(1, n):
            gi = g(i, n, dom)
            for k in range(len(index)):
                x = index.basis_elem(k)
                expected = {index.index[pair]: c
                            for pair, c in (x * gi - gi * x).terms.items()}
                row = next(rows)
                assert row == expected and all(row.values()), (g, i, k)
    assert next(rows, None) is None
