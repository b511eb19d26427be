import json
import random
from fractions import Fraction

import pytest

from btkit import algebra as alg
from btkit import blocks, cli
from btkit import quotient as qt
from btkit.algebra import ideal_generator_element
from btkit.blocks import Ideal, close
from btkit.domains import SYMBOLIC, PRIMES, PrimeDomain, RationalDomain
from btkit.linalg import Echelon
from btkit.partitions import SetPartition, bell_number
from btkit.permutations import Permutation, enumerate_permutations
from btkit.quotient import (build_ideal, catalan_number, enumerate_F_reduced,
                            spanning_check, verify_ideal_closure,
                            verify_presentations)
from btkit.trace import right_products
from oracles import (dense, element, ideal_by_closure, mirror, sparse,
                     tie_idempotent, vector)

P0 = PrimeDomain(Fraction(5, 7), PRIMES[0])


def build_ideal_by_pairs(n, dom=SYMBOLIC, pair=(1, 2), tied=True):
    """(index, echelon) of the literal span of {b1 * g * b2} over all basis
    pairs (the slow oracle for :func:`build_ideal` at small n)."""
    index = alg.BasisIndex(n, dom)
    g = ideal_generator_element(n, dom, pair, tied)
    ech = Echelon(len(index), dom.zero)
    left = [index.basis_elem(k) * g for k in range(len(index))]
    for lg in left:
        for k in range(len(index)):
            ech.insert(sparse(vector(index, lg * index.basis_elem(k))))
    return index, ech


def _lifts(ib):
    """Each row y of each J_mu as the element eps_I y of E_n, I = I_mu:
    its one piece is y, at (I, I), as the transporter of I is 1."""
    dom, unit = ib.blocks.dom, SetPartition.unit(ib.blocks.n)
    for shape, ech in zip(ib.blocks.shapes, ib.echs):
        eps = tie_idempotent(shape.I, dom)
        for row in ech.rows:
            yield eps * alg.AlgebraElement(ib.blocks.n, {
                (unit, shape.W[j]): c for j, c in row.items()}, dom)


def assert_same_ideal(ib, index, ech):
    """The block ideal ib and the full-width echelon span one ideal: equal
    dimensions, and each holds the other's rows."""
    assert ib.dim == ech.rank
    width, zero = len(index), index.dom.zero
    assert all(ib.contains(element(index, dense(row, width, zero)))
               for row in ech.rows)
    assert ech.spans(sparse(vector(index, x)) for x in _lifts(ib))


def _plus(x, y):
    """The sum of two sparse rows."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


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
    assert not ib.reduce(ib.blocks.form(g))
    assert ib.contains(alg.T(1, 3) * g * alg.E(2, 3))


def test_tied_ideal_matches_pair_enumeration():
    assert_same_ideal(build_ideal(3), *build_ideal_by_pairs(3))


def test_steinberg_ideal_n3():
    ib = build_ideal(3, tied=False)
    assert ib.dim == 11
    assert ib.quotient_dim == 19
    assert verify_ideal_closure(ib)
    index, pairs = build_ideal_by_pairs(3, tied=False)
    assert pairs.rank == 11
    assert_same_ideal(ib, index, pairs)
    # the tied generator lies inside the untied ideal, not conversely
    assert ib.contains(ideal_generator_element(3))
    tied = build_ideal(3)
    assert not tied.contains(alg.steinberg(1, 2, 3))


def test_reduction_is_linear_idempotent():
    # the reduced block coordinates are a canonical form modulo the ideal
    rng = random.Random(5)
    ib = build_ideal(3)
    form = ib.blocks.form
    g = ideal_generator_element(3)
    for _ in range(20):
        a = alg.random_basis_element(3, rng).scale(alg.one(3).dom.u)
        b = alg.random_basis_element(3, rng)
        ra = ib.reduce(form(a))
        assert ib.reduce(ra) == ra
        assert ib.reduce(form(a + b)) == _plus(ra, ib.reduce(form(b)))
        assert ib.reduce(form(a + g * b)) == ra
        assert ib.contains(a - (a + g * b))
    assert ib.reduce(form(alg.one(3))) == form(alg.one(3)) != {}
    assert not ib.reduce(form(g))


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
    # each word extends the value of its prefix, in the same order
    assert enumerate_F_reduced(5, "", lambda w, i: w + str(i)) == [
        "".join(map(str, w)) for w in enumerate_F_reduced(5)]


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
        ib = next(a for a in args if isinstance(a, Ideal))
        tied = not any(ib is u for u in untied)
        calls.append((ib.blocks.dom, "span", tied))
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
    ib12 = build_ideal(4, P0)
    ib23 = build_ideal(4, P0, pair=(2, 3))
    assert ib12.dim == ib23.dim
    for e12, e23 in zip(ib12.echs, ib23.echs):
        assert e12.rank == e23.rank
        assert e12.spans(e23.rows) and e23.spans(e12.rows)


def test_closure_check_sees_a_missing_last_row(monkeypatch):
    # the n = 4 bare-Steinberg ideal, with any one block J_mu (of 3 to 10
    # rows) without its last row, is not closed
    ib = build_ideal(4, P0, tied=False)
    assert ib.dim == 262 and verify_ideal_closure(ib)
    assert [ech.rank for ech in ib.echs] == [10, 5, 6, 3, 10]
    for at, ech in enumerate(ib.echs):
        short = Echelon(ech.width, P0.zero)
        assert short.insert_block(ech.rows[:-1]) == ech.rank - 1
        echs = ib.echs[:at] + [short] + ib.echs[at + 1:]
        assert not verify_ideal_closure(Ideal(ib.blocks, echs)), at
    # the check multiplies every row of every J_mu, the last included, by
    # every generator of A_mu on either side
    seen = []
    apply = blocks._apply
    monkeypatch.setattr(blocks, "_apply", lambda table, row: (
        seen.append((id(table), id(row))) or apply(table, row)))
    assert verify_ideal_closure(ib)
    assert len(seen) == len(set(seen)) == sum(
        ech.rank * len(shape.right + shape.left)
        for shape, ech in zip(ib.blocks.shapes, ib.echs))


def test_flipped_generator_same_ideal():
    ib = build_ideal(3)
    flipped = (alg.steinberg(1, 2, 3) * alg.E(1, 3) * alg.E(2, 3))
    assert ib.contains(flipped)
    # T_{12} E_1 E_2 is the generator E_1 E_2 T_{12} itself
    for n in (3, 4, 5):
        assert (alg.steinberg(1, 2, n) * alg.E(1, n) * alg.E(2, n)
                == ideal_generator_element(n))


def test_closure_check_refuses_a_right_ideal():
    # the right ideal of F_1: each block seeded with the pieces of F_1 and
    # closed under the generators on the right only passes every right
    # table, but the blocks H_3 and C[S_3] are not commutative, and it is
    # not two-sided
    bl = blocks.structure(3, SYMBOLIC)
    echs = [Echelon(len(shape.W), SYMBOLIC.zero) for shape in bl.shapes]
    for off, piece in bl.pieces(bl.form(alg.F(1, 3))).items():
        echs[bl.shape_at[off]].insert(piece)
    for shape, ech in zip(bl.shapes, echs):
        close(ech, shape.right)
        closed = Echelon(ech.width, SYMBOLIC.zero)
        closed.insert_block(ech.rows)
        close(closed, shape.right)
        assert closed.rank == ech.rank
    assert not verify_ideal_closure(Ideal(bl, echs))
    assert verify_ideal_closure(bl.ideal(alg.F(1, 3)))


@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (4, P0)], ids=["n3-symbolic", "n4-prime"])
@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_mirror_built_ideal_holds_the_engine_left_products(n, dom, tied):
    # the full-width closure of the oracle is the ideal as the mirror fixes
    # its generator; then g r, from the engine's general product, lies in
    # it for every row r of the ideal and every generator g
    seed = ideal_generator_element(n, dom, tied=tied)
    assert mirror(seed) == seed
    index, ech = ideal_by_closure(n, dom, seed)
    gens = [gen(i, n, dom) for gen in (alg.T, alg.E) for i in range(1, n)]
    rows = [element(index, dense(row, len(index), dom.zero))
            for row in ech.rows]
    assert ech.spans(sparse(vector(index, g * r)) for r in rows for g in gens)


@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (3, P0), (3, RationalDomain(1)), (4, P0)],
    ids=["n3-symbolic", "n3-prime", "n3-u1", "n4-prime"])
@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_block_ideals_match_the_full_width_closure(n, dom, tied):
    # the blocks and the closure in the full basis give one ideal: equal
    # dimensions, and containment both ways
    index, ech = ideal_by_closure(n, dom, ideal_generator_element(
        n, dom, tied=tied))
    assert_same_ideal(build_ideal(n, dom, tied=tied), index, ech)


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


@pytest.mark.parametrize("n, dom", [(3, SYMBOLIC), (4, P0)],
                         ids=["n3-symbolic", "n4-prime"])
def test_action_tables_match_engine_products(n, dom):
    # every one-generator product row of a basis element is the row of the
    # engine's general product with the generator, and the mirror's entry
    # is the position of the basis element's mirror
    index = alg.BasisIndex(n, dom)
    rows, mirrored = right_products(index)
    gens = {"T": alg.T, "E": alg.E}
    assert set(rows) == {(g, i) for g in gens for i in range(1, n)}
    for k in range(len(index)):
        x = index.basis_elem(k)
        assert sparse(vector(index, mirror(x))) == {mirrored[k]: dom.one}
        for (g, i), images in rows.items():
            assert images[k] == sparse(vector(index, x * gens[g](i, n, dom)))


def test_action_table_coefficients_n3():
    # the one-generator products of the basis carry 1, u and u - 1 for T_i
    # and only 1 for E_i (symbolic, n = 3)
    rows, _ = right_products(alg.BasisIndex(3))
    one, u = SYMBOLIC.one, SYMBOLIC.u
    for (g, i), images in rows.items():
        want = {one, u, u - one} if g == "T" else {one}
        assert {c for row in images for c in row.values()} == want, (g, i)


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


def test_symbolic_n4_steinberg_ideal():
    # the bare-Steinberg ideal at generic u: the numbers of
    # tests/golden/quotient_n4.json, there from two specializations
    ib = build_ideal(4, tied=False)
    assert ib.dim == 262 and ib.quotient_dim == 98
    assert verify_ideal_closure(ib)
    assert spanning_check(ib)["spanning_rank"] == 98


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blocks_cover_the_basis(n):
    # k_mu |W_mu| = n! for each shape, the sum of k_mu^2 |W_mu| is dim E_n,
    # the identity is the last column, and each transporter is a shortest
    # permutation taking I_mu to its partition
    bl = blocks.structure(n, P0)
    e, perms = Permutation.identity(n), enumerate_permutations(n)
    assert bl.dim == len(alg.BasisIndex(n)) == len(bl.start)
    for shape in bl.shapes:
        assert len(shape.parts) * len(shape.W) == len(perms)
        assert shape.W[-1] == e and shape.transporter[shape.I] == e
        for K, c in shape.transporter.items():
            assert shape.I.apply(c) == K
            assert all(len(w.reduced_word()) >= len(c.reduced_word())
                       for w in perms if shape.I.apply(w) == K)


@pytest.mark.parametrize("n, dom", [(3, SYMBOLIC), (4, P0)],
                         ids=["n3-symbolic", "n4-prime"])
def test_phi_is_the_block_isomorphism(n, dom):
    # Phi sends eps_I T_v to the column v of the piece (I, I) and 1 to the
    # unit of every diagonal piece, and Phi(x y) is the product of the
    # block matrices Phi(x) Phi(y), each entry a product in A_mu
    bl = blocks.structure(n, dom)
    unit = SetPartition.unit(n)
    one = {bl.offset[K, K] + len(shape.W) - 1: dom.one
           for shape in bl.shapes for K in shape.parts}
    assert bl.form(alg.one(n, dom)) == one
    for shape in bl.shapes:
        eps = tie_idempotent(shape.I, dom)
        for j, v in enumerate(shape.W):
            x = eps * alg.basis_element(unit, v, dom)
            assert bl.form(x) == {bl.offset[shape.I, shape.I] + j: dom.one}
    rng = random.Random(n)
    for _ in range(6):
        x = alg.random_basis_element(n, rng, dom)
        y = alg.random_basis_element(n, rng, dom)
        assert bl.form(x * y) == _block_product(bl, bl.form(x), bl.form(y))


def _block_product(bl, fx, fy):
    """The product of two rows of block coordinates as block matrices."""
    unit = SetPartition.unit(bl.n)
    px, py = bl.pieces(fx), bl.pieces(fy)
    out = {}
    for shape in bl.shapes:
        for (K, L), off in bl.offset.items():
            if K not in shape.parts:
                continue
            for M in shape.parts:
                a, b = px.get(off, {}), py.get(bl.offset[L, M], {})
                for i, c in a.items():
                    for j, d in b.items():
                        ab = shape.proj(
                            alg.basis_element(unit, shape.W[i], bl.dom)
                            * alg.basis_element(unit, shape.W[j], bl.dom))
                        out = _plus(out, {bl.offset[K, M] + k: c * d * e
                                          for k, e in ab.items()})
    return out
