import gc
import json
import random
from fractions import Fraction

import pytest

from btkit import algebra as alg
from btkit import blocks, cli, suites
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
from oracles import (dense, element, engine_image, ideal_by_closure, mirror,
                     sparse, spanning_by_products, tie_idempotent, vector)

P0 = PrimeDomain(Fraction(5, 7), PRIMES[0])


def build_ideal_by_pairs(n, dom=SYMBOLIC, pair=(1, 2), tied=True):
    """(index, echelon) of the literal span of {b1 * g * b2} over all basis
    pairs (the slow oracle for :func:`build_ideal` at small n)."""
    index = alg.BasisIndex(n, dom)
    g = ideal_generator_element(n, dom, pair, tied)
    ech = Echelon(dom.zero)
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


def test_F_reduced_words_leave_no_garbage_cycle():
    # with the cyclic collector paused, the words and the recursion are
    # freed by reference counting alone: nothing is left for gc.collect()
    gc.collect()
    gc.disable()
    try:
        words = enumerate_F_reduced(5)
        assert len(words) == catalan_number(5)
        del words
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "bare"])
@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (3, RationalDomain(1)), (4, SYMBOLIC),
    (4, PrimeDomain(Fraction(5, 7), PRIMES[0])),
    (4, PrimeDomain(Fraction(3, 2), PRIMES[1]))],
    ids=["n3-symbolic", "n3-u1", "n4-symbolic", "n4-prime0", "n4-prime1"])
def test_spanning_check_by_products(n, dom, tied):
    # the sum of the row-block ranks is the rank of the candidates E_I F_w
    # themselves, each an engine product reduced in the full width
    ib = build_ideal(n, dom, tied=tied)
    assert spanning_check(ib) == spanning_by_products(ib)


def test_spanning_check_echelons_fit_in_a_row_block(monkeypatch):
    # every echelon of the quotient suite, the spanning check's included,
    # is offered columns below n! only: each row block has its own
    widest = [0]
    insert = Echelon.insert

    def recording(self, row):
        widest[0] = max([widest[0], *row])
        return insert(self, row)

    monkeypatch.setattr(Echelon, "insert", recording)
    suites.quotient_suite([4])
    assert 0 < widest[0] < 24


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
        short = Echelon(P0.zero)
        assert short.insert_block(ech.rows[:-1]) == ech.rank - 1
        echs = ib.echs[:at] + [short] + ib.echs[at + 1:]
        assert not verify_ideal_closure(Ideal(ib.blocks, echs)), at
    # the check multiplies every row of every J_mu, the last included, by
    # every generator of A_mu on the right, and takes its mirror
    seen = []
    apply = blocks._apply
    monkeypatch.setattr(blocks, "_apply", lambda table, row: (
        seen.append((id(table), id(row))) or apply(table, row)))
    assert verify_ideal_closure(ib)
    assert len(seen) == len(set(seen)) == sum(
        ech.rank * (len(shape.right) + 1)
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
    echs = [Echelon(SYMBOLIC.zero) for shape in bl.shapes]
    for off, piece in bl.pieces(bl.form(alg.F(1, 3))).items():
        echs[bl.shape_at[off]].insert(piece)
    for shape, ech in zip(bl.shapes, echs):
        close(ech, shape.right)
        closed = Echelon(SYMBOLIC.zero)
        closed.insert_block(ech.rows)
        close(closed, shape.right)
        assert closed.rank == ech.rank
    assert not verify_ideal_closure(Ideal(bl, echs))
    assert verify_ideal_closure(bl.ideal(alg.F(1, 3)))


@pytest.mark.parametrize("n, dom", [(3, SYMBOLIC), (4, P0)],
                         ids=["n3-symbolic", "n4-prime"])
def test_mirror_of_the_right_tables_is_the_left_product(n, dom):
    # the mirror table is the oracle's mirror of each basis element, and
    # the left tables the closure does without hold: for every generator s
    # of every A_mu, proj(T_s T_v) from the engine is the mirror of the row
    # of right[s] at the mirror of v
    bl = blocks.structure(n, dom)
    unit = SetPartition.unit(n)
    for shape in bl.shapes:
        basis = [alg.basis_element(unit, v, dom) for v in shape.W]
        assert shape.mirror == [shape.proj(mirror(x)) for x in basis]
        for table in shape.right:
            # the generator s is the unit times s, the last row
            (j, c), = table[-1].items()
            assert c == dom.one
            left = [shape.proj(basis[j] * x) for x in basis]
            assert left == [blocks._apply(shape.mirror, table[k])
                            for (k,) in shape.mirror]


def test_ideal_refuses_a_generator_the_mirror_moves():
    # the closure under the right tables and the mirror is the two-sided
    # ideal only when the mirror fixes the generator
    bl = blocks.structure(3, SYMBOLIC)
    g = alg.E(1, 3) * alg.T(2, 3)
    assert mirror(g) != g
    with pytest.raises(ValueError, match="mirror"):
        bl.ideal(g)
    assert mirror(alg.F(1, 3)) == alg.F(1, 3)
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


@pytest.mark.parametrize("n, dom", [
    (3, SYMBOLIC), (3, RationalDomain(1)), (4, SYMBOLIC), (4, P0)],
    ids=["n3-symbolic", "n3-u1", "n4-symbolic", "n4-prime"])
def test_phi_images_match_the_engine(n, dom):
    # every image of the reduced-word recursion, row block K of Phi(T_w),
    # is the engine's proj(T_{c_K^-1} T_w T_{c_L})
    bl = blocks.Blocks(n, dom)
    assert all(bl._image(K, w) == engine_image(bl, K, w)
               for K in bl.row_parts for w in enumerate_permutations(n))


@pytest.mark.parametrize("dom", [SYMBOLIC, P0], ids=["symbolic", "prime"])
def test_times_T_is_the_right_product(dom):
    # Phi(x T_s), from Phi(x) piece by piece, is the form of the engine's
    # product, for random x at n = 4
    bl, rng = blocks.structure(4, dom), random.Random(4)
    for _ in range(4):
        x = alg.AlgebraElement(4, {}, dom)
        for _ in range(5):
            c = dom.of_int(rng.randint(1, 9))
            x = x + alg.random_basis_element(4, rng, dom).scale(c)
        for s in range(1, 4):
            assert bl.times_T(bl.form(x), s) == bl.form(x * alg.T(s, 4, dom))


def test_no_engine_product_per_image(monkeypatch):
    # the blocks at n = 4 and the forms of all 360 basis elements take one
    # braid product per entry of the right tables and one per step (L, s),
    # Bell(4) * 3 = 45, and none per image
    calls = [0]
    braid = blocks._braid

    def counting(*args):
        calls[0] += 1
        return braid(*args)

    monkeypatch.setattr(blocks, "_braid", counting)
    monkeypatch.setattr(blocks, "_CACHE", {})
    bl, index = blocks.structure(4, P0), alg.BasisIndex(4, P0)
    for k in range(len(index)):
        bl.form(index.basis_elem(k))
    tables = sum(len(table) for shape in bl.shapes for table in shape.right)
    assert calls[0] == tables + bell_number(4) * 3


def test_a_step_that_is_no_generator_is_refused(monkeypatch):
    # a step (L, s) of Phi(T_s) that is neither the unit nor a generator of
    # A_mu stops the build: here every step, the one braid product of
    # three permutations, is doubled
    braid = blocks._braid
    monkeypatch.setattr(blocks, "_braid", lambda n, dom, *w: (
        braid(n, dom, *w).scale(dom.of_int(1 + (len(w) == 3)))))
    with pytest.raises(AssertionError, match="not a generator"):
        blocks.Blocks(3, SYMBOLIC)
