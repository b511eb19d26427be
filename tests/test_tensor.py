import io
import itertools
import math
import random
from fractions import Fraction

import pytest

from btkit import algebra as alg
from btkit import scalars as sc
from btkit import tensor as tn
from btkit.algebra import BasisIndex
from btkit.domains import PRIMES, SYMBOLIC, PrimeDomain, RationalDomain
from btkit.partitions import SetPartition, arc_partition, enumerate_partitions
from btkit.permutations import Permutation
from btkit.linalg import Echelon
from btkit.tensor import (act_E, act_T, act_T_inverse, represent,
                          tensor_basis, unit_vector)
from oracles import sparse

U, S, ONE = sc.U, sc.SQRT_U, sc.ONE


def verify_relation_full_space(n, rel, params, dom=SYMBOLIC):
    """The operator check of a relation instance on every tensor basis
    vector, without the touched-window reduction (oracle for it)."""
    for x in tensor_basis(n):
        lhs, rhs = _rel_images(rel, params, x, dom)
        if lhs != rhs:
            return False
    return True


def _rel_images(rel, params, x, dom):
    """Images of a basis vector under both sides of a relation instance."""
    return tn._side_images(alg.relation_terms(rel, params, dom), x, dom)


def _project(I, vec):
    """E_I on the tensor space by its definition: the projector onto the
    indices whose upper values are constant on each block of I."""
    return {x: c for x, c in vec.items()
            if all(x[a - 1][1] == x[b - 1][1] for a, b in _arcs(I))}


def _arcs(I):
    """Pairs of adjacent elements within each block of I, sorted."""
    return sorted((a, b) for block in I.blocks()
                  for a, b in zip(block, block[1:]))


def _basis_word(I, w):
    """Generator word (as (kind, index) pairs, leftmost first) whose image
    represents E_I T_w by the definition: the tie part decomposes each block
    into consecutive arcs, every arc into a braid-conjugated adjacent tie
    (oracle for the projector)."""
    word = []
    for a, b in _arcs(I):
        for k in range(a, b - 1):
            word.append(("T", k))
        word.append(("E", b - 1))
        for k in range(b - 2, a - 1, -1):
            word.append(("Tinv", k))
    for i in w.reduced_word():
        word.append(("T", i))
    return word


def _apply_oracle_word(word, vec, dom=SYMBOLIC):
    """Apply an oracle word, rightmost letter first."""
    acts = {"T": act_T, "E": act_E, "Tinv": act_T_inverse}
    for kind, i in reversed(word):
        vec = acts[kind](i, vec, dom)
    return vec


def _index_type(idx):
    """Order-and-equality type of a tensor index: lower values ranked,
    upper values relabelled in order of first occurrence."""
    lowers = [i for i, _ in idx]
    ranks = {v: k for k, v in enumerate(sorted(set(lowers)))}
    relabel = {}
    for _, r in idx:
        relabel.setdefault(r, len(relabel))
    return (tuple(ranks[v] for v in lowers),
            tuple(relabel[r] for _, r in idx))


def _rank_rows_full(n, dom):
    """Rows from every tensor basis vector (no type dedup), with the images
    of the oracle words; oracle at small n."""
    idx = alg.BasisIndex(n)
    words = [_basis_word(I, w) for I, w in idx.pairs]
    rows = []
    for x in tensor_basis(n):
        images = []
        outputs = set()
        for word in words:
            img = _apply_oracle_word(word, unit_vector(x, dom), dom)
            images.append(img)
            outputs.update(img)
        for y in sorted(outputs):
            rows.append([img.get(y, dom.zero) for img in images])
    return rows


def _naive_rank(n, dom):
    ech = Echelon(len(alg.BasisIndex(n)), dom.zero)
    for row in _rank_rows_full(n, dom):
        ech.insert(sparse(row))
    return ech.rank


def test_two_factor_rules():
    # the four branches of the braid action and the tie projector
    v = unit_vector(((1, 1), (1, 2)))
    assert act_T(1, v) == {((1, 2), (1, 1)): -ONE}
    assert act_E(1, v) == {}
    v = unit_vector(((1, 1), (2, 1)))
    assert act_T(1, v) == {((1, 1), (2, 1)): U - ONE, ((2, 1), (1, 1)): S}
    assert act_E(1, v) == v
    v = unit_vector(((2, 1), (1, 1)))
    assert act_T(1, v) == {((1, 1), (2, 1)): S}
    v = unit_vector(((2, 2), (2, 2)))
    assert act_T(1, v) == {((2, 2), (2, 2)): -ONE}


def test_arcs():
    assert _arcs(SetPartition.full(3)) == [(1, 2), (2, 3)]
    assert _arcs(SetPartition.unit(4)) == []
    assert _arcs(arc_partition(1, 3, 3)) == [(1, 3)]
    # arcs join only adjacent elements within a block
    I = SetPartition((0, 1, 0, 0))  # {{1,3,4},{2}}
    assert _arcs(I) == [(1, 3), (3, 4)]


def test_index_types_are_first_occurrences():
    # one index per type, in the order the types first occur in the
    # lexicographic scan of all k-tuples
    for k, count in ((2, 6), (3, 65), (4, 1125)):
        first = {}
        for x in tensor_basis(k):
            first.setdefault(_index_type(x), x)
        assert len(first) == count
        assert list(tn.index_types(k)) == list(first.values())


def test_tie_projector_matches_conjugation_word():
    # E_I as the projector equals E_I as the product of braid-conjugated
    # adjacent ties, for every partition: on all vectors at n = 3, and at
    # n = 4 on one index per type plus a fixed random sample
    for I in enumerate_partitions(3):
        word = _basis_word(I, Permutation.identity(3))
        for x in tensor_basis(3):
            v = unit_vector(x)
            assert _project(I, v) == _apply_oracle_word(word, v)
    rng = random.Random(11)
    sample = list(tn.index_types(4)) + [
        tuple((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(4))
        for _ in range(200)]
    dom = PrimeDomain(Fraction(5, 7), PRIMES[0])
    for I in enumerate_partitions(4):
        word = _basis_word(I, Permutation.identity(4))
        for x in sample:
            v = unit_vector(x, dom)
            assert _project(I, v) == _apply_oracle_word(word, v, dom)


def test_represented_basis_matches_conjugation_words():
    # the image of every basis element E_I T_w at n = 3, on all vectors
    for I, w in alg.BasisIndex(3).pairs:
        op = represent(alg.basis_element(I, w))
        word = _basis_word(I, w)
        for x in tensor_basis(3):
            v = unit_vector(x)
            assert op(v) == _apply_oracle_word(word, v)


def test_braid_inverse_operator():
    rng = random.Random(5)
    for _ in range(20):
        idx = tuple((rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3))
        v = unit_vector(idx)
        for i in (1, 2):
            assert act_T(i, act_T_inverse(i, v)) == v
            assert act_T_inverse(i, act_T(i, v)) == v


def test_steinberg_image_six_term_display():
    # the image of the Steinberg element on v_1^1 (x) v_2^1 (x) v_1^2
    x = ((1, 1), (2, 1), (1, 2))
    img = represent(alg.steinberg(1, 2, 3))(unit_vector(x))
    assert img == {
        ((1, 1), (2, 1), (1, 2)): U,
        ((1, 1), (1, 2), (2, 1)): -U,
        ((2, 1), (1, 1), (1, 2)): S,
        ((2, 1), (1, 2), (1, 1)): -S,
        ((1, 2), (1, 1), (2, 1)): U,
        ((1, 2), (2, 1), (1, 1)): S,
    }


def test_tied_steinberg_image_is_not_zero():
    # the representation does NOT kill the quotient's ideal generator: the
    # image survives exactly on the basis vectors whose upper indices agree
    # and whose lower indices are all distinct
    op = represent(alg.E(1, 3) * alg.E(2, 3) * alg.steinberg(1, 2, 3))
    surviving = []
    for x in tensor_basis(3):
        if op(unit_vector(x)):
            surviving.append(x)
    assert len(surviving) == 18
    for x in surviving:
        uppers = {r for _, r in x}
        lowers = [i for i, _ in x]
        assert len(uppers) == 1
        assert len(set(lowers)) == 3
    # the diagonal coefficient on v_1^r v_2^r v_3^r is u^3
    x = ((1, 1), (2, 1), (3, 1))
    img = represent(alg.E(1, 3) * alg.E(2, 3) * alg.steinberg(1, 2, 3))(
        unit_vector(x))
    assert img[x] == U * U * U


def test_representation_is_multiplicative():
    rng = random.Random(2)
    full = list(tensor_basis(3))
    for _ in range(30):
        a = alg.random_basis_element(3, rng)
        b = alg.random_basis_element(3, rng)
        op_ab = represent(a * b)
        op_a, op_b = represent(a), represent(b)
        for x in full:
            v = unit_vector(x)
            assert op_ab(v) == op_a(op_b(v))


def _braid_then_project(elem, vec):
    """represent(elem)(vec) by the definition: for each term c E_I T_w,
    braid the whole vector by w, project each term by I (oracle for the
    upper-value skip in :func:`represent`)."""
    out = {}
    for (I, w), c in elem.terms.items():
        img = tn.apply_word([("T", i) for i in w.reduced_word()], vec,
                            elem.dom)
        tn.vec_add(out, _project(I, img), c)
    return out


def test_represent_matches_braid_then_project():
    # every basis element of E_3 on the 65 type representatives, and on
    # sums of unit vectors whose upper values differ, so that one input has
    # parts that a projector keeps and parts that it kills
    n = 3
    elems = [alg.basis_element(I, w) for I, w in BasisIndex(n).pairs]
    elems += [alg.steinberg(1, 2, n), alg.gamma_inverse(n),
              alg.E(1, n) * alg.F(2, n)]
    rng = random.Random(5)
    full = list(tensor_basis(n))
    sums = []
    for _ in range(20):
        vec = {}
        for x in rng.sample(full, 4):
            tn.vec_add(vec, unit_vector(x), sc.Scalar.from_int(
                rng.choice((-3, -1, 1, 2))) * S ** rng.randint(0, 2))
        sums.append(vec)
    assert all(len({tuple(r for _, r in x) for x in v}) > 1 for v in sums)
    # parts with upper values (1, 1, 2) and (3, 3, 1): one kernel, other
    # values, so represent braids them as one part
    sums.append({((1, 1), (2, 1), (1, 2)): ONE, ((2, 3), (1, 3), (3, 1)): S,
                 ((3, 3), (3, 3), (2, 1)): U - ONE})
    for elem in elems:
        op = represent(elem)
        for x in tn.index_types(n):
            v = unit_vector(x)
            assert op(v) == _braid_then_project(elem, v), (elem, x)
        for v in sums:
            assert op(v) == _braid_then_project(elem, v), elem
    assert len(tn.index_types(n)) == 65
    assert len(elems) == 30 + 3


def test_braid_coefficient_memo_keeps_domains_apart(monkeypatch):
    # act_T memoizes its coefficient products across calls and domains; the
    # two points share Fraction coefficients in Q and IntMod ones in each
    # GF(p), so a memo keyed on the coefficient alone mixes them up
    points = (Fraction(5, 7), Fraction(3, 2))
    doms = [RationalDomain(pt) for pt in points]
    doms += [PrimeDomain(pt, p) for p in PRIMES for pt in points]
    words = [[("T", i) for i in w] for w in ((1,), (2, 1), (1, 2, 1, 2))]

    def images(dom):
        vec = {x: dom.of_int(t + 1)
               for t, x in enumerate(tn.index_types(3))}
        return [tn.apply_word(w, vec, dom) for w in words]

    tn._braid_coeffs.cache_clear()
    memoized = [images(dom) for dom in doms]
    assert tn._braid_coeffs.cache_info().hits > 0
    # the same images with every product made afresh
    monkeypatch.setattr(tn, "_braid_coeffs",
                        lambda c, um1, squ: (-c, c * um1, c * squ))
    assert memoized == [images(dom) for dom in doms]


def test_shared_batch_matches_each_index_in_each_domain():
    # the batch of one xs, and the braid images its parts keep, serve one
    # domain: over Q(s) and then at s = 5/7, the batch check agrees with
    # the check index by index, for a true and a false identity
    n = 3
    xs = tn.index_types(n)
    rng = random.Random(3)
    seen = set()
    for dom in (SYMBOLIC, RationalDomain(Fraction(5, 7))):
        for _ in range(4):
            a = alg.random_basis_element(n, rng, dom)
            b = alg.random_basis_element(n, rng, dom)
            op_ab, op_a, op_b = represent(a * b), represent(a), represent(b)
            for rhs in (lambda v: op_a(op_b(v)), lambda v: op_b(op_a(v))):
                by_index = all(op_ab(unit_vector(x, dom)) ==
                               rhs(unit_vector(x, dom)) for x in xs)
                assert tn._agree_on(op_ab, rhs, xs, dom) == by_index
                seen.add(by_index)
    assert seen == {True, False}


def test_one_relation_declaration_feeds_engine_and_operators(monkeypatch):
    # the engine and the operators read each relation from one table, so a
    # wrong quadratic relation fails in both, at every instance
    def quadratic_oks():
        engine = [c["ok"] for c in alg.verify_relations(3)
                  if c["id"] == "quadratic"]
        rep = [c["ok"] for c in tn.verify_relations_in_rep(3)
               if c["id"] == "rep-quadratic"]
        return engine, rep

    assert all(c["ok"] for c in alg.verify_relations(3))
    assert all(c["ok"] for c in tn.verify_relations_in_rep(3))
    assert quadratic_oks() == ([True] * 2, [True] * 2)
    # the right side without its (u-1) E_i T_i term
    monkeypatch.setitem(alg._SIDES, "quadratic",
                        alg._sides("Ti Ti = 1 + (u-1) Ei"))
    assert quadratic_oks() == ([False] * 2, [False] * 2)


def test_operator_relations():
    for c in tn.verify_relations_in_rep(3, seed=1):
        assert c["ok"], c


def test_batch_check_sees_a_swap_of_two_indices():
    # swapping two test indices leaves the sum of their unit vectors alone,
    # but not either vector; the tag factor tells the indices apart
    n = 3
    xs = tn.index_types(n)[:5]
    swap = {xs[0]: xs[1], xs[1]: xs[0]}

    def swapped(vec):
        return {swap.get(y[:n], y[:n]) + y[n:]: c for y, c in vec.items()}

    def same(vec):
        return dict(vec)

    untagged = {x: ONE for x in xs}
    assert swapped(untagged) == same(untagged)
    assert not tn._agree_on(same, swapped, xs, SYMBOLIC)
    assert tn._agree_on(swapped, swapped, xs, SYMBOLIC)


@pytest.mark.parametrize("n, pairs", [(3, 20), (4, 5)])
def test_batch_image_is_each_index_image_tagged(n, pairs):
    # each operator of a pair sends the tagged batch to the images of the
    # test indices one by one, each with its index's tag appended
    rng = random.Random(n)
    for _ in range(pairs):
        a = alg.random_basis_element(n, rng)
        b = alg.random_basis_element(n, rng)
        xs = tn.index_types(n) if n <= 3 else [
            tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(n))
            for _ in range(64)]
        batches = []   # the vector the check builds, as both sides get it
        tn._agree_on(batches.append, batches.append, xs, SYMBOLIC)
        batch = batches[0]
        assert len(batch) == len(xs) == (65 if n == 3 else 64)
        op_a, op_b = represent(a), represent(b)
        for op in (represent(a * b), op_a, op_b,
                   lambda v: op_a(op_b(v))):
            expected = {}
            for t, x in enumerate(xs):
                expected.update((y + ((t, 0),), c)
                                for y, c in op(unit_vector(x)).items())
            assert op(batch) == expected


@pytest.mark.parametrize("k", [1, 37, 100])
def test_wrong_image_in_one_pair_is_reported_at_that_pair(k, monkeypatch):
    # represent(a * b) of the k-th pair is wrong at one index type only
    n = 3
    x0 = tn.index_types(n)[40]
    real = tn.represent
    calls = []

    def represent_with_fault(elem):
        op = real(elem)
        calls.append(elem)
        if len(calls) != 3 * (k - 1) + 1:
            return op

        def wrong(vec):
            out = op(vec)
            for y in vec:
                if y[:n] == x0:
                    alg._acc(out, y, ONE)
            return out
        return wrong

    monkeypatch.setattr(tn, "represent", represent_with_fault)
    (hom,) = [c for c in tn.verify_relations_in_rep(n)
              if c["id"] == "rep-homomorphism"]
    assert hom["instance"] == [k, "pairs", "exhaustive"]
    assert hom["ok"] is False
    assert len(calls) == 3 * k


def test_window_reduction_matches_full_space():
    # the touched-window check equals the brute-force full-space check
    for rel, params in alg.relation_instances(3):
        assert verify_relation_full_space(3, rel, params)


def test_identity_representation():
    op = represent(alg.one(3))
    for x in itertools.islice(tensor_basis(3), 40):
        v = unit_vector(x)
        assert op(v) == v


def test_classical_harness():
    for c in tn.classical_jimbo_check():
        assert c["ok"], c


def test_representation_rank_small():
    rep = tn.representation_rank(2, points=[Fraction(5, 7)])
    assert rep["symbolic_rank"] == 4
    assert rep["agreement"]
    rep3 = tn.representation_rank(3, points=[Fraction(5, 7), Fraction(3, 2)])
    # the representation is faithful: full rank, zero kernel
    assert rep3["symbolic_rank"] == 30
    assert rep3["kernel_dim"] == 0
    assert rep3["agreement"]


def test_type_dedup_matches_naive_enumeration():
    # the naive ranks use every row, so they also check that stopping at
    # full rank loses nothing
    naive = {"symbolic_rank": _naive_rank(2, SYMBOLIC),
             "ranks": [{"point": "3/2", "mode": "rational",
                        "rank": _naive_rank(2, RationalDomain(Fraction(3, 2)))}]}
    typed = tn.representation_rank(2, points=[Fraction(3, 2)])
    assert naive["symbolic_rank"] == typed["symbolic_rank"]
    assert naive["ranks"] == typed["ranks"]
    dom = RationalDomain(Fraction(5, 7))
    e1, e2 = Echelon(width=30), Echelon(width=30)
    for rows in _dense_bundles(3, dom):
        e1.insert_block(map(sparse, rows))
    for row in _rank_rows_full(3, dom):
        e2.insert(sparse(row))
    assert e1.rank == e2.rank


def _distinct_lowers_first(n):
    """The index types with lower values 1..n in order (one per set
    partition, in rgs order), then the others, each part in index_types
    order."""
    return sorted(tn.index_types(n),
                  key=lambda x: [i for i, _ in x] != list(range(1, n + 1)))


def _dense_bundles(n, dom):
    """Per index type, the dense rows of the projected images of every
    basis element, rows sorted by output index; the first Bell(n) are those
    of the x_J that tn._leads reads, in its order (its oracle)."""
    pairs = [(I, [("T", i) for i in w.reduced_word()])
             for I, w in alg.BasisIndex(n).pairs]
    for x in _distinct_lowers_first(n):
        images = [_project(I, tn.apply_word(word, unit_vector(x, dom), dom))
                  for I, word in pairs]
        yield [[img.get(y, dom.zero) for img in images]
               for y in sorted(set().union(*images))]


def test_leading_positions_match_dense_rows():
    # the leading position of every row of the x_J, read off the braid
    # images, is that of the dense row: at n = 3 exactly, over Q(s) and at
    # 5/7, and at n = 4 in GF(p).  The positions order the columns (I, w)
    # by the length of w, then the blocks of I, then the column
    for n, doms in ((3, (SYMBOLIC, RationalDomain(Fraction(5, 7)))),
                    (4, (PrimeDomain(Fraction(5, 7), PRIMES[0]),))):
        pairs = alg.BasisIndex(n).pairs
        order = sorted(range(len(pairs)), key=lambda col: (
            len(pairs[col][1].reduced_word()), pairs[col][0].block_count()))
        pos = {col: k for k, col in enumerate(order)}
        bell = len(enumerate_partitions(n))
        for dom in doms:
            leads = list(tn._leads(n, dom))
            assert len(leads) == bell
            for first, rows in zip(leads, _dense_bundles(n, dom)):
                assert [first[y] for y in sorted(first)] == [
                    min(pos[col] for col, c in enumerate(row) if c)
                    for row in rows], (n, dom)


def test_rank_bundles_as_blocks_match_row_inserts():
    # at n = 4 in GF(p), a bundle inserted as one block or row by row
    # leaves the same rank after every bundle, up to full rank 360
    dom = PrimeDomain(Fraction(5, 7), PRIMES[0])
    block, rows = Echelon(360, dom.zero), Echelon(360, dom.zero)
    for bundle in _dense_bundles(4, dom):
        mat = [sparse(row) for row in bundle]
        block.insert_block(mat)
        for row in mat:
            rows.insert(row)
        assert block.rank == rows.rank
        if block.rank == 360:
            break
    assert block.rank == 360


# the rank suite's domains: exact below n = 4, both points in both primes
# from n = 4
_EXACT = (SYMBOLIC, RationalDomain(Fraction(5, 7)),
          RationalDomain(Fraction(3, 2)))
_PRIMED = tuple(PrimeDomain(pt, p) for p in PRIMES
                for pt in (Fraction(5, 7), Fraction(3, 2)))


def test_rank_reaches_full_rank_after_bell_bundles():
    # the bundles of the Bell(n) indices with distinct lower values come
    # first; each has n! rows, and together they reach dim E_n = Bell(n) n!
    # with the last of them, not before
    for n, bell, doms in ((2, 2, _EXACT), (3, 5, _EXACT), (4, 15, _PRIMED)):
        dim = bell * math.factorial(n)
        for dom in doms:
            ech = Echelon(dim, dom.zero)
            bundles = itertools.islice(_dense_bundles(n, dom), bell)
            for k, rows in enumerate(bundles, start=1):
                assert len(rows) == math.factorial(n), (n, dom, k)
                if k == bell:
                    assert ech.rank < dim, (n, dom)
                ech.insert_block([sparse(row) for row in rows])
            assert ech.rank == dim, (n, dom)


def _spy_echelons(monkeypatch):
    """The widths of the echelons built from now on."""
    built = []
    init = Echelon.__init__

    def spy(self, width, zero=0):
        built.append(width)
        init(self, width, zero)
    monkeypatch.setattr(Echelon, "__init__", spy)
    return built


def test_leading_columns_certify_full_rank(monkeypatch):
    # the distinct leading columns of the Bell(n) indices alone prove the
    # rank dim E_n, at every domain of the rank suite: no echelon is built
    built = _spy_echelons(monkeypatch)
    for n, doms in ((2, _EXACT), (3, _EXACT), (4, _PRIMED)):
        dim = len(BasisIndex(n))
        for dom in doms:
            assert tn._rank(n, dom) == dim, (n, dom)
    assert built == []


def test_short_certificate_is_reported(monkeypatch):
    # drop position 0, the column (one-block partition, identity), from
    # every kept list: the row x_J of the one-block J then leads at the
    # position of another x_J's row, the count falls one short of 30, and
    # the rank suite reports that count at every domain, with no echelon
    # built, and fails its representation-rank check
    kept = tn._kept
    monkeypatch.setattr(tn, "_kept", lambda word, up, terms: (
        v for v in kept(word, up, terms) if v))
    built = _spy_echelons(monkeypatch)
    rank = tn._rank(3, SYMBOLIC)
    assert rank == 29
    from btkit import suites
    report = suites.rank_suite([3])
    res = report["ranks"][0]
    assert res["symbolic_rank"] == res["rank"] == rank
    assert [r["rank"] for r in res["ranks"]] == [rank] * 2
    assert res["kernel_dim"] == 30 - rank
    assert [c["status"] for c in report["checks"]
            if c["id"] == "representation-rank"] == ["fail"]
    assert report["summary"]["failed"] == 1
    assert built == []


def test_disagreeing_points_fail_the_rank_check(monkeypatch):
    # with a rank that differs between the domains there is no one rank,
    # so the representation-rank check fails beside the agreement check
    monkeypatch.setattr(tn, "_rank", lambda n, dom: 4 if dom is SYMBOLIC
                        else 3)
    from btkit import suites
    report = suites.rank_suite([2])
    status = {c["id"]: c["status"] for c in report["checks"]}
    assert status == {"rank-point-agreement": "fail",
                      "representation-rank": "fail"}
    assert "rank" not in report["ranks"][0]


def test_export_triplets_deterministic():
    op = represent(alg.T(1, 2))
    buf1, buf2 = io.StringIO(), io.StringIO()
    tn.export_operator_triplets(op, 2, buf1)
    tn.export_operator_triplets(op, 2, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().strip().split("\n")
    # one entry per surviving (row, col) pair; every column appears
    cols = {int(line.split()[1]) for line in lines}
    assert cols == set(range(16))
    # a known entry: column v_1^1 v_2^1 maps to (u-1) itself + s swapped
    x = ((1, 1), (2, 1))
    col = tn.encode_index(x, 2)
    entries = {int(l.split()[0]): l.split(None, 2)[2]
               for l in lines if int(l.split()[1]) == col}
    assert entries[col] == str(U - ONE)
    assert entries[tn.encode_index(((2, 1), (1, 1)), 2)] == "s"


def test_classical_specialization_satisfies_quotient_relations():
    # sending every tie generator to the identity and T_i to the classical
    # dim-2 operator turns all defining relations of the quotient into the
    # dim-2 checks: ties become trivial, the braid/quadratic relations are
    # the classical ones, and the quotient relation becomes the vanishing of
    # the classical Steinberg image
    results = {c["id"]: c["ok"] for c in tn.classical_jimbo_check()}
    assert results["classical-quadratic"]       # relation T^2 = 1 + (u-1)(1+T)
    assert results["classical-braid"]           # braid relation
    assert results["classical-commute"]         # far commutation
    assert results["classical-steinberg-vanishes"]  # image of the quotient relation
