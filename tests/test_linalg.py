import random
from fractions import Fraction

import pytest

from btkit import linalg
from btkit.domains import (PRIMES, SYMBOLIC, IntMod, PrimeDomain,
                           RationalDomain)
from btkit.linalg import Echelon, LinearSystem, ModPEchelon, merge_classes

P = 1000000007


def test_echelon_rank_and_reduce():
    ech = Echelon(width=4)
    assert ech.insert([Fraction(1), Fraction(2), Fraction(0), Fraction(0)])
    assert ech.insert([Fraction(0), Fraction(1), Fraction(1), Fraction(0)])
    assert not ech.insert([Fraction(1), Fraction(3), Fraction(1), Fraction(0)])
    assert ech.rank == 2
    red = ech.reduce([Fraction(2), Fraction(4), Fraction(0), Fraction(1)])
    assert red[0] == 0 and red[1] == 0
    assert ech.spans([[Fraction(1), Fraction(2), Fraction(0), Fraction(0)]])


def test_echelon_gives_unique_representatives():
    rng = random.Random(1)
    ech = Echelon(width=6)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
    for r in rows:
        ech.insert(list(r))
    # reduction is idempotent and kills the span
    for r in rows:
        assert ech.spans([list(r)])
    v = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
    red = ech.reduce(v)
    assert ech.reduce(red) == red
    # reduced vector vanishes at the pivots
    for piv in ech.pivots:
        assert red[piv] == 0


def test_modp_matches_exact():
    rng = random.Random(2)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(7)]
        exact = Echelon(width=5)
        modp = ModPEchelon(width=5, p=P)
        for r in rows:
            exact.insert([Fraction(x) for x in r])
            modp.insert(r)
        # generic small integers: rank mod a huge prime equals exact rank
        assert exact.rank == modp.rank


# the affine system over Q and over GF(P), on the same integer rows
SYSTEM_DOMAINS = (RationalDomain(1), PrimeDomain(1, P))


def _rows(dom, system, *rows):
    """Integer rows [M | R] as rows of the system's echelon."""
    return [system.ech.from_coeffs([dom.of_int(x) for x in row])
            for row in rows]


def test_linear_system_unique_solution():
    # x + y = 3, x - y = 1
    for dom in SYSTEM_DOMAINS:
        sys_ = LinearSystem(dom, 2, 1)
        assert sys_.add(_rows(dom, sys_, [1, 1, 3])) == 1
        assert sys_.add(_rows(dom, sys_, [1, -1, 1])) == 1
        assert not sys_.inconsistent
        assert sys_.rank == 2
        assert sys_.solution() == {0: [dom.of_int(2)], 1: [dom.of_int(1)]}


def test_linear_system_detects_inconsistency_and_dependence():
    # x + y = 3; then 2x + 2y = 6 is dependent, 3x + 3y = 9 is implied,
    # 3x + 3y = 8 is not, and x + y = 4 is inconsistent
    for dom in SYSTEM_DOMAINS:
        sys_ = LinearSystem(dom, 2, 1)
        assert sys_.add(_rows(dom, sys_, [1, 1, 3])) == 1
        assert sys_.add(_rows(dom, sys_, [2, 2, 6])) == 0
        implied, not_implied = sys_.reduce(_rows(dom, sys_, [3, 3, 9],
                                                 [3, 3, 8]))
        assert not any(implied) and any(not_implied)
        assert not sys_.inconsistent
        assert sys_.add(_rows(dom, sys_, [1, 1, 4])) == 1
        assert sys_.inconsistent == [2] and sys_.rank == 1
        assert sys_.solution() is None


def test_linear_system_underdetermined():
    # x + 2z = 5: y and z are free, so zero, and only x is in the solution
    for dom in SYSTEM_DOMAINS:
        sys_ = LinearSystem(dom, 3, 1)
        sys_.add(_rows(dom, sys_, [1, 0, 2, 5]))
        assert sys_.solution() == {0: [dom.of_int(5)]}
        assert sys_.rank == 1


def test_modp_linear_system_matches_exact():
    rng = random.Random(3)
    exact_dom, modp_dom = SYSTEM_DOMAINS
    solved = 0
    for _ in range(15):
        width = 4
        rows = [[rng.randint(-4, 4) for _ in range(width)]
                + [rng.randint(-5, 5)] for _ in range(6)]
        exact = LinearSystem(exact_dom, width, 1)
        modp = LinearSystem(modp_dom, width, 1)
        # compared after every row: all 15 full systems are inconsistent
        for row in rows:
            exact.add(_rows(exact_dom, exact, row))
            modp.add(_rows(modp_dom, modp, row))
            assert exact.rank == modp.rank
            assert bool(exact.inconsistent) == bool(modp.inconsistent)
            if not exact.inconsistent:
                sol, solp = exact.solution(), modp.solution()
                assert sol.keys() == solp.keys()
                for i, (a,) in sol.items():
                    assert (IntMod(a.numerator, P)
                            == solp[i][0] * IntMod(a.denominator, P))
                solved += 1
    assert solved > 15


def test_modp_linear_system_inconsistent():
    # x + y = 1, 2x + 2y = 3 and x = 2 as one block: the second row puts a
    # pivot in the right-hand-side column, which the rank does not count
    for dom in SYSTEM_DOMAINS:
        sys_ = LinearSystem(dom, 2, 1)
        assert sys_.add(_rows(dom, sys_, [1, 1, 1], [2, 2, 3],
                              [1, 0, 2])) == 3
        assert sys_.inconsistent and sys_.solution() is None
        assert sys_.rank == 2
        assert sys_.ech.rank == 3
        empty = LinearSystem(dom, 2, 1)
        assert empty.add(_rows(dom, empty, [0, 0, 5])) == 1
        assert empty.inconsistent and empty.rank == 0


def test_modp_batch_reduce_matches_row_reduce():
    import numpy as np
    rng = random.Random(5)
    ech = ModPEchelon(width=6, p=9999991)
    for _ in range(4):
        ech.insert([rng.randint(0, 50) for _ in range(6)])
    mat = np.array([[rng.randint(0, 50) for _ in range(6)] for _ in range(8)],
                   dtype=np.int64)
    batch = ech.reduce_batch(mat)
    for k in range(8):
        assert np.array_equal(batch[k], ech.reduce(mat[k]))
    # reductions vanish at every pivot column
    for piv in ech.pivots:
        assert not np.any(batch[:, piv])


def test_modp_echelon_rejects_int64_overflow():
    # width * (p-1)^2 must stay below 2^63 for the int64 row products
    with pytest.raises(ValueError):
        ModPEchelon(10**6, 9999991)
    assert ModPEchelon(6240, 9999991).rank == 0
    # and width * (2^12 - 1) * (p-1) below 2^53 for the float64 limb
    # products: 3 * 10^6 * 1048572^2 < 2^63, but the limb sums would not be
    # exact
    assert 3 * 10**6 * (1048573 - 1) ** 2 < 2 ** 63
    with pytest.raises(ValueError):
        ModPEchelon(3 * 10**6, 1048573)


@pytest.mark.parametrize("p", PRIMES)
def test_modp_products_exact_at_worst_case(p):
    # every entry p - 1 at width 6240 (dim E_5), against Python integers
    import numpy as np
    width = 6240
    ech = ModPEchelon(width, p)
    a = np.full((2, width), p - 1, dtype=np.int64)
    b = np.full((width, 3), p - 1, dtype=np.float64)
    exact = sum((p - 1) * (p - 1) for _ in range(width)) % p
    assert (ech._mul(a, ech._balanced(b)) % p == exact).all()
    rng = random.Random(p)
    a = np.array([[rng.randrange(p) for _ in range(width)] for _ in range(2)],
                 dtype=np.int64)
    b = [[rng.randrange(p) for _ in range(3)] for _ in range(width)]
    got = ech._mul(a, ech._balanced(np.array(b, dtype=np.float64))) % p
    for i in range(2):
        for j in range(3):
            want = sum(int(a[i, k]) * b[k][j] for k in range(width)) % p
            assert got[i, j] == want


def _exact_product(a, b):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) for col in b.T]
            for row in a]


@pytest.mark.parametrize("p", PRIMES)
def test_modp_product_is_one_exact_float64_product_up_to_360(p):
    # at inner dimension r = 360 (dim E_4) the balanced operands give one
    # float64 product, exact as an integer: r * (p // 2)^2 < 2^53.  The
    # extremes +-(p // 2) of the balanced residues give the largest sums.
    import numpy as np
    r, h = 360, p // 2
    assert r * h * h < 2 ** 53 <= (r + 1) * h * h
    ech = ModPEchelon(r + 1, p)
    a = np.array([[h] * r, [p - h] * r, [h, p - h] * (r // 2)], dtype=np.int64)
    b = ech._balanced(a[:2].T.astype(np.float64))
    want = _exact_product(ech._balanced(a), b)
    assert want[0][0] == r * h * h and want[0][1] == -r * h * h
    assert ech._mul(a, b).tolist() == want
    rng = random.Random(p)
    a = np.array([[rng.randrange(p) for _ in range(r)] for _ in range(3)],
                 dtype=np.int64)
    b = ech._balanced(np.array([[rng.randrange(p) for _ in range(4)]
                                for _ in range(r)], dtype=np.float64))
    assert ech._mul(a, b).tolist() == _exact_product(ech._balanced(a), b)


@pytest.mark.parametrize("p", PRIMES)
def test_modp_product_beyond_360_splits_into_limbs(p):
    # at r = 361 the extreme sums pass 2^53, so a is split into limbs: the
    # result is no longer the integer product, but it is congruent to it
    import numpy as np
    r, h = 361, p // 2
    ech = ModPEchelon(r, p)
    rng = random.Random(p)
    a = np.array([[h] * r, [p - h] * r,
                  [rng.randrange(p) for _ in range(r)]], dtype=np.int64)
    b = ech._balanced(np.array(
        [[h, p - h] + [rng.randrange(p) for _ in range(2)]
         for _ in range(r)], dtype=np.float64))
    want = _exact_product(ech._balanced(a), b)
    assert want[0][0] == r * h * h > 2 ** 53
    got = ech._mul(a, b)
    assert got[0, 0] != want[0][0]
    assert (got % p).tolist() == [[x % p for x in row] for row in want]


@pytest.mark.parametrize("p", PRIMES)
def test_modp_basis_products_exact_at_360(p):
    # 360 new pivot rows with p - 2 at the free column, against a row of
    # p // 2 and one p // 2 - 1: unless the pivot rows are balanced (p - 2
    # to -2), the product sums to an odd integer past 2^53, which no
    # float64 holds.  Clearing the row of the 360 pivots and reducing it
    # against them both stay exact.
    import numpy as np
    r, h = 360, p // 2
    block = np.zeros((r, r + 2), dtype=np.int64)
    block[:, 1:r + 1] = np.eye(r, dtype=np.int64)
    block[:, r + 1] = p - 2
    old = np.array([[1] + [h] * (r - 1) + [h - 1, 0]])
    assert (r * h - 1) * (p - 2) % 2 == 1 and (r * h - 1) * (p - 2) > 2 ** 53
    want = [[1] + [0] * r + [-(r * h - 1) * (p - 2) % p]]
    ech = ModPEchelon(r + 2, p)
    ech.insert_block(old)
    assert ech.insert_block(block) == r
    assert ech.rows[:1].tolist() == want
    fresh = ModPEchelon(r + 2, p)
    fresh.insert_block(block)
    assert fresh.reduce_batch(old).tolist() == want


def test_modp_reduce_batch_takes_raw_rows_mod_p():
    # rows with a negative entry, an entry >= p, or both kinds reduce as
    # the same rows mod p, at rank 0 and above; the result is a new array
    import numpy as np
    p = PRIMES[0]
    rng = random.Random(7)
    ech = ModPEchelon(8, p)
    for _ in range(3):
        rows = np.array([[rng.randrange(p) for _ in range(8)]
                         for _ in range(2)], dtype=np.int64)
        negative, large = rows.copy(), rows.copy()
        negative[0, 3] -= p
        large[1, 5] += p
        wild = rows + p * np.array([[rng.randrange(-3, 4) for _ in range(8)]
                                    for _ in range(2)])
        want = ech.reduce_batch(rows)
        assert want is not rows
        assert want.min() >= 0 and want.max() < p
        for raw in (negative, large, wild):
            assert np.array_equal(ech.reduce_batch(raw), want)
        ech.insert_block(rows)
        assert np.array_equal(rows, wild % p)
    assert ech.rank == 6


def _rref(ech):
    order = sorted(range(ech.rank), key=lambda k: ech.pivots[k])
    return [list(map(int, ech.rows[k])) for k in order]


@pytest.mark.parametrize("p", PRIMES + (16777259,))
def test_block_insert_matches_row_inserts(p, monkeypatch):
    # 150 rows of width 40 spanning 25 dimensions, with zero rows and
    # repeated rows; inserted one by one, in blocks of 64 (as the quotient
    # closure does) and as one block, they give the same RREF, also when
    # the old rows are cleared of new pivots in chunks of 7 rows.  The last
    # prime is the least above 2^24, whose entries take three limbs.
    import numpy as np
    rng = random.Random(p % 1000)
    width, dim = 40, 25
    base = [[rng.randrange(p) for _ in range(width)] for _ in range(dim)]
    rows = []
    for _ in range(150):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * width)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            cs = [rng.randrange(p) if rng.random() < 0.3 else 0
                  for _ in range(dim)]
            rows.append([sum(c * b[j] for c, b in zip(cs, base)) % p
                         for j in range(width)])
    one = ModPEchelon(width, p)
    grown = sum(one.insert(row) for row in rows)
    chunked = ModPEchelon(width, p)
    growth = [chunked.insert_block(np.array(rows[lo:lo + 64]))
              for lo in range(0, len(rows), 64)]
    whole = ModPEchelon(width, p)
    assert whole.insert_block(np.array(rows)) == sum(growth) == grown
    assert one.rank == chunked.rank == whole.rank == dim
    monkeypatch.setattr(linalg, "CHUNK", 7)
    small = ModPEchelon(width, p)
    for lo in range(0, len(rows), 16):
        small.insert_block(np.array(rows[lo:lo + 16]))
    for ech in (chunked, whole, small):
        assert sorted(ech.pivots) == sorted(one.pivots)
        assert _rref(ech) == _rref(one)
    assert whole.spans(rows) and not any(map(any, _rref(whole)[dim:]))
    mat = np.array(rows[:70])
    for k, red in enumerate(chunked.reduce_batch(mat)):
        assert np.array_equal(red, one.reduce(mat[k]))
        assert not red.any()


def test_exact_batch_methods_are_loops_over_rows():
    # on the symbolic n = 3 tables, Echelon's batch methods agree with its
    # one-row insert, reduce and scatter
    from btkit.algebra import BasisIndex
    from btkit.domains import SYMBOLIC
    from btkit.quotient import build_ideal, generator_actions
    index = BasisIndex(3)
    ib = build_ideal(3, tied=False)
    tables = generator_actions(index, ib.ech)
    rows = [SYMBOLIC.echelon(len(index)).from_coeffs(index.vector(
        index.basis_elem(k))) for k in range(0, len(index), 3)]
    # the commutator entries are raw, not packed
    for table in (t for (name, _), t in tables.items() if name[0] != "C"):
        images = ib.ech.scatter_batch(table, rows)
        assert images == [ib.ech.scatter(table, row) for row in rows]
        assert (ib.ech.reduce_batch(images)
                == [ib.ech.reduce(row) for row in images])
        one, block = Echelon(len(index)), Echelon(len(index))
        grown = sum(one.insert(row) for row in images)
        assert block.insert_block(images) == grown == block.rank
        assert (block.rows, block.pivots) == (one.rows, one.pivots)
    # a block that reaches full rank midway, as the last rank bundle does
    rows = [[Fraction(a), Fraction(b), Fraction(c)] for a, b, c in
            ((0, 2, 1), (1, 1, 0), (0, 0, 0), (3, 1, 1), (1, 0, 1), (2, 2, 2))]
    one, block = Echelon(3), Echelon(3)
    grown = sum(one.insert(row) for row in rows)
    assert block.insert_block(rows) == grown == 3
    assert (block.rows, block.pivots) == (one.rows, one.pivots)


# the union-find of the trace solver on hand-made rows, in Q(s) and GF(p);
# no level of the trace kills a class, so these are the only kills tested
CLASS_DOMAINS = (SYMBOLIC, PrimeDomain(Fraction(5, 7), PRIMES[0]))


def _classes(dom, width, *rows):
    """merge_classes on rows given as {column: integer or "u"}."""
    def coeff(c):
        return dom.u if c == "u" else dom.of_int(c)
    return merge_classes(width, [{j: coeff(c) for j, c in row.items()}
                                 for row in rows], dom.one)


def _same_class(root, factor, x, y, ratio):
    """x and y share a live root, and x = ratio * y."""
    return root[x] is not None and root[x] == root[y] \
        and factor[x] == ratio * factor[y]


@pytest.mark.parametrize("dom", CLASS_DOMAINS, ids=["symbolic", "prime"])
def test_merge_classes_one_term_row_kills_its_class(dom):
    # x0 = u x1, then u x1 = 0 kills both; x2 stays its own root, the zero
    # row says nothing, and the three-term row is returned as it is
    three = {2: dom.one, 3: dom.one, 4: dom.u}
    root, factor, rest = merge_classes(5, [
        {0: dom.one, 1: -dom.u}, {}, three, {1: dom.u}], dom.one)
    assert root == [None, None, 2, 3, 4] and rest == [three]
    assert factor[2] == factor[3] == dom.one


@pytest.mark.parametrize("dom", CLASS_DOMAINS, ids=["symbolic", "prime"])
def test_merge_classes_open_cycle_kills_its_root(dom):
    # x0 = -u x1, x1 = x2, x2 = x0: then x0 = -u x0, and u != -1
    root, _, _ = _classes(dom, 4, {0: 1, 1: "u"}, {1: 1, 2: -1},
                          {2: 1, 0: -1})
    assert root == [None, None, None, 3]


@pytest.mark.parametrize("dom", CLASS_DOMAINS, ids=["symbolic", "prime"])
def test_merge_classes_closed_cycle_keeps_its_root(dom):
    # x0 = -u x1 (the row x0 + u x1), x1 = x2, u x2 = -x0: consistent
    root, factor, rest = _classes(dom, 4, {0: 1, 1: "u"}, {1: 1, 2: -1},
                                  {2: "u", 0: 1})
    assert rest == [] and root[3] == 3 and root[0] is not None
    assert _same_class(root, factor, 0, 1, -dom.u)
    assert _same_class(root, factor, 1, 2, dom.one)
    assert factor[root[0]] == dom.one


@pytest.mark.parametrize("dom", CLASS_DOMAINS, ids=["symbolic", "prime"])
def test_merge_classes_merge_with_a_killed_class_kills(dom):
    # {x0} is killed, {x1, x2} and {x3, x4} are live; a row joining x0 and
    # x1 kills x1, x2, and one joining x4 and x0 (killed class second)
    # kills x3, x4; x5 stays
    root, factor, _ = _classes(dom, 6, {0: 2}, {1: 1, 2: 1}, {3: "u", 4: 1})
    assert root[0] is None and _same_class(root, factor, 1, 2, -dom.one)
    assert _same_class(root, factor, 3, 4, -dom.one / dom.u)
    root, _, _ = _classes(dom, 6, {0: 2}, {1: 1, 2: 1}, {3: "u", 4: 1},
                          {0: 1, 1: -1}, {4: 3, 0: 1})
    assert root == [None] * 5 + [5]
