import random
from fractions import Fraction

import pytest

from btkit import linalg
from btkit.domains import PRIMES, IntMod
from btkit.linalg import Echelon, LinearSystem, ModPEchelon, ModPLinearSystem

P = 1000000007


def test_echelon_rank_and_reduce():
    ech = Echelon(width=4)
    assert ech.insert([Fraction(1), Fraction(2), Fraction(0), Fraction(0)])
    assert ech.insert([Fraction(0), Fraction(1), Fraction(1), Fraction(0)])
    assert not ech.insert([Fraction(1), Fraction(3), Fraction(1), Fraction(0)])
    assert ech.rank == 2
    red = ech.reduce([Fraction(2), Fraction(4), Fraction(0), Fraction(1)])
    assert red[0] == 0 and red[1] == 0
    assert ech.is_zero_mod([Fraction(1), Fraction(2), Fraction(0), Fraction(0)])


def test_echelon_gives_unique_representatives():
    rng = random.Random(1)
    ech = Echelon(width=6)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(4)]
    for r in rows:
        ech.insert(list(r))
    # reduction is idempotent and kills the span
    for r in rows:
        assert ech.is_zero_mod(list(r))
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


def test_linear_system_unique_solution():
    # x + y = 3, x - y = 1
    sys_ = LinearSystem(width=2)
    f = Fraction
    sys_.add([f(1), f(1)], f(3))
    sys_.add([f(1), f(-1)], f(1))
    assert not sys_.inconsistent
    assert sys_.rank == 2
    assert sys_.solution(f(0)) == [f(2), f(1)]


def test_linear_system_detects_inconsistency_and_dependence():
    f = Fraction
    sys_ = LinearSystem(width=2)
    assert sys_.add([f(1), f(1)], f(3)) == LinearSystem.PIVOT
    assert sys_.add([f(2), f(2)], f(6)) == LinearSystem.DEPENDENT
    assert sys_.is_implied([f(3), f(3)], f(9))
    assert not sys_.is_implied([f(3), f(3)], f(8))
    assert sys_.add([f(1), f(1)], f(4)) == LinearSystem.INCONSISTENT
    assert sys_.solution(f(0)) is None


def test_linear_system_underdetermined():
    f = Fraction
    sys_ = LinearSystem(width=3)
    sys_.add([f(1), f(0), f(2)], f(5))
    sol = sys_.solution(f(0))
    assert sol == [f(5), f(0), f(0)]
    assert sys_.rank == 1


def test_modp_linear_system_matches_exact():
    rng = random.Random(3)
    f = Fraction
    for _ in range(15):
        width = 4
        rows = [([rng.randint(-4, 4) for _ in range(width)], rng.randint(-5, 5))
                for _ in range(6)]
        exact = LinearSystem(width)
        modp = ModPLinearSystem(width, P)
        for vec, rhs in rows:
            exact.add([f(x) for x in vec], f(rhs))
            modp.add(vec, IntMod(rhs, P))
        assert exact.rank == modp.rank
        assert bool(exact.inconsistent) == bool(modp.inconsistent)
        if not exact.inconsistent:
            sol = exact.solution(f(0))
            solp = modp.solution(IntMod(0, P))
            for a, b in zip(sol, solp):
                assert IntMod(a.numerator, P) == b * IntMod(a.denominator, P)


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
    assert (ech._mul(a, b) % p == exact).all()
    rng = random.Random(p)
    a = np.array([[rng.randrange(p) for _ in range(width)] for _ in range(2)],
                 dtype=np.int64)
    b = [[rng.randrange(p) for _ in range(3)] for _ in range(width)]
    got = ech._mul(a, np.array(b, dtype=np.float64)) % p
    for i in range(2):
        for j in range(3):
            want = sum(int(a[i, k]) * b[k][j] for k in range(width)) % p
            assert got[i, j] == want


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
    for table in tables.values():
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
