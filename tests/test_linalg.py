import random
from fractions import Fraction

import pytest

from btkit.domains import IntMod
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
