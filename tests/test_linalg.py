import random
from fractions import Fraction

import pytest

from btkit.domains import (PRIMES, SYMBOLIC, IntMod, PrimeDomain,
                           RationalDomain)
from btkit.linalg import Echelon, LinearSystem
from oracles import DenseEchelon, dense, right_products, sparse

P = 1000000007
# the largest prime p with (p // 2)^2 < 2^53
BIG = 189812507


def _fractions(*rows):
    """Integer rows as sparse rows over Q."""
    return [sparse([Fraction(x) for x in row]) for row in rows]


def _residues(p, *rows):
    """Integer rows as sparse rows over GF(p)."""
    return [sparse([IntMod(x, p) for x in row]) for row in rows]


def test_echelon_rank_and_reduce():
    ech = Echelon()
    a, b, c, d = _fractions([1, 2, 0, 0], [0, 1, 1, 0], [1, 3, 1, 0],
                            [2, 4, 0, 1])
    assert ech.insert(a)
    assert ech.insert(b)
    assert not ech.insert(c)
    assert ech.rank == 2
    red = dense(ech.reduce(d), 4, 0)
    assert red[0] == 0 and red[1] == 0
    assert ech.spans(_fractions([1, 2, 0, 0]))


def test_echelon_gives_unique_representatives():
    rng = random.Random(1)
    ech = Echelon()
    rows = _fractions(*([rng.randint(-3, 3) for _ in range(6)]
                        for _ in range(4)))
    for r in rows:
        ech.insert(r)
    # reduction is idempotent and kills the span
    for r in rows:
        assert ech.spans([r])
    (v,) = _fractions([rng.randint(-3, 3) for _ in range(6)])
    red = ech.reduce(v)
    assert ech.reduce(red) == red
    # reduced vector vanishes at the pivots
    for piv in ech.pivots:
        assert piv not in red


def test_modp_matches_exact():
    rng = random.Random(2)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(7)]
        exact = Echelon()
        modp = Echelon(IntMod(0, BIG))
        for r in rows:
            exact.insert(*_fractions(r))
            modp.insert(*_residues(BIG, r))
        # generic small integers: rank mod a large prime equals exact rank
        assert exact.rank == modp.rank


# the affine system over Q and over GF(P), on the same integer rows
SYSTEM_DOMAINS = (RationalDomain(1), PrimeDomain(1, P))


def _rows(dom, *rows):
    """Integer rows [M | R] as sparse system rows {column: coefficient}."""
    return [{j: dom.of_int(x) for j, x in enumerate(row) if x}
            for row in rows]


def test_linear_system_unique_solution():
    # x + y = 3, x - y = 1
    for dom in SYSTEM_DOMAINS:
        sys_ = LinearSystem(dom, 2, 1)
        assert sys_.add(_rows(dom, [1, 1, 3])) == 1
        assert sys_.add(_rows(dom, [1, -1, 1])) == 1
        assert not sys_.inconsistent
        assert sys_.rank == 2
        assert sys_.solution() == {0: [dom.of_int(2)], 1: [dom.of_int(1)]}


def test_linear_system_detects_inconsistency_and_dependence():
    # x + y = 3; then 2x + 2y = 6 is dependent, 3x + 3y = 9 is implied,
    # 3x + 3y = 8 is not, and x + y = 4 is inconsistent
    for dom in SYSTEM_DOMAINS:
        sys_ = LinearSystem(dom, 2, 1)
        assert sys_.add(_rows(dom, [1, 1, 3])) == 1
        assert sys_.add(_rows(dom, [2, 2, 6])) == 0
        implied, not_implied = sys_.reduce_batch(
            _rows(dom, [3, 3, 9], [3, 3, 8]))
        assert not implied and not_implied
        assert not sys_.inconsistent
        assert sys_.add(_rows(dom, [1, 1, 4])) == 1
        assert sys_.inconsistent == [2] and sys_.rank == 1
        assert sys_.solution() is None


def test_linear_system_underdetermined():
    # x + 2z = 5: y and z are free, so zero, and only x is in the solution
    for dom in SYSTEM_DOMAINS:
        sys_ = LinearSystem(dom, 3, 1)
        sys_.add(_rows(dom, [1, 0, 2, 5]))
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
            exact.add(_rows(exact_dom, row))
            modp.add(_rows(modp_dom, row))
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
        assert sys_.add(_rows(dom, [1, 1, 1], [2, 2, 3], [1, 0, 2])) == 3
        assert sys_.inconsistent and sys_.solution() is None
        assert sys_.rank == 2
        assert len(sys_.rows) == 3
        empty = LinearSystem(dom, 2, 1)
        assert empty.add(_rows(dom, [0, 0, 5])) == 1
        assert empty.inconsistent and empty.rank == 0


def _random_rows(dom, rng, width, k, consistent, column_0):
    """Random dense rows [M | R] over dom, coefficients a + b s with small
    integers a, b (b = 0 but in Q(s)), about 40% of M nonzero, and some
    rows sums of earlier ones.  Consistent rows take R = M x for one fixed
    x; the others a random R.  With column_0 the first row has its only
    entry at column 0."""
    def coeff():
        b = rng.randint(-1, 1) if dom is SYMBOLIC else 0
        return dom.of_int(rng.randint(-3, 3)) + dom.of_int(b) * dom.sqrt_u

    x = [[coeff() for _ in range(k)] for _ in range(width)]
    rows = []
    if column_0:
        rows.append([dom.of_int(rng.choice((-2, 1, 3)))]
                    + [dom.zero] * (width + k - 1))
    for _ in range(rng.randint(1, 10) if consistent else rng.randint(6, 12)):
        if rows and rng.random() < 0.25:
            a, b = rng.choice(rows), rng.choice(rows)
            c = dom.of_int(rng.randint(-2, 2))
            rows.append([p + c * q for p, q in zip(a, b)])
            continue
        m = [coeff() if rng.random() < 0.4 else dom.zero
             for _ in range(width)]
        rhs = ([sum((a * xi[j] for a, xi in zip(m, x)), dom.zero)
                for j in range(k)] if consistent else
               [coeff() for _ in range(k)])
        rows.append(m + rhs)
    return rows


@pytest.mark.parametrize("dom, trials", [
    (SYSTEM_DOMAINS[0], 40), (PrimeDomain(Fraction(5, 7), PRIMES[0]), 40),
    (SYMBOLIC, 8)], ids=["rational", "prime", "symbolic"])
def test_sparse_system_matches_dense_echelon(dom, trials):
    # random rows [M | R] offered to the sparse Echelon one at a time and to
    # the LinearSystem in blocks: after every block both hold the dense
    # oracle's RREF rows under the same pivots, in the same order, reduce
    # other rows alike and agree on which lie in the span, and the system
    # reads the same rank, inconsistency and solution.  A last block of
    # dense rows reaches width + k rows midway, and insert_block reads on.
    rng = random.Random(11)
    width, k = 7, 2
    kinds = {"consistent": 0, "inconsistent": 0}
    for trial in range(trials):
        rows = _random_rows(dom, rng, width, k, trial % 2 == 0,
                            trial % 3 == 0)
        oracle = DenseEchelon()
        ech = Echelon(dom.zero)

        def as_dense(rows):
            return [dense(row, width + k, dom.zero) for row in rows]

        sys_ = LinearSystem(dom, width, k)
        lo = 0
        while lo < len(rows):
            hi = lo + rng.randint(1, 3)
            block = rows[lo:hi]
            lo = hi
            grown = oracle.insert_block(block)
            assert sum(ech.insert(sparse(row))
                       for row in block) == grown
            assert sys_.add(map(sparse, block)) == grown
            for each in (ech, sys_):
                assert each.pivots == oracle.pivots
                assert as_dense(each.rows) == oracle.rows
            probes = block + [[dom.of_int(rng.randint(-3, 3))
                               for _ in range(width + k)] for _ in range(3)]
            reduced = [oracle.reduce(row) for row in probes]
            for each in (ech, sys_):
                assert as_dense(each.reduce_batch(map(sparse, probes))) \
                    == reduced
                assert each.spans(map(sparse, block))
                assert [each.spans([sparse(row)])
                        for row in probes] == [not any(r) for r in reduced]
            inconsistent = [piv for piv in oracle.pivots if piv >= width]
            assert sys_.inconsistent == inconsistent
            assert sys_.rank == len(oracle.pivots) - len(inconsistent)
            assert sys_.solution() == (None if inconsistent else {
                piv: row[width:]
                for piv, row in zip(oracle.pivots, oracle.rows)})
        kinds["inconsistent" if inconsistent else "consistent"] += 1
        # sparse drops the zero coefficients, and dense inverts it
        assert all(all(sparse(row).values()) for row in rows)
        assert as_dense(map(sparse, rows)) == rows
        # full rank within the first width + k of these rows (unitriangular),
        # and the rows after them are read too, each reducing to zero
        full = [[dom.zero] * j + [dom.one] + [
            dom.of_int(rng.randint(-3, 3)) for _ in range(width + k - j - 1)]
            for j in range(width + k)] + [
            [dom.of_int(rng.randint(-3, 3)) for _ in range(width + k)]
            for _ in range(3)]
        rank = oracle.rank
        assert oracle.insert_block(full) == width + k - rank
        for each, insert in ((ech, ech.insert_block), (sys_, sys_.add)):
            offered = iter(map(sparse, full))
            assert insert(offered) == width + k - rank
            assert as_dense(each.rows) == oracle.rows
            assert next(offered, None) is None
        assert sys_.rank == width
        assert sorted(sys_.inconsistent) == list(sys_.rhs)
    assert min(kinds.values()) >= trials // 4, kinds


def test_nonzero_rows_counts_rows_not_entries():
    # the row whose only entry is at column 0 (the candidate 1 in the
    # spanning check) is nonzero, and a row whose only entry is zero is
    # zero: reduce drops zero coefficients in every domain, so the spanning
    # check counts the nonzero reduced rows by their truth value
    for dom in (SYMBOLIC, RationalDomain(Fraction(5, 7)),
                PrimeDomain(Fraction(5, 7), PRIMES[0])):
        ech = Echelon(dom.zero)
        rows = [{0: dom.one}, {0: dom.zero}, {1: dom.u}, {2: dom.zero}]
        assert list(map(bool, ech.reduce_batch(rows))) == [
            True, False, True, False]
        assert ech.insert(rows[0]) and not ech.insert(rows[3])
        assert list(map(bool, ech.reduce_batch(rows))) == [
            False, False, True, False]


def test_modp_batch_reduce_matches_row_reduce():
    rng = random.Random(5)
    p = PRIMES[0]
    ech = Echelon(IntMod(0, p))
    for _ in range(4):
        ech.insert(*_residues(p, [rng.randint(0, 50) for _ in range(6)]))
    rows = _residues(p, *([rng.randint(0, 50) for _ in range(6)]
                          for _ in range(8)))
    batch = ech.reduce_batch(rows)
    assert batch == [ech.reduce(row) for row in rows]
    # reductions vanish at every pivot column
    for piv in ech.pivots:
        assert all(piv not in row for row in batch)


@pytest.mark.parametrize("p", PRIMES)
def test_modp_basis_products_exact_at_360(p):
    # 360 new pivot rows with p - 2 at the free column, against a row of
    # p // 2 and one p // 2 - 1, over GF(p): clearing the row of the 360
    # pivots, and reducing it against them, give the closed form, whose
    # integer before reduction mod p is odd and past 2^53
    r, h = 360, p // 2
    block = _residues(p, *([0] * (k + 1) + [1] + [0] * (r - k - 1) + [p - 2]
                           for k in range(r)))
    (old,) = _residues(p, [1] + [h] * (r - 1) + [h - 1, 0])
    assert (r * h - 1) * (p - 2) % 2 == 1 and (r * h - 1) * (p - 2) > 2 ** 53
    want = {0: IntMod(1, p), r + 1: IntMod(-(r * h - 1) * (p - 2), p)}
    ech = Echelon(IntMod(0, p))
    ech.insert(old)
    assert ech.insert_block(block) == r
    assert ech.rows[0] == want
    fresh = Echelon(IntMod(0, p))
    fresh.insert_block(block)
    assert fresh.reduce_batch([old]) == [want]


def test_modp_reduce_batch_takes_raw_rows_mod_p():
    # rows of residues of raw integers (a negative entry, an entry >= p, or
    # both kinds) reduce as the same rows mod p, at rank 0 and above; the
    # result is a new row, and reducing or inserting leaves the rows
    # offered as they were
    p = PRIMES[0]
    rng = random.Random(7)
    ech = Echelon(IntMod(0, p))
    for _ in range(3):
        ints = [[rng.randrange(p) for _ in range(8)] for _ in range(2)]
        negative, large = [list(r) for r in ints], [list(r) for r in ints]
        negative[0][3] -= p
        large[1][5] += p
        wild = [[x + p * rng.randrange(-3, 4) for x in r] for r in ints]
        rows = _residues(p, *ints)
        copies = [dict(row) for row in rows]
        want = ech.reduce_batch(rows)
        assert all(a is not b for a, b in zip(want, rows))
        for raw in (negative, large, wild):
            assert ech.reduce_batch(_residues(p, *raw)) == want
        ech.insert_block(rows)
        assert rows == copies == _residues(p, *wild)
    assert ech.rank == 6


def _rref(ech):
    order = sorted(range(ech.rank), key=lambda k: ech.pivots[k])
    return [ech.rows[k] for k in order]


@pytest.mark.parametrize("p", PRIMES + (16777259, BIG))
def test_block_insert_matches_row_inserts(p):
    # 150 rows of width 40 spanning 25 dimensions over GF(p), with zero
    # rows and repeated rows; inserted one by one, in blocks of 64 and as
    # one block, they give the RREF of the dense oracle, and reduce alike
    rng = random.Random(p % 1000)
    width, dim = 40, 25
    base = [[rng.randrange(p) for _ in range(width)] for _ in range(dim)]
    ints = []
    for _ in range(150):
        kind = rng.random()
        if kind < 0.1:
            ints.append([0] * width)
        elif kind < 0.2 and ints:
            ints.append(list(rng.choice(ints)))
        else:
            cs = [rng.randrange(p) if rng.random() < 0.3 else 0
                  for _ in range(dim)]
            ints.append([sum(c * b[j] for c, b in zip(cs, base)) % p
                         for j in range(width)])
    rows, zero = _residues(p, *ints), IntMod(0, p)
    oracle = DenseEchelon()
    oracle.insert_block([dense(row, width, zero) for row in rows])
    one = Echelon(zero)
    grown = sum(one.insert(row) for row in rows)
    chunked = Echelon(zero)
    growth = [chunked.insert_block(rows[lo:lo + 64])
              for lo in range(0, len(rows), 64)]
    whole = Echelon(zero)
    assert whole.insert_block(rows) == sum(growth) == grown == dim
    want = [row for _, row in sorted(zip(oracle.pivots, oracle.rows))]
    for ech in (one, chunked, whole):
        assert [dense(row, width, zero) for row in _rref(ech)] == want
    assert whole.spans(rows)
    for k, red in enumerate(chunked.reduce_batch(rows[:70])):
        assert red == one.reduce(rows[k]) == {}


def test_exact_batch_methods_are_loops_over_rows():
    # on the engine's right products of the symbolic n = 3 basis,
    # Echelon's batch methods agree with its one-row insert and reduce
    from btkit.algebra import BasisIndex
    index = BasisIndex(3)
    tables, _ = right_products(index)
    span = Echelon()
    span.insert_block(tables["E", 1])
    assert 0 < span.rank < len(index)
    for images in tables.values():
        assert (span.reduce_batch(images)
                == [span.reduce(row) for row in images])
        one, block = Echelon(), Echelon()
        grown = sum(one.insert(row) for row in images)
        assert block.insert_block(images) == grown == block.rank
        assert (block.rows, block.pivots) == (one.rows, one.pivots)
    # a block that reaches full rank midway: the rows after it reduce to
    # zero, in a block as one at a time
    one, block = Echelon(), Echelon()
    rows = _fractions((0, 2, 1), (1, 1, 0), (0, 0, 0), (3, 1, 1),
                      (1, 0, 1), (2, 2, 2))
    grown = sum(one.insert(row) for row in rows)
    assert block.insert_block(rows) == grown == 3
    assert (block.rows, block.pivots) == (one.rows, one.pivots)
