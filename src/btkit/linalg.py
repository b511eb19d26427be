"""Exact row-echelon machinery shared by the quotient and trace
computations.

:class:`Echelon` is the one reduced row echelon form, over the elements of
every domain (Scalar, Fraction or IntMod), on sparse rows {column: nonzero
coefficient}: every pivot column is zero in all other rows, so reducing a
row against the span is a single pass and yields the unique representative
with zero coordinates at the pivots.  It serves, in every domain, the
quotient's ideal blocks, at most 120 wide at n = 5, and the spanning
check's row blocks, n! wide: no quotient echelon is wider than n!.

The affine system :class:`LinearSystem` is an :class:`Echelon` whose last
columns hold the right-hand sides.  The trace solver feeds one system per
level with sparse rows folded onto the class roots of a weighted union-find
(:func:`merge_classes`), at most 11 entries in an RREF row at n = 5.
"""


class Echelon:
    """Reduced row echelon form over an exact field on sparse rows {column:
    nonzero coefficient}, each pivot 1 at its row's first nonzero column,
    the rows in the order inserted (the ideal closure walks them)."""

    def __init__(self, zero=0):
        self.zero = zero
        self.rows = []
        self.pivots = []          # pivot column of each row
        self._pivot_row = {}      # column -> its row

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Reduced copy of a sparse row (does not insert): the RREF rows
        hold no other pivot, so one subtraction per pivot column of the row
        clears it."""
        out = {j: c for j, c in row.items() if c}
        for piv in [j for j in out if j in self._pivot_row]:
            _subtract(out, out[piv], self._pivot_row[piv])
        return out

    def insert(self, row):
        """Reduce and, if nonzero, add as a pivot row cleared from the
        others; returns True iff the rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        piv = min(row)
        inv = row[piv]
        if inv != inv * inv:   # normalize pivot to 1 unless it already is
            row = {j: c / inv for j, c in row.items()}
        for old in self.rows:
            c = old.get(piv)
            if c:
                _subtract(old, c, row)
        self.rows.append(row)
        self.pivots.append(piv)
        self._pivot_row[piv] = row
        return True

    def insert_block(self, rows):
        """Insert the rows one at a time; returns the growth in rows."""
        return sum(self.insert(row) for row in rows)

    def reduce_batch(self, rows):
        return [self.reduce(row) for row in rows]

    def spans(self, rows):
        """True iff every row lies in the span."""
        return not any(self.reduce(row) for row in rows)


def merge_classes(width, rows, one):
    """Weighted union-find on homogeneous sparse rows {column: nonzero
    coefficient} over a field: a x + b y = 0 puts x = (-b/a) y in one class;
    a x = 0, a cycle whose factors do not close to 1 or a merge with a
    killed class kills the class.  Returns (root, factor, rest): x_k =
    factor[k] x_root[k], root[k] None when killed, and the longer rows."""
    parent, factor, killed, rest = list(range(width)), [one] * width, set(), []

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        f = one
        for y in reversed(path):   # compress: each factor relative to x
            f = factor[y] = factor[y] * f
            parent[y] = x
        return x, f

    for row in filter(None, rows):   # a zero row says nothing
        if len(row) > 2:
            rest.append(row)
            continue
        (x, a), *more = row.items()
        y, b = more[0] if more else (x, a - a)
        (rx, fx), (ry, fy) = find(x), find(y)
        if rx != ry:
            parent[rx], factor[rx] = ry, -(b * fy) / (a * fx)
            if rx in killed:
                killed.add(ry)
        elif a * fx + b * fy:
            killed.add(rx)
    found = [find(x) for x in range(width)]
    return ([None if r in killed else r for r, _ in found],
            [f for _, f in found], rest)


def _subtract(out, c, row):
    """out -= c * row for sparse rows, in place, dropping the zeros."""
    for j, b in row.items():
        v = out[j] - c * b if j in out else -(c * b)
        if v:
            out[j] = v
        else:
            del out[j]


class LinearSystem(Echelon):
    """Affine system M x = R with k right-hand sides over a domain: the
    :class:`Echelon` of the rows [M | R], right-hand sides last.  A pivot
    among them means inconsistency, so ``rank`` counts the pivots below the
    unknowns only; a pivot row reads x_piv + (free part) = its right-hand
    sides.  ``add`` takes a batch of sparse rows, ``reduce`` one row."""

    PIVOT = "pivot"   # read only by perfbench/tracer.py (ROADMAP item 1)

    add = Echelon.insert_block
    reduce = Echelon.reduce   # own entry: perfbench/tracer.py wraps it here

    def __init__(self, dom, width, k):
        super().__init__(dom.zero)
        self.rhs = range(width, width + k)

    @property
    def rank(self):
        return len(self.rows) - len(self.inconsistent)

    @property
    def inconsistent(self):
        """The pivot columns among the right-hand sides."""
        return [piv for piv in self.pivots if piv in self.rhs]

    def solution(self):
        """{i: the k right-hand-side coefficients of x_i} over the pivot
        variables, the free ones being zero; None if inconsistent."""
        if self.inconsistent:
            return None
        return {piv: [row.get(j, self.zero) for j in self.rhs]
                for piv, row in zip(self.pivots, self.rows)}


class ModPLinearSystem(LinearSystem):
    """:class:`LinearSystem` under the name perfbench/tracer.py wraps.  It
    wraps each class's own ``add`` and ``reduce``, so the shim holds its own
    (ROADMAP item 1 removes it)."""

    add = LinearSystem.add
    reduce = LinearSystem.reduce


class ModPEchelon(Echelon):
    """:class:`Echelon` under a name perfbench/tracer.py wraps; nothing
    builds one.  The tracer wraps each class's own ``insert``, ``reduce``
    and ``reduce_batch``, so the shim holds its own (ROADMAP item 1 removes
    it)."""

    insert = Echelon.insert
    reduce = Echelon.reduce
    reduce_batch = Echelon.reduce_batch
