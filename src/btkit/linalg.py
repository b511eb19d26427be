"""Exact row-echelon machinery shared by the quotient and trace
computations.

Both echelon classes maintain a reduced row echelon form (every pivot column
is zero in all other rows), so reducing a vector against the span is a single
pass and yields the unique representative with zero coordinates at the pivots.

There is one echelon class per kind of field, and each owns its row format.
:class:`Echelon` is the one RREF over domain elements (Scalar, Fraction or
IntMod), on sparse rows {column: nonzero coefficient}; it loops over the
rows of a block and keys a packed table by source column.
:class:`ModPEchelon` serves the bulk GF(p) closures of the quotient, on
int64 numpy rows in a matrix allocated once (numpy imported on first use).
It packs a table in layers with distinct targets, one gather-multiply-add
each, and inserts a block with two exact products (delayed modular
reduction on balanced residues, as in FFLAS-FFPACK: Dumas, Giorgi and
Pernet, ACM TOMS 35(3), 2008), one reducing the block against the basis
and one clearing the block's new pivots from the old rows (per CHUNK old
rows, so the temporaries stay bounded as the basis grows), with the block
echelonized in between; ``insert`` is its one-row case.  Each product has
one rule: a float64 BLAS product per run of inner rows short enough that no
sum passes 2^53, the runs summed in int64, which needs (p // 2)^2 < 2^53
and width * (p-1)^2 < 2^63.  Both convert domain coefficient lists to rows
and back, count the nonzero rows of a block, and pack and apply the
generator action tables of :func:`btkit.quotient.generator_actions`, so
callers run one body of code in every domain and read no row format.

The affine system :class:`LinearSystem` is an :class:`Echelon` whose last
columns hold the right-hand sides.  The trace solver feeds one system per
level with sparse rows folded onto the class roots of a weighted union-find
(:func:`merge_classes`), at most 11 entries in an RREF row at n = 5, so it
loads no numpy.
"""

np = None

CHUNK = 512  # old rows cleared of a block's new pivots at once


def _import_numpy():
    global np
    import numpy as np


class Echelon:
    """Reduced row echelon form over an exact field on sparse rows {column:
    nonzero coefficient}, each pivot 1 at its row's first nonzero column,
    the rows in the order inserted (the ideal closure walks them)."""

    def __init__(self, width, zero=0):
        self.width = width
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

    @staticmethod
    def nonzero_rows(rows):
        return sum(1 for row in rows if row)

    @staticmethod
    def from_coeffs(vec):
        return {j: c for j, c in enumerate(vec) if c}

    def to_coeffs(self, row):
        return [row.get(j, self.zero) for j in range(self.width)]

    @staticmethod
    def pack(src, dst, coeff):
        """The table as {source column: [(target, coefficient), ...]}."""
        table = {}
        for s, d, c in zip(src, dst, coeff):
            table.setdefault(s, []).append((d, c))
        return table

    @staticmethod
    def scatter_batch(action, rows):
        """The images of rows under a packed table, walking their entries."""
        out = []
        for row in rows:
            img = {}
            for s, x in row.items():
                for d, c in action.get(s, ()):
                    img[d] = img[d] + x * c if d in img else x * c
            out.append({d: c for d, c in img.items() if c})
        return out


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
        super().__init__(width + k, dom.zero)
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


class ModPEchelon:
    """Same contract over GF(p) with a preallocated int64 numpy matrix of
    RREF rows in [0, p).  Every product with the basis is exact: balanced
    residues, in (-p/2, p/2], multiplied in float64 over runs of
    2^53 // (p // 2)^2 inner rows (360 = dim E_4 at both ``PRIMES``), so no
    sum passes 2^53, which needs (p // 2)^2 < 2^53; the runs are summed in
    int64 and reduced mod p.  That sum, the rank-one updates inside a block
    and the scatters stay in int64, which needs width * (p-1)^2 < 2^63 (see
    ``PRIMES`` in domains)."""

    def __init__(self, width, p):
        if (p // 2) ** 2 >= 2 ** 53:
            raise ValueError("float64 products are inexact at p %d" % p)
        if width * (p - 1) ** 2 >= 2 ** 63:
            raise ValueError("int64 row products overflow at width %d, p %d"
                             % (width, p))
        _import_numpy()
        self.width = width
        self.p = p
        self.pivots = []
        self._run = 2 ** 53 // (p // 2) ** 2   # inner rows per product
        # rank <= width; np.zeros pages stay unbacked until a row is written
        self._mat = np.zeros((width, width), dtype=np.int64)
        self._pivots = np.array(self.pivots, dtype=np.intp)
        self._free = np.arange(width)     # the non-pivot columns
        self._basis = None  # balanced float64 rows at the free columns, lazily

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def rows(self):
        return self._mat[:self.rank]

    def _balanced(self, a):
        """a from [0, p) moved to (-p/2, p/2]; the sum reuses the product."""
        return (a > self.p // 2) * -self.p + a

    def _mod(self, x):
        """x mod p: numpy divides by a scalar far faster than it takes %."""
        return x - x // self.p * self.p

    def _mul(self, a, b):
        """The integer product a @ b, for an int64 a in [0, p) and a float64
        b of balanced residues: one float64 product of b with a balanced
        per run of inner rows, exact, and the runs summed in int64, below
        width * (p-1)^2 / 4 < 2^61; the caller reduces it."""
        a, k = self._balanced(a).astype(np.float64), self._run
        out = (a[:, :k] @ b[:k]).astype(np.int64)
        for lo in range(k, len(b), k):
            out += (a[:, lo:lo + k] @ b[lo:lo + k]).astype(np.int64)
        return out

    def reduce(self, row):
        return self.reduce_batch(np.asarray(row)[None])[0]

    def reduce_batch(self, mat):
        """The rows of mat, taken mod p only if some entry is outside [0, p),
        reduced against the RREF basis: one product at the free columns
        eliminates every pivot at once, leaving zeros at the pivots."""
        mat = np.asarray(mat, dtype=np.int64)
        if mat.ndim != 2 or mat.shape[1] != self.width:
            raise ValueError("bad row width")
        if mat.size and (mat.min() < 0 or mat.max() >= self.p):
            mat = self._mod(mat)
        if not self.rank:
            return mat.copy()
        if self._basis is None:
            self._basis = self._balanced(
                self.rows[:, self._free]).astype(np.float64)
        out = np.zeros_like(mat)
        out[:, self._free] = self._mod(mat[:, self._free] - self._mul(
            mat[:, self._pivots], self._basis))
        return out

    def insert(self, row):
        return self.insert_block(np.asarray(row)[None]) > 0

    def insert_block(self, mat):
        """Insert the rows of mat; returns the rank growth.  The block is
        reduced against the basis in one product and echelonized within
        itself, the new pivots are cleared from the old rows in one product
        per CHUNK rows, at the free columns only, and the new rows are
        appended."""
        new, pivs = self._echelonize(self.reduce_batch(mat))
        if not pivs:
            return 0
        r, k = self.rank, len(pivs)
        free = np.setdiff1d(self._free, pivs, assume_unique=True)
        new_free = self._balanced(new[:, free]).astype(np.float64)
        for lo in range(0, r, CHUNK):
            old = self._mat[lo:min(lo + CHUNK, r)]
            coeffs = old[:, pivs]
            hit = np.flatnonzero(coeffs.any(axis=1))
            if hit.size:
                at = np.ix_(hit, free)
                old[at] = self._mod(old[at] - self._mul(coeffs[hit], new_free))
                old[:, pivs] = 0
        self._mat[r:r + k] = new
        self.pivots.extend(pivs)
        self._pivots = np.array(self.pivots, dtype=np.intp)
        self._free = free
        self._basis = None
        return k

    def _echelonize(self, block):
        """RREF of the rows of a reduced block: (rows, pivot columns), each
        row led by a 1 at the first nonzero column it has once the rows
        before it are eliminated, as one-row inserts would give."""
        p = self.p
        pivs, keep = [], []
        for i in np.flatnonzero(block.any(axis=1)):
            nz = np.flatnonzero(block[i])
            if not nz.size:
                continue
            piv = int(nz[0])
            row = block[i] * pow(int(block[i, piv]), p - 2, p) % p
            block[i] = row
            col = block[:, piv].copy()
            col[i] = 0
            hit = np.flatnonzero(col)
            if hit.size:
                block[hit] = self._mod(block[hit] - np.outer(col[hit], row))
            pivs.append(piv)
            keep.append(i)
        return block[keep], pivs

    def spans(self, rows):
        """True iff every row lies in the span."""
        return not np.any(self.reduce_batch(rows))

    @staticmethod
    def nonzero_rows(rows):
        return int(np.count_nonzero(np.any(rows, axis=1)))

    @staticmethod
    def from_coeffs(vec):
        return np.array([c.v for c in vec], dtype=np.int64)

    def to_coeffs(self, row):
        from .domains import IntMod
        zero = IntMod(0, self.p)
        return [IntMod(c, self.p) if c else zero for c in row.tolist()]

    def pack(self, src, dst, coeff):
        """The table as layers of (source, target, coefficient) arrays: the
        k-th entry of each target goes to layer k, so no layer repeats a
        target.  A scatter sums a product below (p-1)^2 per layer in int64."""
        order = np.argsort(dst, kind="stable")
        src, dst = np.array(src)[order], np.array(dst)[order]
        coeff = self.from_coeffs(coeff)[order]
        first = np.flatnonzero(np.diff(dst, prepend=-1))   # of each target
        layer = np.arange(len(dst)) - np.repeat(
            first, np.diff(first, append=len(dst)))
        layers = int(layer.max()) + 1
        if layers * (self.p - 1) ** 2 >= 2 ** 63:
            raise ValueError("int64 scatter sums overflow with %d layers,"
                             " p %d" % (layers, self.p))
        return [(src[at], dst[at], coeff[at])
                for at in (layer == k for k in range(layers))]

    def scatter_batch(self, action, rows):
        """The images of the rows of a matrix under a packed action table:
        one gather-multiply-add per layer, inside int64 as ``pack`` checks."""
        rows = np.asarray(rows)
        out = np.zeros((len(rows), self.width), dtype=np.int64)
        for src, dst, coeff in action:
            out[:, dst] += rows[:, src] * coeff
        return self._mod(out)
