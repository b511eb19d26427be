"""Exact row-echelon machinery shared by the quotient, trace and rank
computations.

Both echelon classes maintain a reduced row echelon form (every pivot column
is zero in all other rows), so reducing a vector against the span is a single
pass and yields the unique representative with zero coordinates at the pivots.

There is one echelon class per kind of field, and each owns its row format:
:class:`Echelon` serves the exact fields (lists of Scalar or Fraction),
:class:`ModPEchelon` serves GF(p) (int64 numpy rows in a matrix allocated
once, numpy imported on first use).  Each converts domain coefficient lists
to rows and back, and packs and applies the generator action tables of
:func:`btkit.quotient.generator_actions` (``pack``, ``scatter``), so callers
run one body of code in every domain.  Both take blocks of rows
(``insert_block``, ``reduce_batch``, ``scatter_batch``): :class:`Echelon`
loops over the rows.  :class:`ModPEchelon` packs a table in layers with
distinct targets, one gather-multiply-add each, and inserts a block with two
exact float64 BLAS products (delayed modular reduction on balanced residues,
as in FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008), one
reducing the block against the basis and one clearing the block's new pivots
from the old rows (per CHUNK old rows, so the temporaries stay bounded as the
basis grows), with the block echelonized in between; ``insert`` is its
one-row case.  ``from_entries`` makes a block of rows from sparse (row,
column, coefficient) entries.

The affine system :class:`LinearSystem` is one echelon of its domain whose
last columns hold the right-hand sides as coefficients, fed in blocks, in
every domain.  It serves the trace solver, which feeds one system per level
over the class roots of a weighted union-find (:func:`merge_classes`) with
the tower rules and the longer commutators, folded onto the roots.
"""

np = None

LIMB = 12   # bits per limb of a coefficient operand too wide for one product
CHUNK = 512  # old rows cleared of a block's new pivots at once


def _import_numpy():
    global np
    import numpy as np


class Echelon:
    """Reduced row echelon form over an exact field, rows as dense lists."""

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []          # pivot column of each row
        self._pivot_row = {}      # column -> row index

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Fully reduced copy of row (does not insert)."""
        row = list(row)
        for col, c in enumerate(row):
            if c and col in self._pivot_row:
                r = self.rows[self._pivot_row[col]]
                row[col:] = [a - c * b if b else a
                             for a, b in zip(row[col:], r[col:])]
        return row

    def insert(self, row):
        """Reduce and, if independent, add as a new pivot row; returns True
        iff the rank grew."""
        row = self.reduce(row)
        piv = next((col for col, c in enumerate(row) if c), None)
        if piv is None:
            return False
        inv = row[piv]
        if inv != inv * inv:  # normalize pivot to 1 unless it already is
            row = [c / inv for c in row]
        for r, rpiv in zip(self.rows, self.pivots):
            c = r[piv]
            if c:
                r[piv:] = [a - c * b if b else a
                           for a, b in zip(r[piv:], row[piv:])]
        self.rows.append(row)
        self.pivots.append(piv)
        self._pivot_row[piv] = len(self.rows) - 1
        return True

    def insert_block(self, rows):
        """Insert the rows up to full rank, after which every row reduces
        to zero; returns the rank growth."""
        rank = self.rank
        for row in rows:
            if self.rank == self.width:
                break
            self.insert(row)
        return self.rank - rank

    def reduce_batch(self, rows):
        return [self.reduce(row) for row in rows]

    def spans(self, rows):
        """True iff every row lies in the span."""
        return all(not any(self.reduce(row)) for row in rows)

    @staticmethod
    def from_coeffs(vec):
        return vec

    def from_entries(self, m, entries):
        """m rows, zero but for the (row, column, coefficient) entries, of
        which there is at least one: the field's zero is c - c for the
        first coefficient c."""
        zero = entries[0][2] - entries[0][2]
        rows = [[zero] * self.width for _ in range(m)]
        for i, j, c in entries:
            rows[i][j] = c
        return rows

    @staticmethod
    def to_coeffs(row):
        return row

    @staticmethod
    def pack(src, dst, coeff):
        # c - c is the field's zero, for the targets no source reaches
        return list(zip(src, dst, coeff)), coeff[0] - coeff[0]

    def scatter(self, action, row):
        """The image of row under a packed action table."""
        entries, zero = action
        out = [zero] * self.width
        for s, d, c in entries:
            x = row[s]
            if x:
                out[d] = out[d] + x * c
        return out

    def scatter_batch(self, action, rows):
        return [self.scatter(action, row) for row in rows]


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


class LinearSystem:
    """Affine system M x = R with k right-hand sides over a domain, as one
    echelon ``ech = dom.echelon(width + k)`` of rows [M | R], fed in blocks.
    First-nonzero pivoting puts a pivot among the last k columns exactly
    when the system is inconsistent, so ``rank`` counts the pivots below
    ``width`` only.  A reduced pivot row reads x_piv + (free part) = its
    right-hand sides."""

    PIVOT = "pivot"   # read only by perfbench/tracer.py (ROADMAP item 1)

    def __init__(self, dom, width, k):
        self.width = width
        self.ech = dom.echelon(width + k)

    @property
    def rank(self):
        return sum(piv < self.width for piv in self.ech.pivots)

    @property
    def inconsistent(self):
        """The pivot columns among the right-hand sides."""
        return [piv for piv in self.ech.pivots if piv >= self.width]

    def add(self, rows):
        """Insert a block of rows [M | R]; returns the rank growth of ech."""
        return self.ech.insert_block(rows)

    def reduce(self, rows):
        return self.ech.reduce_batch(rows)

    def solution(self):
        """{i: the k right-hand-side coefficients of x_i} over the pivot
        variables, the free ones being zero; None if inconsistent."""
        if self.inconsistent:
            return None
        return {piv: self.ech.to_coeffs(row[self.width:])
                for piv, row in zip(self.ech.pivots, self.ech.rows)}


class ModPLinearSystem(LinearSystem):
    """:class:`LinearSystem` under the name perfbench/tracer.py wraps.  It
    wraps each class's own ``add`` and ``reduce``, so the shim holds its own
    (ROADMAP item 1 removes it)."""

    add = LinearSystem.add
    reduce = LinearSystem.reduce


class ModPEchelon:
    """Same contract over GF(p) with a preallocated int64 numpy matrix of
    RREF rows in [0, p).  Every product with the basis is one float64 matmul
    on balanced residues, in (-p/2, p/2], exact below 2^53 and reduced mod p
    in int64: at inner dimension r the coefficient operand is used whole
    while r * (p // 2)^2 < 2^53 (r <= 360 = dim E_4 at both ``PRIMES``), else
    in LIMB-bit limbs, exact while width * (2^LIMB - 1) * (p-1) < 2^53.  The
    rank-one updates inside a block and the scatters stay in int64, which
    needs width * (p-1)^2 < 2^63 (see ``PRIMES`` in domains)."""

    def __init__(self, width, p):
        if width * (p - 1) ** 2 >= 2 ** 63:
            raise ValueError("int64 row products overflow at width %d, p %d"
                             % (width, p))
        if width * ((1 << LIMB) - 1) * (p - 1) >= 2 ** 53:
            raise ValueError("float64 limb products are inexact at width %d,"
                             " p %d" % (width, p))
        _import_numpy()
        self.width = width
        self.p = p
        self.pivots = []
        self._limbs = -(-(p - 1).bit_length() // LIMB)
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
        """An int64 matrix congruent to a @ b mod p, below 2^54 in absolute
        value, for an int64 a in [0, p) and a float64 b of balanced residues:
        one float64 product of b with a balanced, whole while len(b) *
        (p // 2)^2 < 2^53 and else as stacked LIMB-bit limbs (the top one
        signed), recombined in int64 and left for the caller to reduce."""
        m, p, mask = len(a), self.p, (1 << LIMB) - 1
        n = 1 if len(b) * (p // 2) ** 2 < 2 ** 53 else self._limbs
        a = self._balanced(a)
        limbs = [(a >> (LIMB * k)) & mask for k in range(n - 1)]
        limbs.append(np.right_shift(a, LIMB * (n - 1), out=a))
        part = (np.concatenate(limbs, dtype=np.float64) @ b).astype(np.int64)
        out = part[(n - 1) * m:]
        for k in reversed(range(n - 1)):
            out = (self._mod(out) << LIMB) + part[k * m:(k + 1) * m]
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
    def from_coeffs(vec):
        return np.array([c.v for c in vec], dtype=np.int64)

    def from_entries(self, m, entries):
        """m rows, zero but for the (row, column, coefficient) entries, of
        which there is at least one."""
        out = np.zeros((m, self.width), dtype=np.int64)
        i, j, c = zip(*entries)
        out[i, j] = [x.v for x in c]
        return out

    def to_coeffs(self, row):
        from .domains import IntMod
        zero = IntMod(0, self.p)
        return [IntMod(c, self.p) if c else zero for c in row.tolist()]

    def pack(self, src, dst, coeff):
        """The table as layers of (source, target, coefficient) arrays: the
        k-th entry of each target goes to layer k, so no layer repeats a
        target."""
        order = np.argsort(dst, kind="stable")
        src, dst = np.array(src)[order], np.array(dst)[order]
        coeff = self.from_coeffs(coeff)[order]
        first = np.flatnonzero(np.diff(dst, prepend=-1))   # of each target
        layer = np.arange(len(dst)) - np.repeat(
            first, np.diff(first, append=len(dst)))
        return [(src[at], dst[at], coeff[at])
                for at in (layer == k for k in range(layer.max() + 1))]

    def scatter(self, action, row):
        return self.scatter_batch(action, [row])[0]

    def scatter_batch(self, action, rows):
        """The images of the rows of a matrix under a packed action table:
        one gather-multiply-add per layer.  Entries are below p, so each
        product is below p^2, and the few layers summed stay inside int64."""
        rows = np.asarray(rows)
        out = np.zeros((len(rows), self.width), dtype=np.int64)
        for src, dst, coeff in action:
            out[:, dst] += rows[:, src] * coeff
        return self._mod(out)
