"""Exact row-echelon machinery shared by the quotient, trace and rank
computations.

Both echelon classes maintain a reduced row echelon form (every pivot column
is zero in all other rows), so reducing a vector against the span is a single
pass and yields the unique representative with zero coordinates at the pivots.

There is one echelon class per kind of field, and each owns its row format:
:class:`Echelon` serves the exact fields (lists of Scalar or Fraction),
:class:`ModPEchelon` serves GF(p) (int64 numpy rows, numpy imported on first
use).  Each converts domain coefficient lists to rows and back, and packs and
applies the generator action tables of :func:`btkit.quotient.generator_actions`
(``pack``, ``scatter``), so callers run one body of code in every domain.
Both take blocks of rows (``insert_block``, ``reduce_batch``,
``scatter_batch``): :class:`Echelon` loops over the rows, and
:class:`ModPEchelon` inserts a block with two exact float64 BLAS products
(delayed modular reduction, as in FFLAS-FFPACK: Dumas, Giorgi and Pernet,
ACM TOMS 35(3), 2008), one reducing the block against the basis and one
clearing the block's new pivots from the old rows (per CHUNK old rows, so
the temporaries stay bounded as the basis grows), with the block
echelonized in between; ``insert`` is its one-row case.  ``from_entries``
makes a block of rows from sparse (row, column, coefficient) entries.

The affine systems :class:`LinearSystem` (exact) and
:class:`ModPLinearSystem` (GF(p)) serve the trace solver, which feeds one
system per level with rows in the echelon's row format: table scatters of
unit rows (the commutators x g - g x with the generators, and the tower
rules).  ``is_implied`` tests a row against the rows added so far; the
solver counts the implied middle tower rules before it adds them.
"""

import bisect

np = None

LIMB = 12   # bits per limb of the coefficient operand of a float64 product
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
                row[col:] = [a - c * b for a, b in zip(row[col:], r[col:])]
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
                r[piv:] = [a - c * b for a, b in zip(r[piv:], row[piv:])]
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

    def is_zero_mod(self, row):
        return not any(self.reduce(row))

    def spans(self, rows):
        """True iff every row lies in the span."""
        return all(self.is_zero_mod(row) for row in rows)

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


class LinearSystem:
    """Affine system M x = r maintained in reduced row echelon form, with an
    opaque right-hand side supporting ``rhs - rhs2 * coeff``, ``rhs / coeff``
    and truth testing.  Pivots are chosen in the matrix part only, so
    inconsistency is detected as a zero matrix row with nonzero rhs."""

    DEPENDENT, PIVOT, INCONSISTENT = "dependent", "pivot", "inconsistent"

    def __init__(self, width):
        self.width = width
        self.rows = []            # (pivot_col, vec, rhs)
        self._pivot_row = {}
        self.inconsistent = []    # rhs witnesses of inconsistent rows

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec, rhs):
        vec = list(vec)
        for col, c in enumerate(vec):
            if c and col in self._pivot_row:
                _, pvec, prhs = self.rows[self._pivot_row[col]]
                vec[col:] = [a - c * b for a, b in zip(vec[col:], pvec[col:])]
                rhs = rhs - prhs * c
        return vec, rhs

    def add(self, vec, rhs):
        vec, rhs = self.reduce(vec, rhs)
        piv = next((col for col, c in enumerate(vec) if c), None)
        if piv is None:
            if rhs:
                self.inconsistent.append(rhs)
                return self.INCONSISTENT
            return self.DEPENDENT
        inv = vec[piv]
        if inv != inv * inv:
            vec = [c / inv for c in vec]
            rhs = rhs / inv
        for k, (pcol, pvec, prhs) in enumerate(self.rows):
            c = pvec[piv]
            if c:
                pvec[piv:] = [a - c * b for a, b in zip(pvec[piv:], vec[piv:])]
                self.rows[k] = (pcol, pvec, prhs - rhs * c)
        self.rows.append((piv, vec, rhs))
        self._pivot_row[piv] = len(self.rows) - 1
        return self.PIVOT

    def is_implied(self, vec, rhs):
        """True iff the row is already a consequence of the system."""
        vec, rhs = self.reduce(vec, rhs)
        return not any(vec) and not rhs

    def solution(self, zero_rhs):
        """A particular solution (free variables set to zero); None if
        inconsistent.  ``zero_rhs`` is the zero of the rhs type."""
        if self.inconsistent:
            return None
        sol = [zero_rhs] * self.width
        for piv, vec, rhs in self.rows:
            # RREF: the pivot row reads x_piv + (free part) = rhs
            sol[piv] = rhs
        return sol


class ModPLinearSystem:
    """Affine system over GF(p): forward echelon with numpy rows, opaque
    right-hand sides supporting ``rhs - rhs2`` and ``rhs * IntMod`` (same
    contract as :class:`LinearSystem` otherwise; the solution is recovered
    by a final back-substitution pass)."""

    DEPENDENT, PIVOT, INCONSISTENT = (LinearSystem.DEPENDENT,
                                      LinearSystem.PIVOT,
                                      LinearSystem.INCONSISTENT)

    def __init__(self, width, p):
        _import_numpy()
        self.width = width
        self.p = p
        self.rows = {}                # pivot col -> (np row, rhs)
        self._cols = []               # sorted pivot columns
        self.inconsistent = []

    @property
    def rank(self):
        return len(self.rows)

    def _scale(self, rhs, c):
        from .domains import IntMod
        return rhs * IntMod(c, self.p)

    def reduce(self, vec, rhs):
        vec = np.asarray(vec, dtype=np.int64) % self.p
        p = self.p
        for col in self._cols:
            c = int(vec[col])
            if c:
                pvec, prhs = self.rows[col]
                vec = (vec - c * pvec) % p
                rhs = rhs - self._scale(prhs, c)
        return vec, rhs

    def add(self, vec, rhs):
        vec, rhs = self.reduce(vec, rhs)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            if rhs:
                self.inconsistent.append(rhs)
                return self.INCONSISTENT
            return self.DEPENDENT
        piv = int(nz[0])
        inv = pow(int(vec[piv]), self.p - 2, self.p)
        vec = (vec * inv) % self.p
        rhs = self._scale(rhs, inv)
        self.rows[piv] = (vec, rhs)
        bisect.insort(self._cols, piv)
        return self.PIVOT

    def is_implied(self, vec, rhs):
        vec, rhs = self.reduce(vec, rhs)
        return not np.any(vec) and not rhs

    def solution(self, zero_rhs):
        if self.inconsistent:
            return None
        sol = [zero_rhs] * self.width
        for col in reversed(self._cols):
            vec, rhs = self.rows[col]
            val = rhs
            for c in np.nonzero(vec[col + 1:])[0]:
                c = int(c) + col + 1
                if sol[c] is not zero_rhs:
                    val = val - self._scale(sol[c], int(vec[c]))
            sol[col] = val
        return sol


class ModPEchelon:
    """Same contract over GF(p) with a preallocated int64 numpy matrix of
    RREF rows.  Every product with the basis is one float64 matmul: the
    coefficient operand is split into LIMB-bit limbs, so each entry is an
    integer sum of at most ``width`` terms below 2^LIMB * p, exact while
    width * (2^LIMB - 1) * (p-1) < 2^53, and reduced mod p in int64.  The
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
        self._mat = np.zeros((64, width), dtype=np.int64)
        self._pivots = np.array(self.pivots, dtype=np.intp)
        self._free = np.arange(width)     # the non-pivot columns
        self._basis = None    # float64 rows at the free columns, on demand

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def rows(self):
        return self._mat[:self.rank]

    def _mul(self, a, b):
        """An int64 matrix congruent to a @ b mod p and below 2^54, for an
        int64 a and a float64 b with entries in [0, p): one float64 product
        of b with the limbs of a stacked, the limb products recombined in
        int64 and left for the caller to reduce."""
        m, mask = len(a), (1 << LIMB) - 1
        limbs = np.concatenate([(a >> (LIMB * k)) & mask
                                for k in range(self._limbs)])
        part = (limbs.astype(np.float64) @ b).astype(np.int64)
        out = part[(self._limbs - 1) * m:]
        for k in reversed(range(self._limbs - 1)):
            out = ((out % self.p) << LIMB) + part[k * m:(k + 1) * m]
        return out

    def reduce(self, row):
        return self.reduce_batch(np.asarray(row)[None])[0]

    def reduce_batch(self, mat):
        """The rows of mat reduced against the basis.  The basis is RREF, so
        one product at the free columns eliminates every pivot at once, and
        the reduced rows are zero at the pivots."""
        mat = np.asarray(mat, dtype=np.int64) % self.p
        if mat.ndim != 2 or mat.shape[1] != self.width:
            raise ValueError("bad row width")
        if not self.rank:
            return mat
        if self._basis is None:
            self._basis = self.rows[:, self._free].astype(np.float64)
        out = np.zeros_like(mat)
        out[:, self._free] = (mat[:, self._free] - self._mul(
            mat[:, self._pivots], self._basis)) % self.p
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
        new_free = new[:, free].astype(np.float64)
        for lo in range(0, r, CHUNK):
            old = self._mat[lo:min(lo + CHUNK, r)]
            coeffs = old[:, pivs]
            hit = np.flatnonzero(coeffs.any(axis=1))
            if hit.size:
                at = np.ix_(hit, free)
                old[at] = (old[at] - self._mul(coeffs[hit], new_free)) % self.p
                old[:, pivs] = 0
        if r + k > len(self._mat):
            grown = np.zeros((max(2 * len(self._mat), r + k), self.width),
                             dtype=np.int64)
            grown[:r] = self._mat[:r]
            self._mat = grown
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
                block[hit] = (block[hit] - np.outer(col[hit], row)) % p
            pivs.append(piv)
            keep.append(i)
        return block[keep], pivs

    def is_zero_mod(self, row):
        return not np.any(self.reduce(row))

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
        return [IntMod(int(c), self.p) for c in row]

    def pack(self, src, dst, coeff):
        return np.array(src), np.array(dst), self.from_coeffs(coeff)

    def scatter(self, action, row):
        """The image of row under a packed action table.  Entries are below
        p, so each product is below p^2 and the few summed per target stay
        inside int64."""
        src, dst, coeff = action
        out = np.zeros(self.width, dtype=np.int64)
        np.add.at(out, dst, row[src] * coeff)
        return out % self.p

    def scatter_batch(self, action, rows):
        """The images of the rows of a matrix under a packed action table."""
        return np.array([self.scatter(action, row) for row in rows])
