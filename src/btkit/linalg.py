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

The affine systems :class:`LinearSystem` (exact) and
:class:`ModPLinearSystem` (GF(p)) serve the trace solver, which feeds one
system per level with rows in the echelon's row format: table scatters of
unit rows (the commutators x g - g x with the generators, and the tower
rules).  ``is_implied`` tests a row against the rows added so far; the
solver counts the implied middle tower rules before it adds them.
"""

import bisect

np = None


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

    def is_zero_mod(self, row):
        return not any(self.reduce(row))

    def spans(self, rows):
        """True iff every row lies in the span."""
        return all(self.is_zero_mod(row) for row in rows)

    @staticmethod
    def from_coeffs(vec):
        return vec

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
    """Same contract over GF(p) with a preallocated numpy matrix of RREF
    rows.  The prime must satisfy width * (p-1)^2 < 2^63 so that the batched
    reductions stay inside int64 (see ``PRIMES`` in domains)."""

    def __init__(self, width, p):
        if width * (p - 1) ** 2 >= 2 ** 63:
            raise ValueError("int64 row products overflow at width %d, p %d"
                             % (width, p))
        _import_numpy()
        self.width = width
        self.p = p
        self.pivots = []
        self._mat = np.zeros((64, width), dtype=np.int64)

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def rows(self):
        return self._mat[:self.rank]

    def _coerce(self, row):
        arr = np.asarray(row, dtype=np.int64) % self.p
        if arr.shape != (self.width,):
            raise ValueError("bad row width")
        return arr

    def reduce(self, row):
        # rows are RREF, so one matrix product eliminates all pivots at once
        row = self._coerce(row)
        r = self.rank
        if r == 0:
            return row.copy()
        coeffs = row[self.pivots]
        return (row - coeffs @ self._mat[:r]) % self.p

    def reduce_batch(self, mat):
        mat = np.asarray(mat, dtype=np.int64) % self.p
        r = self.rank
        if r == 0:
            return mat.copy()
        coeffs = mat[:, self.pivots]
        return (mat - coeffs @ self._mat[:r]) % self.p

    def insert(self, row):
        row = self.reduce(row)
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(row[piv]), self.p - 2, self.p)
        row = (row * inv) % self.p
        r = self.rank
        if r:
            col = self._mat[:r, piv].copy()
            nzr = np.nonzero(col)[0]
            if nzr.size:
                self._mat[nzr] -= np.outer(col[nzr], row)
                self._mat[:r] %= self.p
        if r == len(self._mat):
            grown = np.zeros((2 * r, self.width), dtype=np.int64)
            grown[:r] = self._mat
            self._mat = grown
        self._mat[r] = row
        self.pivots.append(piv)
        return True

    def is_zero_mod(self, row):
        return not np.any(self.reduce(row))

    def spans(self, rows):
        """True iff every row lies in the span."""
        return not np.any(self.reduce_batch(rows))

    @staticmethod
    def from_coeffs(vec):
        return np.array([c.v for c in vec], dtype=np.int64)

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
