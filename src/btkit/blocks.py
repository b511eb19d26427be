"""The braids-and-ties algebra as a sum of matrix algebras over shape
blocks, and its two-sided ideals built block by block.

The ties as orthogonal idempotents.  Write J <= K when the set partition J
is finer than K.  Moebius inversion on the partition lattice (Rota, "On
the foundations of combinatorial theory I", Z. Wahrscheinlichkeitstheorie
2, 1964) turns the commuting idempotents E_J, with E_J E_K = E_{J v K},
into orthogonal idempotents eps_K = sum_{K <= J} mu(K, J) E_J, with
E_J = sum_{J <= K} eps_K.  So E_J eps_K = eps_K if J <= K and 0 otherwise,
and T_w eps_K = eps_{wK} T_w.  Hence

    eps_K E_J T_w eps_L = [J <= K] [wL = K] eps_K T_w,

and E_n is the direct sum of its pieces eps_K E_n eps_L, each zero unless
K and L have one shape mu (the multiset of block sizes).

The blocks.  For each shape mu, I = I_mu has consecutive blocks of
descending sizes, and W = W_mu is its stabilizer.  A_mu = eps_I E_n eps_I
has the basis eps_I T_v, v in W; the columns are W in reverse
lexicographic order, so the identity comes last.  The transporter c_K of a
partition K of shape mu is the shortest w with wI = K; it is unique, as
{w : wI = K} is the coset c_K W.  Every letter s of a reduced word of c_K
moves the partition it meets (else a shorter transporter exists), so s
splits the pair it swaps, E_s vanishes on that piece, and T_s T_s acts
there as 1 by the quadratic relation.  So T_{c_K^-1} T_{c_K} eps_I =
eps_I, and likewise T_{c_K} T_{c_K^-1} eps_K = eps_K: left
multiplication by T_{c_K^-1} maps eps_K E_n eps_L onto eps_I E_n eps_L,
inverse to T_{c_K}.

Phi.  The piece of x at (K, L) moves into A_mu as Phi(x)_{K,L} =
proj(T_{c_K^-1} x T_{c_L}), where proj(y) = eps_I y eps_I keeps the terms
E_J T_v of y with J <= I and v in W, and sends E_J to 1.  By the display,
Phi(E_J T_w) has one piece at (K, w^-1 K) for each K >= J, and that piece,
proj(T_{c_K^-1} T_w T_{c_L}), depends on (K, w) only: Phi costs one braid
product per basis element.  With the inverses above, Phi is an isomorphism
of algebras from E_n onto the sum of the Mat_{k_mu}(A_mu), k_mu the
number of partitions of shape mu, and Phi(1) is the unit of every
diagonal piece.  Its coordinates, one row of width dim E_n, are the block
coordinates.

Ideals.  A two-sided ideal <g> is the sum of its pieces eps_K <g> eps_L,
which Phi sends onto one ideal J_mu of A_mu.  Since eps_I E_n eps_K =
A_mu T_{c_K^-1} eps_K and eps_L E_n eps_I = eps_L T_{c_L} A_mu,

    J_mu = eps_I <g> eps_I = sum_{K,L} A_mu Phi(g)_{K,L} A_mu,

so the pieces of Phi(g) are the seeds, and J_mu is their closure under the
generators of A_mu on both sides, in an echelon of width |W|.  Then
dim <g> = sum_mu k_mu^2 dim J_mu, x lies in <g> exactly when every piece
of Phi(x) lies in J_mu, and the pieces reduced against the J_mu are a
canonical form of x modulo <g>.  Phi(1) reduces to itself unless some
J_mu is all of A_mu, as only a row of the identity column alone can take
that last column as its pivot.

The generators of A_mu are the T_i with i, i+1 in one block of I, and
T_sigma for sigma the swap of two consecutive blocks of equal size.  That
they generate A_mu is checked when a block is built: closing the unit
under them reaches rank |W|.
"""

from .algebra import basis_element
from .linalg import Echelon
from .partitions import SetPartition, enumerate_partitions, intern_partition
from .permutations import Permutation, enumerate_permutations

_CACHE = {}


def structure(n, dom):
    """The :class:`Blocks` of E_n over dom, built once per n and value of
    sqrt(u), the one thing its products depend on (a Scalar, a Fraction
    and an IntMod, whose equality includes p, never compare equal).  Only
    the last is kept, as every suite finishes with one (n, sqrt(u)) before
    the next."""
    key = (n, dom.sqrt_u)
    if key not in _CACHE:
        _CACHE.clear()
        _CACHE[key] = Blocks(n, dom)
    return _CACHE[key]


def _shapes(n, most=None):
    """The integer partitions of n, parts descending and at most ``most``."""
    if n == 0:
        yield ()
    for k in range(min(n, most or n), 0, -1):
        for rest in _shapes(n - k, k):
            yield (k,) + rest


def _braid(n, dom, first, *rest):
    """The engine product T_first T_rest[0] T_rest[1] ... of permutations."""
    x = basis_element(SetPartition.unit(n), first, dom)
    for w in rest:
        for i in w.reduced_word():
            x = x.right_mul_T(i)
    return x


def _apply(table, row):
    """A row of A_mu times a generator: sum over the row's columns j of its
    coefficient times the generator's row table[j]."""
    out = {}
    for j, c in row.items():
        for k, b in table[j].items():
            out[k] = out[k] + c * b if k in out else c * b
    return {k: c for k, c in out.items() if c}


def close(ech, tables):
    """Close the span of an echelon under the tables: each row's images
    are inserted once, taken with the value the row has then.  That value
    differs from the row's last value by rows inserted later, so these
    values span the result, and so the result is closed."""
    done = 0
    while done < ech.rank:
        row, done = ech.rows[done], done + 1
        ech.insert_block([_apply(table, row) for table in tables])


class Shape:
    """One block: I, its stabilizer W (the columns, identity last), the
    partitions K of the shape with their transporters, and the generators
    of A_mu as tables on both sides: right[s][j] is the row of the j-th
    basis element times the s-th generator, left[s][j] that of the
    generator times it."""

    def __init__(self, mu, n, dom, perms, parts):
        labels = [b for b, size in enumerate(mu) for _ in range(size)]
        self.I = I = intern_partition(labels)
        self.W = [w for w in perms if I.apply(w) == I][::-1]
        self.col = {w: j for j, w in enumerate(self.W)}
        self.finer = {J for J in parts if I.join(J) == I}
        self.transporter = {}
        for w in sorted(perms, key=lambda w: len(w.reduced_word())):
            self.transporter.setdefault(I.apply(w), w)
        self.parts = sorted(self.transporter, key=lambda K: K.rgs)
        gens = [Permutation.transposition(i, n) for i in range(1, n)
                if labels[i - 1] == labels[i]]
        start = [labels.index(b) for b in range(len(mu))]
        for b in range(len(mu) - 1):
            if mu[b] == mu[b + 1]:
                img = list(range(1, n + 1))
                lo, k = start[b], mu[b]
                img[lo:lo + 2 * k] = img[lo + k:lo + 2 * k] + img[lo:lo + k]
                gens.append(Permutation(img))
        self.right = [[self.proj(_braid(n, dom, v, s)) for v in self.W]
                      for s in gens]
        self.left = [[self.proj(_braid(n, dom, s, v)) for v in self.W]
                     for s in gens]
        unit = Echelon(len(self.W), dom.zero)
        unit.insert({len(self.W) - 1: dom.one})
        close(unit, self.right)
        if unit.rank != len(self.W):
            raise AssertionError("the generators of A_%s span %d of %d"
                                 % (mu, unit.rank, len(self.W)))

    def proj(self, x):
        """eps_I x eps_I as a row of A_mu: the terms E_J T_v of x with J
        finer than I and v in W."""
        out = {}
        for (J, v), c in x.terms.items():
            j = self.col.get(v)
            if j is not None and J in self.finer:
                out[j] = out[j] + c if j in out else c
        return {j: c for j, c in out.items() if c}


class Blocks:
    """E_n over dom as the sum of the Mat_{k_mu}(A_mu): the shapes, Phi,
    and the layout of the block coordinates.  The piece (K, L) of a shape
    takes |W| consecutive columns, from ``offset[K, L]``; ``start[c]`` is
    the first column of the piece of column c, and ``shape_at`` maps it
    to the shape's position."""

    def __init__(self, n, dom):
        self.n, self.dom = n, dom
        perms = enumerate_permutations(n)
        parts = enumerate_partitions(n)
        self.shapes = [Shape(mu, n, dom, perms, parts) for mu in _shapes(n)]
        self.coarser = {J: [K for K in parts if K.join(J) == K]
                        for J in parts}
        self.offset, self.start, self.shape_at = {}, [], {}
        for at, shape in enumerate(self.shapes):
            for K in shape.parts:
                for L in shape.parts:
                    self.offset[K, L] = len(self.start)
                    self.shape_at[len(self.start)] = at
                    self.start += [len(self.start)] * len(shape.W)
        self.dim = len(self.start)
        self._shape_of = {K: s for s in self.shapes for K in s.parts}
        self._images = {}

    def _image(self, K, w):
        """(first column, row) of the one piece of Phi(E_J T_w), J <= K, at
        (K, w^-1 K): proj(T_{c_K^-1} T_w T_{c_L})."""
        if (K, w) not in self._images:
            shape = self._shape_of[K]
            L = K.apply(w.inverse())
            c = shape.transporter
            self._images[K, w] = (self.offset[K, L], shape.proj(_braid(
                self.n, self.dom, c[K].inverse(), w, c[L])))
        return self._images[K, w]

    def form(self, x):
        """Phi(x) in block coordinates: a sparse row {column: coefficient}.
        The coefficients of E_J T_w over the J finer than K are summed
        first, as they share one image."""
        acc = {}
        for (J, w), c in x.terms.items():
            for K in self.coarser[J]:
                acc[K, w] = acc[K, w] + c if (K, w) in acc else c
        out = {}
        for (K, w), c in acc.items():
            if c:
                off, row = self._image(K, w)
                for j, b in row.items():
                    k = off + j
                    out[k] = out[k] + c * b if k in out else c * b
        return {k: c for k, c in out.items() if c}

    def ideal(self, g):
        """The two-sided ideal of g: each J_mu seeded with the pieces of
        Phi(g) of its shape and closed on both sides."""
        echs = [Echelon(len(shape.W), self.dom.zero) for shape in self.shapes]
        for off, piece in self.pieces(self.form(g)).items():
            echs[self.shape_at[off]].insert(piece)
        for shape, ech in zip(self.shapes, echs):
            close(ech, shape.right + shape.left)
        return Ideal(self, echs)

    def pieces(self, row):
        """A row of block coordinates cut into its pieces {first column:
        row of A_mu}."""
        out = {}
        for k, c in row.items():
            off = self.start[k]
            out.setdefault(off, {})[k - off] = c
        return out


class Ideal:
    """A two-sided ideal of E_n as its blocks J_mu: one echelon of width
    |W| per shape, in the order of ``blocks.shapes``."""

    def __init__(self, blocks, echs):
        self.blocks = blocks
        self.echs = echs

    @property
    def dim(self):
        return sum(len(shape.parts) ** 2 * ech.rank
                   for shape, ech in zip(self.blocks.shapes, self.echs))

    @property
    def quotient_dim(self):
        return self.blocks.dim - self.dim

    def reduce(self, row):
        """The canonical form of a row of block coordinates modulo the
        ideal: each piece reduced against its J_mu (idempotent, linear)."""
        out = {}
        for off, piece in self.blocks.pieces(row).items():
            ech = self.echs[self.blocks.shape_at[off]]
            out.update((off + j, c) for j, c in ech.reduce(piece).items())
        return out

    def contains(self, x):
        return not self.reduce(self.blocks.form(x))

    def closed(self):
        """Whether every row of every J_mu, times every generator of A_mu
        on either side, lies in J_mu: then each J_mu is a two-sided ideal
        of A_mu, and the ideal is two-sided."""
        return all(ech.spans(_apply(table, row)
                             for table in shape.right + shape.left)
                   for shape, ech in zip(self.blocks.shapes, self.echs)
                   for row in ech.rows)
