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
proj(T_{c_K^-1} T_w T_{c_L}), depends on (K, w) only: it is row block K
of Phi(T_w), the pieces (K, L) over all L.  With the inverses above, Phi
is an isomorphism of algebras from E_n onto the sum of the
Mat_{k_mu}(A_mu), k_mu the number of partitions of shape mu, and Phi(1)
is the unit of every diagonal piece.  Its coordinates, one row of width
dim E_n, are the block coordinates.

The images by recursion.  Phi(x T_s) = Phi(x) Phi(T_s), and Phi(T_s) has
one piece per row block L, the step of (L, s) at (L, sL): proj(T_{c_L^-1}
T_s T_{c_{sL}}), the unit of A_mu or eps_I T_t for a generator t of A_mu
(asserted when the blocks are built).  So Phi(x T_s) moves each piece
(K, L) of Phi(x) to (K, sL), times the step's right table unless it is
the unit.  From Phi(1), Phi(T_w) is Phi(T_{ws}) times T_s, s the last
letter of w's canonical reduced word: Bell(n) (n - 1) braid products for
the steps, and none per image.

Ideals.  A two-sided ideal <g> is the sum of its pieces eps_K <g> eps_L,
which Phi sends onto one ideal J_mu of A_mu.  Since eps_I E_n eps_K =
A_mu T_{c_K^-1} eps_K and eps_L E_n eps_I = eps_L T_{c_L} A_mu,

    J_mu = eps_I <g> eps_I = sum_{K,L} A_mu Phi(g)_{K,L} A_mu,

so the pieces of Phi(g) are the seeds, and J_mu is their closure under the
generators of A_mu on both sides.  The mirror of :mod:`btkit.algebra`
fixes eps_I and sends eps_I T_v to eps_I T_{v^-1}, a permutation of the
columns of A_mu.  It fixes the generators, all involutions, so s x =
mirror(mirror(x) s), and a right ideal it maps onto itself is two-sided.
If it fixes g, it sends the seed at (K, L) to the seed at (L, K), so J_mu
is the closure of the seeds under the right generators and the mirror, in
an echelon of width |W|.  Then
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

from .algebra import basis_element, mirror_pair
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
    partitions K of the shape with their transporters, the generators of
    A_mu as tables on the right, right[s][j] the row of the j-th basis
    element times the s-th generator, and mirror[j], the row of the
    mirror of the j-th: s x = mirror(mirror(x) s) (module docstring)."""

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
        gens += [Permutation([p + 1 + k * ((b == c) - (b + 1 == c))
                              for p, c in enumerate(labels)])
                 for b, k in enumerate(mu[:-1]) if k == mu[b + 1]]
        self.gens = gens
        self.right = [[self.proj(_braid(n, dom, v, s)) for v in self.W]
                      for s in gens]
        self.mirror = [{self.col[v.inverse()]: dom.one} for v in self.W]
        unit = Echelon(dom.zero)
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
    the first column of the piece of column c, and ``shape_at`` and
    ``piece_at`` map it to the shape's position and to (K, L).  Row block
    b, the pieces (K, L) of Phi(x) for K = ``row_parts[b]`` and so
    Phi(eps_K x), is the k_mu |W| = n! consecutive columns from b n!.
    ``steps[s][L]`` is (sL, the step's right table or None for the unit)."""

    def __init__(self, n, dom):
        self.n, self.dom = n, dom
        perms = enumerate_permutations(n)
        parts = enumerate_partitions(n)
        self.shapes = [Shape(mu, n, dom, perms, parts) for mu in _shapes(n)]
        self.coarser = {J: [K for K in parts if K.join(J) == K]
                        for J in parts}
        self.offset, self.start, self.shape_at, self.piece_at = {}, [], {}, {}
        for at, shape in enumerate(self.shapes):
            for K in shape.parts:
                for L in shape.parts:
                    self.offset[K, L] = len(self.start)
                    self.shape_at[len(self.start)] = at
                    self.piece_at[len(self.start)] = K, L
                    self.start += [len(self.start)] * len(shape.W)
        self.dim = len(self.start)
        self.row_parts = [K for shape in self.shapes for K in shape.parts]
        self._shape_of = {K: s for s in self.shapes for K in s.parts}
        self.steps = {s: {L: self._step(L, s) for L in parts}
                      for s in range(1, n)}
        unit = {K: (self.offset[K, K], {len(s.W) - 1: dom.one})
                for s in self.shapes for K in s.parts}
        self._images = {perms[0]: unit}
        for w in sorted(perms, key=lambda w: len(w.reduced_word()))[1:]:
            s = w.reduced_word()[-1]
            prefix = self._images[w.right_mul_gen(s)].items()
            self._images[w] = {K: self._times(off, piece, s)
                               for K, (off, piece) in prefix}

    def _step(self, L, s):
        """(sL, the right table of the step of (L, s), or None if the step
        is the unit of A_mu); any other step is refused."""
        t, shape = Permutation.transposition(s, self.n), self._shape_of[L]
        sL, c = L.apply(t), shape.transporter
        piece = shape.proj(_braid(self.n, self.dom, c[L].inverse(), t, c[sL]))
        for g, table in zip([shape.W[-1]] + shape.gens, [None] + shape.right):
            if piece == {shape.col[g]: self.dom.one}:
                return sL, table
        raise AssertionError("the step of %s by T_%d is %r, not a generator"
                             % (L, s, piece))

    def _times(self, off, piece, s):
        """The piece (K, L) of Phi(x) at off to (off, row) of Phi(x T_s)."""
        K, L = self.piece_at[off]
        sL, table = self.steps[s][L]
        return self.offset[K, sL], (piece if table is None
                                    else _apply(table, piece))

    def times_T(self, row, s):
        """Phi(x T_s) from the row Phi(x), piece by piece, with no engine
        product (module docstring)."""
        out = {}
        for off, piece in self.pieces(row).items():
            off, piece = self._times(off, piece, s)
            out.update((off + j, c) for j, c in piece.items())
        return out

    def _image(self, K, w):
        """(first column, row) of the one piece of Phi(E_J T_w), J <= K, at
        (K, w^-1 K): row block K of Phi(T_w), built by the recursion."""
        return self._images[w][K]

    def form(self, x):
        """Phi(x) in block coordinates: a sparse row {column: coefficient}.
        The coefficients of E_J T_w over the J finer than K are summed
        first, as they share one image, row block K of Phi(T_w)."""
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
        Phi(g) of its shape and closed under the right tables and the
        mirror, which is two-sided only if the mirror fixes g."""
        if {mirror_pair(*key): c for key, c in g.terms.items()} != g.terms:
            raise ValueError("the mirror does not fix the ideal's generator")
        echs = [Echelon(self.dom.zero) for _ in self.shapes]
        for off, piece in self.pieces(self.form(g)).items():
            echs[self.shape_at[off]].insert(piece)
        for shape, ech in zip(self.shapes, echs):
            close(ech, shape.right + [shape.mirror])
        return Ideal(self, echs)

    def pieces(self, row):
        """A row of block coordinates cut into its pieces {first column:
        row of A_mu}."""
        out = {}
        for k, c in row.items():
            off = self.start[k]
            out.setdefault(off, {})[k - off] = c
        return out

    def row_blocks(self, row):
        """A row of block coordinates cut into its row blocks {K: row}."""
        out, width = {}, self.dim // len(self.row_parts)
        for k, c in row.items():
            out.setdefault(self.row_parts[k // width], {})[k % width] = c
        return out


class Ideal:
    """A two-sided ideal of E_n as its blocks J_mu: one echelon of width
    |W| per shape, in the order of ``blocks.shapes``."""

    def __init__(self, blocks, echs):
        self.blocks, self.echs = blocks, echs

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
        """Whether every row of every J_mu, times every right generator of
        A_mu and under the mirror, lies in J_mu: then each J_mu is a
        two-sided ideal of A_mu (module docstring), and so is the ideal."""
        return all(ech.spans(_apply(table, row)
                             for table in shape.right + [shape.mirror])
                   for shape, ech in zip(self.blocks.shapes, self.echs)
                   for row in ech.rows)
