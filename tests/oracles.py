"""Reference code for the tests that the library itself does not need: the
permutation a word spells, random walks on the braid-move graph of reduced
words (the oracle of the Matsumoto-invariance checks), symbolic scalars
specialized into a prime field, the mirror anti-involution of the basis, the
dense oracles of the trace's commutator classes, and the dense-list RREF the
sparse echelons are checked against."""

import random
from math import prod

from btkit.algebra import AlgebraElement, E, T
from btkit.domains import IntMod
from btkit.permutations import Permutation


def from_word(word, n):
    """Product s_{i1} ... s_{ik} of adjacent transpositions (the rightmost
    letter acts first, so letters fold in by right multiplication)."""
    w = Permutation.identity(n)
    for i in word:
        w = w.right_mul_gen(i)
    return w


def braid_move_sites(word):
    """All (position, replacement) rewrites of the word by a single
    commutation or braid move; every rewrite is again a reduced word of the
    same permutation."""
    out = []
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if abs(a - b) > 1:
            out.append((k, (b, a)))
    for k in range(len(word) - 2):
        a, b, c = word[k], word[k + 1], word[k + 2]
        if a == c and abs(a - b) == 1:
            out.append((k, (b, a, b)))
    return out


def random_braid_walk(word, steps, rng=None):
    """Random walk on the reduced-word graph of a fixed permutation."""
    rng = rng or random.Random(0)
    word = tuple(word)
    for _ in range(steps):
        sites = braid_move_sites(word)
        if not sites:
            break
        k, repl = rng.choice(sites)
        word = word[:k] + repl + word[k + len(repl):]
    return word


def mirror(x):
    """The reversal anti-involution on the basis: E_I T_w -> E_{w^-1 I}
    T_{w^-1}."""
    terms = {}
    for (I, w), c in x.terms.items():
        v = w.inverse()
        terms[I.apply(v), v] = c
    return AlgebraElement(x.n, terms, x.dom)


def in_prime_field(scalar, dom):
    """A symbolic scalar evaluated at the point of a PrimeDomain, in GF(p)."""
    q = scalar.evaluate(s=dom.point)
    return IntMod(q.numerator, dom.p) / IntMod(q.denominator, dom.p)


def commutator_rows(index, ech):
    """The rows x g - g x of every basis element x and every generator
    g = T_i, E_i, from the engine's general products, in ech's format."""
    n, dom = index.n, index.dom
    basis = [index.basis_elem(k) for k in range(len(index))]
    return [ech.from_coeffs(index.vector(x * g - g * x))
            for g in [gen(i, n, dom) for gen in (T, E) for i in range(1, n)]
            for x in basis]


def _shapes(n, most=None):
    """The integer partitions of n, parts at most ``most``."""
    if n == 0:
        yield ()
    for k in range(min(n, n if most is None else most), 0, -1):
        for rest in _shapes(n - k, k):
            yield (k,) + rest


def _multipartitions(m, k):
    """The number of k-tuples of partitions of total size m: the coefficient
    of x^m in prod_i (1 - x^i)^-k."""
    coeffs = [1] + [0] * m
    for i in range(1, m + 1):
        for _ in range(k):
            for d in range(i, m + 1):
                coeffs[d] += coeffs[d - i]
    return coeffs[m]


def generic_trace_space_dim(n):
    """The sum over the shapes mu of n of |Irr W_mu|, W_mu the product over
    the part sizes j of S_j wr S_{m_j} (m_j parts of size j), whose simple
    modules are the p(j)-multipartitions of m_j: the number of simple
    modules of the generically semisimple E_n, so the dimension of its
    space of trace functionals (8, 22, 42 and 103 at n = 3..6)."""
    return sum(prod(_multipartitions(mu.count(j), _multipartitions(j, 1))
                    for j in set(mu))
               for mu in _shapes(n))


class DenseEchelon:
    """Reduced row echelon form over an exact field, rows as dense lists of
    domain elements, each pivot 1 at the row's first nonzero column: the
    oracle of :class:`btkit.linalg.Echelon` and of the affine
    system built on it."""

    def __init__(self):
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
        row = [c / row[piv] for c in row]
        for r in self.rows:
            c = r[piv]
            if c:
                r[piv:] = [a - c * b for a, b in zip(r[piv:], row[piv:])]
        self.rows.append(row)
        self.pivots.append(piv)
        self._pivot_row[piv] = len(self.rows) - 1
        return True

    def insert_block(self, rows):
        """Insert the rows; returns the rank growth."""
        rank = self.rank
        for row in rows:
            self.insert(row)
        return self.rank - rank
