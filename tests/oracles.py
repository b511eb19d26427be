"""Reference code for the tests that the library itself does not need: the
permutation a word spells, random walks on the braid-move graph of reduced
words (the oracle of the Matsumoto-invariance checks), symbolic scalars
specialized into a prime field, dense and sparse coefficient rows, the
mirror anti-involution of the basis, the inverse of the cycle element
gamma, the relation sides and the braid action on the tensor space one
index and one term at a time, the full-width ideal closure, the tie
idempotents, the images of Phi and the candidate basis by engine products
the quotient's blocks are checked against, the dense oracles of the
trace's commutator classes, and the dense-list RREF the sparse echelons are
checked against."""

import random
from math import factorial, prod

from btkit.algebra import (AlgebraElement, BasisIndex, E, F, T, T_word,
                           _acc, basis_element, inverse_T, one)
from btkit.domains import SYMBOLIC, IntMod
from btkit.linalg import Echelon
from btkit.partitions import enumerate_partitions
from btkit.permutations import Permutation
from btkit.quotient import enumerate_F_reduced
from btkit.tensor import apply_word, unit_vector
from btkit.trace import right_products


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


def vector(index, elem):
    """Dense coefficient vector of an element over a BasisIndex."""
    vec = [index.dom.zero] * len(index)
    for key, c in elem.terms.items():
        vec[index.index[key]] = c
    return vec


def element(index, vec):
    """The element of a dense coefficient vector over a BasisIndex."""
    return AlgebraElement(index.n, {index.pairs[k]: c
                                    for k, c in enumerate(vec) if c},
                          index.dom)


def sparse(vec):
    """A dense row as a sparse row {column: nonzero coefficient}."""
    return {j: c for j, c in enumerate(vec) if c}


def dense(row, width, zero):
    """A sparse row as a dense row of the given width."""
    return [row.get(j, zero) for j in range(width)]


def mirror(x):
    """The reversal anti-involution on the basis: E_I T_w -> E_{w^-1 I}
    T_{w^-1}."""
    terms = {}
    for (I, w), c in x.terms.items():
        v = w.inverse()
        terms[I.apply(v), v] = c
    return AlgebraElement(x.n, terms, x.dom)


def gamma_inverse(n, dom=SYMBOLIC):
    """gamma^{-1} = T_{n-1}^{-1} ... T_1^{-1}, as one element."""
    out = one(n, dom)
    for i in range(n - 1, 0, -1):
        out = out * inverse_T(i, n, dom)
    return out


def ideal_by_closure(n, dom, g):
    """(index, echelon) of the two-sided ideal of g, closed in the full
    basis: each row's images under right multiplication by every T_i and
    E_i, and its mirror, inserted once.  This spans the two-sided ideal
    when the mirror fixes g, as g x = mirror(mirror(x) g)."""
    index = BasisIndex(n, dom)
    rows, mirrored = right_products(index)
    ech = Echelon(dom.zero)
    ech.insert({index.index[key]: c for key, c in g.terms.items()})
    done = 0
    while done < ech.rank:
        row, done = ech.rows[done], done + 1
        images = [{mirrored[k]: c for k, c in row.items()}]
        for table in rows.values():
            image = {}
            for k, c in row.items():
                for d, b in table[k].items():
                    image[d] = image[d] + c * b if d in image else c * b
            images.append(image)
        ech.insert_block(images)
    return index, ech


def tie_idempotent(I, dom):
    """eps_I = sum over the J coarser than I of mu(I, J) E_J, by Moebius
    inversion on the partition lattice: mu(I, J) is the product over the
    blocks of J of (-1)^(b-1) (b-1)!, b the number of blocks of I it
    merges."""
    e, terms = Permutation.identity(I.n), {}
    for J in enumerate_partitions(I.n):
        if J.join(I) == J:
            merged = [len({I.rgs[m - 1] for m in block})
                      for block in J.blocks()]
            terms[J, e] = dom.of_int(prod((-1) ** (b - 1) * factorial(b - 1)
                                          for b in merged))
    return AlgebraElement(I.n, terms, dom)


def engine_image(bl, K, w):
    """(first column, row) of row block K of Phi(T_w) in the blocks ``bl``,
    by engine products: its one piece, at (K, L) for L = w^-1 K, is
    proj(T_{c_K^-1} T_w T_{c_L})."""
    shape = next(shape for shape in bl.shapes if K in shape.parts)
    L, c = K.apply(w.inverse()), shape.transporter
    word = (c[K].inverse().reduced_word() + w.reduced_word()
            + c[L].reduced_word())
    return bl.offset[K, L], shape.proj(T_word(word, bl.n, bl.dom))


def spanning_by_products(ib):
    """The three numbers of :func:`btkit.quotient.spanning_check` from the
    candidates themselves: each E_I F_w an engine product, its form
    reduced modulo the ideal ``ib`` and inserted into one echelon of width
    dim E_n."""
    n, dom = ib.blocks.n, ib.blocks.dom
    e, ech, nonzero = Permutation.identity(n), Echelon(dom.zero), 0
    candidates = [(I, w) for I in enumerate_partitions(n)
                  for w in enumerate_F_reduced(n)]
    for I, w in candidates:
        x = basis_element(I, e, dom)
        for i in w:
            x = x * F(i, n, dom)
        row = ib.reduce(ib.blocks.form(x))
        nonzero += bool(row)
        ech.insert(row)
    return {"candidates": len(candidates), "nonzero_candidates": nonzero,
            "spanning_rank": ech.rank}


def side_images(sides, x, dom):
    """Images of a basis vector under both sides of a relation instance,
    given as the (coefficient, word) terms of
    :func:`btkit.algebra.relation_terms`: the sums of the words' images,
    each applied to e_x alone (the oracle of the relation windows' batch)."""
    vec = unit_vector(x, dom)
    images = tuple({} for _ in sides)
    for img, side in zip(images, sides):
        for c, word in side:
            acc_add(img, apply_word(word, vec, dom), c)
    return images


def acc_add(target, src, c=None):
    """target += c * src, one :func:`btkit.algebra._acc` call per entry."""
    for idx, v in src.items():
        _acc(target, idx, v if c is None else v * c)
    return target


def act_T_by_terms(i, vec, dom):
    """The braid operator at factors i, i+1 by its displayed action, each
    term added by :func:`btkit.algebra._acc`."""
    out = {}
    k = i - 1
    for idx, c in vec.items():
        (a, r), (b, s) = idx[k], idx[k + 1]
        swapped = idx[:k] + (idx[k + 1], idx[k]) + idx[k + 2:]
        if r != s:
            _acc(out, swapped, -c)
        elif a == b:
            _acc(out, idx, -c)
        elif a < b:
            _acc(out, idx, c * dom.u_minus_1)
            _acc(out, swapped, c * dom.sqrt_u)
        else:
            _acc(out, swapped, c * dom.sqrt_u)
    return out


def in_prime_field(scalar, dom):
    """A symbolic scalar evaluated at the point of a PrimeDomain, in GF(p)."""
    q = scalar.evaluate(s=dom.point)
    return IntMod(q.numerator, dom.p) / IntMod(q.denominator, dom.p)


def commutator_rows(index):
    """The sparse rows x g - g x of every basis element x and every
    generator g = T_i, E_i, from the engine's general products."""
    n, dom = index.n, index.dom
    basis = [index.basis_elem(k) for k in range(len(index))]
    return [sparse(vector(index, x * g - g * x))
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
