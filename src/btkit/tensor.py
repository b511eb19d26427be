"""The tensor representation of the braids-and-ties algebra on V^(x)n, where
V has basis {v_i^r : 1 <= i, r <= n} (dimension n^2).

A tensor basis vector is a tuple of n factors, each factor a pair
(lower, upper).  The generator images act on two adjacent factors:

    E (v_i^r (x) v_j^s) = 0 if r != s, identity if r = s

    T (v_i^r (x) v_j^s) = -v_j^s (x) v_i^r                 if r != s
                          -v_i^r (x) v_j^s                 if r = s, i = j
                          (u-1) v_i^r (x) v_j^s
                            + sqrt(u) v_j^s (x) v_i^r      if r = s, i < j
                          sqrt(u) v_j^s (x) v_i^r          if r = s, i > j

This representation is faithful (Ryom-Hansen, "On the representation theory
of an algebra of braids and ties", J. Algebraic Combin. 2011): the rank of
the represented basis equals dim E_n at every sqrt(u) != 0 (proved at
:func:`_rank`, and certified on the images at n = 2 to 6), so it does not
kill the two-sided ideal that defines the partition Temperley-Lieb quotient.  A
small dim-2 harness for the classical Hecke/Temperley-Lieb operators lives
at the bottom; it runs act_T on the factors v_1^1 and v_2^1, where all upper
values agree, so the r = s branch is the classical braid operator.

Ties are projectors.  E_I, for a set partition I, acts as the projector onto
the indices whose upper values are constant on each block of I (the braid
operators carry a factor's upper value with it, so conjugating the adjacent
tie moves its condition to any two positions).  So the basis element
E_I T_w acts as that projector after T_w.  Every term of T_w x has the upper
values of x permuted by w, that is E_I T_w = T_w E_{w^-1 I}: E_I keeps all
of T_w x or none of it, and :func:`represent` makes T_w x only when some
E_I paired with w keeps it, which it reads off the kernel of the upper
values of x: which of them are equal.

Every operator here keeps the multiset of lower values, compares lower values
only by order and upper values only by equality.  So an operator identity
holds at an index iff it holds at every index of the same order-and-equality
type, and the relation checks and the exhaustive homomorphism check run
over one index per type (:func:`index_types`): 6, 65 and 1125 types for 2,
3 and 4 factors, against n^(2k) indices.  The rank needs only the Bell(n)
types with distinct lower values.

The checks would repeat much of their work, so some is kept: act_T memoizes
its coefficient products (:func:`_braid_coeffs`), relation windows of one
size share one batch's word images (:func:`_word_image`), the homomorphism
batch carries its split by kernels and the braid images of its parts, which
every operator applied to it shares (:class:`_Split`), each represented
element finds the coefficients it keeps once per kernel, and op_a(op_b(v))
is made from the batch's images of concatenated words (:class:`_Operator`).

Vectors are sparse dicts {factor-tuple: coefficient}, operators are
functions from vectors to vectors; nothing is ever stored as a dense n^(2n)
matrix, and the rank keeps only the leading position of each row it
reads off the braid images (:func:`_leads`).
"""

import functools
import itertools
import random

from .algebra import (BasisIndex, _acc, random_basis_element,
                      relation_instances, relation_terms)
from .domains import PRIMES, SYMBOLIC, PrimeDomain, RationalDomain
from .partitions import enumerate_partitions


# ---------------------------------------------------------------------------
# sparse vectors over tensor indices
# ---------------------------------------------------------------------------

def unit_vector(idx, dom=SYMBOLIC):
    return {idx: dom.one}

def vec_add(target, src, c=None):
    """target += c * src, dropping zeros (:func:`btkit.algebra._acc`)."""
    for idx, v in src.items():
        v = v if c is None else v * c
        old = target.get(idx)
        if old is not None:
            v = old + v
        if v:
            target[idx] = v
        elif old is not None:
            del target[idx]
    return target

def encode_index(idx, n):
    """Bijective integer code of a tensor basis index."""
    code = 0
    for i, r in idx:
        code = code * (n * n) + (i - 1) * n + (r - 1)
    return code


def tensor_basis(n):
    """All basis factor tuples of V^(x)n."""
    factors = [(i, r) for i in range(1, n + 1) for r in range(1, n + 1)]
    return itertools.product(factors, repeat=n)


@functools.lru_cache(maxsize=None)
def index_types(k):
    """One k-factor index per order-and-equality type, in lexicographic
    order.  The lower values are an ordered set partition (the blocks of a
    set partition, ranked by one of their orderings), the upper values the
    restricted growth string of a set partition, plus 1.  Each is the least
    index of its type, so the order is that of first occurrence in
    :func:`tensor_basis` for any n >= k."""
    uppers = [[r + 1 for r in J.rgs] for J in enumerate_partitions(k)]
    reps = []
    for I in enumerate_partitions(k):
        for order in itertools.permutations(range(1, I.block_count() + 1)):
            lowers = [order[label] for label in I.rgs]
            reps.extend(tuple(zip(lowers, up)) for up in uppers)
    return tuple(sorted(reps))


# ---------------------------------------------------------------------------
# generator actions
# ---------------------------------------------------------------------------

def act_E(i, vec, dom=SYMBOLIC):
    """Image under the tie projector acting at factors i, i+1."""
    out = {}
    k = i - 1
    for idx, c in vec.items():
        if idx[k][1] == idx[k + 1][1]:
            out[idx] = c
    return out


@functools.lru_cache(maxsize=4096)
def _braid_coeffs(c, um1, squ):
    """-c, c (u - 1) and c sqrt(u), the coefficients :func:`act_T` gives a
    term c x.  The key holds u - 1 and sqrt(u): the rational points share
    Fraction coefficients."""
    return -c, c * um1, c * squ


def act_T(i, vec, dom=SYMBOLIC):
    """Image under the braid operator acting at factors i, i+1.  The three
    products of each coefficient are memoized (:func:`_braid_coeffs`), as
    the homomorphism check braids with few distinct coefficients (46 at
    n = 3 and 426 at n = 6, at seed 0).  Only an output with equal upper
    values and lower values a < b at i, i+1 gets two terms, and a zero sum
    is dropped; c (u - 1) is left out at u = 1, and no other term is 0."""
    out = {}
    k = i - 1
    um1 = dom.u_minus_1
    squ = dom.sqrt_u
    for idx, c in vec.items():
        (a, r), (b, s) = idx[k], idx[k + 1]
        neg, cum1, csqu = _braid_coeffs(c, um1, squ)
        if r == s and a == b:
            out[idx] = neg
            continue
        swapped = idx[:k] + (idx[k + 1], idx[k]) + idx[k + 2:]
        if r != s:
            out[swapped] = neg
            continue
        if a < b:
            out[swapped] = csqu
            if not um1:
                continue
            y, v = idx, cum1
        else:
            y, v = swapped, csqu
        old = out.get(y)
        if old is not None and not (v := old + v):
            del out[y]
        else:
            out[y] = v
    return out


def act_T_inverse(i, vec, dom=SYMBOLIC):
    """T_i^{-1} = T_i + (u^{-1} - 1) E_i (1 + T_i) as an operator."""
    t = act_T(i, vec, dom)
    return vec_add(t, act_E(i, vec_add(dict(vec), t), dom),
                   dom.one / dom.u - dom.one)


# ---------------------------------------------------------------------------
# representing algebra elements
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _block_leaders(I):
    """Pairs (m, k) of positions, k the first position of m's block of I."""
    lead = [I.rgs.index(label) for label in I.rgs]
    return tuple((m, k) for m, k in enumerate(lead) if m != k)


def _by_word(terms):
    """{reduced word of w: [(block leaders of I, c), ...]} over the
    ((I, w), c) pairs of terms, in their order."""
    words = {}
    for (I, w), c in terms:
        words.setdefault(w.reduced_word(), []).append((_block_leaders(I), c))
    return words


def _word_image(word, images, dom):
    """The image of x under a tuple of letters, i for T_i and -i for E_i
    (rightmost acts first), made from the image of the word's suffix;
    ``images`` caches the images by word and starts as {(): x}."""
    img = images.get(word)
    if img is None:
        i, rest = word[0], _word_image(word[1:], images, dom)
        img = images[word] = (act_T(i, rest, dom) if i > 0
                              else act_E(-i, rest, dom))
    return img


def apply_word(word, vec, dom=SYMBOLIC):
    """Apply a word of ("T", i) and ("E", i) letters to a vector, rightmost
    letter first."""
    for kind, i in reversed(word):
        if not vec:
            break
        vec = act_T(i, vec, dom) if kind == "T" else act_E(i, vec, dom)
    return vec


def _permuted(word, up):
    """The upper values of every term of T_word x, for x with upper values
    up: up with two adjacent ones swapped by each letter, rightmost first."""
    up = list(up)
    for i in reversed(word):
        up[i - 1], up[i] = up[i], up[i - 1]
    return up


def _kept(up, terms, keeps):
    """The values v of the (block leaders of I, v) pairs in terms whose E_I
    keeps a term with upper values up, in their order; their places are
    memoized in keeps by the kernel of up, for terms with one order of I."""
    up = tuple(map(up.index, up))
    places = keeps.get(up)
    if places is None:
        places = keeps[up] = [t for t, (leaders, _) in enumerate(terms)
                              if all(up[m] == up[k] for m, k in leaders)]
    return (terms[t][1] for t in places)


@functools.lru_cache(maxsize=256)   # 4^4 upper values in a batch at n = 4
def _kernel(up):
    """The kernel of a tuple of upper values: its equality pattern, each
    value replaced by the position of its first occurrence."""
    return tuple(map(up.index, up))


def _split(vec, dom):
    """vec split by the kernel of its upper values, as {kernel: braid cache
    {(): part} of :func:`_word_image`}.  A :class:`_Split` vector of dom
    carries its own, so every operator applied to it shares the braid
    images of its parts."""
    if isinstance(vec, _Split) and vec.dom is dom:
        return vec.parts
    parts = {}
    for x, c in vec.items():
        parts.setdefault(_kernel(tuple([r for _, r in x])), {})[x] = c
    return {kernel: {(): part} for kernel, part in parts.items()}


class _Split(dict):
    """A vector over dom that carries its :func:`_split`, made once."""

    __slots__ = ("dom", "parts")

    def __init__(self, vec, dom):
        super().__init__(vec)
        self.dom = dom
        self.parts = _split(vec, dom)


def represent(elem):
    """The algebra homomorphism as an operator (:class:`_Operator`)."""
    return _Operator(elem)


class _Operator:
    """The algebra homomorphism, extended linearly from the basis, as an
    operator on sparse vectors: E_I T_w sends x to T_w x projected onto the
    indices whose upper values are constant on each block of I.  Called as
    op(vec), or as op(vec, after=other) for other(op(vec)).

    T_w carries each factor's upper value with it, so every term of T_w x
    has the upper values of x permuted by w: E_I T_w = T_w E_{w^-1 I}.
    Whether E_I keeps such a term depends only on the kernel of the upper
    values of x (which of them are equal), so on the part of the input with
    one kernel, E_I keeps all of T_w x or none of it.  The input is split
    by kernels (:func:`_split`); a :class:`_Split` input brings its split
    and the braid images already made of its parts.  For each part and
    word w, the image T_w x is made (from the image of its suffix) only if
    some E_I paired with w keeps it; it is then added once, with the sum of
    the kept coefficients, which is found once per kernel and operator
    (:meth:`plan`).

    With ``after``, op(vec) is never formed: a part's image c T_w x has
    the part's kernel permuted by w, and ``after``'s plan of that kernel
    sends it to the sum of c' c T_{w'} T_w x over the (w', c'), each the
    braid image of the word w' + w, made from the part's images."""

    __slots__ = ("dom", "ties", "plans")

    def __init__(self, elem):
        self.dom = elem.dom
        self.ties = _by_word(elem.terms.items())
        self.plans = {}

    def plan(self, kernel):
        """[(word, kept sum)] for a part of this kernel, sums of 0 left out."""
        words = self.plans.get(kernel)
        if words is None:
            words = self.plans[kernel] = [
                (word, c) for word, terms in self.ties.items()
                for up in [_permuted(word, kernel)]
                if (c := sum([v for leaders, v in terms if all(
                    up[m] == up[k] for m, k in leaders)], self.dom.zero))]
        return words

    def __call__(self, vec, after=None):
        dom = self.dom
        out = {}
        for kernel, braided in _split(vec, dom).items():
            for word, c in self.plan(kernel):
                if after is None:
                    vec_add(out, _word_image(word, braided, dom), c)
                    continue
                up = _permuted(word, kernel)
                for first, c_first in after.plan(tuple(map(up.index, up))):
                    vec_add(out, _word_image(first + word, braided, dom),
                            c_first * c)
        return out


# ---------------------------------------------------------------------------
# relation verification as operators
# ---------------------------------------------------------------------------

def _tagged(xs, dom):
    """The sum of e_{x_t (x) (t, 0)} over the t-th index x_t of xs."""
    return {x + ((t, 0),): dom.one for t, x in enumerate(xs)}


@functools.lru_cache(maxsize=1)
def _tagged_batch(xs, dom):
    """:func:`_tagged`, split once and kept (at n <= 3 for every pair)."""
    return _Split(_tagged(xs, dom), dom)


def _side_image(side, images, dom):
    """The image of images[()] under a side of a relation instance, the
    (coefficient, word) terms of :func:`btkit.algebra.relation_terms`; a
    side of one word with coefficient 1 is that word's image, not a copy."""
    side = [(c, tuple(i if g == "T" else -i for g, i in word))
            for c, word in side]
    if len(side) == 1 and side[0][0] is None:
        return _word_image(side[0][1], images, dom)
    out = {}
    for c, word in side:
        vec_add(out, _word_image(word, images, dom), c)
    return out


def _agree_on(lhs, rhs, xs, dom):
    """lhs(e_x) == rhs(e_x) for every n-factor index x in xs, checked on one
    vector: the t-th index gets the extra last factor (t, 0)."""
    vec = _tagged_batch(tuple(xs), dom)
    return lhs(vec) == rhs(vec)


def verify_relations_in_rep(n, seed=0):
    """Exact operator-equality check of every defining-relation instance,
    plus a homomorphism spot check represent(a*b) == represent(a)represent(b)
    on 100 random basis pairs, all in Q(sqrt(u)).

    Each relation instance only involves the tensor factors its generators
    touch and acts as the identity elsewhere, so equality is checked on one
    index per type of the subtensor of touched factors (equivalent to the
    full space, and checked against a full-space run in the tests).  That
    check depends only on the relation and its parameters relative to the
    touched factors, so each such window is checked once: 15 windows for
    the 71 instances at n = 6.  At n <= 3 the homomorphism check is
    exhaustive, on one index per type; at n >= 4 it samples 64 random
    indices per pair.

    Both checks apply each operator once, to one vector (:func:`_tagged`):
    the t-th test index x_t gets an extra last factor (t, 0).  No operator
    touches it, so each sends e_{x_t (x) (t, 0)} to op(e_{x_t}) (x) (t, 0),
    by linearity the batch image is the sum of these, and images of
    different tags share no index.  So the two sides agree on the batch iff
    they agree on every e_{x_t}, repeated indices included.  The windows on
    k factors share the word images of the batch of the k-factor types
    (:func:`_word_image`).  The tag's upper value 0 equals no other, so
    :func:`represent` braids all indices of one kernel as one part.  The
    homomorphism batch is split once (:func:`_tagged_batch`).  The right side
    is op_b(batch, after=op_a), by linearity op_a(op_b(batch)) made term by
    term from the images of the words w_a + w_b (:class:`_Operator`), so
    the operators of a * b and of b share the batch's split and braid
    images; at n <= 3, where every pair checks the same indices, all 100
    pairs share them.  At n >= 4 each pair's indices are drawn in one
    ``rng.choices`` call.
    """
    dom = SYMBOLIC
    checks = []
    windows = {}   # (relation, relative params) -> ok
    batches = {}   # touched factors k -> word images of the k-factor batch
    for rel, params in relation_instances(n):
        touched = sorted({p + d for p in params for d in (0, 1)})
        window = (rel, tuple(touched.index(i) + 1 for i in params))
        if window not in windows:
            k = len(touched)
            if k not in batches:
                batches[k] = {(): _tagged(index_types(k), dom)}
            lhs, rhs = (_side_image(side, batches[k], dom)
                        for side in relation_terms(*window, dom))
            windows[window] = lhs == rhs
        checks.append({"id": "rep-" + rel, "instance": list(params),
                       "ok": windows[window]})
    del batches   # the window images, freed before the homomorphism check
    rng = random.Random(seed)
    exhaustive = n <= 3
    hom_ok, hom_checked = True, 0
    while hom_ok and hom_checked < 100:
        a = random_basis_element(n, rng, dom)
        b = random_basis_element(n, rng, dom)
        op_ab, op_a, op_b = represent(a * b), represent(a), represent(b)
        if exhaustive:
            vectors = index_types(n)
        else:
            draws = iter(rng.choices(range(1, n + 1), k=128 * n))
            factors = list(zip(draws, draws))
            vectors = [tuple(factors[t * n:(t + 1) * n]) for t in range(64)]
        hom_ok = _agree_on(op_ab, lambda v: op_b(v, after=op_a), vectors, dom)
        hom_checked += 1
    checks.append({"id": "rep-homomorphism",
                   "instance": [hom_checked, "pairs",
                                "exhaustive" if exhaustive else "sampled"],
                   "ok": hom_ok})
    return checks


# ---------------------------------------------------------------------------
# rank of the image of the algebra inside End(V^(x)n)
# ---------------------------------------------------------------------------

def _leads(n, dom):
    """Per set partition J, in :func:`enumerate_partitions` order, the
    leading positions of the rows of x_J = ((1, r_1), ..., (n, r_n)), with
    r = rgs(J) + 1: {output index y: the least position of a basis element
    that sends x_J to a nonzero multiple of y plus other indices}, with the
    columns (I, w) placed by the length of w, then the blocks of I, then
    the column, as :func:`_rank`'s proof orders them.  Each braid image
    T_w x_J is made at most once per reduced word (an image holds no zero
    coefficient), and reaches its outputs from the least position among the
    columns (I, w) whose E_I keeps it: the first that :func:`_kept` finds,
    as each word's columns are listed in position order.  Each word lists
    its I in one order, so :func:`_kept` tests each I once per kernel of
    the upper values of T_w x_J, at most Bell(n)^2 tests per call."""
    pairs = BasisIndex(n).pairs
    order = sorted(range(len(pairs)), key=lambda col: (
        len(pairs[col][1].reduced_word()), pairs[col][0].block_count()))
    words = _by_word((pairs[col], k) for k, col in enumerate(order))
    keeps = {}   # kernel -> places of the kept columns in each word's list
    for J in enumerate_partitions(n):
        up = tuple(r + 1 for r in J.rgs)
        braided = {(): unit_vector(tuple(enumerate(up, start=1)), dom)}
        first = {}
        for word, terms in words.items():
            least = next(_kept(_permuted(word, up), terms, keeps), None)
            if least is not None:
                for y in _word_image(word, braided, dom):
                    if least < first.get(y, len(pairs)):
                        first[y] = least
        yield first


def _rank(n, dom):
    """The number of distinct leading positions of the rows of the flattened
    operators at the Bell(n) indices x_J (:func:`_leads`): row (x_J, y)
    holds the coefficients of y in the images of x_J under the basis
    elements, the columns.  Rows with distinct leading (first nonzero)
    columns are independent, so the number is a lower bound on the rank
    over dom, and the rank when it reaches Bell(n) n! = dim E_n, the most
    it can be.  It does wherever s = sqrt(u) is nonzero:

    - Rows.  T_w x_J is c_w (w x_J) plus terms at v x_J for shorter v, with
      c_w a product of factors -1 and s, one per letter.  The lower values
      of x_J are distinct, so the n! indices w x_J are distinct, and the
      T_w x_J are unitriangular, hence independent when s != 0.  Every
      output index is some v x_J, so each x_J has n! rows.
    - Columns.  E_I T_w x_J is T_w x_J if the upper values permuted by w
      are constant on the blocks of I, that is if I <= w(J), and 0
      otherwise (:func:`_kept`).
    - So if b = sum c_{I,w} E_I T_w kills every x_J, then for each w,
      sum_{I <= K} c_{I,w} = 0 for every K = w(J), and K runs over all
      partitions as J does.  The zeta matrix of the partition lattice is
      unitriangular (Moebius inversion, Rota 1964), so every c_{I,w} = 0.
    - So with the columns (I, w) ordered by the length of w, then the number
      of blocks of I, the row v x_J leads at the column (v(J), v): only T_v
      and longer T_w reach v x_J, and v(J) is the coarsest I <= v(J).

    The rank is still computed, not assumed: the leading positions are read
    off the images, and a count short of dim E_n is reported as it is."""
    return len(set().union(*(first.values() for first in _leads(n, dom))))


def representation_rank(n, points):
    """Rank of the span of the represented basis matrices.

    Symbolic (generic u) for n <= 3; every requested rational point of
    sqrt(u) is additionally checked, exactly for n <= 3 and in two prime
    fields for n >= 4.  Full rank is proved at every s != 0, and
    :func:`_rank` certifies each rank on the images (see there).
    """
    dim = len(BasisIndex(n))
    report = {"n": n, "algebra_dim": dim, "points": [str(p) for p in points],
              "ranks": []}
    if n <= 3:
        report["symbolic_rank"] = _rank(n, SYMBOLIC)
        report["kernel_dim"] = dim - report["symbolic_rank"]
    for pt in points:
        if n <= 3:
            report["ranks"].append(
                {"point": str(pt), "mode": "rational",
                 "rank": _rank(n, RationalDomain(pt))})
        else:
            for p in PRIMES:
                report["ranks"].append(
                    {"point": str(pt), "mode": "prime", "p": p,
                     "rank": _rank(n, PrimeDomain(pt, p))})
    ranks = {r["rank"] for r in report["ranks"]}
    if "symbolic_rank" in report:
        ranks.add(report["symbolic_rank"])
    report["agreement"] = len(ranks) <= 1
    if len(ranks) == 1:
        report["rank"] = ranks.pop()
        report["kernel_dim"] = dim - report["rank"]
    return report


def export_operator_triplets(op, n, stream):
    """Write the nonzero entries of a symbolic operator (a function of
    vectors, as :func:`represent` gives) as 'row col scalar' lines
    (integer-coded tensor indices, deterministic order)."""
    for x in tensor_basis(n):
        col = encode_index(x, n)
        img = op(unit_vector(x))
        for y in sorted(img, key=lambda t: encode_index(t, n)):
            stream.write("%d %d %s\n" % (encode_index(y, n), col, img[y]))


# ---------------------------------------------------------------------------
# classical dim-2 harness (Hecke / Temperley-Lieb operators)
# ---------------------------------------------------------------------------

def act_F_direct(i, vec, dom=SYMBOLIC):
    """The classical idempotent by its displayed action."""
    out = {}
    k = i - 1
    cu = dom.one / (dom.u + dom.one)
    squ = dom.sqrt_u
    for idx, c in vec.items():
        a, b = idx[k], idx[k + 1]
        swapped = idx[:k] + (b, a) + idx[k + 2:]
        if a == b:
            continue
        if a < b:
            _acc(out, idx, c * cu * dom.u)
            _acc(out, swapped, c * cu * squ)
        else:
            _acc(out, idx, c * cu)
            _acc(out, swapped, c * cu * squ)
    return out


def classical_jimbo_check():
    """Sanity harness on the dim-2 space spanned by v_1^1 and v_2^1:
    quadratic and braid relations for the classical operator (act_T with
    equal upper values), vanishing of the Steinberg image, and the
    idempotent generator identities, in Q(sqrt(u))."""
    dom = SYMBOLIC

    def word(act, *letters):
        # the operator word, rightmost letter acting first
        def op(v):
            for i in reversed(letters):
                v = act(i, v, dom)
            return v
        return op

    def combo(*terms):
        # the sum of the operators c * op over the (c, op) terms
        def op(v):
            out = {}
            for c, term in terms:
                vec_add(out, term(v), c)
            return out
        return op

    def holds(k, lhs, rhs):
        return all(lhs(unit_vector(x, dom)) == rhs(unit_vector(x, dom))
                   for x in itertools.product(((1, 1), (2, 1)), repeat=k))

    J = functools.partial(word, act_T)
    F = functools.partial(word, act_F_direct)
    u = dom.u
    cu = dom.one / (u + dom.one)
    steinberg = combo(*[(None, J(*w)) for w in ((), (1,), (2,), (2, 1),
                                                (1, 2), (1, 2, 1))])
    checks = [
        ("classical-quadratic",
         holds(2, J(1, 1), combo((u, J()), (dom.u_minus_1, J(1))))),
        ("classical-braid", holds(3, J(1, 2, 1), J(2, 1, 2))),
        ("classical-commute", holds(4, J(1, 3), J(3, 1))),
        # the Steinberg image is the zero operator on the 8-dim space
        ("classical-steinberg-vanishes", holds(3, steinberg, combo())),
        # F = (1 + J)/(1 + u), both as formula and by its displayed action
        ("classical-idempotent-formula",
         holds(2, combo((cu, J()), (cu, J(1))), F(1))),
        ("classical-idempotent-square", holds(2, F(1, 1), F(1))),
        ("classical-idempotent-commute", holds(4, F(1, 3), F(3, 1))),
        ("classical-idempotent-sandwich",
         holds(3, F(1, 2, 1), combo((u * cu * cu, F(1))))),
    ]
    return [{"id": cid, "instance": [], "ok": ok} for cid, ok in checks]
