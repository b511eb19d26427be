"""The braids-and-ties algebra on n strands.

Elements are exact linear combinations of the basis {E_I T_w}, indexed by a
set partition I and a permutation w.  Multiplication rewrites products into
this normal form using only the defining relations: ties are absorbed by
partition join after conjugating through the braid part (T_w E_I = E_{wI} T_w),
and a braid generator hitting a descent triggers the quadratic relation

    T_i^2 = 1 + (u-1) E_i (1 + T_i).

Right multiplication by a single generator is the primitive: a descent-free
step is a single basis term, a descent step branches into three terms.
Left multiplication is its mirror: every relation below reads the same
backwards ((3) by (7), (9) with i and j swapped), so reversing products is
an anti-automorphism that fixes each T_i and E_i and sends E_I T_w to
E_{w^-1 I} T_{w^-1}.  Thus g x = mirror(mirror(x) g), which is how
:func:`btkit.trace.right_products` gives the commutators x g - g x.

The defining relations (1)-(9) are the table RELATIONS below: each is
stated once, with its index condition, and both the engine
(:func:`relation_sides`) and the tensor operators read it.
"""

import itertools
import re
from functools import reduce
from operator import add, mul

from .domains import SYMBOLIC
from .partitions import (SetPartition, arc_partition, enumerate_partitions,
                         generator_partition)
from .permutations import Permutation, enumerate_permutations


class AlgebraElement:
    """A finite linear combination of basis pairs (I, w) over a coefficient
    domain (symbolic by default)."""

    __slots__ = ("n", "dom", "terms")

    def __init__(self, n, terms=None, dom=SYMBOLIC):
        self.n = n
        self.dom = dom
        self.terms = terms if terms is not None else {}

    # ring structure -----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _acc(terms, key, c)
        return AlgebraElement(self.n, terms, self.dom)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _acc(terms, key, -c)
        return AlgebraElement(self.n, terms, self.dom)

    def __neg__(self):
        return AlgebraElement(self.n, {k: -c for k, c in self.terms.items()},
                              self.dom)

    def scale(self, c):
        if not c:
            return AlgebraElement(self.n, {}, self.dom)
        return AlgebraElement(self.n, {k: v * c for k, v in self.terms.items()},
                              self.dom)

    def __mul__(self, other):
        """Normal-form product.  Each basis-by-basis product
        (E_I T_w)(E_J T_v) starts from (I * wJ, w) and then absorbs the
        canonical reduced word of v one generator at a time."""
        self._check(other)
        dom = self.dom
        out = {}
        for (J, v), cb in other.terms.items():
            acc = {}
            for (I, w), ca in self.terms.items():
                _acc(acc, (I.join(J.apply(w)), w), ca * cb)
            for letter in v.reduced_word():
                acc = _rmul_T(acc, letter, dom)
            for key, c in acc.items():
                _acc(out, key, c)
        return AlgebraElement(self.n, out, self.dom)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power %d: no inverse is taken" % k)
        out = one(self.n, self.dom)
        for _ in range(k):
            out = out * self
        return out

    # right multiplication by one generator ---------------------------------

    def right_mul_T(self, i):
        _check_gen(i, self.n)
        return AlgebraElement(self.n, _rmul_T(self.terms, i, self.dom), self.dom)

    def right_mul_E(self, i):
        _check_gen(i, self.n)
        out = {}
        for (I, w), c in self.terms.items():
            _acc(out, (I.join_arc(w.apply(i), w.apply(i + 1)), w), c)
        return AlgebraElement(self.n, out, self.dom)

    # predicates and views -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def support(self):
        return sorted(self.terms, key=_term_key)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mismatched n: %d vs %d" % (self.n, other.n))
        if self.dom is not other.dom:
            raise ValueError("mismatched coefficient domains")

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for I, w in self.support():
            parts.append("(%s)*E%s*T%s" % (self.terms[(I, w)], I, w))
        return " + ".join(parts)

    def __repr__(self):
        return "AlgebraElement(n=%d, %s)" % (self.n, self)


def _acc(terms, key, c):
    c0 = terms.get(key)
    if c0 is None:
        if c:
            terms[key] = c
    else:
        c0 = c0 + c
        if c0:
            terms[key] = c0
        else:
            del terms[key]


def _term_key(key):
    I, w = key
    return (I.rgs, w.images)


def _check_gen(i, n):
    if not 1 <= i <= n - 1:
        raise IndexError("generator index %d out of range for n=%d" % (i, n))


def _rmul_T(terms, i, dom):
    """Right multiplication of a term dict by T_i."""
    um1 = dom.u_minus_1
    out = {}
    for (I, w), c in terms.items():
        if not w.has_right_descent(i):
            _acc(out, (I, w.right_mul_gen(i)), c)
        else:
            v = w.right_mul_gen(i)
            a, b = v.apply(i), v.apply(i + 1)
            Ip = I.join_arc(a, b)
            _acc(out, (I, v), c)
            cc = c * um1
            _acc(out, (Ip, v), cc)
            _acc(out, (Ip, w), cc)
    return out


# ---------------------------------------------------------------------------
# element builders
# ---------------------------------------------------------------------------

def one(n, dom=SYMBOLIC):
    key = (SetPartition.unit(n), Permutation.identity(n))
    return AlgebraElement(n, {key: dom.one}, dom)


def basis_element(I, w, dom=SYMBOLIC):
    """The basis element E_I T_w."""
    if I.n != w.n:
        raise ValueError("partition and permutation sizes differ")
    return AlgebraElement(I.n, {(I, w): dom.one}, dom)


def T(i, n, dom=SYMBOLIC):
    _check_gen(i, n)
    key = (SetPartition.unit(n), Permutation.transposition(i, n))
    return AlgebraElement(n, {key: dom.one}, dom)


def E(i, n, dom=SYMBOLIC):
    _check_gen(i, n)
    key = (generator_partition(i, n), Permutation.identity(n))
    return AlgebraElement(n, {key: dom.one}, dom)


def T_word(word, n, dom=SYMBOLIC):
    out = one(n, dom)
    for i in word:
        out = out.right_mul_T(i)
    return out


def inverse_T(i, n, dom=SYMBOLIC):
    """T_i^{-1} = T_i + (u^{-1} - 1) E_i (1 + T_i), from the quadratic
    relation."""
    _check_gen(i, n)
    c = dom.one / dom.u - dom.one
    e = Permutation.identity(n)
    s_i = Permutation.transposition(i, n)
    p_i = generator_partition(i, n)
    unit = SetPartition.unit(n)
    terms = {(unit, s_i): dom.one}
    if c:  # vanishes at u = 1
        terms[(p_i, e)] = c
        terms[(p_i, s_i)] = c
    return AlgebraElement(n, terms, dom)


def E_arc(i, j, n, dom=SYMBOLIC):
    """E_{ij}: the tie joining i and j, as the basis term of the one-arc
    partition {{i, j}}."""
    return basis_element(arc_partition(i, j, n), Permutation.identity(n), dom)


def E_of_partition(I, dom=SYMBOLIC):
    """E_I as a basis term; products of E_{ij} over the arcs of I collapse
    to this by partition join."""
    return basis_element(I, Permutation.identity(I.n), dom)


def steinberg(i, j, n, dom=SYMBOLIC):
    """The Steinberg-type element 1 + T_i + T_j + T_iT_j + T_jT_i + T_iT_jT_i
    for adjacent i, j."""
    if abs(i - j) != 1:
        raise IndexError("Steinberg element needs |i-j| = 1")
    ti, tj = T(i, n, dom), T(j, n, dom)
    return (one(n, dom) + ti + tj + ti * tj + tj * ti + ti * tj * ti)


def ideal_generator_element(n, dom=SYMBOLIC, pair=(1, 2), tied=True):
    """E_i E_j T_{ij} (tied; the generator of the ideal that defines the
    partition Temperley-Lieb quotient), or the bare Steinberg element
    T_{ij} (untied; the generator the sandwich identities are equivalent
    to)."""
    i, j = pair
    st = steinberg(i, j, n, dom)
    if not tied:
        return st
    return E(i, n, dom) * E(j, n, dom) * st


def gamma(n, dom=SYMBOLIC):
    """The cycle element T_1 T_2 ... T_{n-1}."""
    return T_word(range(1, n), n, dom)


def gamma_inverse(n, dom=SYMBOLIC):
    out = one(n, dom)
    for i in range(n - 1, 0, -1):
        out = out * inverse_T(i, n, dom)
    return out


def conjugate_by_gamma(x, k):
    """gamma^k x gamma^{-k}, made as k conjugations by gamma itself: the
    inverse powers have many more terms than gamma^{-1} (57 against 27 for
    gamma^{-2} at n = 4) and cubic coefficients, so multiplying by them
    costs far more than the k single steps."""
    g, gi = gamma(x.n, x.dom), gamma_inverse(x.n, x.dom)
    for _ in range(k):
        x = g * x * gi
    return x


def F(i, n, dom=SYMBOLIC):
    """F_i = (1 + T_i)/(u + 1), the non-idempotent quotient generator."""
    c = dom.one / (dom.u + dom.one)
    return (one(n, dom) + T(i, n, dom)).scale(c)


def L(i, n, dom=SYMBOLIC):
    """L_i = (1 + T_i)(1 + delta E_i)/2 with delta = (1-u)/(1+u); an
    idempotent."""
    delta = (dom.one - dom.u) / (dom.one + dom.u)
    half = dom.one / dom.of_int(2)
    return ((one(n, dom) + T(i, n, dom)) *
            (one(n, dom) + E(i, n, dom).scale(delta))).scale(half)


def random_basis_element(n, rng, dom=SYMBOLIC):
    parts = enumerate_partitions(n)
    perms = enumerate_permutations(n)
    return basis_element(rng.choice(parts), rng.choice(perms), dom)


# ---------------------------------------------------------------------------
# basis indexing (deterministic order shared by all linear algebra)
# ---------------------------------------------------------------------------

class BasisIndex:
    """Fixed ordering of the basis {E_I T_w}: partitions in lexicographic
    rgs order, then permutations in lexicographic one-line order."""

    def __init__(self, n, dom=SYMBOLIC):
        self.n = n
        self.dom = dom
        perms = enumerate_permutations(n)
        self.pairs = [(I, w) for I in enumerate_partitions(n) for w in perms]
        self.index = {pair: k for k, pair in enumerate(self.pairs)}

    def __len__(self):
        return len(self.pairs)

    def basis_elem(self, k):
        I, w = self.pairs[k]
        return AlgebraElement(self.n, {(I, w): self.dom.one}, self.dom)


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

def instances(n, groups):
    """The instances (id, params) of a table of identities at n strands.
    Each group is (arity, entries): its params run over the arity-tuples of
    generators 1..n-1 in lexicographic order (arity 0 gives one empty
    tuple), and for each params the group lists, in its order, every entry
    (id, condition, ...) whose condition(n, *params) holds; a condition
    None always holds."""
    return [(name, params) for arity, entries in groups
            for params in itertools.product(range(1, n), repeat=arity)
            for name, cond, *_ in entries
            if cond is None or cond(n, *params)]


# index conditions of two-generator identities
def adjacent(n, i, j):
    return abs(i - j) == 1


def far(n, i, j):
    return abs(i - j) > 1


def before(n, i, j):
    return i < j


# The defining relations in report order, as groups of :func:`instances`
# with entries (id, index condition, both sides).  A side is a sum of
# terms, each a word in T_i, T_j, E_i, E_j (1 is the empty word) with an
# optional coefficient (u-1), read as a product from the left; as
# operators, the leftmost letter acts last.
RELATIONS = (
    (2, [("braid-commute", lambda n, i, j: j - i > 1, "Ti Tj = Tj Ti")]),  # 1
    (2, [("braid", lambda n, i, j: j == i + 1, "Ti Tj Ti = Tj Ti Tj")]),   # 2
    (1, [("quadratic", None, "Ti Ti = 1 + (u-1) Ei + (u-1) Ei Ti")]),      # 3
    (2, [("tie-commute", before, "Ei Ej = Ej Ei")]),                       # 4
    (1, [("tie-idempotent", None, "Ei Ei = Ei")]),                         # 5
    (2, [("tie-far-braid-commute", far, "Ei Tj = Tj Ei")]),                # 6
    (1, [("tie-own-braid-commute", None, "Ei Ti = Ti Ei")]),               # 7
    (2, [("tie-pair-slide", adjacent, "Ei Ej Ti = Ti Ei Ej"),              # 8
         ("tie-pair-project", adjacent, "Ei Ej Ti = Ej Ti Ej")]),
    (2, [("tie-cross", adjacent, "Ei Tj Ti = Tj Ti Ej")]),                 # 9
)


def _sides(text):
    """Both sides of a relation's text, as lists of (coefficient, word)
    terms: None for 1 or a domain constant's name, and (generator, position
    of its index in params) per letter.  Text of another shape than stated
    above raises ValueError."""
    sides = [side.split(" + ") for side in text.split(" = ")]
    if len(sides) != 2 or not all(
            re.fullmatch(r"(\(u-1\) )?(1|[TE][ij]( [TE][ij])*)", term)
            for side in sides for term in side):
        raise ValueError("malformed relation %r" % text)
    return [[("u_minus_1" if term.startswith("(u-1)") else None,
              [(g[0], "ij".index(g[1])) for g in term.split() if g[0] in "TE"])
             for term in side]
            for side in sides]


_SIDES = {name: _sides(text) for _, entries in RELATIONS
          for name, _, text in entries}


def relation_instances(n):
    """Deterministic enumeration of all instances of the defining relations
    for the given strand count."""
    return instances(n, RELATIONS)


def relation_terms(rel, params, dom=SYMBOLIC):
    """Both sides of a defining-relation instance, each a list of
    (coefficient, word) terms over dom, the coefficient None for 1 (as
    :func:`btkit.tensor.vec_add` takes it); a word is a list of ("T", i)
    and ("E", i) letters."""
    if rel not in _SIDES:
        raise ValueError("unknown relation id %r" % rel)
    return [[(c and getattr(dom, c), [(g, params[k]) for g, k in word])
             for c, word in side]
            for side in _SIDES[rel]]


def relation_sides(rel, params, n, dom=SYMBOLIC):
    """Both sides of a defining-relation instance as engine elements: the
    sums of :func:`relation_terms`, each word the product of its letters
    from the first on."""
    gens = {"T": T, "E": E}

    def term(c, word):
        x = reduce(mul, [gens[g](i, n, dom) for g, i in word] or [one(n, dom)])
        return x if c is None else x.scale(c)

    return tuple(reduce(add, [term(c, word) for c, word in side])
                 for side in relation_terms(rel, params, dom))


def _has_next(n, i):
    return i + 2 <= n   # i + 1 is a generator


# the named identity suites, as groups of :func:`instances`
LEMMAS = (
    (1, [("gamma-conj-T", None), ("gamma-conj-E", None),
         ("gamma-conj-steinberg", _has_next), ("gamma-shift", _has_next),
         ("gamma-conj-arc", _has_next)]),
    (1, [(name, None) for name in ("idem-L-square", "idem-EL",
                                   "idem-T-from-L", "idem-EL-EF",
                                   "idem-F-from-L", "F-square")]),
    (2, [("tie-transport-left", adjacent),
         ("tie-transport-right", adjacent)]),
    (0, [("steinberg-absorb-%d" % k, lambda n: n >= 3) for k in range(1, 6)]),
)


def lemma_instances(n):
    """Instances of the named identity suites (conjugation by the cycle
    element, the idempotent generators, tie transport, and absorption by the
    Steinberg element)."""
    return instances(n, LEMMAS)


def lemma_sides(lemma, params, n, dom=SYMBOLIC):
    u1 = dom.u_minus_1
    if lemma.startswith("gamma"):
        (i,) = params
        if lemma == "gamma-shift":
            gk = gamma(n, dom) ** (i - 1)
            return T(i + 1, n, dom) * gk, gk * T(2, n, dom)
        element_at = {
            "gamma-conj-T": lambda k: T(k, n, dom),
            "gamma-conj-E": lambda k: E(k, n, dom),
            "gamma-conj-steinberg": lambda k: steinberg(k, k + 1, n, dom),
            "gamma-conj-arc": lambda k: E_arc(k, k + 2, n, dom),
        }.get(lemma)
        if element_at:
            return element_at(i), conjugate_by_gamma(element_at(1), i - 1)
    if lemma.startswith("idem") or lemma == "F-square":
        (i,) = params
        li, fi, ei, ti = L(i, n, dom), F(i, n, dom), E(i, n, dom), T(i, n, dom)
        delta = (dom.one - dom.u) / (dom.one + dom.u)
        if lemma == "idem-L-square":
            return li * li, li
        if lemma == "idem-EL":
            return (ei * li).scale(dom.u + dom.one), ei * (one(n, dom) + ti)
        if lemma == "idem-T-from-L":
            return ti, li.scale(dom.of_int(2)) + (ei * li).scale(u1) - one(n, dom)
        if lemma == "idem-EL-EF":
            return ei * li, ei * fi
        if lemma == "idem-F-from-L":
            return fi, li.scale(dom.one + delta) - (ei * li).scale(delta)
        if lemma == "F-square":
            return fi * fi, fi.scale(dom.one + delta) - (ei * fi).scale(delta)
    if lemma.startswith("tie-transport"):
        i, j = params
        fi, ej = F(i, n, dom), E(j, n, dom)
        conj = T(i, n, dom) * ej * inverse_T(i, n, dom)
        c = dom.one / (dom.u + dom.one)
        if lemma == "tie-transport-left":
            return fi * ej, conj * fi + (ej - conj).scale(c)
        return ej * fi, fi * conj + (ej - conj).scale(c)
    if lemma.startswith("steinberg-absorb"):
        k = int(lemma.rsplit("-", 1)[1])
        t12 = steinberg(1, 2, n, dom)
        t1, t2 = T(1, n, dom), T(2, n, dom)
        e1, e2 = E(1, n, dom), E(2, n, dom)
        e13 = E_arc(1, 3, n, dom)
        if k == 1:
            return t1 * t12, (one(n, dom) + e1.scale(u1)) * t12
        if k == 2:
            return t2 * t12, (one(n, dom) + e2.scale(u1)) * t12
        if k == 3:
            return (t1 * t2 * t12,
                    (one(n, dom) + e1.scale(u1) + e13.scale(u1)
                     + (e1 * e2).scale(u1 * u1)) * t12)
        if k == 4:
            return (t2 * t1 * t12,
                    (one(n, dom) + e2.scale(u1) + e13.scale(u1)
                     + (e1 * e2).scale(u1 * u1)) * t12)
        if k == 5:
            return (t1 * t2 * t1 * t12,
                    (one(n, dom) + (e1 + e2 + e13).scale(u1)
                     + (e1 * e2).scale(u1 * u1 * (dom.u + dom.of_int(2)))) * t12)
    raise ValueError("unknown lemma id %r" % lemma)


def verify_relations(n):
    """Exact check of every defining-relation instance (and the named
    identity suites) inside the engine.  Returns a list of check dicts."""
    checks = []
    for listed, sides in ((relation_instances, relation_sides),
                          (lemma_instances, lemma_sides)):
        for rel, params in listed(n):
            lhs, rhs = sides(rel, params, n)
            ok = lhs == rhs
            entry = {"id": rel, "instance": list(params), "ok": ok}
            if not ok:
                entry["lhs"] = str(lhs)
                entry["rhs"] = str(rhs)
            checks.append(entry)
    return checks
