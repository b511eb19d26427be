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
:func:`btkit.quotient.generator_actions` gets its left tables.

The defining relations implemented here (for |i-j| as indicated):

    (1) T_i T_j = T_j T_i                 |i-j| > 1
    (2) T_i T_j T_i = T_j T_i T_j         |i-j| = 1   (braid relation)
    (3) T_i^2 = 1 + (u-1) E_i (1 + T_i)
    (4) E_i E_j = E_j E_i
    (5) E_i^2 = E_i
    (6) E_i T_j = T_j E_i                 |i-j| > 1
    (7) E_i T_i = T_i E_i
    (8) E_i E_j T_i = T_i E_i E_j = E_j T_i E_j   |i-j| = 1
    (9) E_i T_j T_i = T_j T_i E_j         |i-j| = 1
"""

from functools import reduce
from operator import mul

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
        self.pairs = [(I, w) for I in enumerate_partitions(n)
                      for w in enumerate_permutations(n)]
        self.index = {pair: k for k, pair in enumerate(self.pairs)}

    def __len__(self):
        return len(self.pairs)

    def vector(self, elem):
        """Dense coefficient vector of an element."""
        vec = [self.dom.zero] * len(self.pairs)
        for key, c in elem.terms.items():
            vec[self.index[key]] = c
        return vec

    def element(self, vec):
        terms = {}
        for k, c in enumerate(vec):
            if c:
                terms[self.pairs[k]] = c
        return AlgebraElement(self.n, terms, self.dom)

    def basis_elem(self, k):
        I, w = self.pairs[k]
        return AlgebraElement(self.n, {(I, w): self.dom.one}, self.dom)


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

def relation_instances(n):
    """Deterministic enumeration of all instances of the defining relations
    for the given strand count."""
    gens = range(1, n)
    out = []
    for i in gens:
        for j in gens:
            if j - i > 1:
                out.append(("braid-commute", (i, j)))
    for i in gens:
        if i + 1 in gens:
            out.append(("braid", (i, i + 1)))
    for i in gens:
        out.append(("quadratic", (i,)))
    for i in gens:
        for j in gens:
            if i < j:
                out.append(("tie-commute", (i, j)))
    for i in gens:
        out.append(("tie-idempotent", (i,)))
    for i in gens:
        for j in gens:
            if abs(i - j) > 1:
                out.append(("tie-far-braid-commute", (i, j)))
    for i in gens:
        out.append(("tie-own-braid-commute", (i,)))
    for i in gens:
        for j in gens:
            if abs(i - j) == 1:
                out.append(("tie-pair-slide", (i, j)))
                out.append(("tie-pair-project", (i, j)))
    for i in gens:
        for j in gens:
            if abs(i - j) == 1:
                out.append(("tie-cross", (i, j)))
    return out


# every defining relation but the quadratic one, whose right side is a sum:
# both sides as words of ("T", i) and ("E", i) letters, read as products
# from left to right (as operators, the leftmost letter acts last)
RELATION_WORDS = {
    "braid-commute": (lambda i, j: [("T", i), ("T", j)],
                      lambda i, j: [("T", j), ("T", i)]),
    "braid": (lambda i, j: [("T", i), ("T", j), ("T", i)],
              lambda i, j: [("T", j), ("T", i), ("T", j)]),
    "tie-commute": (lambda i, j: [("E", i), ("E", j)],
                    lambda i, j: [("E", j), ("E", i)]),
    "tie-idempotent": (lambda i: [("E", i), ("E", i)], lambda i: [("E", i)]),
    "tie-far-braid-commute": (lambda i, j: [("E", i), ("T", j)],
                              lambda i, j: [("T", j), ("E", i)]),
    "tie-own-braid-commute": (lambda i: [("E", i), ("T", i)],
                              lambda i: [("T", i), ("E", i)]),
    "tie-pair-slide": (lambda i, j: [("E", i), ("E", j), ("T", i)],
                       lambda i, j: [("T", i), ("E", i), ("E", j)]),
    "tie-pair-project": (lambda i, j: [("E", i), ("E", j), ("T", i)],
                         lambda i, j: [("E", j), ("T", i), ("E", j)]),
    "tie-cross": (lambda i, j: [("E", i), ("T", j), ("T", i)],
                  lambda i, j: [("T", j), ("T", i), ("E", j)]),
}


def relation_sides(rel, params, n, dom=SYMBOLIC):
    """Both sides of a defining-relation instance as engine elements: the
    products along the words of RELATION_WORDS, from the first letter on."""
    if rel == "quadratic":
        (i,) = params
        lhs = T(i, n, dom) * T(i, n, dom)
        rhs = one(n, dom) + (E(i, n, dom) * (one(n, dom) + T(i, n, dom))
                             ).scale(dom.u_minus_1)
        return lhs, rhs
    if rel not in RELATION_WORDS:
        raise ValueError("unknown relation id %r" % rel)
    gens = {"T": T, "E": E}
    return tuple(reduce(mul, [gens[kind](i, n, dom)
                              for kind, i in word(*params)])
                 for word in RELATION_WORDS[rel])


def lemma_instances(n):
    """Instances of the named identity suites (conjugation by the cycle
    element, the idempotent generators, tie transport, and absorption by the
    Steinberg element)."""
    out = []
    for i in range(1, n):
        out.append(("gamma-conj-T", (i,)))
        out.append(("gamma-conj-E", (i,)))
        if i + 1 <= n - 1:
            out.append(("gamma-conj-steinberg", (i,)))
            out.append(("gamma-shift", (i,)))
        if i + 2 <= n:
            out.append(("gamma-conj-arc", (i,)))
    for i in range(1, n):
        out.append(("idem-L-square", (i,)))
        out.append(("idem-EL", (i,)))
        out.append(("idem-T-from-L", (i,)))
        out.append(("idem-EL-EF", (i,)))
        out.append(("idem-F-from-L", (i,)))
        out.append(("F-square", (i,)))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                out.append(("tie-transport-left", (i, j)))
                out.append(("tie-transport-right", (i, j)))
    if n >= 3:
        for k in (1, 2, 3, 4, 5):
            out.append(("steinberg-absorb-%d" % k, ()))
    return out


def lemma_sides(lemma, params, n, dom=SYMBOLIC):
    u1 = dom.u_minus_1
    if lemma.startswith("gamma"):
        (i,) = params
        if lemma == "gamma-shift":
            gk = gamma(n, dom) ** (i - 1)
            return T(i + 1, n, dom) * gk, gk * T(2, n, dom)
        if lemma == "gamma-conj-T":
            return T(i, n, dom), conjugate_by_gamma(T(1, n, dom), i - 1)
        if lemma == "gamma-conj-E":
            return E(i, n, dom), conjugate_by_gamma(E(1, n, dom), i - 1)
        if lemma == "gamma-conj-steinberg":
            return (steinberg(i, i + 1, n, dom),
                    conjugate_by_gamma(steinberg(1, 2, n, dom), i - 1))
        if lemma == "gamma-conj-arc":
            return (E_arc(i, i + 2, n, dom),
                    conjugate_by_gamma(E_arc(1, 3, n, dom), i - 1))
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


def verify_relations(n, dom=SYMBOLIC):
    """Exact check of every defining-relation instance (and the named
    identity suites) inside the engine.  Returns a list of check dicts."""
    checks = []
    for instances, sides in ((relation_instances, relation_sides),
                             (lemma_instances, lemma_sides)):
        for rel, params in instances(n):
            lhs, rhs = sides(rel, params, n, dom)
            ok = lhs == rhs
            entry = {"id": rel, "instance": list(params), "ok": ok}
            if not ok:
                entry["lhs"] = str(lhs)
                entry["rhs"] = str(rhs)
            checks.append(entry)
    return checks
