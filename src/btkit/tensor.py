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
the represented basis equals dim E_n at n = 2, 3 and 4, so it does not kill
the two-sided ideal that defines the partition Temperley-Lieb quotient.  A
small dim-2 harness for the classical Hecke/Temperley-Lieb operators lives
at the bottom.

Ties are projectors.  E_I, for a set partition I, acts as the projector onto
the indices whose upper values are constant on each block of I (the braid
operators carry a factor's upper value with it, so conjugating the adjacent
tie moves its condition to any two positions).  So the basis element
E_I T_w acts as that projector after T_w.  Every term of T_w x has the upper
values of x permuted by w, that is E_I T_w = T_w E_{w^-1 I}: E_I keeps all
of T_w x or none of it, and :func:`represent` makes T_w x only when some
E_I paired with w keeps it, which it reads off the upper values of x.

Every operator here keeps the multiset of lower values, compares lower values
only by order and upper values only by equality.  So an operator identity
holds at an index iff it holds at every index of the same order-and-equality
type, and the relation checks, the exhaustive homomorphism check and the rank
rows run over one index per type (:func:`index_types`): 6, 65 and 1125 types
for 2, 3 and 4 factors, against n^(2k) indices.

Vectors are sparse dicts {factor-tuple: coefficient}, operators are lazy
appliers; nothing is ever stored as a dense n^(2n) matrix.  The rank rows of
one index type are one sparse bundle of (row, column, coefficient) entries,
which the echelon makes into a block of rows (``from_entries``) and inserts
at once.
"""

import functools
import itertools
import random

from .algebra import (RELATION_WORDS, BasisIndex, random_basis_element,
                      relation_instances)
from .domains import PRIMES, SYMBOLIC, PrimeDomain, RationalDomain
from .partitions import enumerate_partitions


# ---------------------------------------------------------------------------
# sparse vectors over tensor indices
# ---------------------------------------------------------------------------

def unit_vector(idx, dom=SYMBOLIC):
    return {idx: dom.one}

def vec_add(target, src, c=None):
    """target += c * src, dropping zeros."""
    for idx, v in src.items():
        _vacc(target, idx, v if c is None else v * c)
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


def act_T(i, vec, dom=SYMBOLIC):
    """Image under the braid operator acting at factors i, i+1."""
    out = {}
    k = i - 1
    um1 = dom.u_minus_1
    squ = dom.sqrt_u
    for idx, c in vec.items():
        (a, r), (b, s) = idx[k], idx[k + 1]
        swapped = idx[:k] + (idx[k + 1], idx[k]) + idx[k + 2:]
        if r != s:
            _vacc(out, swapped, -c)
        elif a == b:
            _vacc(out, idx, -c)
        elif a < b:
            _vacc(out, idx, c * um1)
            _vacc(out, swapped, c * squ)
        else:
            _vacc(out, swapped, c * squ)
    return out


def act_T_inverse(i, vec, dom=SYMBOLIC):
    """T_i^{-1} = T_i + (u^{-1} - 1) E_i (1 + T_i) as an operator."""
    t = act_T(i, vec, dom)
    return vec_add(t, act_E(i, vec_add(dict(vec), t), dom),
                   dom.one / dom.u - dom.one)


def _vacc(out, idx, c):
    """out[idx] += c, dropping zeros."""
    c0 = out.get(idx)
    if c0 is None:
        if c:
            out[idx] = c
    else:
        c0 = c0 + c
        if c0:
            out[idx] = c0
        else:
            del out[idx]


# ---------------------------------------------------------------------------
# representing algebra elements
# ---------------------------------------------------------------------------

class SparseOperator:
    """A lazy linear operator on the tensor space."""

    __slots__ = ("n", "dom", "_apply")

    def __init__(self, n, apply_fn, dom=SYMBOLIC):
        self.n = n
        self.dom = dom
        self._apply = apply_fn

    def apply(self, vec):
        return self._apply(vec)

    def column(self, idx):
        return self._apply(unit_vector(idx, self.dom))


@functools.lru_cache(maxsize=None)
def _block_leaders(I):
    """Pairs (m, k) of positions, k the first position of m's block of I."""
    lead = [I.rgs.index(label) for label in I.rgs]
    return tuple((m, k) for m, k in enumerate(lead) if m != k)


def _braid_image(word, images, dom):
    """T_word x for a tuple of braid letters (rightmost acts first), made
    from the image of the word's suffix; ``images`` caches the images by
    word and starts as {(): x}."""
    img = images.get(word)
    if img is None:
        img = images[word] = act_T(word[0],
                                   _braid_image(word[1:], images, dom), dom)
    return img


def apply_word(word, vec, dom=SYMBOLIC):
    """Apply a word of ("T", i) and ("E", i) letters to a vector, rightmost
    letter first."""
    for kind, i in reversed(word):
        if not vec:
            break
        vec = act_T(i, vec, dom) if kind == "T" else act_E(i, vec, dom)
    return vec


def _permute_uppers(word, up):
    """The upper values of every term of T_word x, for x with upper values
    up: each letter swaps two adjacent ones, the rightmost letter first."""
    up = list(up)
    for i in reversed(word):
        up[i - 1], up[i] = up[i], up[i - 1]
    return up


def represent(elem):
    """The algebra homomorphism, extended linearly from the basis: E_I T_w
    sends x to T_w x projected onto the indices whose upper values are
    constant on each block of I.

    T_w carries each factor's upper value with it, so every term of T_w x
    has the upper values of x permuted by w: E_I T_w = T_w E_{w^-1 I}.  So
    on the part of the input with one tuple of upper values, E_I keeps all
    of T_w x or none of it.  The input is split by upper values, and for
    each part and word w the image T_w x is made (from the image of its
    suffix) only if some E_I paired with w keeps it; it is then added once,
    with the sum of the kept coefficients."""
    dom = elem.dom
    ties = {}
    for (I, w), c in elem.terms.items():
        ties.setdefault(w.reduced_word(), []).append((_block_leaders(I), c))

    def apply_fn(vec):
        parts = {}
        for x, c in vec.items():
            parts.setdefault(tuple(r for _, r in x), {})[x] = c
        out = {}
        for up, part in parts.items():
            braided = {(): part}
            for word, terms in ties.items():
                wup = _permute_uppers(word, up)
                c = None
                for leaders, ci in terms:
                    if all(wup[m] == wup[k] for m, k in leaders):
                        c = ci if c is None else c + ci
                if c:
                    vec_add(out, _braid_image(word, braided, dom), c)
        return out

    return SparseOperator(elem.n, apply_fn, dom)


# ---------------------------------------------------------------------------
# relation verification as operators
# ---------------------------------------------------------------------------

def _rel_images(rel, params, x, dom):
    """Images of a basis vector under both sides of a relation instance."""
    if rel == "quadratic":
        (i,) = params
        vec = unit_vector(x, dom)
        t = act_T(i, vec, dom)
        # T^2 = 1 + (u-1) E (1 + T)
        return act_T(i, t, dom), vec_add(
            dict(vec), act_E(i, vec_add(dict(vec), t), dom), dom.u_minus_1)
    lw, rw = RELATION_WORDS[rel]
    lhs = apply_word(lw(*params), unit_vector(x, dom), dom)
    rhs = apply_word(rw(*params), unit_vector(x, dom), dom)
    return lhs, rhs


def verify_relations_in_rep(n, dom=SYMBOLIC, seed=0, hom_pairs=100):
    """Exact operator-equality check of every defining-relation instance,
    plus a homomorphism spot check represent(a*b) == represent(a)represent(b)
    on random basis pairs.

    Each relation instance only involves the tensor factors its generators
    touch and acts as the identity elsewhere, so equality is checked on one
    index per type of the subtensor of touched factors (equivalent to the
    full space, and checked against a full-space run in the tests).  At
    n <= 3 the homomorphism check is exhaustive, on one index per type; at
    n >= 4 it samples 64 random indices per pair.
    """
    checks = []
    for rel, params in relation_instances(n):
        touched = sorted({p + d for p in params for d in (0, 1)})
        rparams = tuple(touched.index(i) + 1 for i in params)
        ok = all(lhs == rhs for lhs, rhs in (
            _rel_images(rel, rparams, x, dom)
            for x in index_types(len(touched))))
        checks.append({"id": "rep-" + rel, "instance": list(params), "ok": ok})
    rng = random.Random(seed)
    exhaustive = n <= 3
    hom_ok, hom_checked = True, 0
    while hom_ok and hom_checked < hom_pairs:
        a = random_basis_element(n, rng, dom)
        b = random_basis_element(n, rng, dom)
        op_ab, op_a, op_b = represent(a * b), represent(a), represent(b)
        vectors = index_types(n) if exhaustive else [
            tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(n))
            for _ in range(64)]
        hom_ok = all(op_ab.apply(v) == op_a.apply(op_b.apply(v))
                     for v in (unit_vector(x, dom) for x in vectors))
        hom_checked += 1
    checks.append({"id": "rep-homomorphism",
                   "instance": [hom_checked, "pairs",
                                "exhaustive" if exhaustive else "sampled"],
                   "ok": hom_ok})
    return checks


# ---------------------------------------------------------------------------
# rank of the image of the algebra inside End(V^(x)n)
# ---------------------------------------------------------------------------

def _rank_rows(n, dom):
    """The flattened-operator matrix as one sparse bundle (m, entries) per
    index type x: row i is the i-th output index y of the images of x, in
    sorted order, and the entry (i, col, c) says that basis element col
    sends x to c y + (other indices).  Each braid image T_w x is made once
    per type; E_I T_w keeps its term c y iff y's upper values are constant
    on the blocks of I, so the columns of w that keep y are found once per
    upper-value tuple of y."""
    words = {}
    for col, (I, w) in enumerate(BasisIndex(n).pairs):
        words.setdefault(w.reduced_word(), []).append((col, _block_leaders(I)))
    kept = {}   # (word, upper values) -> the columns of word keeping them
    for x in index_types(n):
        braided = {(): unit_vector(x, dom)}
        images = {word: _braid_image(word, braided, dom) for word in words}
        rows = {y: i for i, y in enumerate(sorted(
            set().union(*images.values())))}
        entries = []
        for word, img in images.items():
            for y, c in img.items():
                up = tuple(r for _, r in y)
                cols = kept.get((word, up))
                if cols is None:
                    cols = kept[word, up] = [
                        col for col, ties in words[word]
                        if all(up[m] == up[k] for m, k in ties)]
                i = rows[y]
                entries.extend((i, col, c) for col in cols)
        yield len(rows), entries


def _rank(n, dom, dim):
    """Rank of the bundles over dom, each inserted as one block; no bundle
    is made once the rank reaches dim, the most it can be."""
    ech = dom.echelon(dim)
    for m, entries in _rank_rows(n, dom):
        ech.insert_block(ech.from_entries(m, entries))
        if ech.rank == dim:
            break
    return ech.rank


def representation_rank(n, points=()):
    """Rank of the span of the represented basis matrices.

    Symbolic (generic u) for n <= 3; every requested rational point of
    sqrt(u) is additionally checked, exactly for n <= 3 and in two prime
    fields for n = 4 (agreement reported, not proven).
    """
    dim = len(BasisIndex(n))
    report = {"n": n, "algebra_dim": dim, "points": [str(p) for p in points],
              "ranks": []}
    if n <= 3:
        report["symbolic_rank"] = _rank(n, SYMBOLIC, dim)
        report["kernel_dim"] = dim - report["symbolic_rank"]
    for pt in points:
        if n <= 3:
            report["ranks"].append(
                {"point": str(pt), "mode": "rational",
                 "rank": _rank(n, RationalDomain(pt), dim)})
        else:
            for p in PRIMES:
                report["ranks"].append(
                    {"point": str(pt), "mode": "prime", "p": p,
                     "rank": _rank(n, PrimeDomain(pt, p), dim)})
    ranks = {r["rank"] for r in report["ranks"]}
    if "symbolic_rank" in report:
        ranks.add(report["symbolic_rank"])
    report["agreement"] = len(ranks) <= 1
    if len(ranks) == 1:
        report["rank"] = ranks.pop()
        report["kernel_dim"] = dim - report["rank"]
    return report


def export_operator_triplets(op, n, stream):
    """Write the operator's nonzero entries as 'row col scalar' lines
    (integer-coded tensor indices, deterministic order)."""
    for x in tensor_basis(n):
        col = encode_index(x, n)
        img = op.column(x)
        for y in sorted(img, key=lambda t: encode_index(t, n)):
            stream.write("%d %d %s\n" % (encode_index(y, n), col, img[y]))


# ---------------------------------------------------------------------------
# classical dim-2 harness (Hecke / Temperley-Lieb operators)
# ---------------------------------------------------------------------------

def act_J(i, vec, dom=SYMBOLIC):
    """Classical two-letter braid operator at factors i, i+1 (dim V = 2)."""
    out = {}
    k = i - 1
    um1 = dom.u_minus_1
    squ = dom.sqrt_u
    for idx, c in vec.items():
        a, b = idx[k], idx[k + 1]
        swapped = idx[:k] + (b, a) + idx[k + 2:]
        if a == b:
            _vacc(out, idx, -c)
        elif a == 1:
            _vacc(out, idx, c * um1)
            _vacc(out, swapped, c * squ)
        else:
            _vacc(out, swapped, c * squ)
    return out


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
        if a == 1:
            _vacc(out, idx, c * cu * dom.u)
            _vacc(out, swapped, c * cu * squ)
        else:
            _vacc(out, idx, c * cu)
            _vacc(out, swapped, c * cu * squ)
    return out


def classical_jimbo_check(dom=SYMBOLIC):
    """Sanity harness on the dim-2 space: quadratic and braid relations for
    the classical operator, vanishing of the Steinberg image, and the
    idempotent generator identities."""
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
                   for x in itertools.product((1, 2), repeat=k))

    J = functools.partial(word, act_J)
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
