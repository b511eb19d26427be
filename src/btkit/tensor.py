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

Vectors are sparse dicts {factor-tuple: coefficient}, operators are lazy
appliers; nothing is ever stored as a dense n^(2n) matrix.
"""

import itertools
import random

from .algebra import BasisIndex, relation_instances
from .domains import PRIMES, SYMBOLIC, PrimeDomain, RationalDomain


# ---------------------------------------------------------------------------
# sparse vectors over tensor indices
# ---------------------------------------------------------------------------

def unit_vector(idx, dom=SYMBOLIC):
    return {idx: dom.one}

def vec_add(target, src, c=None):
    """target += c * src, dropping zeros."""
    for idx, v in src.items():
        v2 = v if c is None else v * c
        v0 = target.get(idx)
        if v0 is None:
            if v2:
                target[idx] = v2
        else:
            v0 = v0 + v2
            if v0:
                target[idx] = v0
            else:
                del target[idx]
    return target

def vec_scale(vec, c):
    if not c:
        return {}
    return {idx: v * c for idx, v in vec.items()}


def encode_index(idx, n):
    """Bijective integer code of a tensor basis index."""
    code = 0
    for i, r in idx:
        code = code * (n * n) + (i - 1) * n + (r - 1)
    return code


def tensor_basis(n, positions=None):
    """All basis factor tuples for the given positions (default: n factors)."""
    k = n if positions is None else positions
    factors = [(i, r) for i in range(1, n + 1) for r in range(1, n + 1)]
    return itertools.product(factors, repeat=k)


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
    tmp = dict(vec)
    vec_add(tmp, t)
    out = t
    c = dom.one / dom.u - dom.one
    vec_add(out, act_E(i, tmp, dom), c)
    return out


def _vacc(out, idx, c):
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


def _basis_word(I, w):
    """Generator word (as (kind, index) pairs, leftmost first) whose image
    represents E_I T_w.  The tie part decomposes each block into consecutive
    arcs, every arc into a braid-conjugated adjacent tie."""
    word = []
    for a, b in I.arcs():
        for k in range(a, b - 1):
            word.append(("T", k))
        word.append(("E", b - 1))
        for k in range(b - 2, a - 1, -1):
            word.append(("Tinv", k))
    for i in w.reduced_word():
        word.append(("T", i))
    return word


def apply_word(word, vec, dom=SYMBOLIC):
    """Apply a generator word to a vector, rightmost letter first."""
    for kind, i in reversed(word):
        if not vec:
            break
        if kind == "T":
            vec = act_T(i, vec, dom)
        elif kind == "E":
            vec = act_E(i, vec, dom)
        else:
            vec = act_T_inverse(i, vec, dom)
    return vec


def represent(elem):
    """The algebra homomorphism: images of basis terms composed from
    generator actions along reduced words, extended linearly."""
    n, dom = elem.n, elem.dom
    words = [(c, _basis_word(I, w)) for (I, w), c in elem.terms.items()]

    def apply_fn(vec):
        out = {}
        for c, word in words:
            vec_add(out, apply_word(word, vec, dom), c)
        return out

    return SparseOperator(n, apply_fn, dom)


# ---------------------------------------------------------------------------
# relation verification as operators
# ---------------------------------------------------------------------------

_REL_WORDS = {
    # operator words (leftmost acts last); None marks the structured sides
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


def _rel_images(rel, params, x, dom):
    """Images of a basis vector under both sides of a relation instance."""
    if rel == "quadratic":
        (i,) = params
        vec = unit_vector(x, dom)
        lhs = act_T(i, act_T(i, vec, dom), dom)
        rhs = dict(vec)
        tmp = dict(vec)
        vec_add(tmp, act_T(i, vec, dom))
        vec_add(rhs, act_E(i, tmp, dom), dom.u_minus_1)
        return lhs, rhs
    lw, rw = _REL_WORDS[rel]
    lhs = apply_word(lw(*params), unit_vector(x, dom), dom)
    rhs = apply_word(rw(*params), unit_vector(x, dom), dom)
    return lhs, rhs


def _touched_positions(rel, params, n):
    out = set()
    for i in params:
        out.add(i)
        out.add(i + 1)
    return sorted(out)


def verify_relations_in_rep(n, dom=SYMBOLIC, seed=0, hom_pairs=100):
    """Exact operator-equality check of every defining-relation instance,
    plus a homomorphism spot check represent(a*b) == represent(a)represent(b)
    on random basis pairs.

    Each relation instance only involves the tensor factors its generators
    touch and acts as the identity elsewhere, so equality is checked on the
    subtensor of touched factors (equivalent to the full space, and checked
    against a full-space run in the tests).
    """
    checks = []
    for rel, params in relation_instances(n):
        touched = _touched_positions(rel, params, n)
        width = len(touched)
        remap = {pos: k + 1 for k, pos in enumerate(touched)}
        rparams = tuple(remap[i] for i in params)
        ok = True
        for x in tensor_basis(n, positions=width):
            lhs, rhs = _rel_images(rel, rparams, x, dom)
            if lhs != rhs:
                ok = False
                break
        checks.append({"id": "rep-" + rel, "instance": list(params), "ok": ok})
    rng = random.Random(seed)
    idx = BasisIndex(n)
    sample_all = n <= 3
    full = list(tensor_basis(n)) if sample_all else None
    hom_ok = True
    hom_checked = 0
    import btkit.algebra as algebra
    for _ in range(hom_pairs):
        a = algebra.random_basis_element(n, rng, dom)
        b = algebra.random_basis_element(n, rng, dom)
        op_ab = represent(a * b)
        op_a, op_b = represent(a), represent(b)
        if sample_all:
            vectors = full
        else:
            vectors = [tuple((rng.randint(1, n), rng.randint(1, n))
                             for _ in range(n)) for _ in range(64)]
        for x in vectors:
            v = unit_vector(x, dom)
            if op_ab.apply(v) != op_a.apply(op_b.apply(v)):
                hom_ok = False
                break
        hom_checked += 1
        if not hom_ok:
            break
    checks.append({"id": "rep-homomorphism",
                   "instance": [hom_checked, "pairs",
                                "exhaustive" if sample_all else "sampled"],
                   "ok": hom_ok})
    return checks


# ---------------------------------------------------------------------------
# rank of the image of the algebra inside End(V^(x)n)
# ---------------------------------------------------------------------------

def _index_type(idx):
    """Order-and-equality type of a tensor index.  Two indices of the same
    type produce identical constraint rows, because the generator rules only
    compare lower indices by order and upper indices by equality."""
    lowers = [i for i, _ in idx]
    uppers = [r for _, r in idx]
    ranks = {v: k for k, v in enumerate(sorted(set(lowers)))}
    relabel = {}
    up = []
    for r in uppers:
        if r not in relabel:
            relabel[r] = len(relabel)
        up.append(relabel[r])
    return (tuple(ranks[v] for v in lowers), tuple(up))


def _rank_rows(n, dom):
    """Constraint rows spanning the row space of the flattened-operator
    matrix, one bundle per index type, made as they are consumed."""
    idx = BasisIndex(n)
    appliers = [(k, _basis_word(I, w)) for k, (I, w) in enumerate(idx.pairs)]
    seen = set()
    for x in tensor_basis(n):
        t = _index_type(x)
        if t in seen:
            continue
        seen.add(t)
        images = []
        outputs = set()
        for k, word in appliers:
            img = apply_word(word, unit_vector(x, dom), dom)
            images.append(img)
            outputs.update(img)
        for y in sorted(outputs):
            yield [img.get(y, dom.zero) for img in images]


def _rank(n, dom, dim):
    """Rank of the constraint rows over dom; no row is made once the rank
    reaches dim, the most it can be."""
    ech = dom.echelon(dim)
    for row in _rank_rows(n, dom):
        ech.insert(ech.from_coeffs(row))
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
    checks = []

    def basis2(k):
        return list(itertools.product((1, 2), repeat=k))

    ok = True
    for x in basis2(2):
        v = unit_vector(x, dom)
        lhs = act_J(1, act_J(1, v, dom), dom)
        rhs = vec_scale(v, dom.u)
        vec_add(rhs, act_J(1, v, dom), dom.u_minus_1)
        if lhs != rhs:
            ok = False
    checks.append({"id": "classical-quadratic", "instance": [], "ok": ok})

    ok = True
    for x in basis2(3):
        v = unit_vector(x, dom)
        if act_J(1, act_J(2, act_J(1, v, dom), dom), dom) != \
           act_J(2, act_J(1, act_J(2, v, dom), dom), dom):
            ok = False
    checks.append({"id": "classical-braid", "instance": [], "ok": ok})

    ok = True
    for x in basis2(4):
        v = unit_vector(x, dom)
        if act_J(1, act_J(3, v, dom), dom) != act_J(3, act_J(1, v, dom), dom):
            ok = False
    checks.append({"id": "classical-commute", "instance": [], "ok": ok})

    # Steinberg image is the zero operator on the 8-dim space
    ok = True
    for x in basis2(3):
        v = unit_vector(x, dom)
        total = dict(v)
        for word in ([1], [2], [2, 1], [1, 2], [1, 2, 1]):
            img = dict(v)
            for i in word:
                img = act_J(i, img, dom)
            vec_add(total, img)
        if total:
            ok = False
    checks.append({"id": "classical-steinberg-vanishes", "instance": [], "ok": ok})

    # F = (1 + J)/(1 + u), both as formula and by its displayed action
    c = dom.one / (dom.u + dom.one)
    ok = True
    for x in basis2(2):
        v = unit_vector(x, dom)
        formula = dict(v)
        vec_add(formula, act_J(1, v, dom))
        formula = vec_scale(formula, c)
        if formula != act_F_direct(1, v, dom):
            ok = False
    checks.append({"id": "classical-idempotent-formula", "instance": [], "ok": ok})

    ok = True
    for x in basis2(2):
        v = unit_vector(x, dom)
        if act_F_direct(1, act_F_direct(1, v, dom), dom) != act_F_direct(1, v, dom):
            ok = False
    checks.append({"id": "classical-idempotent-square", "instance": [], "ok": ok})

    ok = True
    for x in basis2(4):
        v = unit_vector(x, dom)
        if act_F_direct(1, act_F_direct(3, v, dom), dom) != \
           act_F_direct(3, act_F_direct(1, v, dom), dom):
            ok = False
    checks.append({"id": "classical-idempotent-commute", "instance": [], "ok": ok})

    cc = dom.u / ((dom.u + dom.one) * (dom.u + dom.one))
    ok = True
    for x in basis2(3):
        v = unit_vector(x, dom)
        lhs = act_F_direct(1, act_F_direct(2, act_F_direct(1, v, dom), dom), dom)
        if lhs != vec_scale(act_F_direct(1, v, dom), cc):
            ok = False
    checks.append({"id": "classical-idempotent-sandwich", "instance": [], "ok": ok})
    return checks
