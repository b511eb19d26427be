"""The partition Temperley-Lieb quotient: the braids-and-ties algebra modulo
the two-sided ideal generated by E_1 E_2 T_{12} (the Steinberg-type element
multiplied by the adjacent ties).

Every ideal is built block by block (:mod:`btkit.blocks`): E_n is the sum
of the matrix algebras Mat_{k_mu}(A_mu) over the shapes mu of n, and the
ideal is the sum of the Mat_{k_mu}(J_mu), each J_mu closed in an echelon
of width |W_mu|, at most 120 at n = 5.  Closure is verified, which
certifies each J_mu is a two-sided ideal of A_mu.  Cosets are represented
by block coordinates with every piece reduced against its J_mu.
"""

from math import comb

from . import algebra, blocks
from .algebra import E, F, L, ideal_generator_element, one
from .domains import SYMBOLIC
from .linalg import Echelon
from .partitions import enumerate_partitions


def catalan_number(n):
    return comb(2 * n, n) // (n + 1)


def build_ideal(n, dom=SYMBOLIC, pair=(1, 2), tied=True):
    """The two-sided ideal generated by E_i E_j T_{ij} (or by T_{ij} alone
    with tied=False), as a :class:`btkit.blocks.Ideal`."""
    if n < 3:
        raise ValueError("the quotient relation needs n >= 3")
    return blocks.structure(n, dom).ideal(
        ideal_generator_element(n, dom, pair, tied))


def verify_ideal_closure(ib):
    """Whether each block of the ideal is closed under the generators of
    its algebra A_mu on both sides: then the ideal is two-sided."""
    return ib.closed()


# ---------------------------------------------------------------------------
# the two quotient presentations
# ---------------------------------------------------------------------------

# the identities that are a lemma or a defining relation of the algebra
_INHERITED = {
    "quot-F-square": (algebra.lemma_sides, "F-square"),
    "quot-L-idempotent": (algebra.lemma_sides, "idem-L-square"),
    "quot-tie-idempotent": (algebra.relation_sides, "tie-idempotent"),
    "quot-tie-commute": (algebra.relation_sides, "tie-commute"),
}

def _forms(cond, *forms):
    """Entries (id, cond) of both families' ids of forms, F first."""
    return [("quot-%s-%s" % (x, form), cond) for x in "FL" for form in forms]


# the presentation identities, as groups of :func:`algebra.instances`: the
# forms over the family's generator X = F or L, of one generator, a far pair
# and an adjacent pair, with the identities they inherit
PRESENTATIONS = (
    (1, [("quot-F-square", None), ("quot-L-idempotent", None)]
     + _forms(None, "E-own") + [("quot-tie-idempotent", None)]),
    (2, _forms(algebra.far, "commute", "E-commute")
     + [("quot-tie-commute", algebra.before)]),
    (2, _forms(algebra.adjacent,
               "tie-slide-a", "tie-slide-b", "cross", "sandwich")),
)
_FORM_OF = {pid: tuple(pid.split("-", 2)[1:]) for _, entries in PRESENTATIONS
            for pid, _ in entries if pid not in _INHERITED}


def presentation_instances(n):
    """Identity instances of the F- and L-generator presentations, plus the
    tie relations they inherit."""
    return algebra.instances(n, PRESENTATIONS)


def presentation_sides(pid, params, n, dom=SYMBOLIC):
    if pid in _INHERITED:
        sides, name = _INHERITED[pid]
        return sides(name, params, n, dom)
    if pid not in _FORM_OF:
        raise ValueError("unknown presentation identity %r" % pid)
    family, form = _FORM_OF[pid]
    X = F if family == "F" else L
    i, j = params[0], params[-1]   # j = i in the one-generator forms
    ei, ej, xi, xj = E(i, n, dom), E(j, n, dom), X(i, n, dom), X(j, n, dom)
    cu = dom.one / (dom.u + dom.one)
    if form == "E-own":
        return ei * xi, xi * ei
    if form == "commute":
        return xi * xj, xj * xi
    if form == "E-commute":
        return xi * ej, ej * xi
    if form == "tie-slide-a":
        return ei * ej * xi, xi * ei * ej
    if form == "tie-slide-b":
        c = cu if family == "F" else dom.one / dom.of_int(2)
        return ei * ej * xi, ej * xi * ej + (ei * ej - ej).scale(c)
    if pid == "quot-F-cross":
        d = ei - ej
        return ei * xj * xi, (xj * xi * ej + (d * xj + xi * d).scale(cu)
                              - d.scale(cu * cu))
    if pid == "quot-F-sandwich":
        rhs = (xi - (ei * xi).scale(dom.one - dom.u)).scale(cu * cu)
        return xi * xj * xi, rhs
    two, four = dom.of_int(2), dom.of_int(4)
    if pid == "quot-L-cross":
        lhs = (xi * xj * ei).scale(four) + (ej * (xj + xi)).scale(two) + ei
        rhs = (ej * xi * xj).scale(four) + ((xi + xj) * ei).scale(two) + ej
        return lhs, rhs
    u1 = dom.u_minus_1   # quot-L-sandwich, the one identity left
    lhs = ((xi * xj * xi).scale(dom.of_int(8))
           + (xi * ej * xj * xi + ei * xi * xj * xi
              + xi * xj * ei * xi).scale(four * u1)
           + (ei * ej * xi * xj * xi).scale(u1 * u1 * (dom.u + dom.of_int(5))))
    rhs = (xi.scale(two) + (ei * xi).scale(dom.of_int(3) * u1)
           + (ei * ej * xi).scale(u1 * u1))
    return lhs, rhs


def verify_presentations(ib, ib_untied):
    """Check every presentation identity in the algebra itself, modulo the
    defining (tied) ideal ``ib``, and modulo the bare-Steinberg ideal
    ``ib_untied``.

    The sandwich identities are scalar multiples of the bare Steinberg
    element, so they fail in the algebra and hold exactly modulo the
    untied ideal; everything else holds outright.  ``ok`` records the
    expected pattern; ``holds_mod_ideal`` is the raw computation against
    the quotient's own ideal."""
    n, dom = ib.blocks.n, ib.blocks.dom
    checks = []
    for pid, params in presentation_instances(n):
        lhs, rhs = presentation_sides(pid, params, n, dom)
        diff = lhs - rhs
        in_algebra = diff.is_zero()
        mod_steinberg = in_algebra or ib_untied.contains(diff)
        checks.append({
            "id": pid,
            "instance": list(params),
            "holds_in_algebra": in_algebra,
            "holds_mod_ideal": in_algebra or ib.contains(diff),
            "ok": (in_algebra != pid.endswith("sandwich")) and mod_steinberg,
            "holds_mod_steinberg_ideal": mod_steinberg,
        })
    return checks


# ---------------------------------------------------------------------------
# reduced words in the F generators (Jones normal form)
# ---------------------------------------------------------------------------

def enumerate_F_reduced(n, start=(), step=lambda word, i: word + (i,)):
    """All F-reduced words for n strands, as tuples of the letters i of
    their F_i, left to right.  A word is a product of descending runs
    F_i F_{i-1} ... F_j with run endpoints ((i_1, j_1), ..., (i_k, j_k)),
    the i's and j's strictly increasing and j_l <= i_l; the words come in
    run-lexicographic order, Catalan(n) of them.  With ``start`` and
    ``step``, each word is given as start extended by step(x, i) per
    letter i, each word from the value of its prefix."""
    out = []

    def rec(x, last_i, last_j):
        out.append(x)
        for i in range(last_i + 1, n):
            runs = [x]   # runs[k]: x extended by the first k letters
            for letter in range(i, last_j, -1):
                runs.append(step(runs[-1], letter))
            for j in range(last_j + 1, i + 1):
                rec(runs[i - j + 1], i, j)

    rec(start, 0, 0)
    return out


# ---------------------------------------------------------------------------
# spanning evidence for the conjectured quotient basis
# ---------------------------------------------------------------------------

def spanning_check(ib):
    """Rank, modulo the ideal ``ib``, of the candidate basis {E_I F}:
    partitions times F-reduced words.  rank == quotient dim holds iff the
    candidates span the quotient; rank == Bell(n)*Catalan(n) is conjecture
    evidence.  At n = 3 they span the bare-Steinberg quotient but not the
    defining one, where they stay independent (rank 25 < 29).

    Each F_w is built by engine right products, from its prefix's value,
    and reduced once.  eps_K E_I = eps_K if I is finer than K and 0
    otherwise, so E_I F_w has the reduced pieces (K, L) of F_w with K
    coarser than I, and no other."""
    bl = ib.blocks
    n, dom = bl.n, bl.dom
    cu = dom.one / (dom.u + dom.one)
    forms = [ib.reduce(bl.form(x)) for x in enumerate_F_reduced(
        n, one(n, dom), lambda x, i: (x + x.right_mul_T(i)).scale(cu))]
    ech = Echelon(bl.dim, dom.zero)
    parts = enumerate_partitions(n)
    nonzero = 0
    for I in parts:
        coarser = set(bl.coarser[I])
        keep = {off for (K, _), off in bl.offset.items() if K in coarser}
        for form in forms:
            row = {k: c for k, c in form.items() if bl.start[k] in keep}
            nonzero += bool(row)
            ech.insert(row)
    return {
        "candidates": len(parts) * len(forms),
        "nonzero_candidates": nonzero,
        "spanning_rank": ech.rank,
    }
