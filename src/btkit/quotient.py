"""The partition Temperley-Lieb quotient: the braids-and-ties algebra modulo
the two-sided ideal generated by E_1 E_2 T_{12} (the Steinberg-type element
multiplied by the adjacent ties).

The ideal is materialized as a reduced row echelon basis, built by closing
the span of the generator under right multiplication by every T_i and E_i
and under the mirror (g x = mirror(mirror(x) g), see :mod:`btkit.algebra`);
closure is verified, which certifies the span IS the two-sided ideal.
Cosets are represented by reduction against the echelon (unique
representative with zero coordinates at the pivots).

The closure, the closure check and the spanning check work on blocks of at
most BLOCK rows: a block of basis rows (or of candidates) is scattered
through a table at once and inserted into, or tested against, the echelon
as one block.  The blocks exist for the GF(p) echelon, which eliminates in
a few BLAS products of bounded size instead of one product per row.

Every generator multiplication here is a table scatter on coefficient rows
(:func:`generator_actions`).  The domain's echelon class packs the tables
from the engine's one-generator products (:func:`right_products`), applies
them and counts nonzero rows, so the closure, the closure check and the
spanning check have one body for every domain.
"""

from math import comb

from . import algebra
from .algebra import AlgebraElement, BasisIndex, E, F, L, steinberg
from .domains import SYMBOLIC
from .partitions import enumerate_partitions


BLOCK = 64   # rows scattered and inserted or tested at once


def catalan_number(n):
    return comb(2 * n, n) // (n + 1)


class IdealBasis:
    """Echelonized span of a two-sided ideal, with coset reduction."""

    def __init__(self, ech, index):
        self.ech = ech
        self.index = index

    @property
    def dim(self):
        return self.ech.rank

    @property
    def quotient_dim(self):
        return len(self.index) - self.ech.rank

    def _to_row(self, elem):
        return self.ech.from_coeffs(self.index.vector(elem))

    def _to_element(self, row):
        return self.index.element(self.ech.to_coeffs(row))

    def reduce(self, elem):
        """Canonical coset representative of elem (idempotent, linear)."""
        return self._to_element(self.ech.reduce(self._to_row(elem)))

    def contains(self, elem):
        return self.ech.spans([self._to_row(elem)])


def right_products(index):
    """(rows, mirror): rows[g, i][k] is the sparse row {position:
    coefficient} of the engine's product x_k g_i of basis element k by
    g_i = T_i, E_i (coefficients 1, u, u - 1 for T_i, 1 for E_i), and the
    involution mirror[k] is the position of (w^-1 I, w^-1) for (I, w) at k:
    g x is the mirror of mirror(x) g (see :mod:`btkit.algebra`)."""
    basis = [index.basis_elem(k) for k in range(len(index))]
    rows = {(g, i): [{index.index[pair]: c
                      for pair, c in product(x, i).terms.items()}
                     for x in basis]
            for g, product in (("T", AlgebraElement.right_mul_T),
                               ("E", AlgebraElement.right_mul_E))
            for i in range(1, index.n)}
    mirror = [index.index[I.apply(w.inverse()), w.inverse()]
              for I, w in index.pairs]
    return rows, mirror


_ACTIONS = {}


def generator_actions(index, ech):
    """{key: table}: the action tables of right multiplication by every T_i
    and E_i (keys ("RT", i), ("RE", i)) and by F_i (("RF", i)), and the
    permutation table of the mirror (key "mirror"), on coefficient rows
    over ``index``, packed by ``ech`` (an echelon of the index's domain)
    from the rows of :func:`right_products`.  The F_i table is that of
    (1 + T_i)/(u + 1).  Built once per n and value of sqrt(u): the tables
    depend on nothing else, and a Scalar, a Fraction and an IntMod (whose
    equality includes p) never compare equal.  Only the last table set is
    kept, as every suite finishes with one (n, sqrt(u)) before it starts
    the next; at n = 5 one set holds about 3.5 MiB."""
    dom = index.dom
    key = (index.n, dom.sqrt_u)
    if key not in _ACTIONS:
        _ACTIONS.clear()
        rows, mirror = right_products(index)
        ks = list(range(len(index)))
        cu = dom.one / (dom.u + dom.one)
        tables = {"mirror": ech.pack(ks, mirror, [dom.one] * len(ks))}
        for (g, i), images in rows.items():
            src = [k for k, row in enumerate(images) for _ in row]
            dst = [l for row in images for l in row]
            coeff = [c for row in images for c in row.values()]
            tables["R" + g, i] = ech.pack(src, dst, coeff)
            if g == "T":
                tables["RF", i] = ech.pack(
                    ks + src, ks + dst,
                    [c * cu for c in [dom.one] * len(ks) + coeff])
        _ACTIONS[key] = tables
    return _ACTIONS[key]


def _closure_actions(index, ech):
    """The right T_i and E_i tables, then the mirror's."""
    tables = generator_actions(index, ech)
    return [tables[name, i] for name in ("RT", "RE")
            for i in range(1, index.n)] + [tables["mirror"]]


def ideal_generator_element(n, dom=SYMBOLIC, pair=(1, 2), tied=True):
    """E_i E_j T_{ij} (tied; the quotient's defining generator), or the bare
    Steinberg element T_{ij} (untied; the generator the sandwich identities
    are equivalent to)."""
    i, j = pair
    st = steinberg(i, j, n, dom)
    if not tied:
        return st
    return E(i, n, dom) * E(j, n, dom) * st


def build_ideal(n, dom=SYMBOLIC, pair=(1, 2), tied=True, index=None):
    """Echelon basis of the two-sided ideal generated by E_i E_j T_{ij}
    (or by T_{ij} alone with tied=False), by closing under right generator
    multiplication and the mirror, which fixes both generators.
    The basis rows are taken in blocks of at most BLOCK in the order they
    were appended; each block's images under every table are inserted as
    one block.  Each row is scattered once, with the value it has then,
    which keeps its pivot column, so the scattered rows span the result."""
    if n < 3:
        raise ValueError("the quotient relation needs n >= 3")
    index = index or BasisIndex(n, dom)
    ech = dom.echelon(len(index))
    ib = IdealBasis(ech, index)
    actions = _closure_actions(index, ech)
    ech.insert(ib._to_row(ideal_generator_element(n, dom, pair, tied)))
    done = 0
    while done < ech.rank:
        lo, done = done, min(done + BLOCK, ech.rank)
        for table in actions:
            ech.insert_block(ech.scatter_batch(table, ech.rows[lo:done]))
    return ib


def verify_ideal_closure(ib):
    """reduce(r*x) == 0 == reduce(mirror(r)) for every echelon row r and
    every generator x, block by block; certifies the span is the whole
    two-sided ideal, as x*r = mirror(mirror(r)*x)."""
    ech = ib.ech
    return all(ech.spans(ech.scatter_batch(table, ech.rows[lo:lo + BLOCK]))
               for table in _closure_actions(ib.index, ech)
               for lo in range(0, ech.rank, BLOCK))


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
    n, dom = ib.index.n, ib.index.dom
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

def enumerate_F_reduced(n):
    """All F-reduced words for n strands, as tuples of the letters i of
    their F_i, left to right.  A word is a product of descending runs
    F_i F_{i-1} ... F_j with run endpoints ((i_1, j_1), ..., (i_k, j_k)),
    the i's and j's strictly increasing and j_l <= i_l; the words come in
    run-lexicographic order, Catalan(n) of them."""
    out = []

    def rec(letters, last_i, last_j):
        out.append(letters)
        for i in range(last_i + 1, n):
            for j in range(last_j + 1, i + 1):
                rec(letters + tuple(range(i, j - 1, -1)), i, j)

    rec((), 0, 0)
    return out


# ---------------------------------------------------------------------------
# spanning evidence for the conjectured quotient basis
# ---------------------------------------------------------------------------

def spanning_check(ib):
    """Rank, modulo the ideal ``ib``, of the candidate basis {E_I F}:
    partitions times F-reduced words.  rank == quotient dim holds iff the
    candidates span the quotient; rank == Bell(n)*Catalan(n) is conjecture
    evidence.  At n = 3 they span the bare-Steinberg quotient but not the
    defining one, where they stay independent (rank 25 < 29)."""
    index = ib.index
    n, dom = index.n, index.dom
    words = enumerate_F_reduced(n)
    parts = enumerate_partitions(n)
    ech = dom.echelon(len(index))
    tables = generator_actions(index, ech)
    ties = [ech.from_coeffs(index.vector(algebra.E_of_partition(I, dom)))
            for I in parts]
    nonzero = 0
    for lo in range(0, len(ties), BLOCK):
        for w in words:
            rows = ties[lo:lo + BLOCK]
            for i in w:
                rows = ech.scatter_batch(tables["RF", i], rows)
            rows = ib.ech.reduce_batch(rows)
            nonzero += ech.nonzero_rows(rows)
            ech.insert_block(rows)
    return {
        "candidates": len(parts) * len(words),
        "nonzero_candidates": nonzero,
        "spanning_rank": ech.rank,
    }
