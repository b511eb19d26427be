"""The partition Temperley-Lieb quotient: the braids-and-ties algebra modulo
the two-sided ideal generated by E_1 E_2 T_{12} (the Steinberg-type element
multiplied by the adjacent ties).

The ideal is materialized as a reduced row echelon basis, built by closing
the span of the generator under left/right multiplication by every T_i and
E_i; closure is verified, which certifies the span IS the two-sided ideal.
Cosets are represented by reduction against the echelon (unique
representative with zero coordinates at the pivots).

The closure, the closure check and the spanning check work on blocks of at
most BLOCK rows: a block of basis rows (or of candidates) is scattered
through a table at once and inserted into, or tested against, the echelon
as one block, so the GF(p) echelon does its elimination in a few BLAS
products of bounded size instead of one product per row.

Every generator multiplication here is a table scatter on coefficient rows
(:func:`generator_actions`).  The tables are read off the engine's own
one-generator products, and the domain's echelon class packs and applies
them, so the closure, the closure check and the spanning check have one body
for every domain.
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


_ACTIONS = {}


def generator_actions(index, ech):
    """{(name, i): table}: the action tables of left ("L") and right ("R")
    multiplication by every T_i and E_i, of right multiplication by F_i
    ("RF"), on coefficient rows over ``index``, packed by ``ech`` (an
    echelon of the index's domain), and the raw entries (sources, targets,
    coefficients) of the commutators x -> x T_i - T_i x ("CT") and
    x -> x E_i - E_i x ("CE").  Each right table is read off the engine's
    one-generator products of the basis elements: basis element k
    contributes c times basis element l for each term c E_I T_w of its
    product, with (I, w) at position l, and c is 1, u or u - 1 for T_i and
    1 for E_i.  Each left table is its right twin with every position
    relabelled through the mirror (I, w) -> (w^-1 I, w^-1), as g x is the
    mirror of mirror(x) g (see :mod:`btkit.algebra`).  The F_i table is that
    of (1 + T_i)/(u + 1), and a commutator joins the right entries with the
    negated left ones.  Built once per n, value of sqrt(u) and process: the
    tables depend on nothing else, and a Scalar, a Fraction and an IntMod
    (whose equality includes p) never compare equal."""
    n, dom = index.n, index.dom
    key = (n, dom.sqrt_u)
    if key not in _ACTIONS:
        products = {"T": AlgebraElement.right_mul_T,
                    "E": AlgebraElement.right_mul_E}
        basis = [index.basis_elem(k) for k in range(len(index))]
        ks = list(range(len(index)))
        mirror = [index.index[I.apply(w.inverse()), w.inverse()]
                  for I, w in index.pairs]
        cu = dom.one / (dom.u + dom.one)
        tables = {}
        for g, product in products.items():
            for i in range(1, n):
                src, dst, coeff = [], [], []
                for k, x in enumerate(basis):
                    for pair, c in product(x, i).terms.items():
                        src.append(k)
                        dst.append(index.index[pair])
                        coeff.append(c)
                ls, ld = [mirror[k] for k in src], [mirror[l] for l in dst]
                tables["R" + g, i] = ech.pack(src, dst, coeff)
                tables["L" + g, i] = ech.pack(ls, ld, coeff)
                tables["C" + g, i] = (src + ls, dst + ld,
                                      coeff + [-c for c in coeff])
                if g == "T":
                    tables["RF", i] = ech.pack(
                        ks + src, ks + dst,
                        [c * cu for c in [dom.one] * len(ks) + coeff])
        _ACTIONS[key] = tables
    return _ACTIONS[key]


def _closure_actions(index, ech):
    """The tables of left and right multiplication by every T_i and E_i."""
    tables = generator_actions(index, ech)
    return [tables[name, i] for name in ("LT", "RT", "LE", "RE")
            for i in range(1, index.n)]


def ideal_generator_element(n, dom=SYMBOLIC, pair=(1, 2), tied=True):
    """E_i E_j T_{ij} (tied; the quotient's defining generator), or the bare
    Steinberg element T_{ij} (untied; the generator the sandwich identities
    are equivalent to)."""
    i, j = pair
    st = steinberg(i, j, n, dom)
    if not tied:
        return st
    return E(i, n, dom) * E(j, n, dom) * st


def build_ideal(n, dom=SYMBOLIC, pair=(1, 2), tied=True, index=None,
                generator=None):
    """Echelon basis of the two-sided ideal generated by E_i E_j T_{ij}
    (or by T_{ij} alone with tied=False, or by an explicit ``generator``
    element), by closing under generator multiplication on both sides.
    The basis rows are taken in blocks of at most BLOCK in the order they
    were appended; each block's images under every table are inserted as
    one block.  Each row is scattered once, with the value it has then,
    which keeps its pivot column, so the scattered rows span the result."""
    if n < 3:
        raise ValueError("the quotient relation needs n >= 3")
    index = index or BasisIndex(n, dom)
    seed = generator if generator is not None else \
        ideal_generator_element(n, dom, pair, tied)
    ech = dom.echelon(len(index))
    ib = IdealBasis(ech, index)
    actions = _closure_actions(index, ech)
    ech.insert(ib._to_row(seed))
    done = 0
    while done < ech.rank:
        lo, done = done, min(done + BLOCK, ech.rank)
        for table in actions:
            ech.insert_block(ech.scatter_batch(table, ech.rows[lo:done]))
    return ib


def verify_ideal_closure(ib):
    """reduce(x*r) == 0 == reduce(r*x) for every echelon row r and every
    generator x, block by block; certifies the span is the whole two-sided
    ideal."""
    ech = ib.ech
    return all(ech.spans(ech.scatter_batch(table, ech.rows[lo:lo + BLOCK]))
               for table in _closure_actions(ib.index, ech)
               for lo in range(0, ech.rank, BLOCK))


# ---------------------------------------------------------------------------
# the two quotient presentations
# ---------------------------------------------------------------------------

def presentation_instances(n):
    """Identity instances of the F- and L-generator presentations, plus the
    tie relations they inherit."""
    out = []
    gens = range(1, n)
    for i in gens:
        out.append(("quot-F-square", (i,)))
        out.append(("quot-L-idempotent", (i,)))
        out.append(("quot-F-E-own", (i,)))
        out.append(("quot-L-E-own", (i,)))
        out.append(("quot-tie-idempotent", (i,)))
    for i in gens:
        for j in gens:
            if abs(i - j) > 1:
                out.append(("quot-F-commute", (i, j)))
                out.append(("quot-F-E-commute", (i, j)))
                out.append(("quot-L-commute", (i, j)))
                out.append(("quot-L-E-commute", (i, j)))
            if i < j:
                out.append(("quot-tie-commute", (i, j)))
    for i in gens:
        for j in gens:
            if abs(i - j) == 1:
                out.append(("quot-F-tie-slide-a", (i, j)))
                out.append(("quot-F-tie-slide-b", (i, j)))
                out.append(("quot-F-cross", (i, j)))
                out.append(("quot-F-sandwich", (i, j)))
                out.append(("quot-L-tie-slide-a", (i, j)))
                out.append(("quot-L-tie-slide-b", (i, j)))
                out.append(("quot-L-cross", (i, j)))
                out.append(("quot-L-sandwich", (i, j)))
    return out


def presentation_sides(pid, params, n, dom=SYMBOLIC):
    u1 = dom.u_minus_1
    up1 = dom.u + dom.one
    delta = (dom.one - dom.u) / up1
    cu = dom.one / up1
    if pid == "quot-F-square":
        (i,) = params
        fi, ei = F(i, n, dom), E(i, n, dom)
        return fi * fi, fi.scale(dom.one + delta) - (ei * fi).scale(delta)
    if pid == "quot-L-idempotent":
        (i,) = params
        li = L(i, n, dom)
        return li * li, li
    if pid == "quot-F-E-own":
        (i,) = params
        return E(i, n, dom) * F(i, n, dom), F(i, n, dom) * E(i, n, dom)
    if pid == "quot-L-E-own":
        (i,) = params
        return E(i, n, dom) * L(i, n, dom), L(i, n, dom) * E(i, n, dom)
    if pid == "quot-tie-idempotent":
        (i,) = params
        return E(i, n, dom) * E(i, n, dom), E(i, n, dom)
    if pid == "quot-tie-commute":
        i, j = params
        return E(i, n, dom) * E(j, n, dom), E(j, n, dom) * E(i, n, dom)
    if pid == "quot-F-commute":
        i, j = params
        return F(i, n, dom) * F(j, n, dom), F(j, n, dom) * F(i, n, dom)
    if pid == "quot-F-E-commute":
        i, j = params
        return F(i, n, dom) * E(j, n, dom), E(j, n, dom) * F(i, n, dom)
    if pid == "quot-L-commute":
        i, j = params
        return L(i, n, dom) * L(j, n, dom), L(j, n, dom) * L(i, n, dom)
    if pid == "quot-L-E-commute":
        i, j = params
        return L(i, n, dom) * E(j, n, dom), E(j, n, dom) * L(i, n, dom)
    if pid == "quot-F-tie-slide-a":
        i, j = params
        ei, ej, fi = E(i, n, dom), E(j, n, dom), F(i, n, dom)
        return ei * ej * fi, fi * ei * ej
    if pid == "quot-F-tie-slide-b":
        i, j = params
        ei, ej, fi = E(i, n, dom), E(j, n, dom), F(i, n, dom)
        return ei * ej * fi, ej * fi * ej + (ei * ej - ej).scale(cu)
    if pid == "quot-F-cross":
        i, j = params
        ei, ej = E(i, n, dom), E(j, n, dom)
        fi, fj = F(i, n, dom), F(j, n, dom)
        rhs = (fj * fi * ej
               + ((ei - ej) * fj + fi * (ei - ej)).scale(cu)
               - (ei - ej).scale(cu * cu))
        return ei * fj * fi, rhs
    if pid == "quot-F-sandwich":
        i, j = params
        ei, fi, fj = E(i, n, dom), F(i, n, dom), F(j, n, dom)
        rhs = (fi - (ei * fi).scale(dom.one - dom.u)).scale(cu * cu)
        return fi * fj * fi, rhs
    if pid == "quot-L-tie-slide-a":
        i, j = params
        ei, ej, li = E(i, n, dom), E(j, n, dom), L(i, n, dom)
        return ei * ej * li, li * ei * ej
    if pid == "quot-L-tie-slide-b":
        i, j = params
        ei, ej, li = E(i, n, dom), E(j, n, dom), L(i, n, dom)
        half = dom.one / dom.of_int(2)
        return ei * ej * li, ej * li * ej + (ei * ej - ej).scale(half)
    if pid == "quot-L-cross":
        i, j = params
        ei, ej = E(i, n, dom), E(j, n, dom)
        li, lj = L(i, n, dom), L(j, n, dom)
        two, four = dom.of_int(2), dom.of_int(4)
        lhs = (li * lj * ei).scale(four) + (ej * (lj + li)).scale(two) + ei
        rhs = (ej * li * lj).scale(four) + ((li + lj) * ei).scale(two) + ej
        return lhs, rhs
    if pid == "quot-L-sandwich":
        i, j = params
        ei, ej = E(i, n, dom), E(j, n, dom)
        li, lj = L(i, n, dom), L(j, n, dom)
        lhs = ((li * lj * li).scale(dom.of_int(8))
               + (li * ej * lj * li + ei * li * lj * li
                  + li * lj * ei * li).scale(dom.of_int(4) * u1)
               + (ei * ej * li * lj * li).scale(
                   u1 * u1 * (dom.u + dom.of_int(5))))
        rhs = (li.scale(dom.of_int(2)) + (ei * li).scale(dom.of_int(3) * u1)
               + (ei * ej * li).scale(u1 * u1))
        return lhs, rhs
    raise ValueError("unknown presentation identity %r" % pid)


def verify_presentations(n, ib, dom=SYMBOLIC, ib_untied=None):
    """Check every presentation identity in the algebra itself, modulo the
    defining (tied) ideal, and optionally modulo the bare-Steinberg ideal.

    The sandwich identities are scalar multiples of the bare Steinberg
    element, so they fail in the algebra and hold exactly modulo the
    untied ideal; everything else holds outright.  ``ok`` records the
    expected pattern; ``holds_mod_ideal`` is the raw computation against
    the quotient's own ideal."""
    checks = []
    for pid, params in presentation_instances(n):
        lhs, rhs = presentation_sides(pid, params, n, dom)
        diff = lhs - rhs
        in_algebra = diff.is_zero()
        mod_ideal = in_algebra or ib.contains(diff)
        expected_in_algebra = not pid.endswith("sandwich")
        entry = {
            "id": pid,
            "instance": list(params),
            "holds_in_algebra": in_algebra,
            "holds_mod_ideal": mod_ideal,
            "ok": in_algebra == expected_in_algebra,
        }
        if ib_untied is not None:
            entry["holds_mod_steinberg_ideal"] = (
                in_algebra or ib_untied.contains(diff))
            entry["ok"] = entry["ok"] and entry["holds_mod_steinberg_ideal"]
        checks.append(entry)
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

def spanning_check(n, ib, dom=SYMBOLIC):
    """Rank, modulo the ideal, of the candidate basis {E_I F}: partitions
    times F-reduced words.  rank == quotient dim holds iff the candidates
    span the quotient; rank == Bell(n)*Catalan(n) is conjecture evidence.
    At n = 3 they span the bare-Steinberg quotient but not the defining
    one, where they stay independent (rank 25 < 29)."""
    index = ib.index if ib is not None else BasisIndex(n, dom)
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
            if ib is not None:
                rows = ib.ech.reduce_batch(rows)
            nonzero += sum(1 for row in rows if any(row))
            ech.insert_block(rows)
    return {
        "n": n,
        "candidates": len(parts) * len(words),
        "nonzero_candidates": nonzero,
        "spanning_rank": ech.rank,
        "quotient_dim": ib.quotient_dim if ib is not None else len(index),
        "conjectured_dim": len(parts) * len(words),
    }
