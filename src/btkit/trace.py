"""Markov-style trace functionals on the tower of braids-and-ties algebras.

The level-n functional rho_n is the solution of an exact linear system over
the basis {E_I T_w}: normalization rho(1) = 1, trace symmetry
rho(ab) = rho(ba), and the tower rules relating level n to level n-1
through the last generators (Aicardi and Juyumaya, "Markov trace on the
algebra of braids and ties", Moscow Math. J., 2016),

    rho_n(x T_{n-1})         = A rho_{n-1}(x)
    rho_n(x E_{n-1} T_{n-1}) = A rho_{n-1}(x)
    rho_n(x E_{n-1})         = B rho_{n-1}(x)

with parameters A, B.  Symmetry needs only the commutators [x, g] with x a
basis element and g a generator T_i or E_i: since [ab, c] = [a, bc] + [b, ca],
these span every [a, b].  Most have one or two terms, the conjugation steps
to the cocenter of an Iwahori-Hecke algebra (Geck and Pfeiffer, Adv. Math.
102, 1993), and a weighted union-find merges them into classes.  Every other
row is folded onto the live class roots as a sparse row and feeds one
system per level, in every domain, with the right-hand sides as coefficient
columns, one per monomial A^a B^b with a + b < n, so the elimination
stays in the domain's field (Q(s) on the symbolic path) and each solved
value is a :class:`~btkit.scalars.ParamPoly` in A and B over that field.
Existence (consistency) and uniqueness (full rank) are computed, not
assumed.  The solver also reports how many instances of the middle rule are
implied by the normalization, symmetry and the other two tower rules: the
middle rows are reduced against the system in one batch before any middle
row is added.
"""

from . import scalars
from .algebra import (AlgebraElement, BasisIndex, ideal_generator_element,
                      mirror_pair)
from .domains import SYMBOLIC
from .linalg import LinearSystem, merge_classes
from .partitions import SetPartition, intern_partition
from .permutations import Permutation, intern_perm
from .scalars import ParamPoly


def embed_pair(I, w, n):
    """Embedding of a level-(n-1) basis pair: the partition gains the
    singleton {n}, the permutation fixes n."""
    return (intern_partition(I.rgs + (max(I.rgs) + 1,)),
            intern_perm(w.images + (n,)))


class TraceFunctional:
    """Solved level-n trace: the monomial coefficients of each value, the
    value table over the basis, and the solver's existence/uniqueness
    verdicts."""

    def __init__(self, n, coeffs, exists, unique, rank,
                 implied_middle_rules, middle_rules):
        self.n = n
        self.coeffs = coeffs   # {(I, w): {(degA, degB): domain element}}
        self.table = {pair: ParamPoly(c) for pair, c in coeffs.items()}
        self.exists = exists
        self.unique = unique
        self.rank = rank
        self.implied_middle_rules = implied_middle_rules
        self.middle_rules = middle_rules

    def evaluate(self, elem):
        """Linear extension of the table to an arbitrary element."""
        if not self.exists:
            raise ValueError("trace functional does not exist at this level")
        total = ParamPoly({})
        for key, c in elem.terms.items():
            total = total + self.table[key] * c
        return total

    def table_json(self):
        """Basis -> text map of Q(s) values, deterministic order."""
        out = {}
        for (I, w) in sorted(self.table, key=lambda k: (k[0].rgs, k[1].images)):
            key = "%s %s" % (",".join(map(str, I.rgs)),
                             ",".join(map(str, w.images)))
            out[key] = str(self.table[(I, w)])
        return out


_CACHE = {}


def right_products(index):
    """(rows, mirror): rows[g, i][k] is the sparse row {position:
    coefficient} of the engine's product x_k g_i of basis element k by
    g_i = T_i, E_i (coefficients 1, u, u - 1 for T_i, 1 for E_i), and the
    involution mirror[k] is the position of the mirror_pair of the pair at
    k: g x is the mirror of mirror(x) g (see :mod:`btkit.algebra`)."""
    basis = [index.basis_elem(k) for k in range(len(index))]
    rows = {(g, i): [{index.index[pair]: c
                      for pair, c in product(x, i).terms.items()}
                     for x in basis]
            for g, product in (("T", AlgebraElement.right_mul_T),
                               ("E", AlgebraElement.right_mul_E))
            for i in range(1, index.n)}
    mirror = [index.index[mirror_pair(I, w)] for I, w in index.pairs]
    return rows, mirror


def _commutators(rows, mirror):
    """The sparse rows {position: coefficient} of x g - mirror(mirror(x) g)
    = x g - g x for every basis element x and generator g = T_i, E_i, from
    :func:`right_products`: they span every ab - ba."""
    for images in rows.values():
        for k, row in enumerate(images):
            row = dict(row)
            for l, c in images[mirror[k]].items():
                d = mirror[l]
                row[d] = row[d] - c if d in row else -c
            yield {d: c for d, c in row.items() if c}


def solve_trace(n, dom=SYMBOLIC):
    """Solve the level-n system exactly (levels solved recursively).  The
    symbolic path keeps generic u; with a PrimeDomain the matrix lives in
    GF(p).  The values are ParamPolys in A, B over the domain in either
    case.  Solved once per n, value of sqrt(u) and process."""
    key = (n, dom.sqrt_u)
    if key in _CACHE:
        return _CACHE[key]
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        pair = (SetPartition.unit(1), Permutation.identity(1))
        tf = TraceFunctional(1, {pair: {(0, 0): dom.one}}, True, True, 1,
                             0, 0)
    else:
        prev = solve_trace(n - 1, dom)
        index = BasisIndex(n, dom)
        coeffs, exists, rank, implied = _solve(index, prev)
        tf = TraceFunctional(n, coeffs, exists,
                             exists and rank == len(index), rank, implied,
                             len(prev.coeffs))
    _CACHE[key] = tf
    return tf


def _solve(index, prev):
    """(coeffs, exists, rank, implied middle rules) of one level, from
    sparse rows {position: coefficient}: the normalization, x T_{n-1},
    x E_{n-1} and (x E_{n-1}) T_{n-1} for each basis element x of the level
    below, and the longer commutators, folded onto the live roots of the
    short ones as sparse system rows, their right-hand sides in the columns
    after.  The middle rows go last, after one reduction counts those
    already implied."""
    n, width, dom = index.n, len(index), index.dom
    monos = {(a, b): k for k, (a, b) in enumerate(
        (a, b) for a in range(n) for b in range(n - a))}
    rows, mirror = right_products(index)
    root, factor, rest = merge_classes(width, _commutators(rows, mirror),
                                       dom.one)
    live = {r: k for k, r in enumerate(sorted(set(root) - {None}))}
    system = LinearSystem(dom, len(live), len(monos))

    def fold(row, value, da=0, db=0):
        """A sparse row on the positions as a system row, its right-hand
        side A^da B^db times the value {(a, b): c} of the level below."""
        out = {}
        for x, c in row.items():
            if root[x] is not None:
                k, c = live[root[x]], c * factor[x]
                out[k] = out[k] + c if k in out else c
        out.update((len(live) + monos[a + da, b + db], c)
                   for (a, b), c in value.items())
        return out

    unit = index.index[SetPartition.unit(n), Permutation.identity(n)]
    system.add([fold({unit: dom.one}, {(0, 0): dom.one})])
    right_t, right_e = rows["T", n - 1], rows["E", n - 1]
    below = [(index.index[embed_pair(I, w, n)], value)
             for (I, w), value in prev.coeffs.items()]
    system.add(fold(right_t[x], value, 1) for x, value in below)
    system.add(fold(right_e[x], value, 0, 1) for x, value in below)
    system.add(fold(row, {}) for row in rest)
    # x E_{n-1} is one basis element xe, with coefficient c
    middle = [fold({d: c * v for xe, c in right_e[x].items()
                    for d, v in right_t[xe].items()}, value, 1)
              for x, value in below]
    implied = sum(1 for row in system.reduce_batch(middle) if not row)
    system.add(middle)
    sol = system.solution()
    coeffs = {} if sol is None else {
        pair: {mono: c * factor[x] for mono, c in
               zip(monos, sol.get(live.get(root[x]), ())) if c}
        for x, pair in enumerate(index.pairs)}
    return coeffs, sol is not None, width - len(live) + system.rank, implied


def is_scalar_multiple(p, g):
    """Whether p = c * g for a coefficient c."""
    if p.is_zero():
        return True
    for key, cg in g.terms.items():
        cp = p.terms.get(key)
        if cp is not None:
            return p == g.scale(cp / cg)
    return False


def factorization_condition(tf3):
    """The obstruction for the level-3 trace to vanish on the quotient
    ideal: rho_3(E_1 E_2 T_{12}) as a polynomial in A, B, its two vanishing
    lines A = -B and A = -B/(1+u), and the scalar-multiple property
    z * g in K g for every basis element z, for the level-3 trace tf3."""
    if not tf3.exists:
        raise ValueError("level-3 trace does not exist")
    g = ideal_generator_element(3)
    value = tf3.evaluate(g)
    A, B, U, ONE = scalars.A, scalars.B, scalars.U, scalars.ONE
    expected = (U + ONE) * A * A + (U + scalars.TWO) * A * B + B * B
    at_minus_B = value.subs(A=-B)
    at_minus_B_over = value.subs(A=-B / (ONE + U))
    at_equal = value.subs(A=B)
    index = BasisIndex(3)
    return {
        "value": str(value),
        "matches_expected": value == expected,
        "vanishes_at_A_eq_minus_B": not at_minus_B,
        "vanishes_at_A_eq_minus_B_over_1_plus_u": not at_minus_B_over,
        "nonzero_at_A_eq_B": bool(at_equal),
        "value_at_A_eq_B": str(at_equal),
        "scalar_multiple_step": all(
            is_scalar_multiple(index.basis_elem(k) * g, g)
            for k in range(len(index))),
    }
