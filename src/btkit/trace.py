"""Markov-style trace functionals on the tower of braids-and-ties algebras.

The level-n functional rho_n is the solution of an exact linear system over
the basis {E_I T_w}: normalization rho(1) = 1, trace symmetry
rho(ab) = rho(ba), and the tower rules relating level n to level n-1
through the last generators (Aicardi and Juyumaya, "Markov trace on the
algebra of braids and ties", Moscow Math. J., 2016),

    rho_n(x T_{n-1})         = A rho_{n-1}(x)
    rho_n(x E_{n-1} T_{n-1}) = A rho_{n-1}(x)
    rho_n(x E_{n-1})         = B rho_{n-1}(x)

with parameters A, B, solved on the shape blocks E_n = sum_mu
Mat_{k_mu}(A_mu) of :mod:`btkit.blocks`.  With a_KL for a in A_mu at the
piece (K, L) and e_KL the unit there, K != L gives a_KL = e_KL a_LL -
a_LL e_KL and rho(a_KK) = rho(a_KL e_LK) = rho(e_LK a_KL) = rho(a_LL).  So
a symmetric rho vanishes on the off-diagonal pieces and is sum_K
t_mu(Phi(x)_{K,K}) for one trace t_mu of each A_mu: the unknowns are the
values of t_mu on the columns of A_mu, 66 at n = 4 and 308 at n = 5
against dim E_n = 360 and 6240.  Every other row, and every value read
out, is one basis element E_J T_w: Phi(E_J T_w) is the piece (K, w^-1 K),
row block K of Phi(T_w), for each K >= J, and the row sums the diagonal
ones, wK = K.  For x = E_J T_v at level n - 1 (v fixes n), the tower
products are basis elements too: x T_{n-1} = E_J T_{v s_{n-1}} with no
descent at n - 1, and x E_{n-1} = E_{J'} T_v, J' tying v(n-1) to n.
Symmetry in A_mu needs only the commutators x s - s x of its columns x
with its generators s: since [ab, c] = [a, bc] + [b, ca], these span
every [a, b].  The system has one right-hand-side column per monomial
A^a B^b with a + b < n, so the elimination stays in the domain's field
(Q(s) on the symbolic path) and each solved value is a
:class:`~btkit.scalars.ParamPoly` in A and B over that field.  Its rank plus dim E_n less the unknowns, the conditions that
the off-diagonal pieces vanish and the diagonal pieces of a shape agree,
is the rank on the basis.  Existence (consistency) and uniqueness (full
rank) are computed, not assumed.  The solver also reports how many
instances of the middle rule are implied by the normalization, symmetry
and the other two tower rules: the middle rows are reduced against the
system in one batch before any middle row is added.
"""

from itertools import accumulate

from . import scalars
from .algebra import BasisIndex, basis_element, ideal_generator_element
from .blocks import structure
from .domains import SYMBOLIC
from .linalg import LinearSystem
from .partitions import SetPartition
from .permutations import Permutation
from .scalars import ParamPoly


def embed_pair(I, w, n):
    """Embedding of a level-(n-1) basis pair: the partition gains the
    singleton {n}, the permutation fixes n."""
    return (SetPartition(I.rgs + (max(I.rgs) + 1,)),
            Permutation(w.images + (n,)))


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


def _commutators(tables, mirror):
    """The sparse rows {position: coefficient} of x g - mirror(mirror(x) g)
    = x g - g x for every basis element x and generator g, from the right
    tables of the generators, table[k] the row of x_k g, and the mirror as
    a permutation of the positions: they span every ab - ba."""
    for images in tables:
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
        bl = structure(n, dom)
        coeffs, exists, rank, implied = _solve(bl, prev)
        tf = TraceFunctional(n, coeffs, exists, exists and rank == bl.dim,
                             rank, implied, len(prev.coeffs))
    _CACHE[key] = tf
    return tf


def _solve(bl, prev):
    """(coeffs, exists, rank, implied middle rules) of one level, on the
    columns of the A_mu, each shape's from ``base``.  The rows are the
    commutators of each A_mu, then rows of single basis elements E_J T_w,
    each its diagonal pieces with a right-hand side in the columns after:
    the normalization at (unit, identity), and for each basis element x of
    the level below the engine's one-term products x T_{n-1}, x E_{n-1}
    and x E_{n-1} T_{n-1}.  The middle rows go last, after one reduction
    counts those implied.  The values are read off the same rows."""
    n, dom = bl.n, bl.dom
    monos = {(a, b): k for k, (a, b) in enumerate(
        (a, b) for a in range(n) for b in range(n - a))}
    *base, width = accumulate((len(shape.W) for shape in bl.shapes),
                              initial=0)
    system = LinearSystem(dom, width, len(monos))

    def row(J, w, value, da=0, db=0):
        """The diagonal pieces of Phi(E_J T_w), the pieces (K, w^-1 K) for
        K >= J with wK = K, summed onto the columns of their A_mu, as a
        system row whose right-hand side is A^da B^db times the value
        {(a, b): c} of the level below."""
        out = {}
        for K in bl.coarser[J]:
            off, piece = bl.image(K, w)
            if bl.piece_at[off][1] == K:
                at = base[bl.shape_at[off]]
                for j, c in piece.items():
                    out[at + j] = out[at + j] + c if at + j in out else c
        out.update((width + monos[a + da, b + db], c)
                   for (a, b), c in value.items())
        return out

    for at, shape in zip(base, bl.shapes):
        # the mirror permutes the columns of A_mu
        mirror = [min(r) for r in shape.mirror]
        system.add({at + j: c for j, c in r.items()}
                   for r in _commutators(shape.right, mirror))
    system.add([row(SetPartition.unit(n), Permutation.identity(n),
                    {(0, 0): dom.one})])
    below = []
    for (I, w), value in prev.coeffs.items():
        x = basis_element(*embed_pair(I, w, n), dom)
        xe = x.right_mul_E(n - 1)
        # each product is one basis element: v fixes n, so no descent
        [t], [e], [m] = (x.right_mul_T(n - 1).terms, xe.terms,
                         xe.right_mul_T(n - 1).terms)
        below.append((t, e, m, value))
    system.add(row(*t, value, 1) for t, _, _, value in below)
    system.add(row(*e, value, 0, 1) for _, e, _, value in below)
    middle = [row(*m, value, 1) for _, _, m, value in below]
    implied = sum(1 for r in system.reduce_batch(middle) if not r)
    system.add(middle)
    sol = system.solution()

    def read(J, w):
        """{(a, b): c} of the solution on E_J T_w, the free columns zero."""
        out = {}
        for k, c in row(J, w, {}).items():
            for m, v in zip(monos, sol.get(k, ())):
                out[m] = out[m] + c * v if m in out else c * v
        return {m: out[m] for m in monos if out.get(m)}

    coeffs = {} if sol is None else {
        pair: read(*pair) for pair in BasisIndex(n, dom).pairs}
    return coeffs, sol is not None, bl.dim - width + system.rank, implied


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
