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
row is folded onto the live class roots and feeds one system per level in
blocks, in every domain, with the right-hand sides as coefficient columns,
one per monomial A^a B^b with a + b < n, so the symbolic path eliminates
Scalars in s only and forms the values in A, B once solved.  Existence
(consistency) and uniqueness (full rank) are computed, not assumed.  The
solver also reports how many instances of the middle rule are implied by
the normalization, symmetry and the other two tower rules: the middle rows
are reduced against the system in one batch before any middle row is added.
"""

from . import scalars
from .algebra import BasisIndex
from .domains import SYMBOLIC
from .linalg import LinearSystem, merge_classes
from .partitions import SetPartition, intern_partition
from .permutations import Permutation, intern_perm
from .quotient import BLOCK, generator_actions, ideal_generator_element


class ParamPoly:
    """Polynomial in the trace parameters with coefficients in a specialized
    domain: a trace value when u is specialized (the symbolic values are
    Scalars in s, A and B).  ``times_A`` and ``times_B`` have no caller but
    perfbench/tracer.py, which wraps them by name (ROADMAP item 1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs  # {(degA, degB): domain element}, no zeros

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            c0 = out.get(k)
            c0 = c if c0 is None else c0 + c
            if c0:
                out[k] = c0
            else:
                out.pop(k, None)
        return ParamPoly(out)

    def __sub__(self, other):
        return self + ParamPoly({k: -c for k, c in other.coeffs.items()})

    def __mul__(self, c):
        if not c:
            return ParamPoly({})
        return ParamPoly({k: v * c for k, v in self.coeffs.items()})

    def times_A(self):
        return ParamPoly({(a + 1, b): c for (a, b), c in self.coeffs.items()})

    def times_B(self):
        return ParamPoly({(a, b + 1): c for (a, b), c in self.coeffs.items()})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (a, b) in sorted(self.coeffs):
            c = self.coeffs[(a, b)]
            mono = "".join((["A" if a == 1 else "A^%d" % a] if a else [])
                           + (["B" if b == 1 else "B^%d" % b] if b else []))
            parts.append(("(%s)" % c) + ("*" + mono if mono else ""))
        return " + ".join(parts)


def embed_pair(I, w, n):
    """Embedding of a level-(n-1) basis pair: the partition gains the
    singleton {n}, the permutation fixes n."""
    return (intern_partition(I.rgs + (max(I.rgs) + 1,)),
            intern_perm(w.images + (n,)))


class TraceFunctional:
    """Solved level-n trace: the monomial coefficients of each value, the
    value table over the basis, and the solver's existence/uniqueness
    verdicts."""

    def __init__(self, n, dom, coeffs, exists, unique, rank,
                 implied_middle_rules, middle_rules):
        self.n = n
        self.dom = dom
        self.coeffs = coeffs   # {(I, w): {(degA, degB): domain element}}
        self.table = {pair: _value(dom, c) for pair, c in coeffs.items()}
        self.exists = exists
        self.unique = unique
        self.rank = rank
        self.implied_middle_rules = implied_middle_rules
        self.middle_rules = middle_rules

    def evaluate(self, elem):
        """Linear extension of the table to an arbitrary element."""
        if not self.exists:
            raise ValueError("trace functional does not exist at this level")
        total = _value(self.dom, {})
        for key, c in elem.terms.items():
            total = total + self.table[key] * c
        return total

    def table_json(self):
        """Basis -> polynomial-string map, deterministic order."""
        out = {}
        for (I, w) in sorted(self.table, key=lambda k: (k[0].rgs, k[1].images)):
            key = "%s %s" % (",".join(map(str, I.rgs)),
                             ",".join(map(str, w.images)))
            out[key] = str(self.table[(I, w)])
        return out


def _value(dom, coeffs):
    """The trace value with monomial coefficients {(a, b): c}: the Scalar
    sum of c A^a B^b on the symbolic path, else a ParamPoly."""
    if dom is SYMBOLIC:
        return sum((c * scalars.A ** a * scalars.B ** b
                    for (a, b), c in coeffs.items()), scalars.ZERO)
    return ParamPoly(coeffs)


_CACHE = {}


def _commutators(index, actions):
    """The sparse rows {position: coefficient} of x g - g x for every basis
    element x and generator g = T_i, E_i, from the raw commutator entries:
    they span the rows ab - ba of all pairs (see the module docstring)."""
    for name in ("CT", "CE"):
        for i in range(1, index.n):
            rows = [{} for _ in range(len(index))]
            for s, d, c in zip(*actions[name, i]):
                rows[s][d] = rows[s][d] + c if d in rows[s] else c
            yield from ({d: c for d, c in row.items() if c} for row in rows)


def solve_trace(n, dom=SYMBOLIC):
    """Solve the level-n system exactly (levels solved recursively).  The
    symbolic path keeps generic u and gives values as Scalars in A, B; with
    a PrimeDomain the matrix lives in GF(p) and the values are ParamPoly.
    Solved once per n, value of sqrt(u) and process, as the action tables
    of :func:`btkit.quotient.generator_actions` are."""
    key = (n, dom.sqrt_u)
    if key in _CACHE:
        return _CACHE[key]
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        pair = (SetPartition.unit(1), Permutation.identity(1))
        tf = TraceFunctional(1, dom, {pair: {(0, 0): dom.one}}, True, True,
                             1, 0, 0)
    else:
        prev = solve_trace(n - 1, dom)
        index = BasisIndex(n, dom)
        coeffs, exists, rank, implied = _solve(index, prev)
        tf = TraceFunctional(n, dom, coeffs, exists,
                             exists and rank == len(index), rank, implied,
                             len(prev.coeffs))
    _CACHE[key] = tf
    return tf


def _solve(index, prev):
    """(coeffs, exists, rank, implied middle rules) of one level: the
    normalization, tower and longer commutator rows folded onto the live
    roots of the short commutator rows, in blocks, then the middle rows
    after one reduction of them counts those already implied."""
    n, width, dom = index.n, len(index), index.dom
    monos = [(a, b) for a in range(n) for b in range(n - a)]
    full = dom.echelon(width + len(monos))
    actions = generator_actions(index, full)
    # the right-hand-side columns never meet a commutator: each its own root
    root, factor, rest = merge_classes(
        full.width, _commutators(index, actions), dom.one)
    keep = [x for x in range(full.width) if root[x] is not None]
    live = {r: k for k, r in enumerate(x for x in keep if root[x] == x)}
    system = LinearSystem(dom, len(live) - len(monos), len(monos))
    table = system.ech.pack(keep, [live[root[x]] for x in keep],
                            [factor[x] for x in keep])
    right_t, right_e = actions["RT", n - 1], actions["RE", n - 1]

    def fold(rows, block=(), da=0, db=0):
        """The rows folded onto the live roots, each with the right-hand
        side A^da B^db times the value of the level below in block."""
        for row, (_, coeffs) in zip(rows, block):
            vec = [dom.zero] * len(monos)
            for (a, b), c in coeffs.items():
                vec[monos.index((a + da, b + db))] = c
            row[width:] = full.from_coeffs(vec)
        return system.ech.scatter_batch(table, rows)

    unit = index.index[SetPartition.unit(n), Permutation.identity(n)]
    system.add(fold(full.from_entries(1, [(0, unit, dom.one)]),
                    [(None, {(0, 0): dom.one})]))
    items, middle = list(prev.coeffs.items()), []
    for lo in range(0, len(items), BLOCK):
        block = items[lo:lo + BLOCK]
        x = full.from_entries(len(block), [
            (k, index.index[embed_pair(I, w, n)], dom.one)
            for k, ((I, w), _) in enumerate(block)])
        xe = full.scatter_batch(right_e, x)
        middle.extend(fold(full.scatter_batch(right_t, xe), block, 1, 0))
        system.add(fold(full.scatter_batch(right_t, x), block, 1, 0))
        system.add(fold(xe, block, 0, 1))
    for lo in range(0, len(rest), BLOCK):
        block = rest[lo:lo + BLOCK]
        system.add(fold(full.from_entries(len(block), [
            (i, d, c) for i, row in enumerate(block) for d, c in row.items()])))
    implied = sum(1 for row in system.reduce(middle) if not any(row))
    system.add(middle)
    sol = system.solution()
    coeffs = {} if sol is None else {
        pair: {mono: c * factor[x] for mono, c in
               zip(monos, sol.get(live.get(root[x]), ())) if c}
        for x, pair in enumerate(index.pairs)}
    return (coeffs, sol is not None, full.width - len(live) + system.rank,
            implied)


def is_scalar_multiple(p, g):
    """Whether p = c * g for a coefficient c; returns (ok, c)."""
    if p.is_zero():
        return True, p.dom.zero
    ratio = None
    for key, cg in g.terms.items():
        cp = p.terms.get(key)
        if cp is None:
            continue
        ratio = cp / cg
        break
    if ratio is None:
        return False, None
    return (p == g.scale(ratio)), ratio


def factorization_condition(tf3=None):
    """The obstruction for the level-3 trace to vanish on the quotient
    ideal: rho_3(E_1 E_2 T_{12}) as a polynomial in A, B, its two vanishing
    lines A = -B and A = -B/(1+u), and the scalar-multiple property
    z * g in K g for every basis element z."""
    if tf3 is None:
        tf3 = solve_trace(3)
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
    multiples = []
    all_multiples = True
    for k in range(len(index)):
        z = index.basis_elem(k)
        ok, ratio = is_scalar_multiple(z * g, g)
        all_multiples = all_multiples and ok
        multiples.append(str(ratio) if ok else None)
    return {
        "value": str(value),
        "matches_expected": value == expected,
        "vanishes_at_A_eq_minus_B": not at_minus_B,
        "vanishes_at_A_eq_minus_B_over_1_plus_u": not at_minus_B_over,
        "nonzero_at_A_eq_B": bool(at_equal),
        "value_at_A_eq_B": str(at_equal),
        "scalar_multiple_step": all_multiples,
        "scalar_multiple_ratios": multiples,
    }
