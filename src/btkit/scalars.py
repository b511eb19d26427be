"""Exact arithmetic in the coefficient ring Q(s)[A, B], where s stands for
the square root of the deformation parameter u (so u = s^2 everywhere).

Only s appears in the multiplication engine.  A and B are trace parameters,
which the tower rules bring in as monomials, so every trace value is a
polynomial in A and B over Q(s).  Elements are fractions of an integer
polynomial in (s, A, B) over a denominator in Z[s]; dividing by anything
that holds A or B raises ValueError.  The form is canonical: numerator and
denominator coprime (integer content and gcd in s removed) and the
denominator's leading coefficient positive.  Two scalars are equal iff their
stored forms are identical, so dict/set membership is exact equality.
"""

from fractions import Fraction
from math import gcd as _igcd

# variable order for monomial tuples and graded-lex comparisons
VARS = ("s", "A", "B")
_NVARS = 3
_MONO_ONE = (0, 0, 0)


# ---------------------------------------------------------------------------
# raw polynomials: dict {(e_s, e_A, e_B): int}, no zero coefficients
# ---------------------------------------------------------------------------

def _p_add(f, g):
    h = dict(f)
    for m, c in g.items():
        c2 = h.get(m, 0) + c
        if c2:
            h[m] = c2
        else:
            h.pop(m, None)
    return h


def _p_neg(f):
    return {m: -c for m, c in f.items()}


def _p_mul(f, g):
    if not f or not g:
        return {}
    if len(g) > len(f):
        f, g = g, f
    h = {}
    for mg, cg in g.items():
        gs, ga, gb = mg
        for mf, cf in f.items():
            m = (mf[0] + gs, mf[1] + ga, mf[2] + gb)
            c = h.get(m, 0) + cf * cg
            if c:
                h[m] = c
            else:
                del h[m]
    return h


def _grlex_key(m):
    return (m[0] + m[1] + m[2], m)


def _p_lead(f):
    """Leading monomial under graded-lex order."""
    return max(f, key=_grlex_key)


def _p_is_const(f):
    return not f or (len(f) == 1 and _MONO_ONE in f)


def _p_div_exact(f, g):
    """Exact division f / g; raises ArithmeticError if not divisible."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if _p_is_const(g):
        k = g[_MONO_ONE]
        if k == 1:
            return dict(f)
        h = {}
        for m, c in f.items():
            q, r = divmod(c, k)
            if r:
                raise ArithmeticError("inexact polynomial division")
            h[m] = q
        return h
    rem = dict(f)
    quot = {}
    lg = _p_lead(g)
    cg = g[lg]
    while rem:
        lr = _p_lead(rem)
        me = (lr[0] - lg[0], lr[1] - lg[1], lr[2] - lg[2])
        if min(me) < 0:
            raise ArithmeticError("inexact polynomial division")
        q, r = divmod(rem[lr], cg)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quot[me] = q
        for m, c in g.items():
            m2 = (m[0] + me[0], m[1] + me[1], m[2] + me[2])
            c2 = rem.get(m2, 0) - c * q
            if c2:
                rem[m2] = c2
            else:
                rem.pop(m2, None)
    return quot


def _s_gcd(f, g):
    """Dense univariate gcd in s over Z, primitive PRS."""
    a = [0] * (max(m[0] for m in f) + 1)
    for m, c in f.items():
        a[m[0]] = c
    b = [0] * (max(m[0] for m in g) + 1)
    for m, c in g.items():
        b[m[0]] = c

    def content(p):
        c = 0
        for x in p:
            c = _igcd(c, x)
            if c == 1:
                return 1
        return c

    def prim(p):
        c = content(p)
        return p if c == 1 else [x // c for x in p]

    ca, cb = content(a), content(b)
    d = _igcd(ca, cb)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    if len(a) < len(b):
        a, b = b, a
    while True:
        # pseudo-remainder of a by b
        while a and a[-1] == 0:
            a.pop()
        if not b or (len(b) == 1 and b[0] == 0):
            break
        if len(a) < len(b):
            a, b = b, a
            continue
        lb = b[-1]
        r = list(a)
        while len(r) >= len(b) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            lr = r[-1]
            shift = len(r) - len(b)
            r = [x * lb for x in r]
            for k in range(len(b)):
                r[k + shift] -= lr * b[k]
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            a = b
            break
        a, b = b, prim(r)
    a = prim(a)
    if a[-1] < 0:
        a = [-x for x in a]
    return {(e, 0, 0): c * d for e, c in enumerate(a) if c}


def _p_has_params(f):
    return any(m[1] or m[2] for m in f)


def _p_gcd(f, g):
    """Polynomial gcd over Z, positive leading coefficient.  At least one
    argument must lie in Z[s], as every denominator does; then the gcd is
    the gcd in s of that argument with each A,B-coefficient of the other.
    When one argument is a single term c*m, every divisor of it is a term
    too, so the gcd is igcd(content, |c|) times the componentwise least
    exponents of both arguments."""
    if not f:
        return _p_abs(g)
    if not g:
        return _p_abs(f)
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:
        ((es, ea, eb), c), = g.items()
        for (ms, ma, mb), k in f.items():
            c = _igcd(c, k)
            es, ea, eb = min(es, ms), min(ea, ma), min(eb, mb)
        return {(es, ea, eb): c}
    if _p_has_params(f):
        f, g = g, f
        if _p_has_params(f):
            raise ValueError("gcd of two polynomials in A or B")
    coeffs = {}
    for m, c in g.items():
        coeffs.setdefault(m[1:], {})[m] = c
    for part in coeffs.values():
        f = _s_gcd(f, part)
        if f == _P_ONE:
            break
    return f


def _p_abs(f):
    if f and f[_p_lead(f)] < 0:
        return _p_neg(f)
    return f


_P_ONE = {_MONO_ONE: 1}


def _p_render(f):
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=_grlex_key):
        c = f[m]
        es, ea, eb = m
        factors = []
        if es % 2:
            factors.append("s")
        if es >= 2:
            k = es // 2
            factors.append("u" if k == 1 else "u^%d" % k)
        if ea:
            factors.append("A" if ea == 1 else "A^%d" % ea)
        if eb:
            factors.append("B" if eb == 1 else "B^%d" % eb)
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Scalar: canonical fraction of polynomials
# ---------------------------------------------------------------------------

class Scalar:
    """An element of Q(s)[A, B] in canonical reduced form, with its
    denominator in Z[s].

    Supports +, -, *, /, unary -, ==, hash, bool (nonzero test).  Exact
    evaluation at rational points via :meth:`evaluate`, symbolic variable
    substitution via :meth:`subs`.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = _P_ONE
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # construction -----------------------------------------------------

    @staticmethod
    def from_int(k):
        if k == 0:
            return ZERO
        return Scalar({_MONO_ONE: k}, _P_ONE, _canonical=True)

    @staticmethod
    def variable(name):
        i = VARS.index(name)
        m = tuple(1 if j == i else 0 for j in range(_NVARS))
        return Scalar({m: 1}, _P_ONE, _canonical=True)

    # arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b is _P_ONE and d is _P_ONE or b == d == _P_ONE:
            return Scalar(_p_add(a, c), _P_ONE)
        if b == d:
            return Scalar(_p_add(a, c), b)
        g0 = _p_gcd(b, d)
        if _p_is_const(g0) and g0[_MONO_ONE] == 1:
            return Scalar(_p_add(_p_mul(a, d), _p_mul(c, b)), _p_mul(b, d),
                          _canonical=True)
        b1 = _p_div_exact(b, g0)
        d1 = _p_div_exact(d, g0)
        num = _p_add(_p_mul(a, d1), _p_mul(c, b1))
        h = _p_gcd(num, g0)
        if not (_p_is_const(h) and h[_MONO_ONE] == 1):
            num = _p_div_exact(num, h)
            g0 = _p_div_exact(g0, h)
        return Scalar(num, _p_mul(g0, _p_mul(b1, d1)), _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Scalar(_p_neg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return ZERO
        if a == _P_ONE and b == _P_ONE:
            return other
        if c == _P_ONE and d == _P_ONE:
            return self
        if b == _P_ONE and d == _P_ONE:
            return Scalar(_p_mul(a, c), _P_ONE, _canonical=True)
        g1 = _p_gcd(a, d)
        g2 = _p_gcd(c, b)
        if not (_p_is_const(g1) and g1[_MONO_ONE] == 1):
            a = _p_div_exact(a, g1)
            d = _p_div_exact(d, g1)
        if not (_p_is_const(g2) and g2[_MONO_ONE] == 1):
            c = _p_div_exact(c, g2)
            b = _p_div_exact(b, g2)
        return Scalar(_p_mul(a, c), _p_mul(b, d), _canonical=True)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.invert()

    def invert(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero scalar")
        num, den = self.den, self.num
        _check_den(den)
        if den[_p_lead(den)] < 0:
            num, den = _p_neg(num), _p_neg(den)
        return Scalar(num, den, _canonical=True)

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    # predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    # evaluation ----------------------------------------------------------

    def evaluate(self, s=None, A=None, B=None):
        """Exact evaluation at rational points; raises ZeroDivisionError if
        the denominator vanishes and ValueError on a missing assignment."""
        point = (s, A, B)
        num = _p_eval(self.num, point)
        den = _p_eval(self.den, point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at point")
        return num / den

    def subs(self, **assignments):
        """Substitute scalars for variables, e.g. ``f.subs(A=-B_scalar)``."""
        vals = [None, None, None]
        for name, val in assignments.items():
            vals[VARS.index(name)] = val
        return _p_subs(self.num, vals) / _p_subs(self.den, vals)

    # rendering -----------------------------------------------------------

    def __str__(self):
        ns = _p_render(self.num)
        if self.den == _P_ONE:
            return ns
        ds = _p_render(self.den)
        if len(self.num) > 1 or ns.startswith("-"):
            ns = "(%s)" % ns
        if len(self.den) > 1 or "*" in ds:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "Scalar(%s)" % self


def _check_den(den):
    if _p_has_params(den):
        raise ValueError("denominator holds A or B: %s" % _p_render(den))


def _canonicalize(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if den == _P_ONE:
        return num, _P_ONE
    _check_den(den)
    if not num:
        return {}, _P_ONE
    g = _p_gcd(num, den)
    if not (_p_is_const(g) and g[_MONO_ONE] == 1):
        num = _p_div_exact(num, g)
        den = _p_div_exact(den, g)
    if den[_p_lead(den)] < 0:
        num, den = _p_neg(num), _p_neg(den)
    if den == _P_ONE:
        den = _P_ONE
    return num, den


def _p_eval(f, point):
    total = Fraction(0)
    for m, c in f.items():
        term = Fraction(c)
        for i in range(_NVARS):
            if m[i]:
                if point[i] is None:
                    raise ValueError("no value for variable %s" % VARS[i])
                term *= Fraction(point[i]) ** m[i]
        total += term
    return total


def _p_subs(f, vals):
    out = ZERO
    for m, c in f.items():
        term = Scalar.from_int(c)
        for i in range(_NVARS):
            if m[i]:
                base = vals[i] if vals[i] is not None else _VAR_SCALARS[i]
                term = term * base ** m[i]
        out = out + term
    return out


# ---------------------------------------------------------------------------
# parsing (inverse of __str__; also accepts u for s^2 and ** for ^)
# ---------------------------------------------------------------------------

def parse_scalar(text):
    """Parse the canonical text form back into a Scalar (lossless), read by
    Python's expression grammar with ``^`` as ``**``: only +, -, *, /, unary
    + and -, powers to a (negated) integer literal, integer literals in
    decimal digits and the names s, u, A, B.  Raises ValueError on any other
    text, a divisor that holds A or B included, and on text nested too
    deeply to read (a sum of some thousand terms)."""
    import ast
    import operator

    src = text.strip().replace("^", "**")
    binary = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv}
    names = {"s": SQRT_U, "u": U, "A": A, "B": B}

    def digits(node):
        # an integer literal written in decimal digits only
        if type(node) is ast.Constant and (
                ast.get_source_segment(src, node).isdigit()):
            return node.value
        raise ValueError("bad scalar text %r" % text)

    def walk(node):
        op = type(getattr(node, "op", None))
        if op is ast.Pow:
            e = node.right
            if type(getattr(e, "op", None)) is ast.USub:
                return walk(node.left) ** -digits(e.operand)
            return walk(node.left) ** digits(e)
        if op in binary:
            return binary[op](walk(node.left), walk(node.right))
        if op is ast.USub:
            return -walk(node.operand)
        if op is ast.UAdd:
            return walk(node.operand)
        name = names.get(ast.get_source_segment(src, node))
        return name if name is not None else Scalar.from_int(digits(node))

    try:
        return walk(ast.parse(src, mode="eval").body)
    except SyntaxError:
        raise ValueError("bad scalar text %r" % text) from None
    except RecursionError:
        raise ValueError("scalar text nested too deeply to read (%d "
                         "characters)" % len(text)) from None


# ---------------------------------------------------------------------------
# named constants
# ---------------------------------------------------------------------------

ZERO = Scalar({}, _P_ONE, _canonical=True)
ONE = Scalar({_MONO_ONE: 1}, _P_ONE, _canonical=True)
TWO = Scalar.from_int(2)
SQRT_U = Scalar.variable("s")
U = SQRT_U * SQRT_U
A = Scalar.variable("A")
B = Scalar.variable("B")
_VAR_SCALARS = (SQRT_U, A, B)

U_MINUS_1 = U - ONE
