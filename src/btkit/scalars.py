"""Exact arithmetic in the field Q(s), where s stands for the square root of
the deformation parameter u (so u = s^2 everywhere), and the trace values:
polynomials in the trace parameters A and B over a field.

A :class:`Scalar` is a fraction of two polynomials in Z[s], each stored as a
tuple of integer coefficients, lowest degree first, with no trailing zero.
The form is canonical: numerator and denominator coprime in Z[s] (integer
content included) and the denominator's leading coefficient positive.  Two
scalars are equal iff their stored forms are identical, so dict/set
membership is exact equality.  Only s appears in the multiplication engine.

A :class:`ParamPoly` is a polynomial {(degA, degB): coefficient} in A and B
with coefficients in any domain of :mod:`btkit.domains`: the one type of
trace values.  The tower rules bring A and B in as monomials, so a trace
value is never divided by them, and a ParamPoly has no inverse: dividing by
one that holds A or B raises ValueError.  ``A`` and ``B`` are ParamPolys
over Q(s), and a constant ParamPoly equals, hashes and prints as its Scalar.
"""

from fractions import Fraction
from math import gcd as _igcd

_ONE = (1,)


# ---------------------------------------------------------------------------
# polynomials in Z[s]: tuples of ints, lowest degree first, no trailing zero
# ---------------------------------------------------------------------------

def _p_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    h = list(f)
    for k, c in enumerate(g):
        h[k] += c
    while h and not h[-1]:
        h.pop()
    return tuple(h)


def _p_neg(f):
    return tuple(-c for c in f)


def _p_mul(f, g):
    if not f or not g:
        return ()
    if len(g) > len(f):
        f, g = g, f
    if len(g) == 1:
        c = g[0]
        return f if c == 1 else tuple(c * x for x in f)
    h = [0] * (len(f) + len(g) - 1)
    for j, b in enumerate(g):
        if b:
            for i, a in enumerate(f, j):
                h[i] += a * b
    return tuple(h)


def _p_div(f, g):
    """The quotient f / g in Z[s]; g must divide f."""
    if len(g) == 1:
        c = g[0]
        return f if c == 1 else tuple(x // c for x in f)
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dg] // lg
        if c:
            q[i] = c
            for k in range(dg):
                r[i + k] -= c * g[k]
    return tuple(q)


def _content(f):
    c = 0
    for x in f:
        c = _igcd(c, x)
        if c == 1:
            break
    return c


def _p_gcd(f, g):
    """gcd in Z[s] of two nonzero polynomials, leading coefficient positive:
    the common power of s, the gcd of the contents, and the primitive PRS of
    what is left once both powers of s are stripped."""
    i = j = 0
    while not f[i]:
        i += 1
    while not g[j]:
        j += 1
    f, g = f[i:], g[j:]
    cf, cg = _content(f), _content(g)
    d = _igcd(cf, cg)
    if len(f) == 1 or len(g) == 1:
        return (0,) * min(i, j) + (d,)
    h = _prs([x // cf for x in f], [x // cg for x in g])
    return (0,) * min(i, j) + tuple(d * x for x in h)


def _prs(a, b):
    """gcd of two primitive polynomials (lists) of positive degree, as a
    primitive tuple with a positive leading coefficient: the primitive
    polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while True:
        db, lb = len(b), b[-1]
        r = list(a)
        while len(r) >= db:
            lr = r[-1]
            q, m = divmod(lr, lb)
            if m:
                r = [x * lb for x in r]
                q = lr
            shift = len(r) - db
            for k in range(db - 1):
                r[shift + k] -= q * b[k]
            r.pop()
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        if len(r) == 1:
            return _ONE
        c = _content(r)
        a, b = b, [x // c for x in r]
    return tuple(b) if b[-1] > 0 else _p_neg(b)


def _p_eval(f, s):
    v = Fraction(0)
    for c in reversed(f):
        v = v * s + c
    return v


def _render(terms):
    """Text of the sum of c s^es A^ea B^eb over ((es, ea, eb), c), in
    graded-lex order over (s, A, B)."""
    parts = []
    for (es, ea, eb), c in sorted(terms, key=lambda t: (sum(t[0]), t[0])):
        factors = (["s"] if es % 2 else []) + [
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in (("u", es // 2), ("A", ea), ("B", eb)) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append((" - " if c < 0 else " + ") + "*".join(factors))
    text = "".join(parts) or " + 0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _terms(f, a=0, b=0):
    return [((e, a, b), c) for e, c in enumerate(f) if c]


def _fraction_text(terms, den):
    """Text of (sum of terms) / den, parenthesized where needed."""
    ns = _render(terms)
    if den == _ONE:
        return ns
    ds = _render(_terms(den))
    if len(terms) > 1 or ns.startswith("-"):
        ns = "(%s)" % ns
    if sum(1 for c in den if c) > 1 or "*" in ds:
        ds = "(%s)" % ds
    return "%s/%s" % (ns, ds)


def _pow(x, k):
    """x ** k for an integer k; k < 0 raises for a ParamPoly in A or B."""
    if k < 0:
        return ONE / _pow(x, -k)
    out = ONE
    for _ in range(k):
        out = out * x
    return out


# ---------------------------------------------------------------------------
# Scalar: canonical fraction of polynomials in s
# ---------------------------------------------------------------------------

class Scalar:
    """An element of Q(s) in canonical reduced form.

    Supports +, -, *, /, unary -, ==, hash, bool (nonzero test), and exact
    evaluation at rational points via :meth:`evaluate`.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=_ONE, _canonical=False):
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
        return Scalar((k,), _ONE, _canonical=True)

    # arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            if b == _ONE:
                return Scalar(_p_add(a, c), _ONE, _canonical=True)
            return Scalar(_p_add(a, c), b)
        g0 = _p_gcd(b, d)
        if g0 == _ONE:
            return Scalar(_p_add(_p_mul(a, d), _p_mul(c, b)), _p_mul(b, d),
                          _canonical=True)
        b1 = _p_div(b, g0)
        d1 = _p_div(d, g0)
        num = _p_add(_p_mul(a, d1), _p_mul(c, b1))
        h = _p_gcd(num, g0)
        if h != _ONE:
            num = _p_div(num, h)
            g0 = _p_div(g0, h)
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
        if a == _ONE and b == _ONE:
            return other
        if c == _ONE and d == _ONE:
            return self
        if d != _ONE:
            g1 = _p_gcd(a, d)
            if g1 != _ONE:
                a = _p_div(a, g1)
                d = _p_div(d, g1)
        if b != _ONE:
            g2 = _p_gcd(c, b)
            if g2 != _ONE:
                c = _p_div(c, g2)
                b = _p_div(b, g2)
        return Scalar(_p_mul(a, c), _p_mul(b, d), _canonical=True)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.invert()

    def invert(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero scalar")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _p_neg(num), _p_neg(den)
        return Scalar(num, den, _canonical=True)

    __pow__ = _pow

    # predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # evaluation ----------------------------------------------------------

    def evaluate(self, s=None, A=None, B=None):
        """Exact value at the rational s; A and B are accepted and ignored,
        as a Scalar holds neither.  Raises ZeroDivisionError if the
        denominator vanishes and ValueError if s is needed but not given."""
        if s is None and (len(self.num) > 1 or len(self.den) > 1):
            raise ValueError("no value for variable s")
        s = Fraction(s or 0)
        den = _p_eval(self.den, s)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at point")
        return _p_eval(self.num, s) / den

    # rendering -----------------------------------------------------------

    def __str__(self):
        return _fraction_text(_terms(self.num), self.den)

    def __repr__(self):
        return "Scalar(%s)" % self


def _canonicalize(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), _ONE
    if den != _ONE:
        g = _p_gcd(num, den)
        if g != _ONE:
            num = _p_div(num, g)
            den = _p_div(den, g)
        if den[-1] < 0:
            num, den = _p_neg(num), _p_neg(den)
    return num, den


# ---------------------------------------------------------------------------
# ParamPoly: a polynomial in A and B over a field, the trace values
# ---------------------------------------------------------------------------

def _coeffs(x):
    """The monomial coefficients of a ParamPoly or a field element."""
    if isinstance(x, ParamPoly):
        return x.coeffs
    return {(0, 0): x} if x else {}


class ParamPoly:
    """A polynomial in the trace parameters A and B, {(degA, degB):
    coefficient} with no zero coefficient, over any domain's elements.  A
    field element on either side of +, - or * is a constant; division is by
    a constant only.  ``times_A`` and ``times_B`` have no caller but
    perfbench/tracer.py, which wraps them by name (ROADMAP item 1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in _coeffs(other).items():
            c0 = out.get(k)
            c0 = c if c0 is None else c0 + c
            if c0:
                out[k] = c0
            else:
                out.pop(k, None)
        return ParamPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return ParamPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, ParamPoly):
            if not other:
                return ParamPoly({})
            return ParamPoly({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for (a, b), c in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                k = (a + a2, b + b2)
                out[k] = out[k] + c * c2 if k in out else c * c2
        return ParamPoly({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (ONE / other)

    def __rtruediv__(self, other):
        if self.coeffs.keys() - {(0, 0)}:
            raise ValueError("division by a polynomial in A or B")
        return other / self.coeffs.get((0, 0), ZERO)

    __pow__ = _pow

    def times_A(self):
        return ParamPoly({(a + 1, b): c for (a, b), c in self.coeffs.items()})

    def times_B(self):
        return ParamPoly({(a, b + 1): c for (a, b), c in self.coeffs.items()})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (ParamPoly, Scalar)):
            return self.coeffs == _coeffs(other)
        return NotImplemented

    def __hash__(self):
        if self.coeffs.keys() <= {(0, 0)}:
            return hash(self.coeffs.get((0, 0), ZERO))
        return hash(frozenset(self.coeffs.items()))

    def subs(self, A=None, B=None):
        """The value with Scalars or ParamPolys put for A and B, each left as
        it is when not given, e.g. ``f.subs(A=-B)``."""
        a = ParamPoly({(1, 0): ONE}) if A is None else A
        b = ParamPoly({(0, 1): ONE}) if B is None else B
        out = ZERO
        for (i, j), c in self.coeffs.items():
            out = out + c * a ** i * b ** j
        return out

    def evaluate(self, s=None, A=None, B=None):
        """Exact value at rational s, A and B (Q(s) coefficients); raises
        ValueError on a missing value that a term needs."""
        total = Fraction(0)
        for (a, b), c in self.coeffs.items():
            if a and A is None or b and B is None:
                raise ValueError("no value for variable A or B")
            total += (c.evaluate(s=s) * Fraction(A or 0) ** a
                      * Fraction(B or 0) ** b)
        return total

    def __str__(self):
        """Q(s) coefficients over the lcm of their denominators: each is in
        lowest terms, so that numerator and the lcm are coprime."""
        den = _ONE
        for c in self.coeffs.values():
            if c.den != den:
                den = _p_div(_p_mul(den, c.den), _p_gcd(den, c.den))
        terms = []
        for (a, b), c in self.coeffs.items():
            terms += _terms(_p_mul(c.num, _p_div(den, c.den)), a, b)
        return _fraction_text(terms, den)

    def __repr__(self):
        return "ParamPoly(%r)" % (self.coeffs,)


# ---------------------------------------------------------------------------
# parsing (inverse of __str__; also accepts u for s^2 and ** for ^)
# ---------------------------------------------------------------------------

def parse_scalar(text):
    """Parse the canonical text form back into a Scalar, or a ParamPoly when
    the text holds A or B (lossless), read by Python's expression grammar
    with ``^`` as ``**``: only +, -, *, /, unary + and -, powers to a
    (negated) integer literal, integer literals in decimal digits and the
    names s, u, A, B.  Raises ValueError on any other text, a divisor that
    holds A or B included, and on text nested too deeply to read (a sum of
    some thousand terms)."""
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

ZERO = Scalar((), _ONE, _canonical=True)
ONE = Scalar(_ONE, _ONE, _canonical=True)
TWO = Scalar.from_int(2)
SQRT_U = Scalar((0, 1), _ONE, _canonical=True)
U = SQRT_U * SQRT_U
A = ParamPoly({(1, 0): ONE})
B = ParamPoly({(0, 1): ONE})

U_MINUS_1 = U - ONE
