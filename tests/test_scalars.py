import json
import math
import os
import random
from fractions import Fraction

import pytest

from btkit import scalars as sc
from btkit.domains import IntMod
from btkit.scalars import ParamPoly, Scalar, parse_scalar

ONE, U, S, A, B, TWO = sc.ONE, sc.U, sc.SQRT_U, sc.A, sc.B, sc.TWO
# delta, a constant of the idempotent presentations of the quotient algebra
DELTA = (ONE - U) / (ONE + U)


def rand_scalar(rng, allow_params=False, allow_den=True):
    """A random Scalar of Q(s), or with allow_params a random polynomial in
    A and B over Q(s) (a ParamPoly, or a Scalar when no term holds A or B),
    divided by a random polynomial in s."""
    def rand_poly(params):
        acc = sc.ZERO
        for _ in range(rng.randint(1, 3)):
            term = Scalar.from_int(rng.randint(-4, 4))
            term = term * S ** rng.randint(0, 3)
            if params:
                term = term * A ** rng.randint(0, 1) * B ** rng.randint(0, 1)
            acc = acc + term
        return acc

    num = rand_poly(allow_params)
    if not allow_den:
        return num
    den = sc.ZERO
    while not den:
        den = rand_poly(False)
    return num / den


def in_s(x):
    return isinstance(x, Scalar)


def test_constant_folding():
    assert (ONE - U) / (ONE + U) + (TWO * U) / (ONE + U) == ONE
    assert ONE + DELTA == TWO / (ONE + U)
    assert S * S == U


def test_delta_alpha_evaluations():
    assert DELTA.evaluate(s=2) == Fraction(-3, 5)
    assert ((ONE + U) / TWO).evaluate(s=1) == 1
    q = (U + ONE) * A * A + (U + TWO) * A * B + B * B
    assert q.evaluate(s=1, A=1, B=-1) == 0


def test_zero_division_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / sc.ZERO
    with pytest.raises(ZeroDivisionError):
        sc.ZERO.invert()


def test_pole_detection():
    f = ONE / (U - ONE)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(s=1)
    assert f.evaluate(s=2) == Fraction(1, 3)


def test_canonical_uniqueness_randomized():
    rng = random.Random(7)
    for _ in range(200):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        if not y:
            continue
        # build the same element along two different routes
        lhs = (x + y) * (x - y)
        rhs = x * x - y * y
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)


def test_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(120):
        x = rand_scalar(rng, allow_params=True)
        y = rand_scalar(rng, allow_params=True)
        z = rand_scalar(rng, allow_params=True)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        # the field axioms on Scalars; a ParamPoly in A or B has no inverse
        if x and in_s(x):
            assert x * x.invert() == ONE
        elif x and set(x.coeffs) != {(0, 0)}:
            with pytest.raises(ValueError):
                ONE / x
        assert x + (-x) == sc.ZERO
        # a divisor in s: inverses exist
        w = rand_scalar(rng)
        if w:
            assert w * w.invert() == ONE
            assert (x / w) * w == x


def test_products_by_one_are_the_other_factor():
    # a product by exactly 1 is the other factor, whichever side 1 is on
    # and however 1 was made; products by -1 are negatives
    rng = random.Random(17)
    xs = [rand_scalar(rng, allow_params=bool(k % 2)) for k in range(150)]
    xs += [sc.ZERO, ONE, -ONE, A, -B, -TWO / (U + ONE), (A - B) / (S - TWO)]
    assert any(in_s(x) and x.den != ONE.den for x in xs)
    assert any(not in_s(x) for x in xs)
    ones = (ONE, Scalar.from_int(1), (U + ONE) / (U + ONE), parse_scalar("1"))
    m = -ONE
    for x in xs:
        for one in ones:
            for y in (x * one, one * x):
                assert y == x and hash(y) == hash(x) and str(y) == str(x)
        assert x * m == m * x == -x == sc.ZERO - x
        assert x * m * m == x and m * m == ONE
        assert x * m + x == sc.ZERO
    for x, y in zip(xs, xs[1:]):
        assert (x * m) * y == x * (m * y) == -(x * y)
        assert x * (y + m) == x * y - x


def test_evaluate_is_homomorphism():
    rng = random.Random(13)
    pt = dict(s=Fraction(5, 7), A=Fraction(2), B=Fraction(-3, 4))
    for _ in range(80):
        x = rand_scalar(rng, allow_params=True)
        y = rand_scalar(rng, allow_params=True)
        assert (x + y).evaluate(**pt) == x.evaluate(**pt) + y.evaluate(**pt)
        assert (x * y).evaluate(**pt) == x.evaluate(**pt) * y.evaluate(**pt)
        if in_s(y) and y.evaluate(**pt) != 0:
            assert (x / y).evaluate(**pt) == x.evaluate(**pt) / y.evaluate(**pt)
        # a divisor in s
        w = rand_scalar(rng)
        if w.evaluate(**pt) != 0:
            assert (x / w).evaluate(**pt) == x.evaluate(**pt) / w.evaluate(**pt)


def test_text_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        x = rand_scalar(rng, allow_params=True)
        assert parse_scalar(str(x)) == x
    assert str(DELTA) == "(1 - u)/(1 + u)"
    assert parse_scalar("(1-u)/(1+u)") == DELTA
    assert parse_scalar("u") == U
    assert parse_scalar("s^2") == U
    assert parse_scalar("s**2") == U
    assert parse_scalar("-s^2") == -U
    assert parse_scalar("s^-2") == ONE / U
    assert parse_scalar("2/(1+u)") == TWO / (ONE + U)


def test_substitution():
    q = (U + ONE) * A * A + (U + TWO) * A * B + B * B
    assert not q.subs(A=-B)
    assert not q.subs(A=-B / (ONE + U))
    assert q.subs(A=B) == (TWO * U + Scalar.from_int(4)) * B * B


def test_division_by_params_rejected():
    # a Scalar holds no A or B, and a ParamPoly has no inverse: a divisor in
    # A or B is an error, never a quietly wrong canonical form
    for divide in (lambda: ONE / (A + ONE), lambda: A ** -1,
                   lambda: parse_scalar("1/A"), lambda: A / B):
        with pytest.raises(ValueError):
            divide()


def test_constant_param_polys_are_their_scalars():
    # a ParamPoly that holds neither A nor B equals, hashes and prints as
    # its Scalar, on either side of ==, and divides as its Scalar
    for text, x in (("A - A + 1", ONE), ("A - A", sc.ZERO),
                    ("(u + 1)*B - u*B - B + (1 - u)/(1 + u)", DELTA)):
        p = parse_scalar(text)
        assert isinstance(p, ParamPoly)
        assert p == x and x == p and hash(p) == hash(x) and str(p) == str(x)
    assert A / parse_scalar("B - B + 2") == A / TWO
    assert TWO / parse_scalar("A - A + 2") == ONE
    # the text puts the terms over the lcm of the denominators
    assert str(A / TWO + B / Scalar.from_int(3)) == "(2*B + 3*A)/6"
    assert str(A / (ONE + U) - B / U) == "(-B - u*B + u*A)/(u + u^2)"
    # a trace value over GF(p) has a repr
    assert repr(ParamPoly({(1, 0): IntMod(3, 7)})) == \
        "ParamPoly({(1, 0): IntMod(3, 7)})"


def test_parse_rejects_garbage():
    # Python's grammar reads the text; the walk refuses every literal that is
    # not decimal digits, every name other than s, u, A and B, and every
    # exponent that is not a (negated) integer literal
    for text in ("2 +", "q + 1", "(1", "As", "03", "2/0(", "0x10", "0B1",
                 "1_0", "True", "1.5", "1e3", "s^s", "s^0x2", "s^1.5",
                 "s^2^2", "s(2)", "'s'", ""):
        with pytest.raises(ValueError):
            parse_scalar(text)
    # a sum too long to read: the walk recurses once per term, and Python's
    # own parser gives up at a few thousand
    for terms in (2000, 5000):
        with pytest.raises(ValueError):
            parse_scalar(" + ".join("%d*s^%d" % (k + 1, k)
                                    for k in range(terms)))


def test_golden_trace_values_round_trip():
    # every value the trace report prints reads back to the same text
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "trace.json")) as fh:
        blocks = json.load(fh)["trace"]
    values = [v for block in blocks for v in block["table"].values()]
    assert len(values) == 34
    for v in values:
        assert str(parse_scalar(v)) == v


def _poly(rng, terms):
    """A random polynomial in Z[s] as a coefficient tuple (maybe zero)."""
    f = [0] * 4
    for _ in range(terms):
        f[rng.randint(0, 3)] += rng.choice(
            (-12, -6, -4, -3, -2, 2, 3, 4, 6, 9))
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def _content(f):
    return math.gcd(*f)


def _valuation(f):
    return next(k for k, c in enumerate(f) if c)


def test_single_term_gcd_is_igcd_times_least_power():
    # gcd(c s^e, f) = igcd(c, content f) s^min(e, v(f)), in either order
    rng = random.Random(11)
    seen = 0
    for _ in range(300):
        mono = _poly(rng, 1)
        f = _poly(rng, rng.randint(1, 4))
        if not mono or not f:
            continue
        e, v = _valuation(mono), _valuation(f)
        want = (0,) * min(e, v) + (math.gcd(mono[e], _content(f)),)
        assert sc._p_gcd(mono, f) == sc._p_gcd(f, mono) == want
        seen += 1
    assert seen > 250


def test_gcd_divides_and_leaves_coprime_cofactors():
    # the gcd divides both arguments, its leading coefficient is positive,
    # and the cofactors share no integer factor, no power of s and no
    # factor of positive degree
    rng = random.Random(12)
    seen = 0
    for _ in range(300):
        h = _poly(rng, rng.randint(1, 3))
        f = sc._p_mul(h, _poly(rng, rng.randint(1, 4)))
        g = sc._p_mul(h, _poly(rng, rng.randint(1, 4)))
        if not f or not g:
            continue
        d = sc._p_gcd(f, g)
        assert sc._p_gcd(g, f) == d and d[-1] > 0
        q, r = sc._p_div(f, d), sc._p_div(g, d)
        assert sc._p_mul(q, d) == f and sc._p_mul(r, d) == g
        assert math.gcd(_content(q), _content(r)) == 1
        assert q[0] or r[0]
        assert sc._p_gcd(q, r) == (1,)
        seen += 1
    assert seen > 250


def _rational_gcd(f, g):
    """Oracle: the monic Euclidean gcd over Q, scaled to a primitive
    polynomial in Z[s] with a positive leading coefficient, times the gcd
    of the contents."""
    a, b = [Fraction(c) for c in f], [Fraction(c) for c in g]
    while b:
        while len(a) >= len(b):
            q, k = a[-1] / b[-1], len(a) - len(b)
            a = [c - q * b[i - k] if i >= k else c for i, c in enumerate(a)]
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    scale = math.lcm(*(c.denominator for c in a))
    a = [int(c * scale) for c in a]
    c = _content(a) * (1 if a[-1] > 0 else -1)
    return tuple(math.gcd(_content(f), _content(g)) * x // c for x in a)


def test_gcd_matches_rational_euclid():
    # h f1 against h g1: the gcd is the same in either order, a multiple of
    # h, and the oracle's, the Euclidean gcd over Q made primitive
    rng = random.Random(13)
    seen = 0
    for _ in range(300):
        h = _poly(rng, rng.randint(1, 3))
        f = sc._p_mul(h, _poly(rng, rng.randint(1, 4)))
        g = sc._p_mul(h, _poly(rng, rng.randint(1, 3)))
        if not f or not g:
            continue
        d = sc._p_gcd(f, g)
        assert sc._p_gcd(g, f) == d == _rational_gcd(f, g)
        assert sc._p_mul(sc._p_div(d, h), h) == d
        seen += 1
    assert seen > 250
