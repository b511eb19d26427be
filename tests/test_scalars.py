import json
import math
import os
import random
from fractions import Fraction

import pytest

from btkit import scalars as sc
from btkit.scalars import Scalar, parse_scalar

ONE, U, S, A, B, TWO = sc.ONE, sc.U, sc.SQRT_U, sc.A, sc.B, sc.TWO
# delta, a constant of the idempotent presentations of the quotient algebra
DELTA = (ONE - U) / (ONE + U)


def rand_scalar(rng, allow_params=False, allow_den=True):
    """A random scalar; A and B appear in its numerator only, as the ring
    Q(s)[A, B] allows, and its denominator is drawn in s."""
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
    return not sc._p_has_params(x.num)


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
        if x and in_s(x):
            assert x * x.invert() == ONE
        elif x:
            with pytest.raises(ValueError):
                x.invert()
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
    assert any(x.den != sc._P_ONE for x in xs)
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
    # denominators lie in Z[s]; a divisor in A or B is an error, never a
    # quietly wrong canonical form
    for divide in (lambda: ONE / (A + ONE), lambda: A.invert(),
                   lambda: A ** -1, lambda: parse_scalar("1/A"),
                   lambda: Scalar(ONE.num, A.num),
                   lambda: sc._p_gcd((A + ONE).num, (A * B + S).num)):
        with pytest.raises(ValueError):
            divide()


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


def _poly(rng, nvars, terms):
    """A random polynomial dict over Z in the first nvars of (s, A, B)."""
    f = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, 3) if v < nvars else 0 for v in range(3))
        f[m] = f.get(m, 0) + rng.choice((-12, -6, -4, -3, -2, 2, 3, 4, 6, 9))
    return {m: c for m, c in f.items() if c}


def test_monomial_gcd_matches_univariate_prs():
    # a single-term argument takes the closed form in _p_gcd; in s alone it
    # must equal the primitive PRS of _s_gcd, in either argument order
    rng = random.Random(11)
    for _ in range(300):
        mono = _poly(rng, 1, 1)
        f = _poly(rng, 1, rng.randint(1, 4))
        if not mono or not f:
            continue
        assert sc._p_gcd(mono, f) == sc._s_gcd(mono, f) == sc._s_gcd(f, mono)
        assert sc._p_gcd(f, mono) == sc._s_gcd(mono, f)


def test_monomial_gcd_divides_and_is_greatest():
    # in s, A and B: the gcd with a single term divides both arguments, and
    # what is left of the term shares no integer factor or variable with
    # what is left of the other argument
    rng = random.Random(12)
    seen = 0
    for _ in range(300):
        mono = _poly(rng, 3, 1)
        f = _poly(rng, 3, rng.randint(1, 5))
        if not mono or not f:
            continue
        for a, b in ((mono, f), (f, mono)):
            d = sc._p_gcd(a, b)
            assert len(d) == 1 and next(iter(d.values())) > 0
            q = sc._p_div_exact(mono, d)
            r = sc._p_div_exact(f, d)
            assert sc._p_mul(q, d) == mono and sc._p_mul(r, d) == f
            ((qm, qc),) = q.items()
            content = 0
            for c in r.values():
                content = math.gcd(content, c)
            assert math.gcd(qc, content) == 1
            for v in range(3):
                if qm[v]:
                    assert min(m[v] for m in r) == 0
        seen += 1
    assert seen > 250


def test_gcd_with_an_argument_in_s():
    # h*f1 with f1 in s, A and B against h*g1 in s alone: the gcd is the
    # same in either order, divides both, is a multiple of h and has a
    # positive leading coefficient; without A and B it is the gcd in s
    rng = random.Random(13)
    looped = 0
    for _ in range(300):
        h = _poly(rng, 1, rng.randint(1, 3))
        nvars = rng.choice((1, 3))
        f1 = _poly(rng, nvars, rng.randint(1, 4))
        g1 = _poly(rng, 1, rng.randint(1, 3))
        if not h or not f1 or not g1:
            continue
        f, g = sc._p_mul(h, f1), sc._p_mul(h, g1)
        d = sc._p_gcd(f, g)
        assert sc._p_gcd(g, f) == d
        for x in (f, g):
            assert sc._p_mul(sc._p_div_exact(x, d), d) == x
        sc._p_div_exact(d, h)
        assert d[sc._p_lead(d)] > 0
        if nvars == 1:
            assert d == sc._s_gcd(f, g)
        elif len(f) > 1 and len(g) > 1 and sc._p_has_params(f):
            looped += 1
    assert looped > 75
