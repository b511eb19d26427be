import math
import random
from fractions import Fraction

import pytest

from btkit import scalars as sc
from btkit.scalars import Scalar, parse_scalar

ONE, U, S, A, B, TWO = sc.ONE, sc.U, sc.SQRT_U, sc.A, sc.B, sc.TWO


def rand_scalar(rng, allow_params=False, allow_den=True):
    def rand_poly():
        acc = sc.ZERO
        for _ in range(rng.randint(1, 3)):
            term = Scalar.from_int(rng.randint(-4, 4))
            term = term * S ** rng.randint(0, 3)
            if allow_params:
                term = term * A ** rng.randint(0, 1) * B ** rng.randint(0, 1)
            acc = acc + term
        return acc

    num = rand_poly()
    if not allow_den:
        return num
    den = sc.ZERO
    while not den:
        den = rand_poly()
    return num / den


def test_constant_folding():
    assert (ONE - U) / (ONE + U) + (TWO * U) / (ONE + U) == ONE
    assert ONE + sc.DELTA == TWO / (ONE + U)
    assert S * S == U
    assert sc.ALPHA == (ONE + U) / TWO


def test_delta_alpha_evaluations():
    assert sc.DELTA.evaluate(s=2) == Fraction(-3, 5)
    assert sc.ALPHA.evaluate(s=1) == 1
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
        if x:
            assert x * x.invert() == ONE
        assert x + (-x) == sc.ZERO


def test_evaluate_is_homomorphism():
    rng = random.Random(13)
    pt = dict(s=Fraction(5, 7), A=Fraction(2), B=Fraction(-3, 4))
    for _ in range(80):
        x = rand_scalar(rng, allow_params=True)
        y = rand_scalar(rng, allow_params=True)
        assert (x + y).evaluate(**pt) == x.evaluate(**pt) + y.evaluate(**pt)
        assert (x * y).evaluate(**pt) == x.evaluate(**pt) * y.evaluate(**pt)
        if y.evaluate(**pt) != 0:
            assert (x / y).evaluate(**pt) == x.evaluate(**pt) / y.evaluate(**pt)


def test_text_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        x = rand_scalar(rng, allow_params=True)
        assert parse_scalar(str(x)) == x
    assert str(sc.DELTA) == "(1 - u)/(1 + u)"
    assert parse_scalar("(1-u)/(1+u)") == sc.DELTA
    assert parse_scalar("u") == U
    assert parse_scalar("s^2") == U
    assert parse_scalar("s**2") == U
    assert parse_scalar("2/(1+u)") == TWO / (ONE + U)


def test_substitution():
    q = (U + ONE) * A * A + (U + TWO) * A * B + B * B
    assert not q.subs(A=-B)
    assert not q.subs(A=-B / (ONE + U))
    assert q.subs(A=B) == (TWO * U + Scalar.from_int(4)) * B * B


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("2 +")
    with pytest.raises(ValueError):
        parse_scalar("q + 1")
    with pytest.raises(ValueError):
        parse_scalar("(1")


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
