import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from cycletheta import cyclotomic
from cycletheta.cyclotomic import Cyc, cyclotomic_poly

BIG = 2 ** 70
COEFF = st.integers(-BIG, BIG) | st.integers(-2, 2)


def long_division_remainder(poly, n):
    """poly mod Phi_n by schoolbook long division (Phi_n is monic), low to high."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rem = list(poly)
    for t in range(len(rem) - 1, deg - 1, -1):
        q = rem[t]
        if q:
            for i, p in enumerate(phi):
                rem[t - deg + i] -= q * p
    assert not any(rem[deg:])
    return tuple(rem[:deg])


@st.composite
def polys(draw):
    """(poly, n): n in {8, 12, 24, 40}, phi(n) to 2n coefficients past 2^64."""
    n = draw(st.sampled_from([8, 12, 24, 40]))
    deg = len(cyclotomic_poly(n)) - 1
    return draw(st.lists(COEFF, min_size=deg, max_size=2 * n)), n


class TestReduction:
    """The one reduction of Q(zeta_N), which Cyc products and Weil matrices
    share, against long division by the cyclotomic polynomial."""

    @settings(max_examples=200, deadline=None)
    @given(polys())
    def test_matches_long_division(self, case):
        poly, n = case
        assert cyclotomic._reduced(poly, n) == long_division_remainder(poly, n)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_product_matches_long_division(self, data):
        n = data.draw(st.sampled_from([8, 12, 24, 40]))
        deg = len(cyclotomic_poly(n)) - 1
        a, b = (data.draw(st.lists(COEFF, min_size=deg, max_size=deg)) for _ in "ab")
        prod = [sum(a[x] * b[t - x] for x in range(max(0, t - deg + 1), min(t, deg - 1) + 1))
                for t in range(2 * deg - 1)]
        assert cyclotomic._times(a, b, n) == long_division_remainder(prod, n)
        assert (Cyc(n, a) * Cyc(n, b)).num == long_division_remainder(prod, n)


def rendered(coeffs):
    """sum_i coeffs[i] z^i written out from its Fraction coefficients: a
    coefficient 1 is dropped before a power of z, and each negative term
    after the first is subtracted ("- 1*z" for -z)."""
    out = ""
    for i, a in enumerate(coeffs):
        if a:
            power = ["", "z", f"z^{i}"][min(i, 2)]
            mag = abs(a) if out else a
            text = power if (a == 1 and power) else (f"{mag}*{power}" if power else str(mag))
            out += text if not out else (" - " if a < 0 else " + ") + text
    return out or "0"


@st.composite
def elements(draw, n=None):
    n = n or draw(st.sampled_from([1, 3, 8, 12, 24]))
    deg = len(cyclotomic_poly(n)) - 1
    coeff = (st.fractions(max_denominator=BIG) | st.fractions(max_denominator=9).map(lambda x: x * BIG)
             | st.integers(-2, 2))
    return n, draw(st.lists(coeff, min_size=deg, max_size=deg))


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None)
    @given(elements(), st.data())
    def test_lowest_terms(self, case, data):
        n, cs = case
        a = Cyc(n, cs)
        assert a.den > 0 and math.gcd(a.den, *a.num) == 1
        assert a.c == tuple(map(F, cs))
        assert repr(a) == rendered(tuple(map(F, cs)))
        b = Cyc(n, data.draw(elements(n))[1])
        for built, value in [((a + b) - b, a), (a.scale(0), Cyc.zero(n)),
                             (a - a, Cyc.zero(n)), (-(-a), a)]:
            assert built == value and hash(built) == hash(value)
            assert (built.den, built.num) == (value.den, value.num)

    def test_integers_and_rationals(self):
        assert (Cyc.zero(8).den, Cyc.zero(8).num) == (1, (0, 0, 0, 0))
        half = Cyc(8, [F(1, 2), F(-1, 3), 0, 2])
        assert (half.den, half.num) == (6, (3, -2, 0, 12))
        assert Cyc.from_rational(8, F(4, 6)) == Cyc(8, [F(2, 3), 0, 0, 0])
        assert Cyc.from_rational(1, F(-3, 9)).num == (-1,)
        assert half.scale(6) == Cyc(8, [3, -2, 0, 12]) and half.scale(6).den == 1
        assert repr(Cyc(8, [0, -1, -1, F(-1, 2)])) == "-1*z - 1*z^2 - 1/2*z^3"
