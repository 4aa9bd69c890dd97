"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A Cyc is a canonical element of Q(zeta_N): integer numerators num in the
power basis 1, zeta, ..., zeta^(deg-1), deg = phi(N), over den, the least
positive integer that clears them (c reads the Fraction coefficients), so
equality compares (den, num) exactly.  Since Phi_N is monic, zeta^k reduces
to integers, read from one cached table (_power_table).  _reduced is the one
reduction and _times the one product of Q(zeta_N): Cyc products and the
entrywise work of Weil-representation matrices (weilrep) both call them.
Square roots of positive integers are built from quadratic Gauss sums,
which puts sqrt(|D|) inside Q(zeta_N) for the N of root_order_for.

Cyc builds sqrt(|D|), the scalars of the relation checks and the printed
entries of a Weil-representation matrix; matrix products run on Python
integers packed by Kronecker substitution in weilrep, not on Cyc.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .eisenstein import _factorize, kronecker_symbol
from .quadlattice import _ReadOnly

__all__ = ["Cyc", "cyclotomic_poly", "root_exponent", "sqrt_as_cyclotomic", "root_order_for"]


@lru_cache(maxsize=256)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the product of Phi_d for proper divisors d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_poly(d)
            poly = _poly_divide_exact(poly, list(phi_d))
    return tuple(poly)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("nonzero remainder in cyclotomic division")
    return out


@lru_cache(maxsize=64)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^k in the power basis for k = 0..n-1 (integers: Phi_n is monic)."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    cur = [1] + [0] * (deg - 1)
    table = []
    for _ in range(n):
        table.append(tuple(cur))
        # multiply by zeta, reduce
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(deg):
                cur[i] -= top * phi[i]
    return tuple(table)


def _zeta_power(n: int, k: int) -> tuple[int, ...]:
    """zeta_n^k in the power basis (k arbitrary integer)."""
    return _power_table(n)[k % n]


def _reduced(poly, n: int) -> tuple[int, ...]:
    """sum_t poly[t] zeta^t in the power basis of Q(zeta_n), for a poly of
    at least phi(n) terms (zeta^t is basis vector t below that)."""
    table = _power_table(n)
    out = poly[:len(table[0])]
    for t in range(len(out), len(poly)):
        if poly[t]:
            out = [o + poly[t] * z for o, z in zip(out, table[t % n])]
    return tuple(out)


def _times(e, c, n: int) -> tuple[int, ...]:
    """The product of two power-basis coefficient sequences, reduced."""
    prod = [0] * (len(e) + len(c) - 1)
    for x, ex in enumerate(e):
        if ex:
            for y, cy in enumerate(c):
                prod[x + y] += ex * cy
    return _reduced(prod, n)


def root_exponent(q, n: int) -> int:
    """The k mod n with e(q) = zeta_n^k, for a rational q whose denominator divides n."""
    q = Fraction(q)
    if n % q.denominator != 0:
        raise ValueError(f"e({q}) does not lie in Q(zeta_{n})")
    return q.numerator * (n // q.denominator) % n


class Cyc(_ReadOnly):
    """An element of Q(zeta_N) as num / den in lowest terms, built from its
    phi(N) rational coefficients; read-only (sqrt_as_cyclotomic caches it)."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        c, deg = tuple(map(Fraction, coeffs)), len(cyclotomic_poly(n)) - 1
        if len(c) != deg:
            raise ValueError(f"expected {deg} coefficients for Q(zeta_{n})")
        den = math.lcm(*(x.denominator for x in c))  # lowest terms, as each x is
        self._set(n, tuple(x.numerator * (den // x.denominator) for x in c), den)

    @classmethod
    def _exact(cls, n: int, num: tuple[int, ...], den: int = 1) -> "Cyc":
        """num / den, for phi(n) Python ints num and den >= 1."""
        z = cls.__new__(cls)
        g = math.gcd(den, *num)
        z._set(n, tuple(x // g for x in num) if g > 1 else num, den // g)
        return z

    def _set(self, n: int, num: tuple[int, ...], den: int) -> None:
        # a fresh instance has nothing to guard: skip the hasattr check
        for name, value in zip(self.__slots__, (n, num, den)):
            object.__setattr__(self, name, value)

    @property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    @staticmethod
    def zero(n: int) -> "Cyc":
        return Cyc._exact(n, (0,) * (len(cyclotomic_poly(n)) - 1))

    @staticmethod
    def from_rational(n: int, q) -> "Cyc":
        return Cyc.root(n, 0).scale(q)

    @staticmethod
    def one(n: int) -> "Cyc":
        return Cyc.from_rational(n, 1)

    @staticmethod
    def root(n: int, k: int) -> "Cyc":
        """zeta_n^k = e(k/n)."""
        return Cyc._exact(n, _zeta_power(n, k))

    @staticmethod
    def e(q, n: int) -> "Cyc":
        """e(q) = exp(2*pi*i*q) for a rational q with denominator dividing n."""
        return Cyc.root(n, root_exponent(q, n))

    def _check(self, other: "Cyc"):
        if self.n != other.n:
            raise ValueError("cyclotomic order mismatch")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Cyc._exact(self.n, tuple(x * a + y * b for x, y in zip(self.num, other.num)), den)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + -other

    def __neg__(self) -> "Cyc":
        return Cyc._exact(self.n, tuple(-x for x in self.num), self.den)

    def scale(self, q) -> "Cyc":
        q = Fraction(q)
        return Cyc._exact(self.n, tuple(q.numerator * x for x in self.num), q.denominator * self.den)

    def __mul__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc._exact(self.n, _times(self.num, other.num, self.n), self.den * other.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.den, self.num))

    def to_complex(self) -> complex:
        # x / den is correctly rounded, as float(Fraction(x, den)) is
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(x / self.den * z ** i for i, x in enumerate(self.num) if x)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, a in enumerate(self.c):
            if not a:
                continue
            if i == 0:
                parts.append(str(a))
            elif i == 1:
                parts.append(f"{a}*z" if a != 1 else "z")
            else:
                parts.append(f"{a}*z^{i}" if a != 1 else f"z^{i}")
        return " + ".join(parts).replace("+ -", "- ")


@lru_cache(maxsize=256)
def sqrt_as_cyclotomic(d: int, n: int) -> Cyc:
    """The positive real square root of d >= 1 as an element of Q(zeta_n).

    Requires 8 | n and p | n for every odd prime p dividing the squarefree
    part of d.  With d = prod p^e, the result is prod p^(e//2) times one
    factor sqrt(p) for each p with e odd: zeta_8 + zeta_8^-1 for p = 2, and
    for odd p the quadratic Gauss sum sum_a (a/p) zeta_p^a, divided by i
    when p = 3 mod 4.  It is verified exactly (its square equals d), and
    its coefficients are integers.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    factors = _factorize(d)
    result = Cyc.from_rational(n, math.prod(p ** (e // 2) for p, e in factors))
    for p, e in factors:
        if e % 2 == 0:
            continue
        if p == 2:
            if n % 8:
                raise ValueError("need 8 | n for sqrt(2)")
            g = Cyc.root(n, n // 8) + Cyc.root(n, -n // 8)
        else:
            if n % p:
                raise ValueError(f"need {p} | n for sqrt({p})")
            g = Cyc.zero(n)
            for a in range(1, p):
                term = Cyc.root(n, a * (n // p))
                g = g + term if kronecker_symbol(a, p) == 1 else g - term
            if p % 4 == 3:
                # g = i*sqrt(p); divide by i
                g = g * Cyc.root(n, -(n // 4))
        result = result * g
    if result * result != Cyc.from_rational(n, d):
        raise ArithmeticError(f"sqrt({d}) construction failed in Q(zeta_{n})")
    if result.to_complex().real < 0:
        result = -result
    return result


def root_order_for(level: int, disc_order: int) -> int:
    """A cyclotomic order N containing e(1/level), e(1/8), and sqrt(disc_order):
    the lcm of level, 8 and the odd primes of odd exponent in disc_order, as
    sqrt(p) lies in Q(zeta_p) for p = 1 mod 4 and in Q(zeta_4p) otherwise."""
    # sqrt(2) already lives in Q(zeta_8)
    return math.lcm(level, 8, *(p for p, e in _factorize(disc_order) if p > 2 and e % 2))
