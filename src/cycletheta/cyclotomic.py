"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A Cyc is a canonical element of Q(zeta_N): its Fraction coefficients in the
power basis 1, zeta, ..., zeta^(deg-1), deg = phi(N), so equality is an exact
coefficient comparison.  Since Phi_N is monic, every power zeta^k reduces to
integer coefficients; _zeta_power reads them from one cached integer table
(_power_table), which Cyc products and the reduction of each distinct entry
of a Weil-representation product (weilrep) share.  Square roots of positive
integers are built from quadratic Gauss sums, which puts sqrt(|D|) inside
Q(zeta_N) for the N of root_order_for.

Cyc arithmetic is schoolbook and per element.  It builds sqrt(|D|), the
scalars of the relation checks and the printed entries of a
Weil-representation matrix; matrix products run on Python integers packed
by Kronecker substitution in weilrep, not on Cyc.
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


def root_exponent(q, n: int) -> int:
    """The k mod n with e(q) = zeta_n^k, for a rational q whose denominator divides n."""
    q = Fraction(q)
    if n % q.denominator != 0:
        raise ValueError(f"e({q}) does not lie in Q(zeta_{n})")
    return q.numerator * (n // q.denominator) % n


class Cyc(_ReadOnly):
    """An element of Q(zeta_N) in reduced power-basis form, read-only
    (sqrt_as_cyclotomic caches its results)."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        deg = len(cyclotomic_poly(n)) - 1
        c = tuple(Fraction(x) for x in coeffs)
        if len(c) != deg:
            raise ValueError(f"expected {deg} coefficients for Q(zeta_{n})")
        # a fresh instance has nothing to guard: skip the hasattr check
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    @staticmethod
    def zero(n: int) -> "Cyc":
        deg = len(cyclotomic_poly(n)) - 1
        return Cyc(n, (Fraction(0),) * deg)

    @staticmethod
    def from_rational(n: int, q) -> "Cyc":
        deg = len(cyclotomic_poly(n)) - 1
        return Cyc(n, (Fraction(q),) + (Fraction(0),) * (deg - 1))

    @staticmethod
    def one(n: int) -> "Cyc":
        return Cyc.from_rational(n, 1)

    @staticmethod
    def root(n: int, k: int) -> "Cyc":
        """zeta_n^k = e(k/n)."""
        return Cyc(n, _zeta_power(n, k))

    @staticmethod
    def e(q, n: int) -> "Cyc":
        """e(q) = exp(2*pi*i*q) for a rational q with denominator dividing n."""
        return Cyc.root(n, root_exponent(q, n))

    def _check(self, other: "Cyc"):
        if self.n != other.n:
            raise ValueError("cyclotomic order mismatch")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.n, tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.n, tuple(a - b for a, b in zip(self.c, other.c)))

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, tuple(-a for a in self.c))

    def scale(self, q) -> "Cyc":
        q = Fraction(q)
        return Cyc(self.n, tuple(q * a for a in self.c))

    def __mul__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        deg = len(self.c)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        prod[i + j] += a * b
        out = [Fraction(0)] * deg
        for k, coeff in enumerate(prod):
            if coeff:
                for i, b in enumerate(_zeta_power(self.n, k)):
                    out[i] += coeff * b
        return Cyc(self.n, tuple(out))

    @property
    def is_zero(self) -> bool:
        return not any(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.c))

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum(float(a) * z ** i for i, a in enumerate(self.c) if a)

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
