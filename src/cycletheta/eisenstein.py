"""Fourier coefficients of classical Eisenstein series and p-adic local
representation densities.

Covers: Hurwitz class numbers H(d) by weighted reduced-form counting (the
holomorphic coefficients of the weight-3/2 series; H(0) = -1/12 by the
orbifold-volume convention), the level-one series E_k, the Cohen numbers
H(s, N) of weight s + 1/2 via generalized Bernoulli numbers, local solution
densities of Q(x) = m mod p^k, and the resulting product formula
prediction of representation numbers for even unimodular lattices.

All outputs are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .quadlattice import Lattice

__all__ = [
    "UnsupportedWeight",
    "UnsupportedLattice",
    "NotStabilized",
    "HurwitzTable",
    "LocalDensityReport",
    "ScalarQSeries",
    "reduced_forms",
    "hurwitz",
    "hurwitz_table",
    "eisenstein_k",
    "cohen",
    "cohen_number",
    "bernoulli",
    "generalized_bernoulli",
    "kronecker_symbol",
    "local_density",
    "siegel_product",
    "sigma",
]


class UnsupportedWeight(ValueError):
    pass


class UnsupportedLattice(ValueError):
    pass


class NotStabilized(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# elementary number theory


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2)."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def sigma(k: int, n: int) -> int:
    """Divisor power sum."""
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def mobius(n: int) -> int:
    if n == 1:
        return 1
    res = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            res = -res
        p += 1
    if n > 1:
        res = -res
    return res


def kronecker_symbol(d: int, n: int) -> int:
    """The Kronecker symbol (d / n)."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    res = 1
    if n < 0:
        n = -n
        if d < 0:
            res = -res
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            res = -res
    if n == 1:
        return res
    # now n odd > 1; use quadratic reciprocity on the Jacobi symbol
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                res = -res
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            res = -res
        a %= n
    return res if n == 1 else 0


def _fundamental_decomposition(disc: int) -> tuple[int, int]:
    """disc = D0 * f^2 with D0 a fundamental discriminant (or 1)."""
    if disc % 4 not in (0, 1):
        raise ValueError("not a discriminant")
    d = disc
    f = 1
    g = 2
    while g * g <= abs(d):
        while d % (g * g) == 0 and (d // (g * g)) % 4 in (0, 1):
            d //= g * g
            f *= g
        g += 1
    return d, f


# ---------------------------------------------------------------------------
# Hurwitz class numbers


@lru_cache(maxsize=None)
def reduced_forms(d: int) -> tuple[tuple[int, int, int], ...]:
    """All reduced positive binary forms (a, b, c), including imprimitive
    ones, with b^2 - 4ac = -d: -a < b <= a <= c, b >= 0 when a = c."""
    if d <= 0 or d % 4 not in (0, 3):
        return ()
    out = []
    a = 1
    while 3 * a * a <= d:
        for b in range(-a + 1, a + 1):
            if (b * b + d) % (4 * a):
                continue
            c = (b * b + d) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            out.append((a, b, c))
        a += 1
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def hurwitz(d: int) -> Fraction:
    """Hurwitz class number H(d); H(0) = -1/12, zero unless d = 0, 3 mod 4.

    Classes equivalent to a multiple of x^2 + y^2 weigh 1/2, multiples of
    x^2 + xy + y^2 weigh 1/3, everything else weighs 1."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    for a, b, c in reduced_forms(d):
        if a == c and b == 0:
            total += Fraction(1, 2)
        elif a == b == c:
            total += Fraction(1, 3)
        else:
            total += 1
    return total


@dataclass(frozen=True)
class HurwitzTable:
    d_max: int
    values: dict[int, Fraction] = field(compare=False)
    convention: str = "H(0) = -1/12 (orbifold volume of SL2(Z)\\H)"

    def to_json_dict(self) -> dict:
        return {
            "d_max": self.d_max,
            "convention": self.convention,
            "values": {str(d): str(v) for d, v in sorted(self.values.items())},
        }


def hurwitz_table(d_max: int) -> HurwitzTable:
    values = {d: hurwitz(d) for d in range(0, d_max + 1) if d % 4 in (0, 3)}
    return HurwitzTable(d_max=d_max, values=values)


# ---------------------------------------------------------------------------
# scalar q-series


@dataclass(frozen=True)
class ScalarQSeries:
    name: str
    weight: Fraction
    coefficients: tuple[tuple[int, Fraction], ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def coefficient(self, n: int) -> Fraction:
        for m, c in self.coefficients:
            if m == n:
                return c
        raise ValueError(f"coefficient q^{n} not computed")

    def text(self) -> str:
        parts = []
        for n, c in self.coefficients:
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            else:
                q = "q" if n == 1 else f"q^{n}"
                if c == 1:
                    parts.append(q)
                elif c == -1:
                    parts.append(f"-{q}")
                elif c.denominator == 1:
                    parts.append(f"{c}{q}")
                elif c > 0:
                    parts.append(f"({c}){q}")
                else:
                    parts.append(f"-({-c}){q}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "weight": str(self.weight),
            "coefficients": [[n, str(c)] for n, c in self.coefficients],
            "metadata": dict(self.metadata),
        }


def eisenstein_k(k: int, truncation: int) -> ScalarQSeries:
    """E_k = 1 - (2k / B_k) sum sigma_{k-1}(n) q^n for even k >= 4."""
    if k == 2:
        raise UnsupportedWeight("E_2 is not modular (non-holomorphic completion only)")
    if k < 4 or k % 2:
        raise UnsupportedWeight(f"weight {k} is not supported (even k >= 4)")
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [(0, Fraction(1))]
    for n in range(1, truncation):
        coeffs.append((n, factor * sigma(k - 1, n)))
    return ScalarQSeries(name=f"E{k}", weight=Fraction(k), coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# Cohen numbers


def _bernoulli_poly(n: int, x: Fraction) -> Fraction:
    return sum(math.comb(n, k) * bernoulli(k) * x ** (n - k) for k in range(n + 1))


@lru_cache(maxsize=None)
def generalized_bernoulli(n: int, disc: int) -> Fraction:
    """B_{n, chi} for the quadratic character chi = (disc / .) of conductor
    |disc| (disc a fundamental discriminant or 1), via Bernoulli polynomials:
    B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f)."""
    f = abs(disc) if disc != 1 else 1
    acc = Fraction(0)
    for a in range(1, f + 1):
        ch = kronecker_symbol(disc, a)
        if ch:
            acc += ch * _bernoulli_poly(n, Fraction(a, f))
    return Fraction(f) ** (n - 1) * acc


def _l_value_nonpositive(s: int, disc: int) -> Fraction:
    """L(1-s, chi_disc) = -B_{s, chi}/s (with chi_1 giving zeta)."""
    if disc == 1:
        return -bernoulli(s) / s  # zeta(1 - s)
    return -generalized_bernoulli(s, disc) / s


COHEN_CONVENTION = (
    "H(s, N) = L(1-s, chi_D) * sum_{d | f} mu(d) chi_D(d) d^(s-1) "
    "sigma_(2s-1)(f/d) for (-1)^s N = D f^2 with D fundamental; "
    "H(s, 0) = zeta(1-2s); zero when (-1)^s N = 2, 3 mod 4"
)


@lru_cache(maxsize=None)
def cohen_number(s: int, n: int) -> Fraction:
    """The Cohen number H(s, n) (weight s + 1/2 Eisenstein coefficients)."""
    if s < 2:
        raise UnsupportedWeight("need s >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return -bernoulli(2 * s) / (2 * s)  # zeta(1 - 2s)
    disc = n if s % 2 == 0 else -n
    if disc % 4 not in (0, 1):
        return Fraction(0)
    d0, f = _fundamental_decomposition(disc)
    lval = _l_value_nonpositive(s, d0)
    acc = Fraction(0)
    for d in range(1, f + 1):
        if f % d:
            continue
        mu = mobius(d)
        if mu == 0:
            continue
        ch = kronecker_symbol(d0, d)
        if ch == 0:
            continue
        acc += mu * ch * d ** (s - 1) * sigma(2 * s - 1, f // d)
    return lval * acc


def cohen(s: int, truncation: int) -> ScalarQSeries:
    coeffs = tuple((n, cohen_number(s, n)) for n in range(truncation))
    return ScalarQSeries(
        name=f"H_{s}+1/2",
        weight=Fraction(2 * s + 1, 2),
        coefficients=coeffs,
        metadata={"convention": COHEN_CONVENTION},
    )


# ---------------------------------------------------------------------------
# local densities


@dataclass(frozen=True)
class LocalDensityReport:
    p: int
    m: int
    rank: int
    approximations: tuple[tuple[int, Fraction], ...]
    stabilized: Fraction | None
    threshold: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "rank": self.rank,
            "threshold": self.threshold,
            "approximations": [[k, str(v)] for k, v in self.approximations],
            "stabilized": str(self.stabilized) if self.stabilized is not None else "not stabilized",
        }


def _ordp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("ord_p(0)")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _counts_unimodular(lat: Lattice, p: int, m: int, k_max: int) -> list[int]:
    """N_k(m) for k = 1..k_max when p does not divide det(gram).

    N_1 is read from the mod-p value distribution of the Jordan blocks
    (_residue_counts at k = 1), computed once.  Solutions with x != 0 mod p
    are nonsingular (the gradient Gx is a unit vector) and lift
    p^(n-1)-fold per level; solutions with x = 0 mod p reduce to level
    k - 2 after dividing by p^2:

        N_k(m) = p^((n-1)(k-1)) (N_1(m) - [p | m]) + nonprimitive part.
    """
    n = lat.rank
    n1 = _residue_counts(_jordan_blocks(lat, p), p)

    @lru_cache(maxsize=None)
    def count(k: int, mm: int) -> int:
        if k == 0:
            return 1
        prim1 = n1[mm % p] - (1 if mm % p == 0 else 0)
        total = p ** ((n - 1) * (k - 1)) * prim1
        if k == 1:
            if mm % p == 0:
                total += 1
            return total
        if mm % (p * p) == 0:
            if k == 2:
                total += p ** n
            else:
                total += p ** n * count(k - 2, (mm // (p * p)) % p ** (k - 2))
        return total

    return [count(k, m % p ** k) for k in range(1, k_max + 1)]


def _jordan_blocks(lat: Lattice, p: int):
    """Orthogonal splitting of the Gram matrix over Z_p into 1x1 and (for
    p = 2) 2x2 blocks; returns a list of Fraction matrices with p-integral
    entries."""
    n = lat.rank
    m = [[Fraction(lat.gram[i][j]) for j in range(n)] for i in range(n)]

    def val(x: Fraction) -> int:
        if x == 0:
            return 10 ** 9
        v = 0
        num, den = x.numerator, x.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v

    blocks = []
    active = list(range(n))
    while active:
        best_diag = min(active, key=lambda i: val(m[i][i]))
        best_off = None
        bv = 10 ** 9
        for ii, i in enumerate(active):
            for j in active[ii + 1:]:
                if val(m[i][j]) < bv:
                    bv = val(m[i][j])
                    best_off = (i, j)
        if val(m[best_diag][best_diag]) <= bv:
            i0 = best_diag
            piv = m[i0][i0]
            blocks.append([[piv]])
            active.remove(i0)
            for i in active:
                f = m[i][i0] / piv
                if f:
                    for j in active:
                        m[i][j] -= f * m[i0][j]
            for i in active:
                m[i0][i] = Fraction(0)
                m[i][i0] = Fraction(0)
        else:
            i0, j0 = best_off
            bmat = [[m[i0][i0], m[i0][j0]], [m[j0][i0], m[j0][j0]]]
            det = bmat[0][0] * bmat[1][1] - bmat[0][1] * bmat[1][0]
            blocks.append(bmat)
            active.remove(i0)
            active.remove(j0)
            inv = [
                [bmat[1][1] / det, -bmat[0][1] / det],
                [-bmat[1][0] / det, bmat[0][0] / det],
            ]
            for i in active:
                ci = [m[i][i0], m[i][j0]]
                f0 = ci[0] * inv[0][0] + ci[1] * inv[1][0]
                f1 = ci[0] * inv[0][1] + ci[1] * inv[1][1]
                if f0 or f1:
                    for j in range(n):
                        m[i][j] -= f0 * m[i0][j] + f1 * m[j0][j]
            for i in active:
                m[i0][i] = m[i][i0] = Fraction(0)
                m[j0][i] = m[i][j0] = Fraction(0)
    return blocks


def _frac_mod(x: Fraction, modulus: int) -> int:
    den = x.denominator
    if math.gcd(den, modulus) != 1:
        raise ArithmeticError("denominator not invertible; Jordan splitting broke p-integrality")
    return (x.numerator * pow(den, -1, modulus)) % modulus


def _residue_counts(blocks, pk: int) -> list[int]:
    """#{x mod pk : Q(x) = r mod pk} for r = 0..pk-1, by convolving the value
    distributions of the Jordan blocks (exact big ints)."""
    dist = [0] * pk
    dist[0] = 1
    for b in blocks:
        var = [0] * pk
        if len(b) == 1:
            coef = _frac_mod(b[0][0] / 2, pk)
            for x in range(pk):
                var[(coef * x * x) % pk] += 1
        else:
            qa = _frac_mod(b[0][0] / 2, pk)
            qb = _frac_mod(b[0][1], pk)
            qc = _frac_mod(b[1][1] / 2, pk)
            for x in range(pk):
                base = (qa * x * x) % pk
                cross = (qb * x) % pk
                for y in range(pk):
                    var[(base + cross * y + qc * y * y) % pk] += 1
        new = [0] * pk
        for v1, c1 in enumerate(dist):
            if c1:
                for v2, c2 in enumerate(var):
                    if c2:
                        new[(v1 + v2) % pk] += c1 * c2
        dist = new
    return dist


def _counts_generic(lat: Lattice, p: int, m: int, k_max: int) -> list[int]:
    """N_k(m) read from the full value distribution mod p^k at every level."""
    blocks = _jordan_blocks(lat, p)
    return [_residue_counts(blocks, p ** k)[m % p ** k] for k in range(1, k_max + 1)]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for f in range(2, math.isqrt(p) + 1):
        if p % f == 0:
            return False
    return True


def local_density(lat: Lattice, p: int, m: int, max_level: int | None = None) -> LocalDensityReport:
    """Normalized counts p^(-k(n-1)) #{x mod p^k : Q(x) = m mod p^k}.

    The stabilization threshold is k0 = 2 ord_p(2 m det) + 2; the report
    carries every level up to max_level (default k0 + 1) and the stabilized
    value once two consecutive levels >= k0 agree.  Requesting extra levels
    re-checks that later values stay put.
    """
    if not lat.is_positive_definite:
        raise UnsupportedLattice("local densities are computed for positive definite lattices")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    k0 = 2 * _ordp(2 * m * abs(lat.det), p) + 2
    if max_level is None:
        max_level = k0 + 1
    if max_level < k0 + 1:
        raise NotStabilized(
            f"max_level={max_level} is below the stabilization threshold k0+1={k0 + 1}"
        )
    if abs(lat.det) % p:
        counts = _counts_unimodular(lat, p, m, max_level)
    else:
        counts = _counts_generic(lat, p, m, max_level)
    approx = tuple(
        (k, Fraction(cnt, p ** (k * (lat.rank - 1))))
        for k, cnt in zip(range(1, max_level + 1), counts)
    )
    stabilized = None
    for k in range(k0, max_level):
        if approx[k - 1][1] == approx[k][1]:
            stabilized = approx[k - 1][1]
            tail = [v for kk, v in approx if kk >= k]
            if any(v != stabilized for v in tail):
                raise NotStabilized(
                    f"stabilization violated beyond level {k} for p={p}, m={m}"
                )
            break
    if stabilized is None:
        raise NotStabilized(
            f"no two consecutive levels >= k0={k0} agree up to max_level={max_level}"
        )
    return LocalDensityReport(
        p=p, m=m, rank=lat.rank, approximations=approx, stabilized=stabilized,
        threshold=k0,
    )


def _pi_power_over_zeta(l: int) -> Fraction:
    """pi^l / zeta(l) for even l, exactly (the pi powers cancel)."""
    # zeta(l) = (-1)^(l/2+1) B_l (2 pi)^l / (2 l!)
    sign = (-1) ** (l // 2 + 1)
    return Fraction(2 * math.factorial(l)) / (sign * bernoulli(l) * 2 ** l)


def siegel_product(lat: Lattice, m: int, prime_cutoff: int = 2) -> Fraction:
    """Product-formula prediction of r(m) for an even unimodular lattice.

    r(m) = alpha_infinity * prod_p alpha_p with the archimedean density
    (2 pi)^(n/2) m^(n/2 - 1) / Gamma(n/2) (det = 1); densities are counted
    honestly for p <= prime_cutoff and p | 2m, and the unramified tail is
    folded into 1/zeta(n/2) exactly.  Refuses anything that is not even
    unimodular (positive definite, det 1, rank divisible by 8)."""
    if not lat.is_positive_definite or lat.det != 1 or lat.rank % 8:
        raise UnsupportedLattice(
            "siegel_product supports even unimodular lattices only (det 1, rank = 0 mod 8)"
        )
    if m < 1:
        raise ValueError("m must be >= 1")
    l = lat.rank // 2
    primes = set()
    x = 2 * m
    f = 2
    while f * f <= x:
        while x % f == 0:
            primes.add(f)
            x //= f
        f += 1
    if x > 1:
        primes.add(x)
    primes.update(p for p in range(2, prime_cutoff + 1) if _is_prime(p))
    base = Fraction(2 ** l) * Fraction(m) ** (l - 1) / math.factorial(l - 1)
    result = base * _pi_power_over_zeta(l)
    for p in sorted(primes):
        alpha = local_density(lat, p, m).stabilized
        result *= alpha / (1 - Fraction(1, p ** l))
    return result
