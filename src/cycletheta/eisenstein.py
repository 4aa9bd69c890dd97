"""Fourier coefficients of classical Eisenstein series and p-adic local
representation densities.

Covers: Hurwitz class numbers H(d) by one sieve over the reduced forms
(a, b, c), each visited once for the whole range of d it falls in (the
holomorphic coefficients of the weight-3/2 series; H(0) = -1/12 by the
orbifold-volume convention), the level-one series E_k, the Cohen numbers
H(s, N) of weight s + 1/2 (s >= 1, with H(1, N) = H(N) by the class-number
formula) via generalized Bernoulli numbers, local solution
densities of Q(x) = m mod p^k, and the resulting product formula
prediction of representation numbers for even unimodular lattices.

All outputs are exact rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .quadlattice import Lattice, _block_reduce

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


# B_0 .. B_n for the largest n asked so far, and the last column of the
# tangent-number triangle below, from which the next one follows
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]
_TANGENT_COLUMN: list[int] = []


def _tangent_column(column: list[int]) -> list[int]:
    """Column j = len(column) + 1 of the integer triangle of Brent and Harvey
    (2011) for the tangent numbers, from column j - 1.

    Row by row, the triangle sets t_j = (j - 1)! for j = 1 .. m, and pass
    k = 2 .. m sets t_j = (j - k) t_(j-1) + (j - k + 2) t_j for j = k .. m
    in turn, leaving T_k = t_k.  Entry k of column j is t_j after pass k
    (k = 1 .. j): it reads entry k of column j - 1 (weighted j - k, so 0 at
    k = j) and entry k - 1 of column j, so the columns come one at a time,
    and the last entry of column j is T_j."""
    j = len(column) + 1
    out = [math.factorial(j - 1)]
    for k, prev in zip(range(2, j + 1), column[1:] + [0]):
        out.append((j - k) * prev + (j - k + 2) * out[-1])
    return out


def _bernoulli_table(n: int) -> list[Fraction]:
    """B_0, ..., B_n and perhaps more (B_1 = -1/2) with no recursion: B_2k =
    (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers T_k.  One
    table grows on demand by one column of _tangent_column per new B_2k,
    so a caller walking n upward pays for the largest n once."""
    global _TANGENT_COLUMN
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    while len(_BERNOULLI) <= n:
        if len(_BERNOULLI) % 2:
            _BERNOULLI.append(Fraction(0))
        else:
            k = len(_BERNOULLI) // 2
            _TANGENT_COLUMN = _tangent_column(_TANGENT_COLUMN)
            _BERNOULLI.append(Fraction((-1) ** (k - 1) * 2 * k * _TANGENT_COLUMN[-1],
                                       4 ** k * (4 ** k - 1)))
    return _BERNOULLI


@lru_cache(maxsize=1024)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2) for n >= 0."""
    return _bernoulli_table(n)[n]


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorisation of n >= 1 as (p, e) pairs, p increasing, by
    trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"cannot factorise {n}")
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum_{d | n} d^k for k >= 0 and n >= 1:
    the product over p^e || n of 1 + p^k + ... + p^(ke).  sigma_k(0) = 0, the
    q-expansion convention; a negative n is refused."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0
    return math.prod(sum(p ** (k * i) for i in range(e + 1)) for p, e in _factorize(n))


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
    if disc == 0 or disc % 4 not in (0, 1):
        raise ValueError("not a discriminant")
    core, f = (1 if disc > 0 else -1), 1
    for p, e in _factorize(abs(disc)):
        core *= p ** (e % 2)
        f *= p ** (e // 2)
    if core % 4 != 1:  # then f is even, as disc = core f^2 = 0 mod 4
        return 4 * core, f // 2
    return core, f


# ---------------------------------------------------------------------------
# Hurwitz class numbers


@lru_cache(maxsize=1024)
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


def _six_hurwitz(d_lo: int, d_hi: int) -> list[int]:
    """[6 H(d) for d_lo <= d <= d_hi], 1 <= d_lo, as exact integers.

    Visits each reduced form (a, b, c) with d_lo <= 4ac - b^2 <= d_hi once:
    for every a with 3a^2 <= d_hi and -a < b <= a, c steps up from its
    least admissible value (c >= a, c > a when b < 0), moving d by 4a.  A
    form adds 6, except the boundary forms a = c: b = 0 (a multiple of
    x^2 + y^2) adds 3 and b = a (a multiple of x^2 + xy + y^2) adds 2.
    """
    six = [0] * (d_hi - d_lo + 1)
    a = 1
    while 3 * a * a <= d_hi:
        step = 4 * a
        for b in range(1 - a, a + 1):
            c = max(a + (b < 0), -(-(d_lo + b * b) // step))
            d = step * c - b * b
            if c == a and d <= d_hi:
                six[d - d_lo] += 3 if b == 0 else 2 if b == a else 6
                d += step
            for i in range(d - d_lo, d_hi - d_lo + 1, step):
                six[i] += 6
        a += 1
    return six


@lru_cache(maxsize=1024)
def hurwitz(d: int) -> Fraction:
    """Hurwitz class number H(d); H(0) = -1/12, zero unless d = 0, 3 mod 4.

    Classes equivalent to a multiple of x^2 + y^2 weigh 1/2, multiples of
    x^2 + xy + y^2 weigh 1/3, everything else weighs 1 (the sieve of
    hurwitz_table on the single value d)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return Fraction(-1, 12)
    return Fraction(_six_hurwitz(d, d)[0], 6)


@dataclass(frozen=True)
class HurwitzTable:
    d_max: int
    values: MappingProxyType[int, Fraction] = field(compare=False)  # read-only: cached

    convention = "H(0) = -1/12 (orbifold volume of SL2(Z)\\H)"

    def to_json_dict(self) -> dict:
        return {
            "d_max": self.d_max,
            "convention": self.convention,
            "values": {str(d): str(v) for d, v in sorted(self.values.items())},
        }


@lru_cache(maxsize=16)
def hurwitz_table(d_max: int) -> HurwitzTable:
    """H(d) for every d <= d_max with d = 0, 3 mod 4, and H(0) = -1/12.

    One pass of the reduced-form sieve over [1, d_max] (see hurwitz for the
    weights 1, 1/2, 1/3) in integers 6 H(d), converted to Fraction once per
    d at the end: about pi d_max^(3/2) / 18 steps, O(d_max^(3/2)), against
    O(d_max^2) for one class count per d."""
    if d_max < 0:
        raise ValueError(f"d_max must be >= 0, got {d_max}")
    six = _six_hurwitz(1, d_max)
    values = {0: Fraction(-1, 12)}
    values.update((d, Fraction(six[d - 1], 6)) for d in range(3, d_max + 1) if d % 4 in (0, 3))
    return HurwitzTable(d_max=d_max, values=MappingProxyType(values))


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
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    factor = Fraction(-2 * k) / bernoulli(k)
    coeffs = [(0, Fraction(1))]
    for n in range(1, truncation):
        coeffs.append((n, factor * sigma(k - 1, n)))
    return ScalarQSeries(name=f"E{k}", weight=Fraction(k), coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# Cohen numbers


@lru_cache(maxsize=1024)
def generalized_bernoulli(n: int, disc: int) -> Fraction:
    """B_{n, chi} for the quadratic character chi = (disc / .) of conductor
    |disc| (disc a fundamental discriminant or 1), via Bernoulli polynomials:

        B_{n,chi} = f^(n-1) sum_{a=1}^{f} chi(a) B_n(a/f)
                  = sum_k C(n, k) B_k f^(k-1) S_(n-k),

    where S_j = sum_{a=1}^{f} chi(a) a^j is summed in integers, so the loop
    over a does no rational arithmetic."""
    if disc % 4 not in (0, 1) or not disc or _fundamental_decomposition(disc) != (disc, 1):
        raise ValueError(f"{disc} is not a fundamental discriminant or 1")
    f, bern = abs(disc), _bernoulli_table(n)
    sums = [0] * (n + 1)
    for a in range(1, f + 1):
        power = kronecker_symbol(disc, a)
        if power:
            for j in range(n + 1):
                sums[j] += power
                power *= a
    return sum(
        math.comb(n, k) * bern[k] * Fraction(f) ** (k - 1) * sums[n - k]
        for k in range(n + 1)
    )


def _l_value_nonpositive(s: int, disc: int) -> Fraction:
    """L(1-s, chi_disc) = -B_{s, chi}/s (with chi_1 giving zeta)."""
    if disc == 1:
        return -bernoulli(s) / s  # zeta(1 - s)
    return -generalized_bernoulli(s, disc) / s


COHEN_CONVENTION = (
    "H(s, N) = L(1-s, chi_D) * sum_{d | f} mu(d) chi_D(d) d^(s-1) "
    "sigma_(2s-1)(f/d) for s >= 1 and (-1)^s N = D f^2 with D fundamental; "
    "H(s, 0) = zeta(1-2s); zero when (-1)^s N = 2, 3 mod 4; "
    "H(1, N) = H(N), the Hurwitz class number"
)


@lru_cache(maxsize=1024)
def cohen_number(s: int, n: int) -> Fraction:
    """The Cohen number H(s, n) (weight s + 1/2 Eisenstein coefficients).

    For (-1)^s n = D f^2 with D fundamental, H(s, n) = L(1-s, chi_D) times
    sum_{d | f} mu(d) chi_D(d) d^(s-1) sigma_(2s-1)(f/d).  That sum is
    multiplicative in f, so it is computed as the product over p^e || f of
    sigma_(2s-1)(p^e) - chi_D(p) p^(s-1) sigma_(2s-1)(p^(e-1)).  At s = 1
    this is the class-number formula H(1, n) = H(n), and H(1, 0) = zeta(-1)
    = -1/12.  It shares no code with the reduced-form sieve behind hurwitz()
    and hurwitz_table()."""
    if s < 1:
        raise UnsupportedWeight("need s >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return -bernoulli(2 * s) / (2 * s)  # zeta(1 - 2s)
    disc = n if s % 2 == 0 else -n
    if disc % 4 not in (0, 1):
        return Fraction(0)
    d0, f = _fundamental_decomposition(disc)
    return _l_value_nonpositive(s, d0) * math.prod(
        sigma(2 * s - 1, p ** e)
        - kronecker_symbol(d0, p) * p ** (s - 1) * sigma(2 * s - 1, p ** (e - 1))
        for p, e in _factorize(f)
    )


def cohen(s: int, truncation: int) -> ScalarQSeries:
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
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
    stabilized: Fraction
    threshold: int

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "rank": self.rank,
            "threshold": self.threshold,
            "approximations": [[k, str(v)] for k, v in self.approximations],
            "stabilized": str(self.stabilized),
        }


def _ordp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("ord_p(0)")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=64)
def _jordan_blocks(lat: Lattice, p: int, digits: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Orthogonal splitting of Q(x) = x^T G x / 2 over Z_p into blocks p^s B.

    Each block is (s, coefficients of B mod p^digits): (u,) for the 1x1 form
    u x^2 with u a unit, and (a, b, c) for the 2x2 form a x^2 + b xy + c y^2
    with b a unit and p | a, c when p is odd.  The blocks are the pivots of
    _block_reduce under a p-adic rule: the entry of least valuation, a
    diagonal one on ties, so a 2x2 block appears when an off-diagonal entry
    is strictly smaller (always the case for the unimodular part of an even
    form at p = 2).
    """

    def val(x: Fraction) -> int:
        return _ordp(x.numerator, p) - _ordp(x.denominator, p) if x else 10 ** 9

    def choose(m, active):
        pairs = [(i, j) for t, i in enumerate(active) for j in active[t:]]
        return min(pairs, key=lambda ij: (val(m[ij[0]][ij[1]]), ij[0] != ij[1]))

    def block(s: int, *coeffs: Fraction) -> tuple[int, tuple[int, ...]]:
        return s, tuple(_frac_mod(c / p ** s, p ** digits) for c in coeffs)

    blocks = []
    for piv, prow in _block_reduce(lat.gram, choose):
        if len(piv) == 1:
            a = prow[0][piv[0]] / 2
            blocks.append(block(val(a), a))
        else:
            b = prow[0][piv[1]]
            blocks.append(block(val(b), prow[0][piv[0]] / 2, b, prow[1][piv[1]] / 2))
    return tuple(blocks)


def _frac_mod(x: Fraction, modulus: int) -> int:
    den = x.denominator
    if math.gcd(den, modulus) != 1:
        raise ArithmeticError("denominator not invertible; Jordan splitting broke p-integrality")
    return (x.numerator * pow(den, -1, modulus)) % modulus


def _lifting_level(p: int) -> int:
    """Level from which solutions with a unit scale-0 part lift p^(n-1)-fold."""
    return 1 if p > 2 else 3


def _residue_counts(blocks, p: int, k: int) -> list[int]:
    """#{x mod p^k : Q(x) = r mod p^k} for r = 0..p^k-1, by convolving the
    value distributions of the Jordan blocks (exact big ints).  Used at
    p = 2, k = 3; odd p reads N_1 from _count_mod_p instead."""
    pk = p ** k
    dist = [1] + [0] * (pk - 1)
    for s, coeffs in blocks:
        a, b, c = (p ** s * t for t in (coeffs if len(coeffs) == 3 else (coeffs[0], 0, 0)))
        ys = range(pk) if len(coeffs) == 3 else (0,)
        var = Counter((a * x * x + b * x * y + c * y * y) % pk for x in range(pk) for y in ys)
        new = [0] * pk
        for v1, c1 in enumerate(dist):
            if c1:
                for v2, c2 in var.items():
                    new[(v1 + v2) % pk] += c1 * c2
        dist = new
    return dist


def _count_mod_p(units, r: int, p: int, m: int) -> int:
    """#{x mod p : f(x) = m mod p} for odd p, in closed form, where f is the
    scale-0 part of a Jordan splitting: the coefficient tuples ``units`` of
    total rank r, a nondegenerate form over F_p.  By Lidl and Niederreiter,
    *Finite Fields*, Thms 6.26 and 6.27, the count is

        p^(r-1) + v(m) p^(r/2 - 1) eta((-1)^(r/2) D)      for r even,
        p^(r-1) + p^((r-1)/2) eta((-1)^((r-1)/2) m D)     for r odd,

    with v(0) = p - 1, v(m) = -1 otherwise, eta the quadratic character and
    D the determinant of f up to squares: the product of u over the blocks
    u x^2 and of 4ac - b^2 over the blocks a x^2 + b xy + c y^2.
    """
    if r == 0:
        return 1 if m % p == 0 else 0
    disc = 1
    for c in units:
        disc *= c[0] if len(c) == 1 else 4 * c[0] * c[2] - c[1] * c[1]
    if r % 2:
        return p ** (r - 1) + p ** (r // 2) * kronecker_symbol((-1) ** (r // 2) * m * disc, p)
    v = p - 1 if m % p == 0 else -1
    return p ** (r - 1) + v * p ** (r // 2 - 1) * kronecker_symbol((-1) ** (r // 2) * disc, p)


def _level_counts(blocks, p: int, m: int, k_max: int) -> list[int]:
    """[N_1, ..., N_kmax] for Q = sum of p^s B over the Jordan blocks, by the
    level recursion described in local_density."""
    lift = _lifting_level(p)
    n = sum(1 if len(c) == 1 else 2 for _, c in blocks)
    n0 = sum(1 if len(c) == 1 else 2 for s, c in blocks if s == 0)
    if p == 2:
        dist = _residue_counts(blocks, p, lift)
        counts = [
            sum(dist[m % p ** k::p ** k]) // p ** (n * (lift - k))
            for k in range(1, min(lift, k_max) + 1)
        ]
    else:
        units = [c for s, c in blocks if s == 0]
        counts = [p ** (n - n0) * _count_mod_p(units, n0, p, m)]
    if k_max <= lift:
        return counts
    bad = [0] * k_max  # bad[k - 1]: solutions mod p^k with x_0 = 0 mod p
    if m % p == 0:
        rotated = tuple((1 if s == 0 else s - 1, c) for s, c in blocks)
        bad = [p ** (n - n0) * c for c in [1] + _level_counts(rotated, p, m // p, k_max - 1)]
    good = counts[-1] - bad[lift - 1]
    return counts + [
        p ** ((n - 1) * (k - lift)) * good + bad[k - 1] for k in range(lift + 1, k_max + 1)
    ]


def local_density(lat: Lattice, p: int, m: int) -> LocalDensityReport:
    """Normalized counts p^(-k(n-1)) N_k, N_k = #{x mod p^k : Q(x) = m mod p^k}.

    The normalized counts are constant from the threshold k0 = 2 ord_p(2 m det) + 2
    on.  The report carries levels 1..k0+1 and, as the stabilized value, the
    level-k0 value, once level k0+1 equals it; otherwise NotStabilized is
    raised.

    The counts come from one exact recursion over levels, the reduction
    maps of Hanke, *Local densities and explicit bounds for
    representability by a quadratic form*, Duke Math. J. 124 (2004), for
    every p.  Split Q = Q_0 + p Q' over Z_p, with Q_0 the Jordan blocks of
    scale 0 (rank n_0), and let the lifting level be l = 1 for odd p and
    l = 3 for p = 2.  For k > l

        N_k(Q, m) = p^((n-1)(k-l)) G + [p | m] p^(n-n_0) N_(k-1)(Q' + p Q_0, m/p).

    The second term counts the x with x_0 = p y_0: then Q(x) = m reads
    Q'(x') + p Q_0(y_0) = m/p mod p^(k-1), with x' free mod p^k.  G counts
    the solutions mod p^l with x_0 != 0 mod p (N_l minus the second term
    at k = l; 0 when n_0 = 0), and each of those lifts p^(n-1)-fold per
    level above l: by Hensel's lemma where the gradient of Q at x is a unit
    mod p, which covers odd p and a nonzero 2x2 block at p = 2, and otherwise
    through a unit 1x1 block u x_i^2 with x_i odd, where for k >= 3 the
    involution x -> x + 2^(k-1) e_i of the solutions mod 2^k swaps
    Q(x) = m and Q(x) = m + 2^k mod 2^(k+1), so half of them lift 2^n-fold.
    At p = 2, N_k for k <= 3 is read from the value distribution mod 8; at
    odd p, N_1 is the closed-form count of a form over F_p (_count_mod_p).
    A report thus costs O(k0) steps on small integers, whatever p^k0 is.
    """
    if not lat.is_positive_definite:
        raise UnsupportedLattice("local densities are computed for positive definite lattices")
    if p < 2 or _factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    k0 = 2 * _ordp(2 * m * abs(lat.det), p) + 2
    counts = _level_counts(_jordan_blocks(lat, p, _lifting_level(p)), p, m, k0 + 1)
    approx = tuple(
        (k, Fraction(cnt, p ** (k * (lat.rank - 1))))
        for k, cnt in zip(range(1, k0 + 2), counts)
    )
    stabilized = approx[k0 - 1][1]
    if approx[k0][1] != stabilized:
        raise NotStabilized(f"levels k0={k0} and k0+1 disagree for p={p}, m={m}")
    return LocalDensityReport(
        p=p, m=m, rank=lat.rank, approximations=approx, stabilized=stabilized,
        threshold=k0,
    )


def _pi_power_over_zeta(l: int) -> Fraction:
    """pi^l / zeta(l) for even l, exactly (the pi powers cancel)."""
    # zeta(l) = (-1)^(l/2+1) B_l (2 pi)^l / (2 l!)
    sign = (-1) ** (l // 2 + 1)
    return Fraction(2 * math.factorial(l)) / (sign * bernoulli(l) * 2 ** l)


def siegel_product(lat: Lattice, m: int) -> Fraction:
    """Product-formula prediction of r(m) for an even unimodular lattice.

    r(m) = alpha_infinity * prod_p alpha_p with the archimedean density
    (2 pi)^(n/2) m^(n/2 - 1) / Gamma(n/2) (det = 1); densities are counted
    honestly for p | 2m, and the tail over the other primes, where
    alpha_p = 1 - p^(-n/2), is folded into 1/zeta(n/2) exactly.  Refuses
    anything that is not even unimodular (positive definite, det 1, rank
    divisible by 8)."""
    if not lat.is_positive_definite or lat.det != 1 or lat.rank % 8:
        raise UnsupportedLattice(
            "siegel_product supports even unimodular lattices only (det 1, rank = 0 mod 8)"
        )
    if m < 1:
        raise ValueError("m must be >= 1")
    l = lat.rank // 2
    base = Fraction(2 ** l) * Fraction(m) ** (l - 1) / math.factorial(l - 1)
    result = base * _pi_power_over_zeta(l)
    for p, _e in _factorize(2 * m):
        alpha = local_density(lat, p, m).stabilized
        result *= alpha / (1 - Fraction(1, p ** l))
    return result
