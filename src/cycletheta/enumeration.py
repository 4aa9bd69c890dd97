"""Exact lattice-vector enumeration: representation numbers and coset theta
series in genus 1 and 2.

The enumeration core is a Fincke-Pohst style recursive bound on the
successive square completion of the Gram matrix.  All bounds and membership
tests are carried out in scaled integer arithmetic (fixed denominators are
cleared once per lattice), so the output is exact and byte-for-byte
deterministic.  Genus-2 counts come from inner-product histograms over
pairs of shells.  A shell is the set of vectors of one norm in one coset,
kept as a cached int64 array of integer-scaled rows built straight from the
walker's offsets.  The pair products run through float64 BLAS under a 2^53
exactness guard and are counted with np.bincount, so they stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .quadlattice import Coset, Lattice, discriminant_form

__all__ = [
    "NotPositiveDefinite",
    "VectorValuedQSeries",
    "Genus2Coefficient",
    "vectors_with_norm",
    "rep_number",
    "theta_qseries",
    "rep_number_genus2",
    "inner_product_histogram",
]


class NotPositiveDefinite(ValueError):
    pass


@dataclass
class VectorValuedQSeries:
    """A vector-valued q-expansion with exact rational data.

    ``components`` maps each coset (canonical representative tuple) to a
    sorted tuple of (exponent, coefficient) pairs; coefficients are recorded
    for every exponent on the coset's grid below ``truncation``, including
    zeros, so consumers can distinguish "zero" from "not computed".
    """

    weight: Fraction
    level_denominator: int
    components: dict[Coset, tuple[tuple[Fraction, int], ...]]
    truncation: Fraction

    def component(self, coset) -> tuple[tuple[Fraction, int], ...]:
        if coset is None:
            key = next(iter(sorted(self.components)))
            assert not any(key)
        else:
            key = tuple(Fraction(x) % 1 for x in coset)
        return self.components[key]

    def coefficient(self, coset, m) -> int:
        m = Fraction(m)
        if m >= self.truncation:
            raise ValueError(f"exponent {m} is beyond the truncation {self.truncation}")
        for e, c in self.component(coset):
            if e == m:
                return c
        return 0

    def text_lines(self) -> list[str]:
        lines = []
        for coset in sorted(self.components):
            label = "(" + ",".join(str(x) for x in coset) + ")"
            terms = [f"{c}*q^({e})" for e, c in self.components[coset] if c != 0]
            lines.append(f"coset={label}: " + (" + ".join(terms) if terms else "0"))
        return lines

    def to_json_dict(self) -> dict:
        return {
            "weight": str(self.weight),
            "level_denominator": self.level_denominator,
            "truncation": str(self.truncation),
            "components": {
                "(" + ",".join(str(x) for x in coset) + ")": [
                    [str(e), str(c)] for e, c in pairs
                ]
                for coset, pairs in sorted(self.components.items())
            },
        }


def _is_psd_2x2(t) -> bool:
    (t11, t12), (t21, t22) = t
    return t11 >= 0 and t22 >= 0 and t11 * t22 - t12 * t21 >= 0


@dataclass(frozen=True)
class Genus2Coefficient:
    """A genus-2 Fourier index T (half-integral 2x2) with its count."""

    t: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    count: int

    def __post_init__(self):
        if self.count > 0 and not _is_psd_2x2(self.t):
            raise ValueError("positive count at a non positive semidefinite index")


def _require_positive_definite(lat: Lattice):
    if not lat.is_positive_definite:
        raise NotPositiveDefinite(f"signature {lat.signature} is not ({lat.rank}, 0)")


@lru_cache(maxsize=None)
def _square_completion(lat: Lattice):
    """Exact decomposition 2*Q(y) = sum_i d_i (y_i + sum_{j>i} u_ij y_j)^2."""
    n = lat.rank
    m = [[Fraction(x) for x in row] for row in lat.gram]
    ds: list[Fraction] = []
    us = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d = m[i][i]
        if d <= 0:
            raise NotPositiveDefinite("square completion hit a nonpositive pivot")
        ds.append(d)
        for j in range(i + 1, n):
            us[i][j] = m[i][j] / d
        for r in range(i + 1, n):
            for s in range(i + 1, n):
                m[r][s] -= m[r][i] * m[i][s] / d
    return tuple(ds), tuple(tuple(row) for row in us)


@lru_cache(maxsize=None)
def _scaled_data(lat: Lattice, mu: Coset):
    """Integer-scaled enumeration data for the coset mu + L.

    Returns (n, delta, l0, u_hat, c_hat, mu_base) where delta clears all
    denominators of mu and of the completion coefficients u_ij, l0 clears
    the pivots d_i, u_hat[i][j] = u_ij * delta, c_hat[i] = d_i * l0, and
    mu_base[i] = mu_i * delta**2.
    """
    _require_positive_definite(lat)
    n = lat.rank
    ds, us = _square_completion(lat)
    delta = math.lcm(
        1,
        *(u.denominator for row in us for u in row),
        *(Fraction(x).denominator for x in mu),
    )
    l0 = math.lcm(1, *(d.denominator for d in ds))
    u_hat = tuple(tuple(int(u * delta) for u in row) for row in us)
    c_hat = tuple(int(d * l0) for d in ds)
    mu_base = tuple(int(Fraction(x) * delta * delta) for x in mu)
    return n, delta, l0, u_hat, c_hat, mu_base


def _walk_target(lat: Lattice, mu: Coset, m: Fraction, collect: bool):
    """All y in mu + Z^n with Q(y) == m (exact); returns vectors or a count.

    mu is a canonical coset of L'/L; m off the grid q(mu) + Z finds nothing.

    Budgets are maintained as B_hat = (2m - partial sums) * l0 * delta^4 in
    plain integers; the innermost level solves the residual quadratic
    exactly instead of scanning.
    """
    n, delta, l0_base, u_hat, c_hat_base, mu_base = _scaled_data(lat, mu)
    m = Fraction(m)
    if m < 0 or (m - discriminant_form(lat).q(mu)).denominator != 1:
        return [] if collect else 0
    two_m = 2 * m
    extra = two_m.denominator // math.gcd(l0_base, two_m.denominator)
    l0 = l0_base * extra
    c_hat = tuple(c * extra for c in c_hat_base)
    d4 = delta ** 4
    b_init = two_m * l0 * d4
    assert b_init.denominator == 1
    b_init = int(b_init)

    d2 = delta * delta
    found: list[tuple[int, ...]] = []
    count = 0
    v = [0] * n
    centers = [[0] * n for _ in range(n + 1)]  # centers[level][i] = c_acc for level i

    def descend(level: int, b_hat: int):
        nonlocal count
        c_acc = centers[level + 1]
        base = mu_base[level] + c_acc[level]
        ci = c_hat[level]
        if level == 0:
            # solve c0 * t^2 == b_hat exactly
            if b_hat % ci:
                return
            q, r = divmod(b_hat, ci)
            s = math.isqrt(q)
            if s * s != q:
                return
            for t in ({s, -s} if s else {0}):
                num = t - base
                if num % d2 == 0:
                    if collect:
                        v[0] = num // d2
                        found.append(tuple(v))
                    else:
                        count += 1
            return
        s = math.isqrt(b_hat // ci)
        lo = -((s + base) // d2)  # ceil((-s - base)/d2)
        hi = (s - base) // d2
        mine = centers[level]
        for vi in range(lo, hi + 1):
            t_hat = base + vi * d2
            b_next = b_hat - ci * t_hat * t_hat
            if b_next < 0:
                continue
            v[level] = vi
            y_scaled = vi * delta + (mu_base[level] // delta)  # y_i * delta
            for i in range(level):
                mine[i] = c_acc[i] + u_hat[i][level] * y_scaled
            descend(level - 1, b_next)

    # mu_base[i] = mu_i * delta^2 is divisible by delta since den(mu_i) | delta
    descend(n - 1, b_init)
    if collect:
        return sorted(found)
    return count


def _ball_counts(lat: Lattice, mu: Coset, bound: Fraction) -> dict[Fraction, int]:
    """Counts of vectors in mu + Z^n with Q(y) < bound, bucketed by Q-value."""
    n, delta, l0, u_hat, c_hat, mu_base = _scaled_data(lat, mu)
    d4 = delta ** 4
    two_b = 2 * Fraction(bound)
    b_init = math.ceil(two_b * l0 * d4)
    d2 = delta * delta
    buckets: dict[int, int] = {}
    centers = [[0] * n for _ in range(n + 1)]

    def descend(level: int, b_hat: int):
        c_acc = centers[level + 1]
        base = mu_base[level] + c_acc[level]
        ci = c_hat[level]
        s = math.isqrt(b_hat // ci)
        lo = -((s + base) // d2)
        hi = (s - base) // d2
        if level == 0:
            t = base + lo * d2
            step = d2
            used = b_init - b_hat
            for _ in range(lo, hi + 1):
                rem = ci * t * t
                key = used + rem
                buckets[key] = buckets.get(key, 0) + 1
                t += step
            return
        mine = centers[level]
        for vi in range(lo, hi + 1):
            t_hat = base + vi * d2
            b_next = b_hat - ci * t_hat * t_hat
            if b_next < 0:
                continue
            y_scaled = vi * delta + (mu_base[level] // delta)
            for i in range(level):
                mine[i] = c_acc[i] + u_hat[i][level] * y_scaled
            descend(level - 1, b_next)

    descend(n - 1, b_init)
    out: dict[Fraction, int] = {}
    scale = 2 * l0 * d4
    for key, c in buckets.items():
        q = Fraction(key, scale)
        if q < bound:
            out[q] = out.get(q, 0) + c
    return out


def _coset_tuple(lat: Lattice, mu) -> Coset:
    return tuple(Fraction(x) % 1 for x in mu) if mu is not None else tuple(
        Fraction(0) for _ in range(lat.rank)
    )


def vectors_with_norm(lat: Lattice, mu, m) -> list[tuple[Fraction, ...]]:
    """All x in mu + L with Q(x) = m, in lexicographic coordinate order."""
    mu_t = _coset_tuple(lat, mu)
    offsets = _walk_target(lat, mu_t, m, collect=True)
    return [tuple(mu_t[i] + v[i] for i in range(lat.rank)) for v in offsets]


def rep_number(lat: Lattice, mu, m) -> int:
    """Number of x in mu + L with Q(x) = m."""
    return _walk_target(lat, _coset_tuple(lat, mu), m, collect=False)


@lru_cache(maxsize=32)
def theta_qseries(lat: Lattice, truncation) -> VectorValuedQSeries:
    """Coset theta series of a positive definite even lattice.

    One component per coset of L'/L; the component at coset lam carries the
    counts of vectors of each norm m < truncation on the grid q(lam) + Z.
    """
    _require_positive_definite(lat)
    bound = Fraction(truncation)
    df = discriminant_form(lat)
    components: dict[Coset, tuple[tuple[Fraction, int], ...]] = {}
    for lam in df.cosets:
        counts = _ball_counts(lat, lam, bound)
        grid: list[Fraction] = []
        e = df.q_table[lam]
        while e < bound:
            grid.append(e)
            e += 1
        components[lam] = tuple((e, counts.get(e, 0)) for e in grid)
    return VectorValuedQSeries(
        weight=Fraction(lat.rank, 2),
        level_denominator=df.level,
        components=components,
        truncation=bound,
    )


@lru_cache(maxsize=32)
def _shell(lat: Lattice, mu, m):
    """(delta, A): the rows of the read-only int64 array A are delta*x for the
    x in mu + L with Q(x) = m, in lexicographic order; delta clears mu."""
    mu_t = _coset_tuple(lat, mu)
    delta = math.lcm(1, *(x.denominator for x in mu_t))
    base = [int(x * delta) for x in mu_t]
    rows = [
        [delta * vi + b for vi, b in zip(v, base)]
        for v in _walk_target(lat, mu_t, m, collect=True)
    ]
    a = np.array(rows, dtype=np.int64).reshape(-1, lat.rank)
    a.flags.writeable = False
    return delta, a


_CHUNK = 1 << 20  # float64 products per BLAS call, and the most histogram bins


@lru_cache(maxsize=64)
def inner_product_histogram(lat: Lattice, mu1: Coset, m1, mu2: Coset, m2):
    """Read-only histogram {(x1, x2): count} of bilinear values over all pairs
    with Q(x1) = m1, Q(x2) = m2 in the given cosets.

    With the shells as integer rows A1 = delta1*x1 and A2 = delta2*x2, the
    entries of A1 (A2 G)^T are delta1*delta2*(x1, x2).  They are formed by
    float64 BLAS in row chunks, exactly: OverflowError is raised unless
    max|A1| * max|A2 G| * rank < 2^53, which keeps every partial sum an exact
    float64 integer.  Each chunk is counted by np.bincount, offset by the
    Cauchy-Schwarz bound |(x1, x2)| <= 2 sqrt(m1 m2); a range wider than
    _CHUNK bins also raises OverflowError, so memory stays bounded.
    """
    d1, a1 = _shell(lat, mu1, m1)
    d2, a2 = _shell(lat, mu2, m2)
    if not len(a1) or not len(a2):
        return MappingProxyType({})
    m1, m2 = Fraction(m1), Fraction(m2)
    g = np.array(lat.gram, dtype=np.int64)
    a2g = a2 @ g  # G is symmetric; int64 wraps, so this is exact if it fits
    off = math.isqrt(math.floor(4 * (d1 * d2) ** 2 * m1 * m2))
    # first test: |(x2, e_i)|^2 <= 2 m2 G_ii (Cauchy-Schwarz) keeps A2 G in int64
    if (
        2 * m2 * d2 * d2 * int(g.diagonal().max()) >= 2 ** 126
        or int(np.abs(a1).max()) * int(np.abs(a2g).max()) * lat.rank >= 2 ** 53
        or 2 * off + 1 > _CHUNK
    ):
        raise OverflowError("inner products too large for an exact float64 histogram")
    f1, f2 = a1.astype(np.float64), a2g.T.astype(np.float64)
    bins = np.zeros(2 * off + 1, dtype=np.int64)
    step = max(1, _CHUNK // len(a2))
    for start in range(0, len(a1), step):
        w = f1[start : start + step] @ f2
        w += off
        bins += np.bincount(w.astype(np.int64).ravel(), minlength=len(bins))
    return MappingProxyType(
        {Fraction(int(i) - off, d1 * d2): int(bins[i]) for i in np.flatnonzero(bins)}
    )


def rep_number_genus2(lat: Lattice, cosets, t) -> int:
    """Number of ordered pairs (x1, x2) with (1/2)((x_i, x_j)) = t.

    ``t`` is a symmetric 2x2 matrix (diagonal integral, off-diagonal
    half-integral); the count is 0 whenever t is not positive semidefinite.
    """
    _require_positive_definite(lat)
    t = tuple(tuple(Fraction(x) for x in row) for row in t)
    if t[0][1] != t[1][0]:
        raise ValueError("t must be symmetric")
    if not _is_psd_2x2(t):
        return 0
    mu1 = _coset_tuple(lat, cosets[0] if cosets else None)
    mu2 = _coset_tuple(lat, cosets[1] if cosets else None)
    hist = inner_product_histogram(lat, mu1, t[0][0], mu2, t[1][1])
    return hist.get(2 * t[0][1], 0)
