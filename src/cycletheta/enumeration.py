"""Exact lattice-vector enumeration: representation numbers and coset theta
series in genus 1 and 2.

Counts come from gluing and lists from walking.  Every count below a bound
(theta_qseries, and rep_number from rank _GLUE_RANK on) is glued (Conway-
Sloane, SPLAG ch. 4).  L contains L1 + L2 with finite index, L1 the span of
the first n // 2 basis vectors and L2 = L meet L1^perp, LLL-reduced; each
coset c + L is the union of the products (c1 + L1) x (c2 + L2) over the
glue group L / (L1 + L2), all in the integer Smith coordinates of
DiscriminantForm, so its theta series is the sum of the products of the
half series, convolved exactly.  Each half is glued again down to rank 1,
where L = (g) and the counts have a closed form in Python ints.  The
convolutions of a coset are one big-int product by Kronecker substitution
(_packed_convolution), so the glued counts never import numpy; the walker,
the shells and the genus-2 histograms below import it inside the functions
that use it.

Vectors come from one Fincke-Pohst descent (_descend) over the successive
square completion of the Gram matrix.  It works level by level on a numpy
frontier: each row is one partial vector (its remaining budget, the
centres it induces on the lower levels and, when asked, its lattice
offsets), and one step expands every row of a chunk over its whole range
for the next coordinate at once.  The frontier is walked depth first in
chunks of bounded size, so memory stays bounded.  With levels n-1 .. 1
fixed, the leaf (_walk_target) solves the residual quadratic for the last
coordinate exactly, giving the shell Q(x) = m for vectors_with_norm, the
genus-2 shells and rep_number below _GLUE_RANK.  That walk shares no code
with gluing, so it is the oracle of the glued counts in tests.

All bounds and membership tests are carried out in scaled integer
arithmetic (fixed denominators are cleared once per lattice and coset), so
the output is exact and byte-for-byte deterministic.  The walker's frontier
is int64 when a bound proved once per (lattice, coset, budget) keeps every
intermediate value below 2^62, and Python ints (dtype=object) otherwise;
both run the same code.  Genus-2 counts come from inner-product histograms
over pairs of shells.  A shell is the set of vectors of one norm in one
coset, kept as a cached int64 array of integer-scaled rows built straight
from the walker's offsets.  The pair products run through float32 or
float64 BLAS under a proved exactness bound and are counted with
np.bincount, so they stay exact.  The first shell is multiplied by one row
per orbit of the reflections in orthogonal roots (and of x -> -x where the
coset is its own negative), weighted by the orbit's size, and the second,
when closed under x -> -x, by half its rows.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType

from .quadlattice import (Coset, Lattice, _block_reduce, _pair, _rational_pivot, _smith,
                          _smith_coords, discriminant_form, new_lattice, smith_normal_form)

__all__ = [
    "NotPositiveDefinite",
    "VectorValuedQSeries",
    "vectors_with_norm",
    "rep_number",
    "theta_qseries",
    "rep_number_genus2",
    "inner_product_histogram",
]


class NotPositiveDefinite(ValueError):
    pass


@dataclass(frozen=True)
class VectorValuedQSeries:
    """A vector-valued q-expansion with exact rational data.

    ``components`` is a read-only mapping from each coset (canonical
    representative tuple) to a sorted tuple of (exponent, coefficient)
    pairs; coefficients are recorded for every exponent on the coset's grid
    below ``truncation``, including zeros, so consumers can distinguish
    "zero" from "not computed".
    """

    weight: Fraction
    level_denominator: int
    components: Mapping[Coset, tuple[tuple[Fraction, int], ...]]
    truncation: Fraction

    def component(self, coset) -> tuple[tuple[Fraction, int], ...]:
        """The pairs of ``coset``; None is the zero coset, the least key."""
        key = min(self.components) if coset is None else tuple(Fraction(x) % 1 for x in coset)
        try:
            return self.components[key]
        except KeyError:
            raise ValueError(f"{coset} is not a coset of the dual lattice") from None

    def coefficient(self, coset, m) -> int:
        m = Fraction(m)
        if m >= self.truncation:
            raise ValueError(f"exponent {m} is beyond the truncation {self.truncation}")
        for e, c in self.component(coset):
            if e == m:
                return c
        return 0

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


def _require_positive_definite(lat: Lattice):
    if not lat.is_positive_definite:
        raise NotPositiveDefinite(f"signature {lat.signature} is not ({lat.rank}, 0)")


@lru_cache(maxsize=256)
def _square_completion(lat: Lattice):
    """Exact decomposition 2*Q(y) = sum_i d_i (y_i + sum_{j>i} u_ij y_j)^2,
    with the diagonal of the inverse Gram matrix.  d_i and u_ij are read
    from the pivot rows of _block_reduce under the rational rule, whose
    pivots on a positive-definite lattice are diagonal, positive and in
    index order; anything else raises NotPositiveDefinite."""
    n = lat.rank
    steps = _block_reduce(lat.gram, _rational_pivot)
    ds = tuple(prow[0][piv[0]] for piv, prow in steps)
    if [piv for piv, _ in steps] != [(i,) for i in range(n)] or min(ds) <= 0:
        raise NotPositiveDefinite("square completion hit a nonpositive pivot")
    us = tuple(tuple(prow[0][j] / ds[i] if j > i else Fraction(0) for j in range(n))
               for i, (_, prow) in enumerate(steps))
    s, u, v = smith_normal_form(lat.gram)  # U G V = S gives G^-1 = V S^-1 U
    return ds, us, tuple(sum(Fraction(v[j][t] * u[t][j], s[t][t]) for t in range(n))
                         for j in range(n))


@lru_cache(maxsize=256)
def _scaled_data(lat: Lattice, mu: Coset):
    """Integer-scaled enumeration data for the coset mu + L.

    Returns (n, delta, l0, u_hat, c_hat, mu_base, q_mu, g_inv) where delta
    clears all denominators of mu and of the completion coefficients u_ij,
    l0 clears the pivots d_i, u_hat[i][j] = u_ij * delta, c_hat[i] = d_i *
    l0, mu_base[i] = mu_i * delta**2, q_mu = Q(mu) mod 1, so that every
    norm in mu + L lies on the grid q_mu + Z, and g_inv is the diagonal of
    G^-1.  Raises ValueError unless mu is in the dual lattice.
    """
    _require_positive_definite(lat)
    q_mu = Fraction(*_norm_num(lat, _smith_coords(lat, mu)))
    n = lat.rank
    ds, us, g_inv = _square_completion(lat)
    delta = math.lcm(
        1,
        *(u.denominator for row in us for u in row),
        *(Fraction(x).denominator for x in mu),
    )
    l0 = math.lcm(1, *(d.denominator for d in ds))
    u_hat = tuple(tuple(int(u * delta) for u in row) for row in us)
    c_hat = tuple(int(d * l0) for d in ds)
    mu_base = tuple(int(Fraction(x) * delta * delta) for x in mu)
    return n, delta, l0, u_hat, c_hat, mu_base, q_mu, g_inv


_FRONTIER_ROWS = 1 << 12  # the most rows one level expansion materialises


def _isqrt(a: np.ndarray) -> np.ndarray:
    """Elementwise floor square root of a nonnegative integer array.

    int64 input must stay below 2^62: the float64 root is then off by at
    most one, which the exact integer tests correct, and (s + 1)^2 fits.
    """
    import numpy as np

    if a.dtype == object:
        return np.frompyfunc(math.isqrt, 1, 1)(a)
    s = np.sqrt(a.astype(np.float64)).astype(np.int64)
    s -= s * s > a
    s += (s + 1) * (s + 1) <= a
    return s


def _descend(data, b_init: int, leaf, offsets: bool) -> None:
    """The Fincke-Pohst descent over mu + Z^n.

    data is _scaled_data(lat, mu).  The descent fixes the coordinates from
    level n-1 down to level 1, each over exactly the range its residual
    budget allows; budgets are B_hat = (2 Q-budget - partial sums) * l0 *
    delta^4 in plain integers.  It works on a frontier of rows (b, cen, off): b the remaining
    budget, cen[:, i] the scaled centre offset sum_{j>level} u_hat[i][j] y_j
    delta accumulated for each lower level i <= level, and off the lattice
    offsets fixed so far (None unless ``offsets``: carrying them costs about
    as much as the rest of the expansion).  Expanding level i computes
    s = isqrt(b // c_i) for every row, the range [lo, hi] of the offsets v
    with |t| <= s for t = mu_base[i] + cen[:, i] + v delta^2, repeats each
    row over its range and adds y_i delta times u_hat[:i, i] to the centres
    below.  Every t in the range leaves c_i t^2 <= b, so no row goes over
    budget and rows drop out only through empty ranges.  The frontier is
    walked depth first in chunks of at most _FRONTIER_ROWS rows, so memory
    stays bounded by a few chunks per level; leaf(b, cen, off) is called on
    every chunk with levels n-1 .. 1 fixed.

    Exactness: a row whose coordinates j >= i are fixed has
    sum_{k>=i} d_k z_k^2 <= 2M with 2M = b_init / (l0 delta^4), and real
    coordinates below i can zero the other squares, so Cauchy-Schwarz gives
    |y_j| <= sqrt(2M (G^-1)_jj) for each fixed coordinate; Y_j = delta (isqrt(ceil(2M (G^-1)_jj)) + 1)
    bounds |y_j delta|.  With S = isqrt(b_init) and
    W_i = S + 3 delta^2 + sum_{j>i} |u_hat[i][j]| Y_j, every centre,
    |base|, |s +- base|, |v delta^2| and |y delta| at level i is at most
    W_i, every budget and c_i t^2 at most b_init, and c_i |t| at most
    max(c_hat) S.  When max(b_init, max(c_hat) S, W_0 .. W_{n-1}) < 2^62 the
    frontier is int64; otherwise it holds Python ints (dtype=object).  Both
    run the same code, and only _isqrt differs between them.
    """
    import numpy as np

    n, delta, l0, u_hat, c_hat, mu_base, _, g_inv = data
    d2 = delta * delta
    # mu_base[i] = mu_i * delta^2 is divisible by delta since den(mu_i) | delta
    mu_scaled = [b // delta for b in mu_base]
    s_max = math.isqrt(b_init)
    y_max = [delta * (math.isqrt(math.ceil(b_init * g / (l0 * d2 * d2))) + 1) for g in g_inv]
    w = [
        s_max + 3 * d2 + sum(abs(u_hat[i][j]) * y_max[j] for j in range(i + 1, n))
        for i in range(n)
    ]
    exact64 = max(b_init, max(c_hat) * s_max, *w) < 2 ** 62
    dtype = np.int64 if exact64 else object
    u = np.array(u_hat, dtype=dtype)

    def expand(level: int, b, cen, off):
        ci = c_hat[level]
        base = mu_base[level] + cen[:, level]
        s = _isqrt(b // ci)
        lo = -((s + base) // d2)  # the least v with t >= -s
        counts = ((s - base) // d2 + 1 - lo).astype(np.int64)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        for start in range(0, total, _FRONTIER_ROWS):
            pos = np.arange(start, min(start + _FRONTIER_ROWS, total))
            row = np.searchsorted(ends, pos, side="right")
            v = lo[row] + (pos - ends[row] + counts[row])
            t = base[row] + v * d2
            y = v * delta + mu_scaled[level]
            child = None
            if off is not None:
                child = off[row]
                child[:, level] = v
            yield b[row] - ci * t * t, cen[row, :level] + y[:, None] * u[:level, level], child

    def walk(level: int, chunk):
        if not level:
            leaf(*chunk)
            return
        for child in expand(level, *chunk):
            walk(level - 1, child)

    walk(n - 1, (np.array([b_init], dtype=dtype), np.zeros((1, n), dtype),
                 np.zeros((1, n), dtype) if offsets else None))


def _walk_target(lat: Lattice, mu: Coset, m: Fraction, collect: bool):
    """All y in mu + Z^n with Q(y) == m (exact): the offsets y - mu as the
    rows of an integer array in lexicographic order, or their count.

    mu is a coset of L'/L; m off the grid q(mu) + Z finds nothing.  The
    level-0 leaf of the descent solves the residual c0 t^2 == B_hat exactly
    instead of scanning: B_hat divisible by c0, the quotient a perfect
    square s^2, and t = +-s congruent to the level-0 centre mod delta^2.
    """
    import numpy as np

    data = _scaled_data(lat, mu)
    n, delta, l0, _, c_hat, mu_base, q_mu, _ = data
    m = Fraction(m)
    if m < 0 or (m - q_mu).denominator != 1:
        return np.zeros((0, n), dtype=np.int64) if collect else 0
    # 2 Q(y) l0 delta^4 is an integer for every y in mu + Z^n, and m = Q(mu) + k
    b_init = 2 * m * l0 * delta ** 4
    assert b_init.denominator == 1
    c0, d2 = c_hat[0], delta * delta
    found: list[np.ndarray] = []
    count = 0

    def solve(b, cen, off):
        nonlocal count
        base = mu_base[0] + cen[:, 0]
        q = b // c0
        s = _isqrt(q)
        hit = (b % c0 == 0) & (s * s == q)
        for t, ok in ((s, hit), (-s, hit & (s != 0))):
            num = t - base
            ok = ok & (num % d2 == 0)
            if collect:
                rows = off[ok]
                rows[:, 0] = num[ok] // d2
                found.append(rows)
            else:
                count += int(np.count_nonzero(ok))

    _descend(data, int(b_init), solve, collect)
    if not collect:
        return count
    rows = np.concatenate(found) if found else np.zeros((0, n), dtype=np.int64)
    return rows[np.lexsort(rows.T[::-1])]


# rep_number counts one shell by the exact-solve walk below this rank, which
# reaches any m, but its ball grows as m^((n-1)/2); from this rank on (E8+E8
# needs it) the shell is the last of the glued counts below m + 1.
_GLUE_RANK = 8


def _lll(dot, basis) -> list[list[int]]:
    """The rows of ``basis`` LLL-reduced with delta = 3/4, where dot(x, y)
    is the bilinear form on integer coordinate vectors.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.3:
    the Gram-Schmidt coefficients mu and squared lengths bs are exact
    Fractions, computed once per new row and then updated in place by each
    size reduction and swap.
    """
    b = [list(row) for row in basis]
    m = len(b)
    mu = [[Fraction(0)] * m for _ in range(m)]
    bs = [Fraction(dot(b[0], b[0]))] + [Fraction(0)] * (m - 1)

    def size_reduce(k, l):
        if abs(mu[k][l]) > Fraction(1, 2):
            q = round(mu[k][l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    k, k_max = 1, 0
    while k < m:
        if k > k_max:
            k_max = k
            for j in range(k):
                mu[k][j] = (dot(b[k], b[j])
                            - sum(mu[j][i] * mu[k][i] * bs[i] for i in range(j))) / bs[j]
            bs[k] = dot(b[k], b[k]) - sum(mu[k][j] ** 2 * bs[j] for j in range(k))
        size_reduce(k, k - 1)
        if bs[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bs[k - 1]:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        u = mu[k][k - 1]
        new = bs[k] + u * u * bs[k - 1]
        mu[k][k - 1] = u * bs[k - 1] / new
        bs[k] = bs[k - 1] * bs[k] / new
        bs[k - 1] = new
        for i in range(k + 1, k_max + 1):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - u * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(1, k - 1)
    return b


@lru_cache(maxsize=64)
def _glue(lat: Lattice):
    """The split of L into L1 + L2 and its glue group, once per lattice, on
    the Smith coordinates of quadlattice._smith at every level.

    With k = n // 2, L1 is spanned by e_0 .. e_{k-1} (Gram G1 = G[:k, :k])
    and L2 = L meet L1^perp is the integer kernel of G[:k, :]: the last
    n - k columns of V in U G[:k, :] V = S, as G1 is nonsingular, reduced
    by _lll into the rows r_j of R.  Returns (l1, l2, split, glue).

    The split map: x in L' is z1 + z2 with z_i in the span of L_i, and they
    are orthogonal, so Q(x) = Q1(z1) + Q2(z2).  With y = G x integral,
    (e_i, z1) = (e_i, x) = y_i for i < k and (r_j, z2) = (r_j, x) = r_j . y,
    so z1 lies in L1' with c1 = U1 y[:k] mod s1 and z2 in L2' with
    c2 = U2 R y mod s2: (c1, c2) = P y, P the rows of U1 (zero-padded) and
    of U2 R.  On the coset c, x = V S^-1 c + v with v in Z^n, so y = Y c +
    G v with Y = G V S^-1, and (c1, c2) = P Y c + P G v.  split pairs each
    row of P Y with its modulus; glue, the image of L, is generated by the
    columns k .. n-1 of P G (e_i with i < k lies in L1 and maps to 0) and
    has kernel L1 + L2, so its order is [L : L1 + L2], and c + L is the
    disjoint union over h in glue of (c1 + L1) x (c2 + L2), (c1, c2) =
    P Y c + h.
    """
    _require_positive_definite(lat)
    g, n = lat.gram, lat.rank
    k = n // 2
    _, _, v = smith_normal_form(g[:k])
    rows = _lll(lat.bilinear, [[v[i][j] for i in range(n)] for j in range(k, n)])
    l1 = new_lattice([row[:k] for row in g[:k]])
    l2 = new_lattice([[lat.bilinear(x, y) for y in rows] for x in rows])
    (mods1, u1), (mods2, u2) = _smith(l1)[:2], _smith(l2)[:2]
    mods = mods1 + mods2
    p = [row + (0,) * (n - k) for row in u1]
    p += [[sum(a * r[i] for a, r in zip(row, rows)) for i in range(n)] for row in u2]
    pg, py = ([tuple(sum(map(operator.mul, row, col)) for col in zip(*m)) for row in p]
              for m in (g, _smith(lat)[5]))
    glue = {(0,) * len(mods)}
    for gen in list(zip(*pg))[k:]:
        for cur in list(glue):
            while (cur := tuple((a + b) % m for a, b, m in zip(cur, gen, mods))) not in glue:
                glue.add(cur)
    return l1, l2, tuple(zip(py, mods)), tuple(sorted(glue))


def _norm_num(lat: Lattice, c) -> tuple[int, int]:
    """(a, 2e^2) with q(c) = a / 2e^2 and 0 <= a < 2e^2 (quadlattice._smith)."""
    _, _, e, _, w, _ = _smith(lat)
    return _pair(w, c, c) % (2 * e * e), 2 * e * e


def _grid_length(bound: Fraction, a: int, d: int) -> int:
    """The number of norms a / d + k, k >= 0, below ``bound``: the integer
    ceiling of bound - a / d on numerators, or 0 when it is negative."""
    num, den = bound.numerator, bound.denominator
    return max(0, -((a * den - num * d) // (d * den)))


def _counts(lat: Lattice, c, bound: Fraction, memo: dict) -> list[int]:
    """Counts of vectors y in x + L with Q(y) = q(x) + k < bound, k >= 0, x
    the coset with Smith coordinates c: in closed form at rank 1, glued at
    every other rank.  ``memo`` keys the counts found so far under this
    bound by (lattice, c), so every half coset is counted once."""
    if (lat, c) not in memo:
        memo[lat, c] = (_line_counts(lat, c, bound) if lat.rank == 1
                        else _glued_counts(lat, c, bound, memo))
    return memo[lat, c]


def _line_counts(lat: Lattice, c, bound: Fraction) -> list[int]:
    """The counts of _counts at rank 1.  With L = (g) and c = (j,), x = j / g
    and the vectors are y = z / g with z = j mod g, of norm z^2 / 2g; as g
    is even, z^2 = j^2 mod 2g, so with r = j^2 mod 2g the vector lands at
    index (z^2 - r) / 2g of the grid r / 2g + Z.  The loop runs over those z
    in Python ints, so Gram entries of any size stay exact."""
    g, j = lat.gram[0][0], c[0]
    r = j * j % (2 * g)
    counts = [0] * _grid_length(bound, r, 2 * g)
    if counts:
        top = math.isqrt(r + 2 * g * (len(counts) - 1))  # the largest |z| below bound
        for z in range(j - (j + top) // g * g, top + 1, g):
            counts[(z * z - r) // (2 * g)] += 1
    return counts


def _glued_counts(lat: Lattice, c, bound: Fraction, memo: dict) -> list[int]:
    """The counts of _counts from the split of _glue.

    The coset c + L is the disjoint union over h in the glue of the
    (c1 + L1) x (c2 + L2) with (c1, c2) = split(c) + h.  With a and b the
    counts of those two cosets on their grids q1(c1) + Z and q2(c2) + Z,
    the count at the norm q(c) + t is the sum over h of the a_i b_j with
    i + j + s = t.  Each q lies in [0, 1), so the integer
    s = q1(c1) + q2(c2) - q(c) is 1 exactly when q1 + q2 >= 1, tested on
    their numerators over 2e1^2 and 2e2^2, and 0 otherwise.  Norms are
    nonnegative, so the half counts below ``bound`` give every term below it,
    and _packed_convolution sums the shifted convolutions over h.
    """
    grid = _grid_length(bound, *_norm_num(lat, c))
    if not grid:
        return []
    l1, l2, split, glue = _glue(lat)
    k = len(_smith(l1)[0])
    base = [sum(map(operator.mul, row, c)) for row, _ in split]
    terms = []
    for h in glue:
        z = tuple((b + x) % m for b, x, (_, m) in zip(base, h, split))
        c1, c2 = z[:k], z[k:]
        (a1, d1), (a2, d2) = _norm_num(l1, c1), _norm_num(l2, c2)
        s = int(a1 * d2 + a2 * d1 >= d1 * d2)
        if s >= grid:
            continue
        terms.append((_counts(l1, c1, bound, memo), _counts(l2, c2, bound, memo), s))
    return _packed_convolution(terms, grid)


def _packed_convolution(terms, grid: int) -> list[int]:
    """The first ``grid`` entries of the sum over (a, b, s) in ``terms`` of
    the convolution of a and b shifted right by s, for lists a and b of
    nonnegative Python ints, by Kronecker substitution (Harvey, J. Symbolic
    Comput. 44 (2009)).

    a[:grid - s] and b[:grid - s] are packed into one Python int each, entry
    i in slot i of wb bytes (the sum of a_i X^i with X = 2^(8 wb)), and
    their product, shifted left by s slots, is added into one total.  Terms
    with sum(a) * sum(b) = 0 add nothing and are skipped.

    Exactness: every a_i and b_j of the other terms, every entry of their
    products and every slot of the total (a sum of distinct products a_i
    b_j) is at most T, the sum of sum(a) * sum(b) over the terms.  wb is
    the fewest bytes with T < X, so no slot carries into the next, and the
    low ``grid`` slots of the total, read back with to_bytes, are the
    entries.
    """
    weights = [sum(a) * sum(b) for a, b, _ in terms]
    wb = max(1, (sum(weights).bit_length() + 7) // 8)

    def pack(v):
        return int.from_bytes(b"".join(map(int.to_bytes, v, repeat(wb), repeat("little"))),
                              "little")

    total = 0
    for (a, b, s), weight in zip(terms, weights):
        if weight:
            total += pack(a[: grid - s]) * pack(b[: grid - s]) << 8 * wb * s
    raw = (total & (1 << 8 * wb * grid) - 1).to_bytes(wb * grid, "little")
    slots = (raw[i : i + wb] for i in range(0, wb * grid, wb))
    return list(map(int.from_bytes, slots, repeat("little")))


def _coset_tuple(lat: Lattice, mu) -> Coset:
    mu = (0,) * lat.rank if mu is None else tuple(mu)
    if len(mu) != lat.rank:
        raise ValueError(f"a coset of {len(mu)} coordinates on a lattice of rank {lat.rank}")
    return tuple(Fraction(x) % 1 for x in mu)


def vectors_with_norm(lat: Lattice, mu, m) -> list[tuple[Fraction, ...]]:
    """All x in mu + L with Q(x) = m, in lexicographic coordinate order."""
    mu_t = _coset_tuple(lat, mu)
    offsets = _walk_target(lat, mu_t, m, collect=True)
    return [tuple(x + v for x, v in zip(mu_t, row)) for row in offsets.tolist()]


def rep_number(lat: Lattice, mu, m) -> int:
    """Number of x in mu + L with Q(x) = m: the exact-solve walk below
    _GLUE_RANK, and from it on the last of the glued counts below m + 1.

    From rank _GLUE_RANK (8) on, the glued route builds the dense series of
    every norm below m + 1, so its time and memory grow with m: an
    m near 2^50 is out of reach there, although the walk would list the few
    vectors of that norm.
    """
    mu_t = _coset_tuple(lat, mu)
    if lat.rank < _GLUE_RANK:
        return _walk_target(lat, mu_t, m, collect=False)
    _require_positive_definite(lat)
    m, c = Fraction(m), _smith_coords(lat, mu_t)
    if m < 0 or (m - Fraction(*_norm_num(lat, c))).denominator != 1:
        return 0
    return _glued_counts(lat, c, m + 1, {})[-1]


@lru_cache(maxsize=32)
def theta_qseries(lat: Lattice, truncation) -> VectorValuedQSeries:
    """Coset theta series of a positive definite even lattice.

    One component per coset of L'/L; the component at coset lam carries the
    counts of vectors of each norm m < truncation on the grid q(lam) + Z,
    glued down to rank 1 (_counts).
    """
    _require_positive_definite(lat)
    bound = Fraction(truncation)
    if bound < 0:
        raise ValueError(f"truncation must be >= 0, got {bound}")
    df, memo = discriminant_form(lat), {}
    # the exponents q + k below bound, built once per distinct q
    grids = {q: [q + k for k in range(max(0, math.ceil(bound - q)))]
             for q in set(df.q_table.values())}
    components = {lam: tuple(zip(grids[q], _counts(lat, c, bound, memo)))
                  for (lam, q), c in zip(df.q_table.items(), df._coords)}
    return VectorValuedQSeries(
        weight=Fraction(lat.rank, 2),
        level_denominator=df.level,
        components=MappingProxyType(components),
        truncation=bound,
    )


def _shell(lat: Lattice, mu, m):
    """(delta, A): the rows of the read-only int64 array A are delta*x for the
    x in mu + L with Q(x) = m, in lexicographic order; delta clears mu.  Every
    spelling of the coset (None, a sequence, an unreduced representative)
    shares one cache entry."""
    return _shell_rows(lat, _coset_tuple(lat, mu), Fraction(m))


@lru_cache(maxsize=32)
def _shell_rows(lat: Lattice, mu: Coset, m: Fraction):
    import numpy as np

    delta = math.lcm(1, *(x.denominator for x in mu))
    base = [int(x * delta) for x in mu]
    a = (_walk_target(lat, mu, m, collect=True) * delta + base).astype(np.int64)
    a.flags.writeable = False
    return delta, a


_CHUNK = 1 << 20  # BLAS entries per call, and the most histogram bins 2 off + 1
_TABLE = 1 << 17  # the most bins nb^k of a digit-packed bincount table


def _lex_greater(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The mask of the rows of a lexicographically greater than those of b."""
    import numpy as np

    first = (a != b).argmax(axis=1)
    rows = np.arange(len(a))
    return a[rows, first] > b[rows, first]


def _self_dual(mu: Coset) -> bool:
    """-mu = mu mod L, so that x -> -x maps each shell of mu + L onto itself."""
    return all((2 * x).denominator == 1 for x in mu)


@lru_cache(maxsize=64)
def _orthogonal_roots(lat: Lattice) -> np.ndarray:
    """The rows r_1 .. r_k: mutually orthogonal roots (Q(r) = 1) of L, chosen
    greedily in lexicographic order among those whose first nonzero entry
    is positive, so that no other such root is orthogonal to all of them."""
    import numpy as np

    a = _shell(lat, None, 1)[1]
    a = a[_lex_greater(a, -a)]
    gram = a @ np.array(lat.gram, dtype=np.int64) @ a.T  # entries (r, r') in [-2, 2]
    chosen: list[int] = []
    for i in range(len(a)):
        if not gram[i, chosen].any():
            chosen.append(i)
    roots = a[chosen]
    roots.flags.writeable = False
    return roots


def _root_fold(lat: Lattice, mu: Coset, a: np.ndarray):
    """(rows, exps): the rows of the shell a = delta*x multiplied in place of
    all of it, each standing for 2^exp rows; see inner_product_histogram."""
    import numpy as np

    r = _orthogonal_roots(lat)
    p = a @ (np.array(lat.gram, dtype=np.int64) @ r.T)  # delta (x, r_j)
    canonical = (p >= 0).all(axis=1)
    a, p = a[canonical], p[canonical]
    exps = np.count_nonzero(p, axis=1)
    if not _self_dual(mu):
        return a, exps
    iota = p @ r - a  # delta iota(x), the A-canonical row of -x
    fixed = (a == iota).all(axis=1)
    keep = _lex_greater(a, iota) | fixed & a.any(axis=1)
    return a[keep], (exps - fixed)[keep]


def _exact_float(bound: int):
    """float32 when every integer up to ``bound`` is exact in it, else
    float64 when it is exact there; OverflowError beyond both."""
    import numpy as np

    if bound < 2 ** 24:
        return np.float32
    if bound < 2 ** 53:
        return np.float64
    raise OverflowError("inner products too large for an exact float64 histogram")


def _count_products(f1: np.ndarray, f2: np.ndarray, table: np.ndarray, shift: int) -> None:
    """Adds to ``table``, shifted left by ``shift``, the np.bincount of the
    entries of f1 @ f2 plus (len(table) - 1) // 2, in row chunks of at most
    _CHUNK entries."""
    import numpy as np

    step = max(1, _CHUNK // max(1, f2.shape[1]))
    for start in range(0, len(f1), step):
        w = f1[start : start + step] @ f2
        w += (len(table) - 1) // 2  # off W: off in every digit
        w = w.astype(np.int64).ravel()  # frees the float chunk before counting
        table += np.bincount(w, minlength=len(table)) << shift


def inner_product_histogram(lat: Lattice, mu1, m1, mu2, m2):
    """Read-only histogram {(x1, x2): count} of bilinear values over all pairs
    with Q(x1) = m1, Q(x2) = m2 in the given cosets (None, or any sequence
    representing the coset)."""
    return _histogram(lat, _coset_tuple(lat, mu1), Fraction(m1), _coset_tuple(lat, mu2),
                      Fraction(m2))


@lru_cache(maxsize=64)
def _histogram(lat: Lattice, mu1: Coset, m1: Fraction, mu2: Coset, m2: Fraction):
    """inner_product_histogram on canonical cosets, cached.

    With the shells as integer rows A1 = delta1*x1 and A2 = delta2*x2, the
    entries of A1 (A2 G)^T are delta1*delta2*(x1, x2).  They are formed by
    BLAS in row chunks, exactly.  Each entry is a sum of ``rank`` integer
    products, each at most max|A1| * max|A2 G| in absolute value, so every
    partial sum BLAS forms, in whatever order it adds, is an integer of
    absolute value at most B = max|A1| * max|A2 G| * rank.  Every integer of
    absolute value up to 2^24 (2^53) is a float32 (float64), so for B < 2^24
    the products run in float32 and for B < 2^53 in float64 without a single
    rounding; beyond that OverflowError is raised.  The values lie within
    the Cauchy-Schwarz bound off = isqrt(4 delta1^2 delta2^2 m1 m2), so
    they fall in nb = 2 off + 1 bins; more than _CHUNK bins also raises
    OverflowError, so memory stays bounded.

    Digit packing: each float32 entry carries k values as base-nb digits.
    The columns of (R2 G)^T (R_i below) are split into k groups Y_0..Y_{k-1}
    of ceil(|R2| / k) columns, the last one padded with npad zero columns,
    and R1 is multiplied by Yp = sum_j nb^j Y_j (built in int64).  An entry
    of Yp is at most W max|A2 G| with W = (nb^k - 1) / (nb - 1), so every
    partial sum is an integer of absolute value at most B W.  Adding off W
    puts each digit v_j + off in [0, nb) and the entry in [0, nb^k).  Hence
    with B W + nb^k < 2^24 the packed product, the offset and the entry are
    exact float32 integers, and one np.bincount per chunk of at most _CHUNK
    entries fills a table of nb^k bins.  Each digit's counts are the axis
    sum of the (nb,)*k reshaped table over the other digits; their total
    counts each padding column once per row of R1 at v = 0, so npad times
    the weight of R1 is subtracted from bin off.  k is the largest with
    nb^k <= _TABLE (2^17), nb^k <= |R1| |R2| (so a tiny histogram does not
    fill a large table) and B W + nb^k < 2^24, and k = 1 when nb = 1 or
    k = 2 fails; k = 1 is the plain product, in float32 or float64 as
    above, where each entry value + off lies in [0, nb) with nb <= 2^20 and
    so stays exact.

    Folding: only the rows R_i are multiplied, and the rest of each shell
    S_i is read off them by isometries of L that map S_i onto itself.  A
    root r (Q(r) = 1, (r, r) = 2) gives the reflection s_r(x) = x - (x, r) r,
    an isometry of L; for x in L' the product (x, r) is an integer, so s_r
    fixes every coset of L'/L and maps every shell onto itself, and the row
    histogram h_x(v) = #{x2 in S2 : (x, x2) = v} is constant on each orbit.
    The reflections in the orthogonal roots r_1 .. r_k of _orthogonal_roots
    commute and s_j changes only the sign of (x, r_j), so the group A they
    generate is (Z/2)^k, and each A-orbit holds 2^n(x) rows, n(x) =
    #{j : (x, r_j) != 0}, exactly one of them with every (x, r_j) >= 0.
    When -mu_i = mu_i mod L, x -> -x maps S_i onto itself too, with
    h_-x(v) = h_x(-v); iota(x) = -x + sum_j (x, r_j) r_j is the A-canonical
    row of -x, and x - iota(x) changes sign under x -> iota(x).  So R1 is:

    - without that sign symmetry, the A-canonical rows x, of weight 2^n(x);
    - with it, the A-canonical rows with x - iota(x) lexicographically
      positive, of weight 2^n(x), and those with iota(x) = x != 0, whose
      orbit is its own negative, of weight 2^(n(x) - 1).

    With no roots (k = 0) the latter are the rows whose first nonzero entry
    is positive, of weight 1.  R2 is P2, the rows of S2 whose first nonzero
    entry is positive, when -mu_2 = mu_2, and S2 otherwise.  Every weight is
    a power of 2, so the rows of each weight 2^e run through the packed
    product on their own and their bincounts are added shifted left by e,
    giving K(v) = sum of the weights of the pairs (r1, r2) in R1 x R2 with
    (r1, r2) = v.  With Z_i the zero row (z_i = |Z_i| is 1 when m_i = 0,
    else 0), which lies in a shell only when it is all of it, then

        H(v) = f (K(v) + K(-v)) + [v = 0] (z1 |S2| + z2 (|S1| - z1))

    with f = 2 when both sides are sign-symmetric and 1 when one is; with
    neither, H = K.  Both sign-symmetric, the zero term is 2 z1 |P2| + z2 |S1|.

    Every product of the fold is exact in wrapping int64: |delta (x, r_j)|
    <= 2 delta sqrt(m1) by Cauchy-Schwarz, below 2^63 under the first test,
    and iota(x) is a row of S1.
    """
    import numpy as np

    d1, a1 = _shell(lat, mu1, m1)
    d2, a2 = _shell(lat, mu2, m2)
    if not len(a1) or not len(a2):
        return MappingProxyType({})
    g = np.array(lat.gram, dtype=np.int64)
    a2g = a2 @ g  # G is symmetric; int64 wraps, so this is exact if it fits
    off = math.isqrt(math.floor(4 * (d1 * d2) ** 2 * m1 * m2))
    # first test: |(x_i, e_j)|^2 <= 2 m_i G_jj (Cauchy-Schwarz) keeps A2 G and
    # the root products delta1 (x1, r) in int64
    if 2 * max(m1 * d1 * d1, m2 * d2 * d2) * int(g.diagonal().max()) >= 2 ** 126 or (
        2 * off + 1 > _CHUNK
    ):
        raise OverflowError("inner products too large for an exact float64 histogram")
    bound = int(np.abs(a1).max()) * int(np.abs(a2g).max()) * lat.rank
    dtype = _exact_float(bound)
    fold1, fold2 = _self_dual(mu1), _self_dual(mu2)
    r1, e1 = _root_fold(lat, mu1, a1)
    r2g = a2g[_lex_greater(a2, -a2)] if fold2 else a2g
    nb, k = 2 * off + 1, 1  # k: base-nb digits per product entry
    while nb > 1 and (size := nb ** (k + 1)) <= min(_TABLE, len(r1) * len(r2g)) and (
        bound * (size - 1) // (nb - 1) + size < 2 ** 24
    ):
        k += 1
    cols = -(-len(r2g) // k)
    npad = k * cols - len(r2g)
    y = np.pad(r2g, ((0, npad), (0, 0))).reshape(k, cols, lat.rank)
    f2 = np.tensordot(nb ** np.arange(k), y, 1).T.astype(dtype)
    table = np.zeros(nb ** k, dtype=np.int64)
    for e in sorted(set(e1.tolist())):
        _count_products(r1[e1 == e].astype(dtype), f2, table, e)
    digits = table.reshape((nb,) * k)
    bins = sum(digits.sum(axis=tuple(i for i in range(k) if i != j)) for j in range(k))
    bins[off] -= npad * int((1 << e1).sum())
    if fold1 or fold2:
        bins += bins[::-1]  # numpy buffers the overlapping reversed view
    if fold1 and fold2:
        bins *= 2
    z1, z2 = int(m1 == 0), int(m2 == 0)
    bins[off] += z1 * len(a2) + z2 * (len(a1) - z1)
    return MappingProxyType(
        {Fraction(int(i) - off, d1 * d2): int(bins[i]) for i in np.flatnonzero(bins)}
    )


inner_product_histogram.cache_info = _histogram.cache_info  # the statistics of its cache


def rep_number_genus2(lat: Lattice, cosets, t) -> int:
    """Number of ordered pairs (x1, x2) with (1/2)((x_i, x_j)) = t.

    ``t`` is a symmetric 2x2 matrix (diagonal integral, off-diagonal
    half-integral); the count is 0 whenever t is not positive semidefinite.
    """
    try:
        rows = tuple(tuple(Fraction(x) for x in row) for row in t)
    except TypeError:
        rows = ()
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError(f"t must be a 2x2 matrix of rationals, got {t!r}")
    _require_positive_definite(lat)
    t = rows
    if t[0][1] != t[1][0]:
        raise ValueError("t must be symmetric")
    if cosets is None:
        cosets = (None, None)
    if len(cosets) != 2:
        raise ValueError(f"cosets must be None or a pair of cosets, got {len(cosets)}")
    if not _is_psd_2x2(t):
        return 0
    hist = inner_product_histogram(lat, cosets[0], t[0][0], cosets[1], t[1][1])
    return hist.get(2 * t[0][1], 0)
