"""Integral even quadratic lattices, their duals, and discriminant forms.

All structural data is exact: Gram matrices are Python integers, a coset of
L'/L is held internally as integer coordinates in Smith form, shown as a
tuple of fractions.Fraction with one denominator e (the exponent of L'/L),
with q and b as integers over 2e^2 and e^2, and determinant and
signature come from _block_reduce, the one block LDL^T reduction over Q
that also serves square completion and the p-adic Jordan splitting (no
eigenvalues, no floating point).  The only float-valued function here is
gauss_sum, the numeric side of the signature oracle
|sum e(Q(x))| = sqrt(|D|) * e(sig/8).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import MappingProxyType

__all__ = [
    "LatticeError",
    "NotSymmetric",
    "NotEven",
    "Degenerate",
    "Lattice",
    "DiscriminantForm",
    "new_lattice",
    "named_lattice",
    "direct_sum",
    "discriminant_form",
    "gauss_sum",
    "smith_normal_form",
    "BUILTIN_GRAMS",
]

GramMatrix = tuple[tuple[int, ...], ...]
Coset = tuple[Fraction, ...]


class LatticeError(ValueError):
    """Base class for lattice construction failures."""


class NotSymmetric(LatticeError):
    pass


class NotEven(LatticeError):
    pass


class Degenerate(LatticeError):
    pass


@dataclass(frozen=True)
class Lattice:
    """An integral lattice with even Gram matrix and known inertia.

    ``gram[i][j]`` is the bilinear value (e_i, e_j); the quadratic form is
    Q(x) = (x, x)/2, integer valued on lattice vectors.
    """

    gram: GramMatrix
    rank: int
    signature: tuple[int, int]
    det: int

    @property
    def is_positive_definite(self) -> bool:
        return self.signature == (self.rank, 0)

    def bilinear(self, x, y) -> Fraction:
        """(x, y) for vectors given in lattice-basis coordinates."""
        g = self.gram
        n = self.rank
        return sum(x[i] * g[i][j] * y[j] for i in range(n) for j in range(n))

    def quadratic(self, x) -> Fraction:
        """Q(x) = (x, x)/2."""
        return self.bilinear(x, x) / 2


def _block_reduce(gram, choose) -> list[tuple[tuple[int, ...], list[list[Fraction]]]]:
    """Block LDL^T of a symmetric matrix by Schur complements over Q.

    ``choose(m, active)`` picks the next pivot (i, j) of the working matrix
    m: 1x1 on m[i][i] when i == j, else 2x2 on {i, j} (nonsingular).
    Returns one (pivot indices, pivot rows as they stand at that step) per
    step; stops when every remaining entry is 0, so fewer than len(gram)
    pivoted indices means the matrix is singular.
    """
    m = [[Fraction(x) for x in row] for row in gram]
    active = list(range(len(m)))
    steps = []
    while any(m[i][j] for i in active for j in active):
        i0, j0 = choose(m, active)
        piv = (i0,) if i0 == j0 else (i0, j0)
        active = [i for i in active if i not in piv]
        a, b, c = m[i0][i0], m[i0][j0], m[j0][j0]
        if i0 == j0:
            inv = [[1 / a]]
        else:
            det = a * c - b * b
            inv = [[c / det, -b / det], [-b / det, a / det]]
        for i in active:
            f = [sum(m[i][p] * inv[t][u] for t, p in enumerate(piv)) for u in range(len(piv))]
            if any(f):
                for j in active:
                    m[i][j] -= sum(fu * m[p][j] for fu, p in zip(f, piv))
        steps.append((piv, [m[p] for p in piv]))
    return steps


def _rational_pivot(m, active) -> tuple[int, int]:
    """The first nonzero diagonal entry in index order; only if there is
    none, the first nonzero off-diagonal one (a zero-diagonal 2x2 pivot)."""
    for i in active:
        if m[i][i]:
            return i, i
    return next((i, j) for i in active for j in active if m[i][j])


def new_lattice(gram) -> Lattice:
    """Validate a square integer Gram matrix and build a Lattice.

    det and signature come from one _block_reduce pass: the product of the
    pivot-block determinants and the signs of the 1x1 pivots (a 2x2 pivot,
    zero diagonal, adds (1, 1)).  Raises NotSymmetric / NotEven /
    Degenerate naming the violated invariant, and LatticeError for a gram
    that is not a list of rows of integers.
    """
    try:
        rows = [tuple(int(x) for x in row) for row in gram]
    except (TypeError, ValueError, OverflowError) as exc:
        raise LatticeError(f"gram must be a list of rows of integers ({exc})") from None
    for i, row in enumerate(gram):
        for j, x in enumerate(row):
            if x != rows[i][j]:
                raise LatticeError(f"gram[{i}][{j}] = {x!r} is not an integer")
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise LatticeError("gram must be a nonempty square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
    for i in range(n):
        if rows[i][i] % 2 != 0:
            raise NotEven(f"diagonal entry gram[{i}][{i}] = {rows[i][i]} is odd")
    steps = _block_reduce(rows, _rational_pivot)
    if sum(len(piv) for piv, _ in steps) < n:
        raise Degenerate("gram is singular")
    det, pos = Fraction(1), 0
    for piv, prow in steps:
        if len(piv) == 2:  # zero diagonal: one positive and one negative square
            det *= -prow[0][piv[1]] ** 2
            pos += 1
        else:
            det *= prow[0][piv[0]]
            pos += prow[0][piv[0]] > 0
    return Lattice(gram=tuple(rows), rank=n, signature=(pos, n - pos), det=int(det))


# Standard even lattices used throughout the test corpus and the CLI.
BUILTIN_GRAMS: dict[str, tuple[tuple[int, ...], ...]] = {
    "A1": ((2,),),
    "A1(-1)": ((-2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "E8": (
        (2, -1, 0, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0, 0),
        (0, -1, 2, -1, 0, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, -1),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, 0),
        (0, 0, 0, 0, -1, 0, 0, 2),
    ),
    "U": ((0, 1), (1, 0)),
}


@lru_cache(maxsize=None)
def named_lattice(name: str) -> Lattice:
    try:
        gram = BUILTIN_GRAMS[name]
    except KeyError:
        raise LatticeError(f"unknown lattice name {name!r}; known: {sorted(BUILTIN_GRAMS)}")
    return new_lattice(gram)


def direct_sum(*lats: Lattice) -> Lattice:
    """Orthogonal direct sum (block-diagonal Gram matrix)."""
    n = sum(l.rank for l in lats)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for l in lats:
        for i in range(l.rank):
            for j in range(l.rank):
                gram[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return new_lattice(gram)


def smith_normal_form(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over Z: returns (S, U, V) with U a V = S.

    S is diagonal with d_i | d_{i+1}, U and V unimodular.
    """
    m = [list(map(int, row)) for row in a]
    n_rows, n_cols = len(m), len(m[0])
    u = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    v = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def row_op(i, j, q):  # row i -= q * row j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    t = 0
    while t < min(n_rows, n_cols):
        # swap the first entry of least absolute value in the remaining block to (t, t)
        cells = [(i, j) for i in range(t, n_rows) for j in range(t, n_cols) if m[i][j]]
        if not cells:
            break
        i, j = min(cells, key=lambda c: abs(m[c[0]][c[1]]))
        m[t], m[i], u[t], u[i] = m[i], m[t], u[i], u[t]
        for row in m + v:
            row[t], row[j] = row[j], row[t]
        dirty = False
        for i in range(t + 1, n_rows):
            q = m[i][t] // m[t][t]
            if q:
                row_op(i, t, q)
            dirty |= m[i][t] != 0
        for j in range(t + 1, n_cols):
            q = m[t][j] // m[t][t]
            if q:  # col j -= q * col t
                for row in m + v:
                    row[j] -= q * row[t]
            dirty |= m[t][j] != 0
        if dirty:
            continue
        # enforce divisibility d_t | remaining entries
        bad = next((i for i in range(t + 1, n_rows) for j in range(t + 1, n_cols)
                    if m[i][j] % m[t][t] != 0), None)
        if bad is not None:
            row_op(t, bad, -1)  # row t += row bad
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return m, u, v


class _ReadOnly:
    """Attributes, once set, cannot be rebound or deleted.  Instances of the
    subclasses sit in lru caches, so one instance is shared by every caller."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


@lru_cache(maxsize=256)
def _smith(lat: Lattice):
    """DiscriminantForm's Smith data, read by gluing too: the s_i > 1, the
    rows of U, e, e V S^-1, W and Y = G V S^-1 = U^-1 at those indices.  It
    builds no coset list, so a huge |D| stays cheap."""
    n, g = lat.rank, lat.gram
    s, u, v = smith_normal_form(g)
    kept = [i for i in range(n) if s[i][i] > 1]
    mods = tuple(s[i][i] for i in kept)
    e = max(mods, default=1)
    scaled = [[v[r][i] * (e // s[i][i]) for i in kept] for r in range(n)]
    g_scaled = [[sum(map(operator.mul, row, col)) for col in zip(*scaled)] for row in g]
    w = tuple(tuple(sum(map(operator.mul, a, b)) for b in zip(*g_scaled)) for a in zip(*scaled))
    y = tuple(tuple(x // e for x in row) for row in g_scaled)
    return mods, tuple(tuple(u[i]) for i in kept), e, tuple(map(tuple, scaled)), w, y


def _smith_coords(lat: Lattice, lam) -> tuple[int, ...]:
    """c = U G lam mod s for lam in lattice coordinates, where G lam is
    integral exactly when lam lies in L' = G^-1 Z^n.  Raises ValueError
    naming lam otherwise, and when lam does not have rank coordinates."""
    lam = tuple(lam)
    vec = tuple(map(Fraction, lam))
    y = [sum(map(operator.mul, row, vec)) for row in lat.gram]
    if len(vec) != lat.rank or any(t.denominator != 1 for t in y):
        raise ValueError(f"{lam} is not a coset of the dual lattice")
    mods, u = _smith(lat)[:2]
    return tuple(int(sum(map(operator.mul, row, y))) % m for row, m in zip(u, mods))


def _pair(w, c, d) -> int:
    """c^T W d: with W of _smith, 2e^2 Q(x) when d = c, e^2 b(x, x') mod e^2."""
    return sum(x * sum(map(operator.mul, row, d)) for x, row in zip(c, w))


class DiscriminantForm(_ReadOnly):
    """The finite quadratic module D = L'/L with Q: D -> Q/Z, as the sum of
    the Z/s_i over the Smith invariants s_i > 1 of U G V = S = diag(s_i).

    x -> c = U G x mod s maps L' onto that sum with kernel L: x is in L'
    exactly when y = G x is integral, and in L exactly when y is in
    G Z^n = U^-1 S V^-1 Z^n = U^-1 S Z^n, that is when U y = 0 mod s.  As
    U G (V S^-1 c) = c, x = V S^-1 c mod L.  With e = max s_i, the coset c
    is N / e with N = e V S^-1 c mod e, and W = e^2 S^-1 V^T G V S^-1 is
    integral with Q(x) = c^T W c / 2e^2 and b(x, x') = c^T W c' / e^2.

    ``cosets`` lists the N / e as tuples of Fractions, sorted: the index
    order of the Weil matrices, with their c in ``_coords``.  index, neg,
    add, q and b read the c of any representative by G lam (_smith_coords).
    """

    def __init__(self, lat: Lattice):
        self._lat = lat
        self.order = abs(lat.det)
        self.sig8 = (lat.signature[0] - lat.signature[1]) % 8

        mods, _, e, scaled, w, _ = _smith(lat)
        self._mods, self._w, self._e = mods, w, e
        self._radix = [math.prod(mods[i + 1:]) for i in range(len(mods))]
        coords = list(product(*map(range, mods)))
        keyed = sorted((tuple(sum(map(operator.mul, row, c)) % e for row in scaled), p)
                       for p, c in enumerate(coords))
        frac = [Fraction(j, e) for j in range(e)]
        self.cosets: tuple[Coset, ...] = tuple(tuple(map(frac.__getitem__, num))
                                               for num, _ in keyed)
        self._coords = tuple(coords[p] for _, p in keyed)
        self._at = [0] * len(keyed)
        for i, (_, p) in enumerate(keyed):
            self._at[p] = i

        # read-only: discriminant_form is cached, so one instance is shared
        q_num = [_pair(w, c, c) % (2 * e * e) for c in self._coords]
        del coords, keyed  # freed before the q tables: about 50 MB at |D| = 4e5
        q_frac = {t: Fraction(t, 2 * e * e) for t in set(q_num)}
        q_table = dict(zip(self.cosets, map(q_frac.__getitem__, q_num)))
        if len(q_table) != self.order:
            raise LatticeError("discriminant group enumeration mismatch: "
                               f"{len(q_table)} != {self.order}")
        self.q_table: MappingProxyType[Coset, Fraction] = MappingProxyType(q_table)
        self.level = math.lcm(1, *(q.denominator for q in q_frac.values()))
        self.generators: tuple[tuple[Coset, int], ...] = tuple(  # unit i sits at radix i
            (self.cosets[self._at[r]], m) for r, m in zip(self._radix, mods))

        for c, t in zip(self._coords, q_num):
            if t != q_num[self._index(self._neg(c))]:
                raise LatticeError("q(lambda) != q(-lambda); broken group structure")

    def _c(self, lam) -> tuple[int, ...]:
        """The coordinates c of the coset of lam."""
        return _smith_coords(self._lat, lam)

    def _index(self, c) -> int:
        """The index of c, listed at c's place in the itertools.product order."""
        return self._at[sum(map(operator.mul, c, self._radix))]

    def _neg(self, c) -> tuple[int, ...]:
        return tuple(-x % m for x, m in zip(c, self._mods))

    def index(self, lam) -> int:
        return self._index(self._c(lam))

    def q(self, lam) -> Fraction:
        return self.q_table[self.cosets[self.index(lam)]]

    def neg(self, lam) -> Coset:
        return self.cosets[self._index(self._neg(self._c(lam)))]

    def add(self, lam, mu) -> Coset:
        c = zip(self._c(lam), self._c(mu), self._mods)
        return self.cosets[self._index(tuple((x + y) % m for x, y, m in c))]

    def b(self, lam, mu) -> Fraction:
        """Bilinear form b(lam, mu) = Q(lam+mu) - Q(lam) - Q(mu) mod 1."""
        e2 = self._e ** 2
        return Fraction(_pair(self._w, self._c(lam), self._c(mu)) % e2, e2)

    def coset_label(self, lam: Coset) -> str:
        return "(" + ",".join(str(x) for x in lam) + ")"

    def __repr__(self):
        return f"DiscriminantForm(order={self.order}, sig8={self.sig8}, level={self.level})"


@lru_cache(maxsize=64)
def discriminant_form(lat: Lattice) -> DiscriminantForm:
    return DiscriminantForm(lat)


def gauss_sum(df: DiscriminantForm) -> complex:
    """Sum of e(Q(lambda)) over the discriminant group (floating point)."""
    return sum(cmath.exp(2j * cmath.pi * float(df.q_table[lam])) for lam in df.cosets)
