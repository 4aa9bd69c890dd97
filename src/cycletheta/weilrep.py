"""The finite Weil representation on the coset space of a discriminant form.

Generator matrices follow the standard explicit formulas

    rho(T) = diag(e(Q(lambda))),
    rho(S) = e(-sig/8) |D|^(-1/2) F,    F_{lambda,mu} = e(-b(lambda, mu)),

with entries in Q(zeta_N), N = root_order_for(level, |D|).  Every matrix is
stored in lowest terms as coeffs / den: coeffs is an integer array of shape
(|D|, |D|, phi(N)) whose slice coeffs[:, :, k] holds the coefficients of
zeta_N^k in the power basis, and den is the least positive integer that
clears every entry.  As |D|^(-1/2) = sqrt|D| / |D|, rho(S) is
e(-sig/8) sqrt|D| F over |D|, with sqrt|D| the Gauss-sum element of
sqrt_as_cyclotomic, so nothing assumes Milgram's formula.  The format is
canonical: two matrices are equal exactly when their (den, coeffs) are.

A product multiplies the arrays as matrices of polynomials in zeta in one
stacked matmul, reduces modulo Phi_N against the integer table of zeta_N^k
(cyclotomic._power_table), and divides by the gcd of the coefficients and
the product of the denominators.  Every step is exact: it runs in int64 only
when a bound on every partial sum (max row sum of one factor times max
column sum of the other) is below 2^63, in Python ints otherwise.  The Cyc
entries are built once, when .entries is first read.

verify_relations checks the defining relations on rho(S) and rho(T)
themselves: rho(S) rho(S)^+ = I, rho(T) rho(T)^+ = I,
(rho(S) rho(T))^3 = rho(S)^2 and rho(S)^2 = e(-sig/4) P_-, where P_- maps
lambda to -lambda.

theta_transform_check verifies numerically that the coset theta series of a
positive definite even lattice transforms under rho itself with automorphy
factor (c*tau+d)^(rank/2).  (The dual representation describes lattices
with the opposite definiteness; WeilRepMatrix.conjugate() gives it.)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import Cyc, _power_table, root_exponent, root_order_for, sqrt_as_cyclotomic
from .quadlattice import DiscriminantForm, Lattice, _ReadOnly, discriminant_form

__all__ = [
    "RelationViolated",
    "InsufficientTruncation",
    "WeilRepMatrix",
    "rho_T",
    "rho_S",
    "rho_word",
    "verify_relations",
    "RelationReport",
    "theta_transform_check",
    "ThetaTransformResult",
]


class RelationViolated(ArithmeticError):
    pass


class InsufficientTruncation(ValueError):
    pass


def _exact_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """a @ b for integer arrays, given a bound on |every partial sum|: int64
    when the bound is below 2^63 (nothing can wrap), Python ints otherwise."""
    if bound < 2 ** 63:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


def _abs_sums(h: np.ndarray, axis) -> np.ndarray:
    """Sums of |h| over ``axis``, exact: in int64 when the sum of all of |h|
    provably stays below 2^63, in Python ints otherwise (a.min() < 0 only
    when abs overflowed at -2^63)."""
    a = np.abs(h)
    if a.dtype != object and (a.min() < 0 or int(a.max()) * a.size >= 2 ** 63):
        a = a.astype(object)
    return a.sum(axis=axis)


@lru_cache(maxsize=64)
def _reduction_table(n_root: int) -> np.ndarray:
    """Row k: zeta^k in the power basis of Q(zeta_n_root), as Python ints."""
    table = np.array(_power_table(n_root), dtype=object)
    table.setflags(write=False)
    return table


def _times(h: np.ndarray, c, n_root: int) -> np.ndarray:
    """h (..., L), read as sum_k h[..., k] zeta^k, times sum_y c[y] zeta^y,
    reduced to the power basis: an integer array (..., phi(n_root))."""
    table = _reduction_table(n_root)
    ks = np.arange(h.shape[-1])
    m = np.zeros((h.shape[-1], table.shape[1]), dtype=object)
    for y, c_y in enumerate(c):
        if c_y:
            m += int(c_y) * table[(ks + y) % n_root]
    bound = int(_abs_sums(h, -1).max()) * np.abs(m).max()
    out = _exact_matmul(h.reshape(-1, h.shape[-1]), m, bound)
    return out.reshape(h.shape[:-1] + (m.shape[1],))


def _poly_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of (n, n, la) and (n, n, lb) arrays whose entries are
    polynomials in zeta: c[i, j, x + y] = sum_k a[i, k, x] b[k, j, y].

    One matmul of the (i, x) x k and k x (j, y) stackings, then the x shifts
    are added up.  |every partial sum| <= max_i sum_{k,x} |a[i, k, x]| times
    max_j sum_{k,y} |b[k, j, y]|, which selects the exact route.
    """
    n, _, la = a.shape
    lb = b.shape[2]
    bound = int(_abs_sums(a, (1, 2)).max()) * int(_abs_sums(b, (0, 2)).max())
    p = _exact_matmul(a.transpose(0, 2, 1).reshape(n * la, n), b.reshape(n, n * lb), bound)
    p = p.reshape(n, la, n, lb)
    out = np.zeros((n, n, la + lb - 1), dtype=p.dtype)
    for x in range(la):
        out[:, :, x:x + lb] += p[:, x]
    return out


@lru_cache(maxsize=256)
def _root_order(df: DiscriminantForm) -> int:
    return root_order_for(df.level, df.order)


def _zeros(df: DiscriminantForm) -> np.ndarray:
    size = len(df.cosets)
    return np.zeros((size, size, _reduction_table(_root_order(df)).shape[1]), dtype=np.int64)


def _same_form(a: DiscriminantForm, b: DiscriminantForm) -> bool:
    """Whether a and b have the same cosets and the same values of q on them
    (then they also share the level, and so the root order N)."""
    return a is b or (a.cosets == b.cosets and a.q_table == b.q_table)


class WeilRepMatrix(_ReadOnly):
    """A |D| x |D| matrix over Q(zeta_N) indexed by the canonical cosets of
    df, stored in lowest terms as coeffs / den (see the module docstring).
    N is the root order of df, root_order_for(df.level, |D|).

    The constructor divides coeffs and den by their gcd; coeffs and every
    attribute are read-only, so a cached generator cannot be changed by a
    caller.  Products and equality require the same form: the same cosets
    with the same values of q.
    """

    def __init__(self, df: DiscriminantForm, coeffs: np.ndarray, den: int = 1):
        n_root = _root_order(df)
        size = len(df.cosets)
        shape = (size, size, _reduction_table(n_root).shape[1])
        if coeffs.shape != shape:
            raise ValueError(f"coefficients of shape {coeffs.shape}, expected {shape}")
        if coeffs.dtype != object and not np.issubdtype(coeffs.dtype, np.integer):
            raise ValueError(f"coefficients of dtype {coeffs.dtype} are not integral")
        if den < 1:
            raise ValueError(f"denominator {den} is not positive")
        g = math.gcd(den, int(np.gcd.reduce(coeffs, axis=None))) if den > 1 else 1
        if g > 1:
            coeffs, den = coeffs // g, den // g
        coeffs.setflags(write=False)
        self.df = df
        self.coeffs = coeffs
        self.root_order = n_root
        self.den = den

    @property
    def size(self) -> int:
        return len(self.coeffs)

    @cached_property
    def entries(self) -> tuple[tuple[Cyc, ...], ...]:
        """The entries as canonical Cyc elements (built on first use)."""
        n, den = self.root_order, self.den
        return tuple(
            tuple(Cyc(n, [Fraction(x, den) for x in entry]) for entry in row)
            for row in self.coeffs.tolist()
        )

    def __matmul__(self, other: "WeilRepMatrix") -> "WeilRepMatrix":
        if not _same_form(self.df, other.df):
            raise ValueError("matrices live over different discriminant forms")
        prod = _times(_poly_matmul(self.coeffs, other.coeffs), (1,), self.root_order)
        return WeilRepMatrix(self.df, prod, self.den * other.den)

    def conjugate(self) -> "WeilRepMatrix":
        """Entrywise complex conjugate (the dual representation on generators):
        coeffs[..., k] moves to zeta^-k, then reduces to the power basis."""
        n = self.root_order
        h = np.zeros(self.coeffs.shape[:2] + (n,), dtype=self.coeffs.dtype)
        h[:, :, -np.arange(self.coeffs.shape[2]) % n] = self.coeffs
        return WeilRepMatrix(self.df, _times(h, (1,), n), self.den)

    def dagger(self) -> "WeilRepMatrix":
        conj = self.conjugate()
        return WeilRepMatrix(self.df, conj.coeffs.transpose(1, 0, 2), conj.den)

    def scale(self, c: Cyc) -> "WeilRepMatrix":
        """c times the matrix, for any c in Q(zeta_N)."""
        if c.n != self.root_order:
            raise ValueError("cyclotomic order mismatch")
        c_den = math.lcm(*(x.denominator for x in c.c))
        coeffs = _times(self.coeffs, [x * c_den for x in c.c], self.root_order)
        return WeilRepMatrix(self.df, coeffs, self.den * c_den)

    @staticmethod
    def identity(df: DiscriminantForm) -> "WeilRepMatrix":
        coeffs = _zeros(df)
        diag = np.arange(len(df.cosets))
        coeffs[diag, diag, 0] = 1
        return WeilRepMatrix(df, coeffs)

    def is_identity(self) -> bool:
        return self == WeilRepMatrix.identity(self.df)

    def is_unitary(self) -> bool:
        return (self @ self.dagger()).is_identity()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeilRepMatrix):
            return NotImplemented
        return (self.den == other.den and _same_form(self.df, other.df)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.root_order, self.den, tuple(self.coeffs.ravel().tolist())))

    def to_complex(self):
        return [[e.to_complex() for e in row] for row in self.entries]

    def entry_strings(self) -> list[list[str]]:
        """Exact display: each entry as '(cyclotomic)/sqrt(D)' when that is
        the cleaner form, else as a plain cyclotomic polynomial in z."""
        d = self.df.order
        out = []
        sqrt_d = sqrt_as_cyclotomic(d, self.root_order) if d > 1 else None

        def monomial(e):
            nz = [(k, a) for k, a in enumerate(e.c) if a]
            if len(nz) != 1:
                return None
            k, a = nz[0]
            if k == 0:
                return str(a)
            head = "" if a == 1 else ("-" if a == -1 else f"{a}*")
            return f"{head}z^{k}" if k > 1 else f"{head}z"

        for row in self.entries:
            line = []
            for e in row:
                if e.is_zero:
                    line.append("0")
                    continue
                m = monomial(e)
                if m is not None:
                    line.append(m)
                    continue
                if sqrt_d is not None:
                    scaled = e * sqrt_d
                    ms = monomial(scaled)
                    if ms is not None:
                        line.append(f"{ms}/sqrt({d})")
                        continue
                    line.append(f"({scaled!r})/sqrt({d})")
                else:
                    line.append(repr(e))
            out.append(line)
        return out


@lru_cache(maxsize=64)
def rho_T(df: DiscriminantForm) -> WeilRepMatrix:
    """Diagonal generator: entry e(Q(lambda)) at coset lambda."""
    n_root = _root_order(df)
    coeffs = _zeros(df)
    diag = np.arange(len(df.cosets))
    exps = [root_exponent(df.q_table[lam], n_root) for lam in df.cosets]
    coeffs[diag, diag] = _reduction_table(n_root)[exps]
    return WeilRepMatrix(df, coeffs)


@lru_cache(maxsize=64)
def rho_S(df: DiscriminantForm) -> WeilRepMatrix:
    """Normalized finite Fourier transform with phase e(-sig/8): the matrix
    e(-sig/8) sqrt|D| F over |D|."""
    n_root = _root_order(df)
    level = df.level
    # level * lambda is integral, and b(lambda, mu) lies in (1/level) Z, so
    # level^2 (lambda, mu) is a multiple of level.
    scaled = np.array([[int(x * level) for x in lam] for lam in df.cosets], dtype=object)
    pair = scaled @ np.array(df.lattice.gram, dtype=object) @ scaled.T
    phase = root_exponent(Fraction(-df.sig8, 8), n_root)
    exps = (-(pair // level) % level * (n_root // level) + phase) % n_root
    entries = _reduction_table(n_root)[exps.astype(np.int64)]
    coeffs = _times(entries, sqrt_as_cyclotomic(df.order, n_root).c, n_root)
    return WeilRepMatrix(df, coeffs, df.order)


def _generator(df: DiscriminantForm, token: str) -> WeilRepMatrix:
    if token == "S":
        return rho_S(df)
    if token == "T":
        return rho_T(df)
    if token == "s":
        return rho_S(df).dagger()
    if token == "t":
        return rho_T(df).dagger()
    raise ValueError(f"unknown generator token {token!r}")


def _tokenize(word: str) -> list[str]:
    """Tokens are S, T with an optional ^-1 suffix; lowercase also inverts."""
    tokens = []
    i = 0
    while i < len(word):
        ch = word[i]
        if ch in " \t":
            i += 1
            continue
        if ch not in "STst":
            raise ValueError(f"bad character {ch!r} in generator word")
        if word[i + 1 : i + 4] == "^-1":
            tokens.append(ch.lower())
            i += 4
        else:
            tokens.append(ch)
            i += 1
    return tokens


def rho_word(df: DiscriminantForm, word: str) -> WeilRepMatrix:
    """Product of generator matrices in word order (left factor acts first in
    the string, i.e. rho_word('ST') = rho(S) @ rho(T))."""
    result = WeilRepMatrix.identity(df)
    for token in _tokenize(word):
        result = result @ _generator(df, token)
    return result


@dataclass(frozen=True)
class RelationReport:
    df_order: int
    sig8: int
    unitary_s: bool
    unitary_t: bool
    braid: bool       # (rho(S) rho(T))^3 == rho(S)^2
    s_squared: bool   # rho(S)^2 == e(-sig8/4) * (lambda -> -lambda)

    @property
    def all_pass(self) -> bool:
        return self.unitary_s and self.unitary_t and self.braid and self.s_squared


def verify_relations(df: DiscriminantForm, raise_on_failure: bool = True) -> RelationReport:
    """Exact checks of the defining relations on rho(S) and rho(T); in lowest
    terms each one compares two (den, coeffs) pairs."""
    s, t = rho_S(df), rho_T(df)
    identity = WeilRepMatrix.identity(df)
    negation = identity.coeffs[[df.index(df.neg(lam)) for lam in df.cosets]]
    s_squared = WeilRepMatrix(df, negation).scale(Cyc.e(Fraction(-df.sig8, 4), s.root_order))
    ss = s @ s
    st = s @ t
    checks = {
        "unitarity of rho(S)": s @ s.dagger() == identity,
        "unitarity of rho(T)": t @ t.dagger() == identity,
        "(rho(S)rho(T))^3 = rho(S)^2": st @ st @ st == ss,
        "rho(S)^2 = e(-sig/4) * negation": ss == s_squared,
    }
    report = RelationReport(df.order, df.sig8, *checks.values())
    if raise_on_failure and not report.all_pass:
        raise RelationViolated("; ".join(name for name, ok in checks.items() if not ok))
    return report


@dataclass(frozen=True)
class ThetaTransformResult:
    generator: str
    tau: complex
    truncation: Fraction
    residual: float
    tail_bound: float


def _tail_bound(total_counts: dict, truncation: Fraction, v: float, rank: int) -> float:
    """Upper bound for sum_{m >= M} r(m) e^(-2 pi m v) using r(m) <= c m^k
    with k = rank/2 and c estimated from the computed coefficients with a
    10x safety margin, then the geometric comparison
    (M+j)^k <= M^k (1 + j/M)^k <= M^k e^(jk/M)."""
    k = rank / 2
    c = 10.0 * max(
        (cnt / float(m) ** k for m, cnt in total_counts.items() if m > 0 and cnt > 0),
        default=10.0,
    )
    x = math.exp(-2 * math.pi * v)
    m0 = float(truncation)
    growth = math.exp(k / m0) * x
    if growth >= 1:
        return math.inf
    return c * x ** m0 * m0 ** k / (1 - growth)


def theta_transform_check(lat: Lattice, generator: str, tau: complex, truncation) -> ThetaTransformResult:
    """Residual of the theta transformation law under S or T at a point tau.

    Both sides are evaluated from the q-series truncated below ``truncation``;
    the truncation tail bound must come out below 1e-12 or
    InsufficientTruncation is raised.  For odd rank the automorphy factor
    (c tau + d)^(rank/2) uses the principal branch, which is the correct
    branch at the generators S and T on the upper imaginary axis.
    """
    from .enumeration import theta_qseries  # here, so importing weilrep leaves it out

    if generator not in ("S", "T"):
        raise ValueError("generator must be 'S' or 'T'")
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    bound = Fraction(truncation)
    series = theta_qseries(lat, bound)
    df = discriminant_form(lat)

    if generator == "T":
        gamma_tau = tau + 1
        j_pow = 1.0 + 0j
        mat = rho_T(df)
    else:
        gamma_tau = -1 / tau
        j_pow = tau ** (lat.rank / 2)
        mat = rho_S(df)

    total = {}
    for pairs in series.components.values():
        for m, cnt in pairs:
            total[m] = total.get(m, 0) + cnt
    v_eff = min(tau.imag, gamma_tau.imag)
    tail = _tail_bound(total, bound, v_eff, lat.rank)
    tail_total = (1 + abs(j_pow) * len(df.cosets)) * tail
    if not tail_total < 1e-12:
        raise InsufficientTruncation(
            f"tail bound {tail_total:.3e} exceeds 1e-12; raise the truncation"
        )

    def eval_component(lam, at):
        return sum(
            cnt * cmath.exp(2j * cmath.pi * float(m) * at)
            for m, cnt in series.components[lam]
            if cnt
        )

    at_tau = [eval_component(mu, tau) for mu in df.cosets]
    residual = 0.0
    for lam, row in zip(df.cosets, mat.to_complex()):
        lhs = eval_component(lam, gamma_tau)
        rhs = j_pow * sum(r * v for r, v in zip(row, at_tau))
        residual = max(residual, abs(lhs - rhs))
    return ThetaTransformResult(
        generator=generator,
        tau=tau,
        truncation=bound,
        residual=residual,
        tail_bound=tail_total,
    )
