"""Polynomials on the unit disk: circle means and weighted Bergman norms.

The p-mean over the circle of radius r,

    M_p(r; f) = ( (1/2pi) int_0^{2pi} |f(r e^{i t})|^p dt )^{1/p},

is computed by the uniform trapezoid rule in the angle (exact mean of
equispaced samples, spectrally accurate for smooth integrands) with node
doubling from 256 angles, per radius, until two successive grids agree.
Near a root z_k of f the cusp of |f|^p slows the trapezoid to an error
of about n^{-p-1} e^{-n |log(r/|z_k|)|}, so a radius still open at 1024
angles switches to the control variates z - z_k of its roots within
log-distance 0.05, whose means are exact: it estimates
T_n(|f|^p) + sum_k G_k (S_k - T_n(|z - z_k|^p)), an identity for any
weights G_k, with G_k chosen to cancel the cusps (see _mean_pow_batch).
A binomial a + b z^d (constants, monomials, the refutation family) has
the mean of a + b w on the circle of radius r^d, which has a closed
form: with A = |a|, B = |b| r^d and x = min/max,

    M_p^p = max(A, B)^p S_p(x),  S_p(x) = mean_t |1 + x e^{it}|^p
          = sum_k C(p/2, k)^2 x^{2k} = 2F1(-p/2, -p/2; 1; x^2),

evaluated without angular nodes to a few 1e-15 relative (mpmath's hyp2f1
as reference) and reported with an error of 1e-13. Its moduli and d are
read off the coefficients, and each row's work is sized to its own x:
x^2 <= 1/2 takes that series, or 1.0 where its tail cannot move 1.0, and
so does every x at even p, where it ends at k = p/2. Above, p = 1 takes
the complete elliptic integral E by the AGM, a non-integer p <= 12 the
z -> 1 - z connection formula (two series in 1 - x^2 <= 1/2), and any
other p an integral, walked by quadrature.integrate_many to the rounding
floor (see _unit_binomial_means). The weighted norm

    ||f||_{p,w} = ( int_0^1 2 r w(r) M_p^p(r; f) dr )^{1/p}

nests that angular quadrature inside the radial quadrature of the weight.
:func:`weighted_norms` takes each polynomial by one of four routes. A
monomial a z^d or a constant has ||f||^p = |a|^p m(dp) in closed form,
with no walk. At an even p = 2k, Parseval's identity gives
||f||^p = sum_j |b_j|^2 m(2j), b the coefficients of f^k, with no walk
and no angular node (_parseval_norm), up to k deg f = _PARSEVAL_CAP and
where its rounding bound meets the walk's tolerance. Except at even p,
M_p^p(r; f) has a kink like
|r - |z_k||^{p+1} at the modulus of every root 0 < |z_k| < 1, toward
which a walk in r bisects; so on a bounded weight, a polynomial with
such a kink radius is a component of one graded walk
(RadialWeight.integrate_graded) whose substitution r = c + s^3 in the
cell of each kink radius c resolves it in a few levels (every refute
norm). A binomial a_0 + a_d z^d has its one kink radius
rho = (|a_0|/|a_d|)^{1/d} from its coefficients, any other f the moduli
of its np.roots, those within _KINK_MERGE of a neighbour taken as one.
Every other polynomial is a component of one plain radial walk
(RadialWeight.integrate_against). Both walks take each tolerance
relative to the norm it walks, and each polynomial is a component of the
integrand phi(r, comp) with its own tolerances and panel tree, so every
norm is bit for bit the one it gets alone; the binomials of all
components share one closed-form call per integrand call. A single
circle-mean row may differ in its last bit with the shape of its batch
(the matrix product of _abs_pow_means), but a component's batches are
the same alone and among others.
"""
from __future__ import annotations

import cmath
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MonotonicityViolation, positive
from .quadrature import _BLOCK_NODES, DEFAULT_TOL, integrate_many
from .weights import RadialWeight, moment

DEGREE_CAP = 64

#: angle count at which the doubling of a circle mean stops
_THETA_CAP = 1 << 17
#: the largest p whose rows 1/2 < x^2 < 1 take the connection series: its
#: first series alternates, with terms up to about 60 times S_p at p = 20
#: and x^2 = 1/2; against mpmath it stayed within 3.3e-15 relative up to
#: p = 12, 8e-15 up to 16 and 1.1e-14 at 20
_CONNECTION_P = 12.0
#: distance to the nearest integer m >= 1 within which a p keeps the
#: integral form: at odd m both connection terms have a pole, and they
#: cancel (against mpmath p = 1.001 lost 1.4e-14, 1.003 4.8e-15, 1.008
#: 1.2e-15); p = 0.99, 1.01, 2.99 and 3.01, 0.01 from an integer up to
#: rounding either way, all take the connection series
_CONNECTION_WINDOW = 0.008
#: terms of each connection series: at u <= 1/2 they shrink like u^k / k
_CONNECTION_TERMS = 60
#: AGM steps of S_1: the largest x below 1 has k' = 2^-54, and 9 steps give
#: the 14-step value bit for bit on 200,000 x from 1 - 1e-17 to 0.68
_AGM_STEPS = 9
#: the largest even p whose rows all take the finite sum: its largest
#: value, at x = 1, is C(p, p/2) <= 2.7e299
_FINITE_SUM_P = 1000.0
#: a series row whose whole tail x^2 sum_k C(p/2, k)^2 is at most this
#: rounds to 1.0: 1 + t is 1.0 for every t below half an ulp of 1, 2^-53
_SERIES_ONE = 2.0**-54
#: relative error reported for a closed-form binomial mean
_BINOMIAL_REL_ERROR = 1e-13
#: angle count at which a row still open switches to the control variate
#: of its nearest root
_CUSP_SWITCH_N = 1024
#: log-distance |log(r/|z_k|)| below which a row's roots z_k are near
#: enough for their cusps to be cancelled
_CUSP_NEAR = 0.05
#: relative distance within which neighbouring root moduli of f make one
#: kink radius of its graded walk. np.roots splits a k-fold root into
#: moduli about eps^(1/k) apart (1e-8 for the double root 0.5 of
#: (z - 0.5)^2 (z + 0.2), up to 1.1e-5 for a triple one), and a cell per
#: split modulus took 19.1 M angular nodes for that norm at p = 0.5 on
#: StepWeight(0.5), where one cell takes 1.2 M
_KINK_MERGE = 1e-4
#: the largest k deg f of an even p = 2k at which ||f||_p takes Parseval's
#: sum (_parseval_norm), over the k deg f + 1 coefficients of f^k
_PARSEVAL_CAP = 4096
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Polynomial:
    """Analytic function given by finitely many complex coefficients, a0 first."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = [complex(c) for c in self.coeffs]
        for k, c in enumerate(cs):
            if not cmath.isfinite(c):
                raise DomainError(f"coefficient a{k} = {c} is not finite")
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > DEGREE_CAP:
            raise DomainError(f"degree {len(cs) - 1} exceeds the cap {DEGREE_CAP}")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def monomial(cls, n: int) -> "Polynomial":
        return cls((0,) * n + (1.0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        if not self.coeffs:
            return np.zeros_like(z, dtype=complex) if isinstance(z, np.ndarray) else 0j
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        a, b = np.asarray(self.coeffs), np.asarray(other.coeffs)
        re, im = _product(a.real, a.imag, b.real, b.imag)
        return Polynomial(tuple(map(complex, re.tolist(), im.tolist())))

    def to_spec(self) -> dict:
        return {"coeffs": [[c.real, c.imag] for c in self.coeffs]}


def polynomial_from_spec(spec) -> Polynomial:
    """Build a polynomial from its JSON spec (dict or JSON string)."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid polynomial JSON: {exc}") from exc
    if not isinstance(spec, dict) or not isinstance(spec.get("coeffs"), (list, tuple)):
        raise DomainError("polynomial spec must be an object with a 'coeffs' array")
    coeffs = []
    for entry in spec["coeffs"]:
        if isinstance(entry, (list, tuple)):
            if len(entry) != 2:
                raise DomainError(f"coefficient entries are [re, im], got {entry!r}")
        try:
            coeffs.append(complex(*entry) if isinstance(entry, (list, tuple)) else complex(entry))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed coefficient {entry!r}: {exc}") from exc
    return Polynomial(tuple(coeffs))


@dataclass(frozen=True)
class MeanProfile:
    """Circle means of one polynomial along an increasing radius grid."""

    p: float
    radii: tuple[float, ...]
    values: tuple[float, ...]
    est_error: float


_circle_cache: dict[int, np.ndarray] = {}
_CIRCLE_CACHE_MAX_N = 8192


def _circle_grid(n: int, degree: int) -> np.ndarray:
    """Rows e^{i j t_k} for j = 0..degree over n equispaced angles t_k.

    Every grid is cached: _abs_pow_means asks for no n above
    _CIRCLE_CACHE_MAX_N.
    """
    cached = _circle_cache.get(n)
    if cached is not None and cached.shape[0] > degree:
        return cached[: degree + 1]
    base = np.exp(2j * np.pi / n * np.arange(n))
    circle = np.empty((degree + 1, n), dtype=complex)
    circle[0] = 1.0
    for j in range(1, degree + 1):
        circle[j] = circle[j - 1] * base
    _circle_cache[n] = circle
    return circle


def _abs_pow_means(
    f: Polynomial, radii: np.ndarray, p: float, n: int, offset: float = 0.0
) -> np.ndarray:
    """Mean over n equispaced angles (starting at `offset`) of |f|^p, per radius.

    f(r e^{i t}) = sum_j a_j r^j e^{i j t} is separable, so the circle grid
    is one small matrix product instead of a Horner pass per node. Above
    _CIRCLE_CACHE_MAX_N angles the grid is the cached grid of m = n/2^k
    angles turned by offset + 2 pi q/n for q = 0 .. n/m - 1: each radius's
    amplitudes a_j r^j e^{i j offset} are stacked in n/m copies, copy q
    multiplied by e^{2 pi i j q/n}, and its mean is taken over all n values.
    Such an n must be m times a power of two, as every n of the doubling
    in _mean_pow_batch is (256 times 2^k). Radii are taken in blocks of at
    most _BLOCK_NODES nodes, which bounds the memory of a large batch at a
    fine grid. A row's value may differ in its last bit with the number of
    rows of its block, since the matrix product may take another kernel
    for another shape (2.2e-16 relative on one row alone and in a batch of
    six).
    """
    degree = f.degree
    js = np.arange(degree + 1)
    m = n
    while m > _CIRCLE_CACHE_MAX_N:
        m //= 2
    circle = _circle_grid(m, degree)
    coeffs = np.asarray(f.coeffs)[None, :]
    phase = np.exp(1j * offset * js)[None, :] if offset else None
    turns = np.exp(2j * np.pi / n * np.outer(np.arange(n // m), js)) if m < n else None
    out = np.empty(len(radii))
    rows = max(1, _BLOCK_NODES // n)
    for start in range(0, len(radii), rows):
        amps = coeffs * radii[start : start + rows, None] ** js[None, :]
        if phase is not None:
            amps = amps * phase
        if turns is not None:
            amps = (amps[:, None, :] * turns).reshape(-1, degree + 1)
        fz = amps @ circle
        np.add.reduce(((fz.real**2 + fz.imag**2) ** (0.5 * p)).reshape(-1, n), axis=1,
                      out=out[start : start + rows])
    out /= n
    return out


def _p_overflow(p: float, quantity: str) -> DomainError:
    return DomainError(f"p = {p} is too large: {quantity} overflows a float")


def _check_root_tol(p: float, tol: float) -> None:
    """Refuse a p whose p-th root cannot meet tol: x^(1/p) turns a
    relative rounding eps of x into eps/p, so p tol < eps misses tol. A
    tol below eps asks for the best rounding allows and is let through."""
    if tol >= _EPS and p * tol < _EPS:
        raise DomainError(
            f"p = {p} is too small for tol = {tol:g}: a p-th root turns a relative "
            f"rounding error eps into eps/p, so the smallest tol p allows is eps/p = {_EPS / p:.3e}"
        )


def _above_floor(p: float, tols: list[float]) -> list[float]:
    """The radial walk tolerances tols of walked (so nonzero) polynomials,
    refusing a p at which one falls below 1e-300: that walk would settle
    at once, on an integral lost under the floor."""
    for t in tols:
        if t < 1e-300:
            raise DomainError(
                f"p = {p} is out of range: the radial quadrature tolerance of "
                f"||f||^p, {t:.3e}, falls below 1e-300"
            )
    return tols


@functools.lru_cache(maxsize=32)
def _binomial_series(p: float) -> tuple[np.ndarray, float]:
    """C(p/2, k)^2 for k = 1..K, past k = p/2 until C(p/2, K)^2 2^-K <= 1e-17,
    and the x^2 at or below which the series rounds to exactly 1.0.

    For x^2 <= 1/2 the terms after K shrink by at least half each, so the
    dropped tail is below 2e-17 of the sum, which is at least 1. Above
    p = 1033.6 the largest coefficient overflows a float. The terms of
    1 + sum_k C(p/2, k)^2 x^{2k} add up to at most x^2 sum_k C(p/2, k)^2,
    so at x^2 <= _SERIES_ONE / sum_k C(p/2, k)^2 their float sum, at most
    2^-54 plus a few ulps of it, leaves 1.0 as it is; where that sum
    overflows (p above about 1025) only x = 0 takes the shortcut.
    """
    coeffs, c, k = [], 1.0, 0
    while k <= 0.5 * p or c * 0.5**k > 1e-17:
        c *= ((k - 0.5 * p) / (k + 1)) ** 2
        if c == math.inf:
            raise _p_overflow(p, "the series coefficient C(p/2, k)^2")
        k += 1
        coeffs.append(c)
    coeffs = np.array(coeffs)
    coeffs.flags.writeable = False  # shared by every caller through the cache
    # the sum underflows to 0 below p of about 3e-162: every row is then 1.0
    with np.errstate(over="ignore", divide="ignore"):
        return coeffs, _SERIES_ONE / np.sum(coeffs)


def _row_blocks(rows: np.ndarray, size: int):
    """The row indices `rows` in blocks of at most `size`."""
    return (rows[i : i + size] for i in range(0, rows.size, size))


def _unit_binomial_means(x: np.ndarray, p: float) -> np.ndarray:
    """S_p(x) = mean_t |1 + x e^{it}|^p = 2F1(-p/2, -p/2; 1; x^2) for
    0 <= x <= 1, per row.

    x^2 <= 1/2: the series 1 + sum_k C(p/2, k)^2 x^{2k} (binomial series
    and Parseval), about 60 terms, or exactly 1.0 where its whole tail is
    at most 2^-54, to which the series rounds anyway (most rows of the
    refutation family, whose x is (eps/r)^n or (r/eps)^n). At even
    p <= _FINITE_SUM_P the series ends at k = p/2 (1 + x^2 at p = 2), and
    every row takes it. x = 1 is Gamma(1 + p)/Gamma(1 + p/2)^2. Any other
    row, 1/2 < x^2 < 1, takes _near_one_means. At large p the series
    coefficients and the Gamma ratio overflow, so neither is formed unless
    a row needs it: a batch of x = 0 rows (a constant or a monomial) is
    exactly 1. Every row's value depends on its own x only, not on the
    rows that share its call.
    """
    if not x.any():
        return np.ones_like(x)
    out = np.empty_like(x)
    x2 = x * x
    finite = p % 2.0 == 0.0 and p <= _FINITE_SUM_P
    series = np.ones(x.shape, dtype=bool) if finite else x2 <= 0.5
    if series.any():
        coeffs, one = _binomial_series(p)
        tiny = series & (x2 <= one)
        out[tiny] = 1.0
        # rows in blocks of at most _BLOCK_NODES terms (in place, one
        # temporary of a block), so a batch of many polynomials' radii stays
        # as small in memory as one polynomial's
        for rows in _row_blocks(np.flatnonzero(series & ~tiny), _BLOCK_NODES // coeffs.size):
            powers = np.repeat(x2[rows, None], coeffs.size, axis=1)
            np.cumprod(powers, axis=1, out=powers)
            powers *= coeffs
            out[rows] = 1.0 + np.sum(powers, axis=1)

    edge = (x == 1.0) & ~series
    if edge.any():
        if p < 170.0:  # math.gamma is finite; exp(lgamma) loses ~|lgamma| ulps
            out[edge] = math.gamma(1.0 + p) / math.gamma(1.0 + 0.5 * p) ** 2
        else:
            try:
                out[edge] = math.exp(math.lgamma(1.0 + p) - 2.0 * math.lgamma(1.0 + 0.5 * p))
            except OverflowError:
                raise _p_overflow(p, "Gamma(1 + p)/Gamma(1 + p/2)^2") from None

    rows = np.flatnonzero(~series & ~edge)
    if rows.size:
        out[rows] = _near_one_means(x[rows], p)
    return out


def _near_one_means(x: np.ndarray, p: float) -> np.ndarray:
    """S_p(x) per row for 1/2 < x^2 < 1, at a p that is not an even
    p <= _FINITE_SUM_P: by the AGM at p = 1 (_agm_means), by the
    connection series at p <= _CONNECTION_P at least _CONNECTION_WINDOW
    from every integer >= 1 (_connection_means), else by the integral
    form (_binomial_integral). Against mpmath's hyp2f1 the AGM stayed
    within 2.6e-15 relative, the connection series within 3.3e-15 and the
    integral within 8.6e-16 up to p = 13, 6.2e-15 at p = 100 and 101 and
    4.3e-14 at p = 999 and 1001."""
    if p == 1.0:
        return _agm_means(x)
    m = round(p)
    if p <= _CONNECTION_P and (m == 0 or abs(p - m) >= _CONNECTION_WINDOW):
        return _connection_means(x, p)
    return _binomial_integral(x, p)


def _agm_means(x: np.ndarray) -> np.ndarray:
    """S_1(x) = (2/pi) (1 + x) E(k), k = 2 sqrt(x)/(1 + x), per row.

    With a_0 = 1, b_0 = k' = (1 - x)/(1 + x), c_0 = k and the AGM steps
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2,
    E(k) = pi/(2 a_N) (1 - sum_n 2^{n-1} c_n^2) (Abramowitz-Stegun 17.6),
    so S_1 = (1 + x)/a_N ((1 + k'^2)/2 - sum_{n>=1} 2^{n-1} c_n^2): k' is
    formed from 1 - x, exact, and never as sqrt(1 - k^2). A fixed
    _AGM_STEPS, elementwise, so each row depends on its own x only.
    """
    a = np.ones_like(x)
    b = (1.0 - x) / (1.0 + x)
    rest = 0.5 * (1.0 + b * b)
    scale = 1.0
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        rest -= scale * c * c
        scale *= 2.0
    return (1.0 + x) / a * rest


@functools.lru_cache(maxsize=32)
def _connection_series(p: float) -> tuple[float, np.ndarray, float, np.ndarray]:
    """(A, a_k, B, b_k), k = 1.._CONNECTION_TERMS, of the z -> 1 - z
    connection formula (Abramowitz-Stegun 15.3.6) for a non-integer p:

        S_p = A 2F1(-p/2, -p/2; -p; u) + B u^{1+p} 2F1(1 + p/2, 1 + p/2; 2 + p; u)

    with u = 1 - x^2, 2F1(...; u) = 1 + sum_k a_k u^k and 1 + sum_k b_k u^k,
    A = Gamma(1 + p)/Gamma(1 + p/2)^2 and B = Gamma(-1 - p)/Gamma(-p/2)^2,
    taken by the reflection formula as tan(pi p/2)/(2 pi (1 + p) A), with
    tan(pi p/2) from the exact p - m, m the nearest integer: near an odd
    m, Gamma(-1 - p) at the rounded -1 - p lost 2e-14 at p = 1.01.
    """
    m = round(p)
    t = math.tan(0.5 * math.pi * (p - m))
    big_a = math.gamma(1.0 + p) / math.gamma(1.0 + 0.5 * p) ** 2
    big_b = (t if m % 2 == 0 else -1.0 / t) / (2.0 * math.pi * (1.0 + p) * big_a)
    a, b = np.empty(_CONNECTION_TERMS), np.empty(_CONNECTION_TERMS)
    ca = cb = 1.0
    for k in range(_CONNECTION_TERMS):
        ca *= (k - 0.5 * p) ** 2 / ((k - p) * (k + 1))
        cb *= (k + 1 + 0.5 * p) ** 2 / ((k + 2 + p) * (k + 1))
        a[k], b[k] = ca, cb
    a.flags.writeable = b.flags.writeable = False  # shared through the cache
    return big_a, a, big_b, b


def _connection_means(x: np.ndarray, p: float) -> np.ndarray:
    """S_p(x) per row for 1/2 < x^2 < 1 by the connection series of
    _connection_series at u = (1 - x)(1 + x) < 1/2. Each row sums its own
    powers u^k (a row-wise cumprod and sum, as the series of
    _unit_binomial_means), in blocks of at most _BLOCK_NODES / 2 terms, so
    its value depends on its own x only."""
    big_a, a, big_b, b = _connection_series(p)
    u = (1.0 - x) * (1.0 + x)
    out = np.empty_like(x)
    for rows in _row_blocks(np.arange(x.size), _BLOCK_NODES // (2 * _CONNECTION_TERMS)):
        powers = np.repeat(u[rows, None], _CONNECTION_TERMS, axis=1)
        np.cumprod(powers, axis=1, out=powers)
        first = 1.0 + np.sum(powers * a, axis=1)
        powers *= b
        second = 1.0 + np.sum(powers, axis=1)
        out[rows] = big_a * first + big_b * u[rows] ** (1.0 + p) * second
    return out


def _binomial_integral(x: np.ndarray, p: float) -> np.ndarray:
    """S_p(x) per row for 1/2 < x^2 < 1 by the integral

        S_p = (2/pi) int_0^{pi/2} ((1 - x)^2 + 4 x sin^2 v)^{p/2} dv,

    each row one component of an integrate_many walk to the rounding
    floor (tols of sys.float_info.max, rtols of eps), in blocks of
    _BLOCK_NODES / 128 rows, so that a batch of many rows holds no more
    memory than 512 rows do. The integrand peaks at (1 + x)^p, v = pi/2: a
    row where that overflows is inf, as its mean would be, and the walk
    takes 1/8 of the integrand, exact in binary, so that its panel sums
    and rises stay finite below such a peak (at the full integrand, a
    peak of 0.9 times the largest float settled 4.4e-7 off). Each row's
    value is the one its walk alone gives."""
    out = np.full_like(x, math.inf)
    with np.errstate(over="ignore"):
        rows = np.flatnonzero(np.isfinite((1.0 + x) ** p))
    for sel in _row_blocks(rows, _BLOCK_NODES // 128):
        gap2, cross = (1.0 - x[sel]) ** 2, 4.0 * x[sel]

        def integrand(v, comp):
            return 0.125 * (gap2[comp] + cross[comp] * np.sin(v) ** 2) ** (0.5 * p)

        walked = integrate_many(integrand, 0.0, 0.5 * np.pi, [sys.float_info.max] * sel.size,
                                rtols=[_EPS] * sel.size)
        out[sel] = (16.0 / np.pi) * np.array([v for v, _ in walked])
    return out


def _binomial_form(f: Polynomial) -> tuple[float, float, int] | None:
    """(|a_0|, |a_d|, d) of a binomial f(z) = a_0 + a_d z^d, d = deg f (0,
    with |a_d| = 0, for a constant), else None, read off f's coefficients:
    M_p(r; f) = M_p(r^d; a_0 + a_d w).
    """
    d = f.degree
    if any(f.coeffs[1:d]):
        return None
    a = np.abs(np.asarray(f.coeffs[:: max(d, 1)], dtype=complex)).tolist()
    return (a[0] if a else 0.0), (a[1] if len(a) > 1 else 0.0), d


def _binomial_means(a0, a1, radii: np.ndarray, p: float) -> np.ndarray:
    """M_p^p(r; a_0 + a_1 z) per radius in closed form, given the moduli
    |a_0| and |a_1| (scalars, or one per radius).

    With A = |a_0|, B = |a_1| r and x = min(A, B)/max(A, B) (0 when both
    vanish), M_p^p = max(A, B)^p S_p(x). Rows are independent: a row's
    value does not depend on the rows that share its call.
    """
    B = a1 * radii
    big, small = np.maximum(a0, B), np.minimum(a0, B)
    x = np.divide(small, big, out=np.zeros_like(big), where=big > 0)
    return big**p * _unit_binomial_means(x, p)


@functools.lru_cache(maxsize=64)
def _root_factors(f: Polynomial) -> tuple[np.ndarray, tuple[Polynomial, ...]]:
    """The roots z_k of f (np.roots) and the factors z - z_k, computed once
    per polynomial."""
    roots = np.roots(np.asarray(f.coeffs[::-1]))
    roots.flags.writeable = False  # shared by every caller through the cache
    return roots, tuple(Polynomial((-z, 1.0)) for z in roots)


def _cusp_variates(f: Polynomial, radii: np.ndarray, p: float):
    """(rows, k, G_k, S_k) of the (radius, root) pairs of a control variate,
    rows increasing and each row's roots in order.

    A radius r pairs with the root z_k of f nearest its circle in
    |log(r/|z_k|)|, and with every other root within _CUSP_NEAR whose cusp
    it resolves apart, one whose nearest other root is farther from it
    than the circle is, |r - |z_k||; so the two roots that np.roots splits
    a double root into, whose cusps merge, keep one variate. Each pair
    has G_k = |f(w)/(w - z_k)|^p at
    w = r e^{i arg z_k} and S_k = M_p^p(r; z - z_k) = max(r, |z_k|)^p S_p(x),
    x = min/max, by _binomial_means (x >= e^-_CUSP_NEAR). G_k is taken
    as |a_n|^p prod_{j != k} |w - z_j|^p, which stays accurate where f(w)
    is lost to rounding. A pair is left out when G_k or S_k is not
    finite; a radius with no pair stays plain. Each row's pairs
    depend on its own r only.
    """
    roots, _ = _root_factors(f)
    moduli = np.abs(roots)
    # a root at 0 is near no circle r > 0; f, no monomial, has another root
    nonzero = np.flatnonzero(moduli)
    spacing = np.abs(roots[:, None] - roots)
    np.fill_diagonal(spacing, np.inf)
    spacing = spacing.min(axis=1)[nonzero]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gaps = np.abs(np.log(radii[:, None] / moduli[nonzero]))
        paired = spacing > np.abs(radii[:, None] - moduli[nonzero])
        paired[np.arange(radii.size), np.argmin(gaps, axis=1)] = True
        paired &= gaps < _CUSP_NEAR
        rows, near = np.nonzero(paired)
        k, r = nonzero[near], radii[rows]
        dists = np.abs(r[:, None] * (roots[k] / moduli[k])[:, None] - roots)
        dists[np.arange(rows.size), k] = 1.0
        weight = (abs(f.coeffs[-1]) * np.prod(dists, axis=1)) ** p
        exact = _binomial_means(moduli[k], 1.0, r, p)
    keep = np.isfinite(weight) & np.isfinite(exact)
    return rows[keep], k[keep], weight[keep], exact[keep]


def _cusp_means(f: Polynomial, k: np.ndarray, radii: np.ndarray, p: float, n: int,
                offset: float = 0.0) -> np.ndarray:
    """_abs_pow_means of the factor z - z_k of f per (radius, root) pair:
    one call per root, on its radii."""
    _, factors = _root_factors(f)
    if (k == k[0]).all():
        return _abs_pow_means(factors[k[0]], radii, p, n, offset)
    out = np.empty(radii.size)
    for root in np.unique(k):
        rows = k == root
        out[rows] = _abs_pow_means(factors[root], radii[rows], p, n, offset)
    return out


def _mean_pow_batch(
    f: Polynomial, radii: np.ndarray, p: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """M_p^p(r; f) row per radius, doubling the angle grid per radius.

    A binomial a_0 + a_d z^d (the family K (z^n + e^n), a monomial z^n)
    takes the closed form of _binomial_means at radii r^d, with the moduli
    and d of _binomial_form, and no angular nodes; its `diff` is
    _BINOMIAL_REL_ERROR relative to the mean M. Any other f is sampled on
    its own coefficients, and the doubled grid is the current grid plus its
    half-spacing offset, so each doubling reuses every node already
    evaluated. Every doubling starts at 256 angles, whatever the degree,
    so every angle count is 256 times a power of two, one of them
    _CUSP_SWITCH_N, and _circle_cache holds at most one grid per power of
    two up to _CIRCLE_CACHE_MAX_N.
    Convergence is measured on the means M themselves
    (relative, per row): a row leaves the doubling once two successive
    grids agree, so its grids, variates and exit depend only on its
    own radius, not on the radii that share its batch; its value may still
    differ in its last bit with the batch (_abs_pow_means). A row whose
    value overflows leaves at once. Rows still open when the grid reaches
    _THETA_CAP stop there; `diff` holds each row's last change.

    Near a root z_k of f, |f|^p has a cusp at w = r e^{i arg z_k}, against
    which the trapezoid error falls only like n^{-p-1} e^{-n delta},
    delta = |log(r/|z_k|)|. A row still open once the grid reaches
    _CUSP_SWITCH_N angles therefore switches to the control variates
    b_k = z - z_k of every root within _CUSP_NEAR (_cusp_variates): it
    estimates

        T_n(|f|^p) + sum_k G_k (S_k - T_n(|b_k|^p)),

    with T_n the n-angle trapezoid mean, S_k the exact M_p^p(r; b_k) and
    G_k = |f(w)/(w - z_k)|^p, so that G_k |b_k|^p carries f's cusp at z_k
    and the two trapezoid errors cancel to leading order; the other b_j
    are smooth there. T_n(|b_k|^p) has the mean S_k - (its error), so the
    estimate is M_p^p for any G_k: the doubling, its test and the cap stay
    as they are, now on the corrected values. At the switch, b_k is
    evaluated on the grids of n/2 and n angles, so the step already
    compares corrected values and the switch adds no level; after it, b_k
    doubles with f. A switched row's `diff` also carries
    sum_k G_k _BINOMIAL_REL_ERROR S_k, the closed forms' error, on the
    scale of M. A circle through several roots, as of z^5 + e^5, needs the
    variate of each: with only the nearest one its rows stopped at the
    cap, off by up to 1e-7. A row at a root modulus, r = |z_k|, takes its
    variate like its neighbours.
    """
    binomial = _binomial_form(f)
    if binomial:
        a0, a1, d = binomial
        if d > 1:
            radii = np.asarray(radii, dtype=float) ** d
        vals = _binomial_means(a0, a1, radii, p)
        return vals, _BINOMIAL_REL_ERROR * vals ** (1.0 / p)
    n = 256
    vals = _abs_pow_means(f, radii, p, n)
    means = vals ** (1.0 / p)
    diff = np.zeros_like(vals)

    def unsettled(step, means):
        # an overflowed row's step is NaN and would never pass the test
        return ~(step <= tol * np.maximum(means, 1e-300)) & np.isfinite(means)

    # the (row, root) pairs of the control variates, their G_k, S_k and
    # T_n(|b_k|^p), and per row the correction sum_k G_k (S_k - T_n(|b_k|^p))
    pairs = np.arange(0)
    active = np.arange(vals.size)
    while active.size:
        half = vals[active]
        odd = _abs_pow_means(f, radii[active], p, n, offset=np.pi / n)
        vals_next = estimate = 0.5 * (half + odd)
        if pairs.size:
            is_open = np.zeros(vals.size, dtype=bool)
            is_open[active] = True
            live = np.flatnonzero(is_open[pairs])
            if live.size:
                b_odd = _cusp_means(f, root[live], radii[pairs[live]], p, n, np.pi / n)
                b_vals[live] = 0.5 * (b_vals[live] + b_odd)
                shift = np.bincount(pairs, weight * (exact - b_vals), vals.size)
                estimate = vals_next + shift[active]
        n *= 2
        means_next = estimate ** (1.0 / p)
        step = np.abs(means_next - means[active])
        open_rows = unsettled(step, means_next)
        if n // 2 < _CUSP_SWITCH_N <= n and open_rows.any():
            at = np.flatnonzero(open_rows)
            rows, root, weight, exact = _cusp_variates(f, radii[active[at]], p)
            if rows.size:
                pairs, at = active[at[rows]], at[np.unique(rows)]
                switched = active[at]
                r, half_n = radii[pairs], n // 2
                b_half = _cusp_means(f, root, r, p, half_n)
                b_odd = _cusp_means(f, root, r, p, half_n, np.pi / half_n)
                b_vals = 0.5 * (b_half + b_odd)
                shift = np.bincount(pairs, weight * (exact - b_vals), vals.size)
                shift_half = np.bincount(pairs, weight * (exact - b_half), vals.size)
                before = (half[at] + shift_half[switched]) ** (1.0 / p)
                means_next[at] = (vals_next[at] + shift[switched]) ** (1.0 / p)
                step[at] = np.abs(means_next[at] - before)
                open_rows[at] = unsettled(step[at], means_next[at])
        vals[active], means[active], diff[active] = vals_next, means_next, step
        if n >= _THETA_CAP:
            break
        active = active[open_rows]
    if pairs.size:
        vals += shift
        # the S_k's own errors, carried from M_p^p to the scale of M
        switched = np.unique(pairs)
        s_error = np.bincount(pairs, _BINOMIAL_REL_ERROR * weight * exact, vals.size)
        diff[switched] += s_error[switched] * means[switched] / (p * vals[switched])
    return vals, diff


def _mean_pows(fs: list[Polynomial], p: float, tol: float):
    """The integrand phi(r, comp) = M_p^p(r; fs[comp]) of the norms of fs.

    Every binomial component a_0 + a_d z^d takes one closed-form
    _binomial_means call per integrand call, with its own moduli and
    exponent d (_binomial_form) on each row; every other component runs
    its own _mean_pow_batch at relative angular tolerance tol.
    """
    forms = [_binomial_form(f) for f in fs]
    binomial = np.array([form is not None for form in forms], dtype=bool)
    moduli = np.array([form[:2] if form else (0.0, 0.0) for form in forms])
    powers = np.array([form[2] if form else 0 for form in forms])
    lacunary = sorted({form[2] for form in forms if form and form[2] > 1})
    others = np.flatnonzero(~binomial).tolist()

    def phi(r, comp):
        out = np.empty(r.shape)
        rows = binomial[comp]
        if rows.any():
            radii, comps = r[rows], comp[rows]
            ds = powers[comps]
            for d in lacunary:
                raised = ds == d
                radii[raised] = radii[raised] ** d
            out[rows] = _binomial_means(moduli[comps, 0], moduli[comps, 1], radii, p)
        for k in others:
            own = comp == k
            if own.any():
                out[own], _ = _mean_pow_batch(fs[k], r[own], p, tol)
        return out

    return phi


def _kink_radii(f: Polynomial, form) -> tuple[float, ...]:
    """The sorted radii 0 < c < 1 at which M_p^p(r; f) may have a kink:
    rho = (|a_0|/|a_d|)^(1/d) of a binomial f (``form``, from
    _binomial_form, with a_0 and a_d nonzero), else the moduli of f's
    roots (np.roots), each within _KINK_MERGE relative of its lower
    neighbour merged into that neighbour's radius."""
    if form:
        a0, a1, d = form
        rho = (a0 / a1) ** (1.0 / d)
        return (rho,) if 0.0 < rho < 1.0 else ()
    moduli = np.sort(np.abs(_root_factors(f)[0])).tolist()
    return tuple(c for lower, c in zip([0.0, *moduli], moduli)
                 if 0.0 < c < 1.0 and c - lower > _KINK_MERGE * c)


def _monomial_norm(a: float, d: int, w: RadialWeight, p: float) -> float:
    """||a z^d||_{p,w} = |a| m(dp)^(1/p) of a monomial, a constant (d = 0)
    or zero, from the weight's closed-form moment m(dp): no walk, and
    |a|^p is never formed. A moment below the normal floats, whose
    rounding its p-th root would not undo, is refused, and so is a norm
    that overflows a float."""
    if a == 0.0:
        return 0.0
    m = moment(w, d * p)
    if m < sys.float_info.min:
        raise DomainError(
            f"the weight's moment m({d * p:g}) = {m:.6g} underflows a float: the closed "
            f"form |a| m(dp)^(1/p) of ||a z^d||, d = {d}, needs a normal m(dp)"
        )
    try:
        norm = a * m ** (1.0 / p)
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise _norm_overflow(p)
    return norm


def _norm_overflow(p: float) -> DomainError:
    return DomainError(f"p = {p}: the norm (int 2 r w M_p^p dr)^(1/p) overflows a float")


@functools.lru_cache(maxsize=64)
def _even_moments(w: RadialWeight, count: int) -> tuple[np.ndarray, np.ndarray]:
    """m(2j) and the bound w.moment_error(2j) on its rounding, j < count."""
    m = np.array([moment(w, 2.0 * j) for j in range(count)])
    err = np.array([w.moment_error(2.0 * j) for j in range(count)])
    m.flags.writeable = err.flags.writeable = False  # shared through the cache
    return m, err


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The coefficients of the product of two real polynomials: the
    products x_i y_j, each one rounding, added into i + j in order of i by
    np.bincount, whose sums do not change with the SIMD kernels numpy
    picks for the CPU (np.convolve's complex dot product is BLAS's)."""
    index = np.add.outer(np.arange(x.size), np.arange(y.size)).ravel()
    return np.bincount(index, np.multiply.outer(x, y).ravel(), x.size + y.size - 1)


def _product(a_re: np.ndarray, a_im: np.ndarray, b_re: np.ndarray, b_im: np.ndarray):
    """The real and imaginary parts of the coefficients of the product of
    two complex polynomials, from four _convolve of their parts: the same
    bits on every CPU."""
    return (_convolve(a_re, b_re) - _convolve(a_im, b_im),
            _convolve(a_re, b_im) + _convolve(a_im, b_re))


def _coeff_sum(f: Polynomial) -> float:
    """sum |a_k| of f's coefficients by math.fsum, inf where it overflows."""
    try:
        return math.fsum(abs(c) for c in f.coeffs)
    except OverflowError:
        return math.inf


def _parseval_norm(f: Polynomial, w: RadialWeight, p: float, tol: float) -> float | None:
    """||f||_{p,w} at an even p = 2k with k deg f <= _PARSEVAL_CAP, by
    Parseval: with S = sum |a_j| and b the coefficients of (f/S)^k,

        ||f||^p = S^p sum_j |b_j|^2 m(2j),

    no walk and no angular node, and S^p never formed. None where the
    route does not apply: another p, a larger k deg f, a sum S that
    overflows, or a sum that fails its rounding gate. The gate bounds the
    sum's rounding error by gamma sum_j B_j^2 m(2j) plus the moments' own
    errors (RadialWeight.moment_error), B the coefficients of
    (sum_j |a_j/S| z^j)^k, and passes a bound of at most 0.25 tol p
    times the sum, the accuracy the radial walk targets. gamma counts the
    roundings along each b_j, about k (deg f + 3) of size B_j, twice for
    |b_j|^2: where f^k cancels heavily, so that |b_j| << B_j, it fails.
    """
    if p % 2.0 or (k := int(p) // 2) * f.degree > _PARSEVAL_CAP:
        return None
    scale = _coeff_sum(f)
    if not math.isfinite(scale):
        return None
    a = np.asarray(f.coeffs, dtype=complex)
    moduli = np.array([abs(c) for c in f.coeffs])
    re, im, size = a.real / scale, a.imag / scale, moduli / scale
    b_re, b_im, big = re, im, size
    for _ in range(k - 1):
        b_re, b_im = _product(re, im, b_re, b_im)
        big = _convolve(size, big)
    m, m_err = _even_moments(w, big.size)
    value = math.fsum(((b_re * b_re + b_im * b_im) * m).tolist())
    big2 = big * big
    rounds = k * (f.degree + 3)
    bound = ((2 * rounds + 4) * _EPS * math.fsum((big2 * m).tolist())
             + math.fsum((big2 * m_err).tolist())
             # what underflows is off by a subnormal spacing per rounding
             + big.size * (rounds * m[0] + 1.0) * 2.0**-1074)
    if not bound <= 0.25 * tol * p * value:
        return None
    norm = scale * value ** (1.0 / p)
    if not math.isfinite(norm):
        raise _norm_overflow(p)
    return norm


def weighted_norms(
    fs, w: RadialWeight, p: float, tol: float = DEFAULT_TOL
) -> list[float]:
    """||f||_{p,w} of every f in fs, each with relative error about tol.

    Each f takes the first of four routes that applies, and its norm is
    bit for bit the one it gets alone, ``weighted_norms([f], ...)``:

    - a monomial a z^d, a constant or zero: ||f||^p = |a|^p m(dp) in
      closed form (_monomial_norm), on every weight;
    - at an even p = 2k with k deg f <= _PARSEVAL_CAP, on every weight:
      ||f||^p = S^p sum_j |b_j|^2 m(2j), S = sum |a_j| and b the
      coefficients of (f/S)^k (_parseval_norm), if a bound on its
      rounding is at most 0.25 tol p times the sum;
    - on a bounded weight, an f with a kink radius c in (0, 1)
      (_kink_radii): one component of a single graded walk
      (``w.integrate_graded``) of M_p^p(r; f), whose substitution
      r = c + s^3 in the cell of each c resolves the |r - c|^{p+1} kink
      there in a few levels where a walk in r bisects toward it. A
      binomial a_0 + a_d z^d (_binomial_form) has the one radius
      rho = (|a_0|/|a_d|)^(1/d), where its two terms have equal modulus;
      any other f has the moduli of its roots inside the disk;
    - any other f (one with no root 0 < |z_k| < 1, or any f on a standard
      weight with alpha < 0, whose singularity at r = 1 a graded cell
      would have to resolve): one component of a single plain radial
      walk (``w.integrate_against``) of M_p^p(r; f).

    The two walks take ``tols`` 1e-3 (sum |a_k|)^p m(0), the coarse scale,
    and ``rtols`` 0.25 tol p (see
    :func:`korenblum.quadrature.integrate_many`): each norm is walked to
    min(0.25 tol p v, 1e-3 (sum |a_k|)^p m(0)), v its level-0 value,
    which targets the final relative accuracy of each norm. Each
    component keeps its own tolerance and panel tree, and its panels are
    added one by one in frontier order. A p with p tol < eps, whose p-th
    root would miss tol, is refused (_check_root_tol), and so are a
    walked f whose scale (sum |a_k|)^p m(0) overflows, a walk tolerance
    below 1e-300 (_above_floor: the coarse one before the walk, the
    relative one on the walk's value), a walk that finds ||f||^p <= 0 for
    a nonzero f, whose weight mass it did not resolve, and a monomial
    whose moment m(dp) underflows. A monomial forms no (sum |a_k|)^p, and
    neither does Parseval's sum, which refuses only a norm that overflows.
    """
    positive("p", p)
    positive("tol", tol)
    _check_root_tol(p, tol)
    fs = list(fs)
    m0 = moment(w, 0.0)
    norms = [0.0] * len(fs)
    graded, plain, centres = [], [], []
    for i, f in enumerate(fs):
        form = _binomial_form(f)
        if form and not (form[0] and form[1]):
            norms[i] = _monomial_norm(form[0] + form[1], form[2], w, p)
        elif (norm := _parseval_norm(f, w, p, tol)) is not None:
            norms[i] = norm
        elif w.bounded and (radii := _kink_radii(f, form)):
            graded.append(i)
            centres.append(radii)
        else:
            plain.append(i)

    def walk(route, integrate):
        sub = [fs[i] for i in route]
        try:
            scales = [_coeff_sum(f) ** p * m0 for f in sub]
        except OverflowError:
            raise _p_overflow(p, "(sum |a_k|)^p") from None
        if not all(map(math.isfinite, scales)):
            raise DomainError(
                f"p = {p}: the scale (sum |a_k|)^p m(0) of the radial tolerance overflows a float"
            )
        cts = _above_floor(p, [1e-3 * scale for scale in scales])
        rtol = 0.25 * tol * p
        phi = _mean_pows(sub, p, 0.25 * tol)
        # an overflowing integrand is reported by the walk's non-finite panel check
        with np.errstate(over="ignore", invalid="ignore"):
            values = [v for v, _ in integrate(phi, cts, [rtol] * len(sub))]
        for v, ct in zip(values, cts):
            if v <= 0.0:
                raise DomainError(
                    f"the weight's mass m(0) = {m0:.6g} was not resolved: the radial "
                    f"quadrature of ||f||^p at tolerance {ct:.3e} found 0 for a nonzero f"
                )
        _above_floor(p, [min(rtol * v, ct) for v, ct in zip(values, cts)])
        try:
            for i, v in zip(route, values):
                norms[i] = v ** (1.0 / p)
        except OverflowError:
            raise _norm_overflow(p) from None

    if graded:
        walk(graded, lambda phi, cts, rtols: w.integrate_graded(phi, centres, cts, rtols=rtols))
    if plain:
        walk(plain, lambda phi, cts, rtols: w.integrate_against(phi, 0.0, 1.0, cts, rtols=rtols))
    return norms


def weighted_norm(
    f: Polynomial, w: RadialWeight, p: float, tol: float = DEFAULT_TOL
) -> float:
    """||f||_{p,w} with relative error about tol: ``weighted_norms([f])[0]``.

    Kept as its own function because perfbench's tracer hooks it by name."""
    return weighted_norms([f], w, p, tol)[0]


def mean_profile(f: Polynomial, p: float, radii) -> MeanProfile:
    """Circle means along a radius grid, checked for monotone growth."""
    radii = tuple(float(r) for r in radii)
    if not radii or any(not 0.0 < r < 1.0 for r in radii):
        raise DomainError("mean_profile needs radii inside (0,1)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("mean_profile radii must be strictly increasing")
    positive("p", p)
    if f.is_zero:
        return MeanProfile(p=p, radii=radii, values=(0.0,) * len(radii), est_error=0.0)

    _check_root_tol(p, DEFAULT_TOL)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, diffs = _mean_pow_batch(f, np.asarray(radii), p, DEFAULT_TOL)
    if not np.all(np.isfinite(vals)):
        raise _p_overflow(p, "the circle mean M_p^p")
    means = vals ** (1.0 / p)
    est = float(np.max(diffs)) if len(diffs) else 0.0
    drop_tol = 10.0 * max(est, 1e-15)
    for i in range(len(means) - 1):
        if means[i + 1] < means[i] - drop_tol:
            raise MonotonicityViolation(
                f"circle means dropped from {means[i]!r} at r={radii[i]} to "
                f"{means[i + 1]!r} at r={radii[i + 1]} (allowance {drop_tol:.3e})"
            )
    return MeanProfile(p=p, radii=radii, values=tuple(float(m) for m in means), est_error=est)
