"""Polynomials on the unit disk: circle means and weighted Bergman norms.

The p-mean over the circle of radius r,

    M_p(r; f) = ( (1/2pi) int_0^{2pi} |f(r e^{i t})|^p dt )^{1/p},

is computed by the uniform trapezoid rule in the angle (exact mean of
equispaced samples, spectrally accurate for smooth integrands) with node
doubling, per radius, until two successive refinements agree. Near a
root z_k of f the cusp of |f|^p slows the trapezoid to an error of about
n^{-p-1} e^{-n |log(r/|z_k|)|}, so a radius still open at 1024 angles
switches to the control variates z - z_k of its roots within
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
read off the coefficients, and each row's work is sized to its own x: a
series row whose tail cannot move 1.0 is 1.0, and an integral row takes
the fewest Gauss panels that resolve it. The weighted norm

    ||f||_{p,w} = ( int_0^1 2 r w(r) M_p^p(r; f) dr )^{1/p}

nests that angular quadrature inside the radial quadrature of the weight.
:func:`weighted_norms` computes the norms of many polynomials in one
radial walk whose fine tolerances are set from its own level 0, each
polynomial a component of the integrand phi(r, comp) with its own
tolerances and panel tree, so every norm is bit for bit the one it gets
alone; the binomials of all components share one closed-form call per
integrand call. A single circle-mean row may differ in its last bit
with the shape of its batch (the matrix product of _abs_pow_means), but
a component's batches are the same alone and among others.

At p < 2, M_p^p(r; f) has a kink like |r - |z_k||^{p+1} at the modulus
of every root 0 < |z_k| < 1, toward which the radial walk bisects. So
for a non-binomial f the walk takes D(r) = M_p^p(r; f) - sum_k G_k S_k,
S_k(r) = M_p^p(r; z - z_k) in closed form and G_k a smooth model of
|f(r u_k)/(r u_k - z_k)|^p, u_k = z_k/|z_k| (_kink_models), and the
closed-form part C = int 2 r w sum_k G_k S_k dr is added on top, by a
walk graded toward each |z_k| (RadialWeight.integrate_graded) that
evaluates no circle mean, to an error on the scale of ||f||^p. The split
is an identity for any G_k, and D has each kink cancelled to leading
order, so its walk needs far fewer panels near each |z_k|.
"""
from __future__ import annotations

import cmath
import functools
import json
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MonotonicityViolation, positive
from .quadrature import _BLOCK_NODES, _NODES, _WEIGHTS, DEFAULT_TOL
from .weights import RadialWeight, moment

DEGREE_CAP = 64

#: angle count at which the doubling of a circle mean stops
_THETA_CAP = 1 << 17
#: counts of equal 15-node Gauss panels of S_p's integral form (x^2 > 1/2)
#: on the sinh-substituted v in [0, 1/2]: a row takes the fewest whose
#: tau panels are no wider than 1, else the most
_TAU_PANELS = (4, 8, 16)
#: the p up to which 4 equal 15-node Gauss panels take v in [1/2, pi/2],
#: and 16 above: the integrand peaks like exp(-p (v - pi/2)^2 / 2), and
#: against mpmath 4 panels lose 4e-13 relative at p = 500 and 4e-10 at
#: p = 1000, where 16 stay within 4e-14
_V_FEW_PANELS_P = 100.0
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
#: p below which weighted_norms subtracts the radial kink of each root
#: modulus: at even p there is none, and at p = 3 the kinks cost less than
#: the subtraction (with it, the 12 p = 3 jobs of a seed-1 verify deck
#: pass took 89 ms instead of 57)
_KINK_P = 2.0
#: share of tol p ||f||^p that the fine walk of D = M_p^p - sum_k G_k S_k
#: takes when every root 0 < |z_k| < 1 has a model, a tenth of the plain
#: walk's 0.25 (at 0.25 the pinned near-root verify pair read a norm
#: 1.2e-12 from its reference, at 0.025 1.6e-13), and the closed-form part
#: C = int 2 r w sum_k G_k S_k dr always
_KINK_SHARE = 0.025
#: a root's model G_k = |f'(z_k)|^p exp(gamma t + kappa t^2/2) is used when
#: its exponent stays at most _MODEL_RISE on [0, 1] (D loses to rounding
#: what G_k S_k exceeds M_p^p by) and |kappa| <= _MODEL_BEND (the walks
#: must resolve its width |kappa|^-1/2; a double root that np.roots splits
#: into z +- delta reads about p/(4 delta^2)); the verify decks of seeds 1
#: and 9001 reach at most 2.3 and 48
_MODEL_RISE = 4.0
_MODEL_BEND = 1e3
#: a polynomial's kinks are subtracted only where sum_k G_k S_k stays at
#: most this many times M_p^p(r_j; f) at each root modulus r_j: D rounds
#: to about 1.1e-16 sum_k G_k S_k, here at most 1.1e-13 M_p^p, a hundredth
#: of its fine tolerance share 0.025 tol p at tol = 1e-9 and p >= 0.5. The
#: verify decks of seeds 1 and 9001 reach 16.2; twenty roots on one circle,
#: (z^20 - 0.9^20)(1 + z/2), reach 90 at p = 0.5, 400 at p = 1 and 1,592
#: at p = 1.5. Below it the subtraction stayed accurate and mostly faster:
#: twelve roots, (z^12 - 0.9^12)(1 + 0.9 z), reach 499 at p = 1.5, where
#: it took the norm at tol 1e-12 from 828 to 98 ms
_MODEL_EXCESS = 1e3


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
        prod = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
        return Polynomial(tuple(prod))

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


#: per-thread buffers of _abs_pow_means (one complex, two real), grown on
#: demand and reused by every later call of that thread
_workspace = threading.local()


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
    in _mean_pow_batch is (256 or 8 (degree + 1), times 2^k).
    Radii are taken in blocks of at most _BLOCK_NODES nodes, which bounds
    the memory of a large batch at a fine grid. The product, |f|^2, its
    p/2 power and the row sums of a block are written into this thread's
    workspace (_workspace, at most max(_BLOCK_NODES, n) entries per
    buffer), which persists across calls, so a call faults in no fresh
    pages; the values are bit for bit those of the allocating formula
    mean((f.real**2 + f.imag**2) ** (p/2)), whose `**` fast paths the
    power mirrors. The returned array is fresh. A row's value may differ
    in its last bit with the number of rows of its block, since the matrix
    product may take another kernel for another shape (2.2e-16 relative
    on one row alone and in a batch of six).
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
    exponent = 0.5 * p
    out = np.empty(len(radii))
    rows = max(1, _BLOCK_NODES // n)
    size = min(rows, len(radii)) * n
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = (np.empty(size, dtype=complex), np.empty(size), np.empty(size))
        _workspace.buffers = buffers
    fz_buf, mod2_buf, square_buf = buffers
    for start in range(0, len(radii), rows):
        amps = coeffs * radii[start : start + rows, None] ** js[None, :]
        if phase is not None:
            amps = amps * phase
        if turns is not None:
            amps = (amps[:, None, :] * turns).reshape(-1, degree + 1)
        nodes = amps.shape[0] * m
        fz = np.matmul(amps, circle, out=fz_buf[:nodes].reshape(-1, m))
        mod2 = np.square(fz.real, out=mod2_buf[:nodes].reshape(-1, m))
        np.add(mod2, np.square(fz.imag, out=square_buf[:nodes].reshape(-1, m)), out=mod2)
        if exponent == 0.5:
            np.sqrt(mod2, out=mod2)
        elif exponent == 2.0:
            np.square(mod2, out=mod2)
        elif exponent != 1.0:
            np.power(mod2, exponent, out=mod2)
        np.add.reduce(mod2.reshape(-1, n), axis=1, out=out[start : start + rows])
    out /= n
    return out


def _gauss_panels(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of `panels` equal 15-node Gauss panels on [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    x = edges[:-1, None] + half[:, None] * (_NODES + 1.0)
    return x.ravel(), (half[:, None] * _WEIGHTS).ravel()


def _v_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights of `panels` equal Gauss panels on v in [1/2, pi/2], and sin^2 v
    at their nodes."""
    nodes, weights = _gauss_panels(0.5, 0.5 * np.pi, panels)
    return weights, np.sin(nodes) ** 2


# each tau rule on [0, 1] is scaled to a row's [0, asinh(1/(2b))]
_TAU_RULES = {n: _gauss_panels(0.0, 1.0, n) for n in _TAU_PANELS}
_V_RULES = {n: _v_rule(n) for n in (4, 16)}


def _p_overflow(p: float, quantity: str) -> DomainError:
    return DomainError(f"p = {p} is too large: {quantity} overflows a float")


def _check_root_tol(p: float, tol: float) -> None:
    """Refuse a p whose p-th root cannot meet tol: x^(1/p) turns a
    relative rounding eps of x into eps/p, so p tol < eps misses tol. A
    tol below eps asks for the best rounding allows and is let through."""
    eps = float(np.finfo(float).eps)
    if tol >= eps and p * tol < eps:
        raise DomainError(
            f"p = {p} is too small for tol = {tol:g}: a p-th root turns a relative "
            f"rounding error eps into eps/p, so the smallest tol p allows is eps/p = {eps / p:.3e}"
        )


def _above_floor(fs: list[Polynomial], p: float, tols: list[float]) -> list[float]:
    """The radial walk tolerances of fs, refusing a p at which a nonzero
    polynomial's would fall below 1e-300: that walk would settle at once,
    on an integral lost under the floor. A zero polynomial's integrand is
    exactly 0, and its walks take 1e-300."""
    for f, t in zip(fs, tols):
        if t < 1e-300 and not f.is_zero:
            raise DomainError(
                f"p = {p} is out of range: the radial quadrature tolerance of "
                f"||f||^p, {t:.3e}, falls below 1e-300"
            )
    return [max(t, 1e-300) for t in tols]


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
    """S_p(x) = mean_t |1 + x e^{it}|^p for 0 <= x <= 1, per row.

    x^2 <= 1/2: the series 1 + sum_k C(p/2, k)^2 x^{2k} (binomial series
    and Parseval), about 60 terms, or exactly 1.0 where its whole tail is
    at most 2^-54, to which the series rounds anyway (most rows of the
    refutation family, whose x is (eps/r)^n or (r/eps)^n). x^2 > 1/2: the
    integral

        S_p = (2/pi) int_0^{pi/2} ((1 - x)^2 + 4 x sin^2 v)^{p/2} dv,

    whose integrand nearly vanishes at v = +-i b, b = (1 - x)/(2 sqrt x).
    On [0, 1/2] the substitution v = b sinh(tau) moves that pair to
    tau = +-i pi/2, so equal Gauss panels in tau no wider than 1 converge
    at a rate that does not depend on x: each row takes the fewest of 4,
    8 or 16 such panels on its own [0, top], top = asinh(1/(2b)), and 16
    where top > 16 (1 - x below about 2.3e-7). [1/2, pi/2] is smooth,
    and 4 panels resolve its peak at pi/2 up to p = 100, 16 above.
    x = 1 is Gamma(1 + p)/Gamma(1 + p/2)^2. At large p the series
    coefficients and the Gamma ratio overflow, so neither is formed
    unless a row needs it: a batch of x = 0 rows (a constant or a
    monomial) is exactly 1. Every row's value depends on its own x only,
    not on the rows that share its call.
    """
    if not x.any():
        return np.ones_like(x)
    out = np.empty_like(x)
    x2 = x * x
    series = x2 <= 0.5
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

    edge = x == 1.0
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
        out[rows] = _binomial_integral(x[rows], p)
    return out


def _binomial_integral(x: np.ndarray, p: float) -> np.ndarray:
    """S_p(x) per row for 1/2 < x^2 < 1, by the integral form of
    _unit_binomial_means on its own panels; rows are independent."""
    out = np.empty_like(x)
    v_weights, sin2_v = _V_RULES[4 if p <= _V_FEW_PANELS_P else 16]
    b_rows = (1.0 - x) / (2.0 * np.sqrt(x))
    top_rows = np.arcsinh(0.5 / b_rows)
    tau_panels = np.where(top_rows <= 4.0, 4, np.where(top_rows <= 8.0, 8, 16))
    for n, (tau_nodes, tau_weights) in _TAU_RULES.items():
        # the integral holds about four temporaries of its block at once
        size = _BLOCK_NODES // (4 * max(tau_nodes.size, v_weights.size))
        for sel in _row_blocks(np.flatnonzero(tau_panels == n), size):
            xi, b, top = x[sel, None], b_rows[sel, None], top_rows[sel, None]
            gap2 = (1.0 - xi) ** 2
            tau = top * tau_nodes
            inner = gap2 + 4.0 * xi * np.sin(b * np.sinh(tau)) ** 2
            inner_sum = np.sum((top * tau_weights) * inner ** (0.5 * p) * (b * np.cosh(tau)), axis=1)
            outer_sum = np.sum(v_weights * (gap2 + 4.0 * xi * sin2_v) ** (0.5 * p), axis=1)
            out[sel] = (2.0 / np.pi) * (inner_sum + outer_sum)
    return out


def _binomial_form(f: Polynomial) -> tuple[float, float, int] | None:
    """(|a_0|, |a_d|, d) of a binomial f(z) = a_0 + a_d z^d, d = deg f (0,
    with |a_d| = 0, for a constant), else None, read off f's coefficients:
    M_p(r; f) = M_p(r^d; a_0 + a_d w).
    """
    d = f.degree
    if any(f.coeffs[1:d]):
        return None
    a = np.abs(np.asarray(f.coeffs[:: max(d, 1)], dtype=complex))
    return (a[0] if a.size else 0.0), (a[1] if a.size > 1 else 0.0), d


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
    is lost to rounding. A pair is left out when r = |z_k| or when G_k or
    S_k is not finite; a radius with no pair stays plain. Each row's pairs
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
        paired &= (gaps < _CUSP_NEAR) & (radii[:, None] != moduli[nonzero])
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
    half-spacing offset, so each refinement reuses every node already
    evaluated. Convergence is measured on the means M themselves
    (relative, per row): a row leaves the doubling once two successive
    refinements agree, so its grids, variates and exit depend only on its
    own radius, not on the radii that share its batch; its value may still
    differ in its last bit with the batch (_abs_pow_means). A row whose
    value overflows leaves at once. Rows still open when the grid reaches _THETA_CAP stop there;
    `diff` holds each row's last change.

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
    cap, off by up to 1e-7.
    """
    binomial = _binomial_form(f)
    if binomial:
        a0, a1, d = binomial
        if d > 1:
            radii = np.asarray(radii, dtype=float) ** d
        vals = _binomial_means(a0, a1, radii, p)
        return vals, _BINOMIAL_REL_ERROR * vals ** (1.0 / p)
    n = max(256, 8 * (f.degree + 1))
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


class _KinkModel(NamedTuple):
    """The roots of f whose radial kinks weighted_norms subtracts, as
    arrays over them (see _kink_models), and D's share of the fine
    tolerance: _KINK_SHARE when every root 0 < |z_k| < 1 of f is among
    them, else the plain walk's 0.25, since a kink left in D would make
    the tighter tolerance cost more than the subtraction saves."""

    moduli: np.ndarray
    g: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray
    share: float


@functools.lru_cache(maxsize=64)
def _kink_models(f: Polynomial, p: float) -> _KinkModel | None:
    """The roots z_k of f with 0 < r_k = |z_k| < 1 whose radial kink
    weighted_norms subtracts, or None.

    The model of |f(r u_k)/(r u_k - z_k)|^p, u_k = z_k/r_k, is its
    log-Taylor polynomial at r = r_k, G_k(r) = g_k exp(gamma t + kappa t^2/2)
    with t = r - r_k, g_k = |f'(z_k)|^p = (|a_n| prod_{j != k} |z_k - z_j|)^p,
    gamma = p sum_{j != k} Re(u_k/(z_k - z_j)) and
    kappa = -p sum_{j != k} Re(u_k^2/(z_k - z_j)^2): smooth on [0, 1], where
    the exact product has a kink at every other root on z_k's ray. A root
    is used or left out once, by its model: finite, its exponent at most
    _MODEL_RISE on [0, 1] and |kappa| <= _MODEL_BEND. The whole polynomial
    is left out once, when sum_k G_k S_k exceeds M_p^p(r_j; f) by more than
    _MODEL_EXCESS at a modulus r_j, M_p^p taken on max(256, 8 (n + 1))
    angles, n the degree. Binomials (closed form), zero polynomials and
    p >= _KINK_P take no model.
    """
    if p >= _KINK_P or f.is_zero or _binomial_form(f) is not None:
        return None
    roots, _ = _root_factors(f)
    moduli = np.abs(roots)
    interior = np.flatnonzero((moduli > 0.0) & (moduli < 1.0))
    models = []
    for k in interior:
        u, gaps = roots[k] / moduli[k], np.delete(roots[k] - roots, k)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = (abs(f.coeffs[-1]) * np.prod(np.abs(gaps))) ** p
            gamma = p * float(np.sum((u / gaps).real))
            kappa = -p * float(np.sum((u * u / (gaps * gaps)).real))
        ends = [-moduli[k], 1.0 - moduli[k]]
        if kappa < 0.0 and ends[0] < -gamma / kappa < ends[1]:
            ends.append(-gamma / kappa)
        rise = max(gamma * t + 0.5 * kappa * t * t for t in ends)
        if 0.0 < g < math.inf and rise <= _MODEL_RISE and abs(kappa) <= _MODEL_BEND:
            models.append((moduli[k], g, gamma, kappa))
    if not models:
        return None
    arrays = tuple(np.array(column) for column in zip(*models))
    for a in arrays:
        a.flags.writeable = False  # shared by every caller through the cache
    share = _KINK_SHARE if len(models) == interior.size else 0.25
    model = _KinkModel(*arrays, share)
    means = _abs_pow_means(f, model.moduli, p, max(256, 8 * (f.degree + 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(_kink_sums(model, model.moduli, p) <= _MODEL_EXCESS * means):
            return None
    return model


def _kink_terms(r_k, g, gamma, kappa, r, p):
    """G_k(r) S_k(r) elementwise (see _kink_models), S_k(r) = M_p^p(r; z - z_k)
    in closed form."""
    t = r - r_k
    return g * np.exp(gamma * t + 0.5 * kappa * t * t) * _binomial_means(r_k, 1.0, r, p)


def _kink_sums(model: _KinkModel, r: np.ndarray, p: float) -> np.ndarray:
    """sum_k G_k(r) S_k(r) per radius, over the roots of one model."""
    roots = model.moduli.size
    terms = _kink_terms(*(np.tile(a, r.size) for a in model[:4]), np.repeat(r, roots), p)
    return np.sum(terms.reshape(r.size, roots), axis=1)


def _closed_form_parts(models, w: RadialWeight, p: float, tol: float, coarse_tols, values):
    """C = sum_k int_0^1 2 r w(r) G_k(r) S_k(r) dr per polynomial (0.0
    without a model), each polynomial a component of one graded walk
    (``w.integrate_graded``, a term per root, none without a model) at
    _KINK_SHARE tol p (v + C), capped by ``coarse_tols``, v its level-0
    value of D (``values``) and C the walk's own level-0 estimate: an
    error on the scale of ||f||^p, however far sum_k G_k S_k exceeds
    M_p^p. A batch with no model walks nothing."""
    owned = [m for m in models if m is not None]
    if not owned:
        return [0.0] * len(models)
    columns = [np.concatenate([m[j] for m in owned]) for j in range(4)]

    def phi(r, term):
        return _kink_terms(*(c[term] for c in columns), r, p)

    def fine(results):
        tols = []
        for (c, _), v, ct in zip(results, values, coarse_tols):
            t = _KINK_SHARE * tol * p * (v + c)
            tols.append(min(t, ct) if t > 0.0 else ct)
        return tols

    centres = [() if m is None else m.moduli.tolist() for m in models]
    return [c for c, _ in w.integrate_graded(phi, centres, coarse_tols, refine=fine)]


def _mean_pows(fs: list[Polynomial], p: float, tol: float, models):
    """The integrand phi(r, comp) = M_p^p(r; fs[comp]) of the norms of fs,
    less sum_k G_k S_k for a component with a model (models[comp], see
    _kink_models).

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
                if models[k] is not None:
                    out[own] -= _kink_sums(models[k], r[own], p)
        return out

    return phi


def weighted_norms(
    fs, w: RadialWeight, p: float, tol: float = DEFAULT_TOL
) -> list[float]:
    """||f||_{p,w} of every f in fs, each with relative error about tol.

    The radial quadrature is one walk for all the polynomials (see
    :func:`korenblum.quadrature.integrate_many`) whose level 0 gives the
    scale of each integral; from it the walk sets absolute tolerances
    that target the final relative accuracy of each norm, capped at
    1e-3 (sum |a_k|)^p m(0). Each component keeps its own tolerances and
    panel tree, and its panels are added one by one in frontier order, so
    each norm is bit for bit the one the polynomial gets alone,
    ``weighted_norms([f], ...)``. A p with p tol < eps, whose p-th root
    would miss tol, is refused (_check_root_tol).

    At p < _KINK_P, on a bounded weight, a non-binomial f with roots
    0 < |z_k| < 1 that have a model (_kink_models) is split as

        ||f||^p = int 2 r w D dr + C,  C = int 2 r w sum_k G_k S_k dr,
        D = M_p^p(r; f) - sum_k G_k(r) S_k(r),

    with S_k(r) = M_p^p(r; z - z_k) = _binomial_means(|z_k|, 1, r, p) and
    G_k(r) = |f'(z_k)|^p exp(gamma t + kappa t^2/2), t = r - |z_k|, the
    log-Taylor model at |z_k| of |f(r u_k)/(r u_k - z_k)|^p along the ray
    of z_k. The split is an identity for any G_k, since both parts use the
    same functions, so each part need only meet its own tolerance. G_k S_k
    carries the |r - |z_k||^{p+1} kink of M_p^p, so D has it cancelled to
    leading order and its walk needs far fewer panels near |z_k|; C
    evaluates no circle mean (_closed_form_parts). Once D's level 0 has
    given v, C is walked to _KINK_SHARE tol p (v + C), and D's fine
    tolerance is share tol p (v + C): _KINK_SHARE, a tenth of the plain
    0.25, when every root 0 < |z_k| < 1 has a model, else 0.25. Both
    errors are then on the scale of ||f||^p, however far sum_k G_k S_k
    exceeds M_p^p. At even p there is no kink, and at p >= 2 the
    subtraction costs more than it saves (_KINK_P). A standard weight with
    alpha < 0 takes no subtraction: the graded walk would have to resolve
    its singularity at r = 1.
    """
    positive("p", p)
    positive("tol", tol)
    _check_root_tol(p, tol)
    fs = list(fs)
    try:
        m0 = moment(w, 0.0)
        scales = [float(np.sum(np.abs(f.coeffs))) ** p * m0 for f in fs]
    except OverflowError:
        raise _p_overflow(p, "(sum |a_k|)^p") from None
    if not all(map(math.isfinite, scales)):
        raise DomainError(
            f"p = {p}: the scale (sum |a_k|)^p m(0) of the radial tolerance overflows a float"
        )
    coarse_tols = _above_floor(fs, p, [1e-3 * scale for scale in scales])
    models = [_kink_models(f, p) if w.bounded else None for f in fs]
    shares = [0.25 if m is None else m.share for m in models]
    closed = [0.0] * len(fs)

    def fine_tols(level0):
        values = [v for v, _ in level0]
        closed[:] = _closed_form_parts(models, w, p, tol, coarse_tols, values)
        totals = [v + c for v, c in zip(values, closed)]
        for f, v, ct in zip(fs, totals, coarse_tols):
            if v <= 0.0 and not f.is_zero:
                raise DomainError(
                    f"the weight's mass m(0) = {m0:.6g} was not resolved: the radial "
                    f"quadrature of ||f||^p at tolerance {ct:.3e} found 0 for a nonzero f"
                )
        return _above_floor(
            fs, p, [min(share * tol * p * v, ct) for share, v, ct in zip(shares, totals, coarse_tols)]
        )

    phi = _mean_pows(fs, p, 0.25 * tol, models)
    # an overflowing integrand is reported by the walk's non-finite panel check
    with np.errstate(over="ignore", invalid="ignore"):
        fine = w.integrate_against(phi, 0.0, 1.0, coarse_tols, refine=fine_tols)
    try:
        return [max(v + c, 0.0) ** (1.0 / p) for (v, _), c in zip(fine, closed)]
    except OverflowError:
        raise DomainError(
            f"p = {p}: the norm (int 2 r w M_p^p dr)^(1/p) overflows a float"
        ) from None


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
