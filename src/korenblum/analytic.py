"""Polynomials on the unit disk: circle means and weighted Bergman norms.

The p-mean over the circle of radius r,

    M_p(r; f) = ( (1/2pi) int_0^{2pi} |f(r e^{i t})|^p dt )^{1/p},

is computed by the uniform trapezoid rule in the angle (exact mean of
equispaced samples, spectrally accurate for smooth integrands) with node
doubling, per radius, until two successive refinements agree. A lacunary
f(z) = h(z^d) is reduced first to h on the circle of radius r^d, which
has the same mean and needs d times fewer nodes. A binomial a + b z^d
(constants, monomials, the refutation family) reduces to degree 1, whose
mean has a closed form: with A = |a|, B = |b| r^d and x = min/max,

    M_p^p = max(A, B)^p S_p(x),  S_p(x) = mean_t |1 + x e^{it}|^p
          = sum_k C(p/2, k)^2 x^{2k} = 2F1(-p/2, -p/2; 1; x^2),

evaluated without angular nodes to a few 1e-15 relative (mpmath's hyp2f1
as reference) and reported with an error of 1e-13. The weighted norm

    ||f||_{p,w} = ( int_0^1 2 r w(r) M_p^p(r; f) dr )^{1/p}

nests that angular quadrature inside the radial quadrature of the weight.
:func:`weighted_norms` computes the norms of many polynomials in one
radial walk per pass, each polynomial a component of the integrand
phi(r, comp) with its own tolerance and panel tree, so every norm is bit
for bit the one it gets alone; the binomials of all components share one
closed-form call per integrand call.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MonotonicityViolation, positive
from .quadrature import _BLOCK_NODES, _NODES, _WEIGHTS, DEFAULT_TOL
from .weights import RadialWeight, moment

DEGREE_CAP = 64

#: angle count at which the doubling of a circle mean stops
_THETA_CAP = 1 << 17
#: equal 15-node Gauss panels of S_p's integral form (x^2 > 1/2), on the
#: sinh-substituted v in [0, 1/2] and on v in [1/2, pi/2]
_BINOMIAL_INNER_PANELS = 16
_BINOMIAL_OUTER_PANELS = 4
#: relative error reported for a closed-form binomial mean
_BINOMIAL_REL_ERROR = 1e-13


@dataclass(frozen=True)
class Polynomial:
    """Analytic function given by finitely many complex coefficients, a0 first."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = [complex(c) for c in self.coeffs]
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
    if not isinstance(spec, dict) or "coeffs" not in spec:
        raise DomainError("polynomial spec must be an object with a 'coeffs' field")
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
    in _mean_pow_batch is (256 or 8 (degree + 1), times 2^k).
    Radii are taken in blocks of at most _BLOCK_NODES nodes, which bounds
    the memory of a large batch at a fine grid.
    """
    degree = f.degree
    js = np.arange(degree + 1)
    m = n
    while m > _CIRCLE_CACHE_MAX_N:
        m //= 2
    circle = _circle_grid(m, degree)
    coeffs = np.asarray(f.coeffs)[None, :]
    out = np.empty(len(radii))
    rows = max(1, _BLOCK_NODES // n)
    for start in range(0, len(radii), rows):
        amps = coeffs * radii[start : start + rows, None] ** js[None, :]
        if offset:
            amps = amps * np.exp(1j * offset * js)[None, :]
        if m < n:
            turns = np.exp(2j * np.pi / n * np.outer(np.arange(n // m), js))
            amps = (amps[:, None, :] * turns).reshape(-1, degree + 1)
        fz = amps @ circle
        mod2 = fz.real**2 + fz.imag**2
        out[start : start + rows] = np.mean((mod2 ** (0.5 * p)).reshape(-1, n), axis=1)
    return out


def _gauss_panels(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of `panels` equal 15-node Gauss panels on [lo, hi]."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    x = edges[:-1, None] + half[:, None] * (_NODES + 1.0)
    return x.ravel(), (half[:, None] * _WEIGHTS).ravel()


# the tau rule on [0, 1] is scaled to each row's [0, asinh(1/(2b))]
_TAU_NODES, _TAU_WEIGHTS = _gauss_panels(0.0, 1.0, _BINOMIAL_INNER_PANELS)
_V_NODES, _V_WEIGHTS = _gauss_panels(0.5, 0.5 * np.pi, _BINOMIAL_OUTER_PANELS)
_SIN2_V = np.sin(_V_NODES) ** 2


def _p_overflow(p: float, quantity: str) -> DomainError:
    return DomainError(f"p = {p} is too large: {quantity} overflows a float")


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


def _finite_mean_pows(f: Polynomial, radii: np.ndarray, p: float, tol: float):
    """_mean_pow_batch, refusing a p at which some M_p^p overflows a float."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals, diffs = _mean_pow_batch(f, radii, p, tol)
    if not np.all(np.isfinite(vals)):
        raise _p_overflow(p, "the circle mean M_p^p")
    return vals, diffs


@functools.lru_cache(maxsize=32)
def _binomial_series(p: float) -> np.ndarray:
    """C(p/2, k)^2 for k = 1..K: past k = p/2, until C(p/2, K)^2 2^-K <= 1e-17.

    For x^2 <= 1/2 the terms after K shrink by at least half each, so the
    dropped tail is below 2e-17 of the sum, which is at least 1. Above
    p = 1033.6 the largest coefficient overflows a float.
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
    return coeffs


def _row_blocks(mask: np.ndarray, size: int):
    """The indices of mask's true rows, in blocks of at most size."""
    rows = np.flatnonzero(mask)
    return (rows[i : i + size] for i in range(0, rows.size, size))


def _unit_binomial_means(x: np.ndarray, p: float) -> np.ndarray:
    """S_p(x) = mean_t |1 + x e^{it}|^p for 0 <= x <= 1, per row.

    x^2 <= 1/2: the series 1 + sum_k C(p/2, k)^2 x^{2k} (binomial series
    and Parseval), about 60 terms. x^2 > 1/2: the integral

        S_p = (2/pi) int_0^{pi/2} ((1 - x)^2 + 4 x sin^2 v)^{p/2} dv,

    whose integrand nearly vanishes at v = +-i b, b = (1 - x)/(2 sqrt x).
    On [0, 1/2] the substitution v = b sinh(tau) moves that pair to
    tau = +-i pi/2, so equal Gauss panels in tau converge at a rate that
    does not depend on x; [1/2, pi/2] is smooth. x = 1 is
    Gamma(1 + p)/Gamma(1 + p/2)^2. At large p the series coefficients and
    the Gamma ratio overflow, so neither is formed unless a row needs it:
    a batch of x = 0 rows (a constant or a monomial) is exactly 1.
    """
    if not x.any():
        return np.ones_like(x)
    out = np.empty_like(x)
    x2 = x * x
    series = x2 <= 0.5
    coeffs = _binomial_series(p)
    # rows in blocks of at most _BLOCK_NODES terms (in place, one temporary
    # of a block), so a batch of many polynomials' radii stays as small in
    # memory as one polynomial's
    for rows in _row_blocks(series, _BLOCK_NODES // coeffs.size):
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

    # the integral holds about four temporaries of its block at once
    for rows in _row_blocks(~series & ~edge, _BLOCK_NODES // (4 * _TAU_NODES.size)):
        xi = x[rows, None]
        gap2 = (1.0 - xi) ** 2
        b = (1.0 - xi) / (2.0 * np.sqrt(xi))
        top = np.arcsinh(0.5 / b)
        tau = top * _TAU_NODES
        inner = gap2 + 4.0 * xi * np.sin(b * np.sinh(tau)) ** 2
        inner_sum = np.sum((top * _TAU_WEIGHTS) * inner ** (0.5 * p) * (b * np.cosh(tau)), axis=1)
        outer_sum = np.sum(_V_WEIGHTS * (gap2 + 4.0 * xi * _SIN2_V) ** (0.5 * p), axis=1)
        out[rows] = (2.0 / np.pi) * (inner_sum + outer_sum)
    return out


def _lacunary(f: Polynomial) -> tuple[Polynomial, int]:
    """(h, d) with f(z) = h(z^d), d the gcd of f's exponents (0 for a constant).

    M_p(r; f) = M_p(r^d; h) for d > 1, exactly for the trapezoid rule
    too: the N-node rule on f is the N/d-node rule on h when d divides N.
    """
    d = int(np.gcd.reduce(np.flatnonzero(np.asarray(f.coeffs))))
    return (Polynomial(f.coeffs[::d]), d) if d > 1 else (f, d)


def _binomial_moduli(h: Polynomial) -> tuple[float, float]:
    """(|a_0|, |a_1|) of a polynomial of degree <= 1."""
    a = np.abs(np.asarray(h.coeffs, dtype=complex))
    return (a[0] if a.size else 0.0), (a[1] if a.size > 1 else 0.0)


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


def _mean_pow_batch(
    f: Polynomial, radii: np.ndarray, p: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """M_p^p(r; f) row per radius, doubling the angle grid per radius.

    f(z) = h(z^d), d the gcd of f's exponents, is first reduced to h at
    radii r^d, since M_p(r; f) = M_p(r^d; h); the family K (z^n + e^n)
    becomes a degree-1 polynomial and a monomial z^n becomes w. An h of
    degree <= 1 takes the closed form of _binomial_means and no angular
    nodes; its `diff` is _BINOMIAL_REL_ERROR relative to the mean M.
    Otherwise the doubled grid is the current grid plus its
    half-spacing offset, so each refinement reuses every node already
    evaluated. Convergence is measured on the means M themselves
    (relative, per row): a row leaves the doubling once two successive
    refinements agree, so its value depends only on its own radius, not
    on the radii that share its batch. A row whose value overflows leaves
    at once. Rows still open when the grid reaches _THETA_CAP stop there;
    `diff` holds each row's last change.
    """
    f, d = _lacunary(f)
    if d > 1:
        radii = np.asarray(radii, dtype=float) ** d
    if f.degree <= 1:
        vals = _binomial_means(*_binomial_moduli(f), radii, p)
        return vals, _BINOMIAL_REL_ERROR * vals ** (1.0 / p)
    n = max(256, 8 * (f.degree + 1))
    vals = _abs_pow_means(f, radii, p, n)
    means = vals ** (1.0 / p)
    diff = np.zeros_like(vals)
    active = np.arange(vals.size)
    while active.size:
        odd = _abs_pow_means(f, radii[active], p, n, offset=np.pi / n)
        vals_next = 0.5 * (vals[active] + odd)
        n *= 2
        means_next = vals_next ** (1.0 / p)
        step = np.abs(means_next - means[active])
        vals[active], means[active], diff[active] = vals_next, means_next, step
        if n >= _THETA_CAP:
            break
        # an overflowed row's step is NaN and would never pass the test
        open_rows = ~(step <= tol * np.maximum(means_next, 1e-300)) & np.isfinite(means_next)
        active = active[open_rows]
    return vals, diff


def integral_mean(f: Polynomial, r: float, p: float, tol: float = DEFAULT_TOL) -> float:
    """M_p(r; f) with relative error about tol (zero polynomial gives 0)."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"integral_mean needs r in [0,1), got {r}")
    positive("p", p)
    positive("tol", tol)
    if f.is_zero:
        return 0.0
    vals, _ = _finite_mean_pows(f, np.array([r]), p, tol)
    return float(vals[0] ** (1.0 / p))


def _mean_pows(fs: list[Polynomial], p: float, tol: float):
    """The integrand phi(r, comp) = M_p^p(r; fs[comp]) of the norms of fs.

    After the lacunary reduction every binomial (degree <= 1) component
    takes one closed-form _binomial_means call per integrand call, with
    its own moduli and exponent d on each row; every other component runs
    its own _mean_pow_batch at relative angular tolerance tol.
    """
    reduced = [_lacunary(f) for f in fs]
    binomial = np.array([h.degree <= 1 for h, _ in reduced], dtype=bool)
    moduli = np.array([_binomial_moduli(h) if h.degree <= 1 else (0.0, 0.0) for h, _ in reduced])
    powers = np.array([d for _, d in reduced])
    lacunary = sorted({d for (h, d) in reduced if h.degree <= 1 and d > 1})
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


def weighted_norms(
    fs, w: RadialWeight, p: float, tol: float = DEFAULT_TOL
) -> list[float]:
    """||f||_{p,w} of every f in fs, each with relative error about tol.

    The radial quadrature runs twice, each time as one walk for all the
    polynomials (see :func:`korenblum.quadrature.integrate_many`): a
    coarse walk to learn the scale of each integral, then a walk whose
    absolute tolerances target the final relative accuracy of each norm,
    or stay at the coarse ones where those are finer already (that walk
    repeats the coarse one). Each component keeps its own tolerances and
    panel tree, and its panels are added one by one in frontier order,
    so each norm is bit for bit the one the polynomial gets alone,
    ``weighted_norms([f], ...)``.
    """
    positive("p", p)
    positive("tol", tol)
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
    phi = _mean_pows(fs, p, 0.25 * tol)
    # an overflowing integrand is reported by the walk's non-finite panel check
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = w.integrate_against(phi, 0.0, 1.0, coarse_tols)
        fine_tols = _above_floor(
            fs, p, [min(0.25 * tol * p * v, ct) for (v, _), ct in zip(coarse, coarse_tols)]
        )
        fine = w.integrate_against(phi, 0.0, 1.0, fine_tols)
    try:
        return [max(v, 0.0) ** (1.0 / p) for v, _ in fine]
    except OverflowError:
        raise DomainError(
            f"p = {p}: the norm (int 2 r w M_p^p dr)^(1/p) overflows a float"
        ) from None


def weighted_norm(
    f: Polynomial, w: RadialWeight, p: float, tol: float = DEFAULT_TOL
) -> float:
    """||f||_{p,w} with relative error about tol: ``weighted_norms([f])[0]``."""
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

    vals, diffs = _finite_mean_pows(f, np.asarray(radii), p, DEFAULT_TOL)
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
