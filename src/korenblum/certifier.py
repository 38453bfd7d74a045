"""Certify admissible radii and verify domination instances.

A radius c is certified for a weight w when

    int_0^c 2 r w(r) dr  <=  int_c^1 rho w(rho) / H(rho, c) drho

holds with a margin, where H is the explicit bound from
:mod:`korenblum.schuster` and 1/H is taken as 0 wherever the bound is
vacuous. The inequality does not involve the exponent p: a certified c is
admissible for every p >= 1 simultaneously. :func:`certify` walks the
radius grid from the top down and stops at the first admissible point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import Polynomial, weighted_norms
from .errors import DomainError, NoCertificate, positive
from .quadrature import DEFAULT_TOL
from .schuster import inverse_H
from .weights import RadialWeight

C_GRID_LO = 1e-6
C_GRID_HI = 0.25
#: radii in the certification scan
DEFAULT_GRID = 64
#: largest degree of g in random_dominating_pair
PAIR_MAX_DEGREE = 8
#: (radii, angles) of the sampled domination check
DOMINATION_GRID = (64, 256)


@dataclass(frozen=True)
class RadiusCertificate:
    """A certified admissible radius with both sides of the inequality."""

    c: float
    inner: float
    outer: float
    margin: float
    quad_tol: float


@dataclass(frozen=True)
class DominationReport:
    """Sampled check of |f| <= |g| on the annulus {c <= |z| < 1}.

    Sampling evidence, not proof: ``conclusive`` means no violation was
    seen on the grid.
    """

    c: float
    min_gap: float
    grid: tuple[int, int]
    conclusive: bool


@dataclass(frozen=True)
class InstanceReport:
    dominates: bool
    norm_f: float
    norm_g: float
    principle_holds: bool


def radius_grid(grid: int) -> np.ndarray:
    """Geometric midpoint grid of candidate radii strictly inside (C_GRID_LO, C_GRID_HI).

    Each point is a Python float power, libm's pow, whose bits do not
    depend on the SIMD kernels numpy picks for the CPU."""
    ratio = (C_GRID_HI / C_GRID_LO) ** (1.0 / grid)
    return np.array([C_GRID_LO * ratio ** (k + 0.5) for k in range(grid)])


def _sides_at(w: RadialWeight, c: float, quad_tol: float) -> tuple[float, float]:
    inner = w.power_mass(0.0, 0.0, c)

    def phi(rho, comp):
        return 0.5 * inverse_H(rho, c)

    [(outer, _)] = w.integrate_against(phi, c, 1.0, [quad_tol])
    return inner, outer


def _checked_grid(quad_tol: float, grid: int) -> np.ndarray:
    if grid < 32:
        raise DomainError(f"certification grid must be >= 32, got {grid}")
    positive("quad_tol", quad_tol)
    return radius_grid(grid)


def certify(
    w: RadialWeight, quad_tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID
) -> RadiusCertificate:
    """Largest grid radius whose certification margin clears 2*quad_tol.

    The grid is scanned from the top down and the scan stops at the first
    admissible point. Each point's sides depend on its own radius alone, so
    that point is the largest admissible one of the whole grid, whether or
    not the admissible points form a prefix of it.

    Raises :class:`NoCertificate` when no grid point passes; the sufficient
    condition can fail even though some admissible radius always exists.
    """
    for c in _checked_grid(quad_tol, grid)[::-1]:
        c = float(c)
        inner, outer = _sides_at(w, c, quad_tol)
        margin = outer - inner
        if margin > 2.0 * quad_tol:
            return RadiusCertificate(
                c=c, inner=inner, outer=outer, margin=margin, quad_tol=quad_tol
            )
    raise NoCertificate(
        f"no radius in ({C_GRID_LO}, {C_GRID_HI}) cleared margin 2*{quad_tol}"
    )


def check_domination(f: Polynomial, g: Polynomial, c: float) -> DominationReport:
    """Minimum of |g| - |f| on the DOMINATION_GRID over the annulus {c <= |z| < 1}."""
    if not 0.0 < c < 1.0:
        raise DomainError(f"check_domination needs c in (0,1), got {c}")
    n_r, n_a = DOMINATION_GRID
    radii = np.linspace(c, max(c, 1.0 - 1e-6), n_r)
    # midpoint-offset angles keep equality rays (e.g. phase 0 of a monomial
    # pair) off the grid, where the sampled gap would be rounding noise
    angles = np.exp(2j * np.pi * (np.arange(n_a) + 0.5) / n_a)
    z = radii[:, None] * angles[None, :]
    gap = np.abs(g(z)) - np.abs(f(z))
    min_gap = float(np.min(gap))
    return DominationReport(c=c, min_gap=min_gap, grid=DOMINATION_GRID, conclusive=min_gap >= 0.0)


def verify_instance(
    f: Polynomial,
    g: Polynomial,
    w: RadialWeight,
    p: float,
    c: float,
    tol: float = DEFAULT_TOL,
) -> InstanceReport:
    """Pair a sampled domination check with the weighted-norm comparison."""
    positive("p", p)
    positive("tol", tol)
    report = check_domination(f, g, c)
    norm_f, norm_g = weighted_norms([f, g], w, p, tol=tol)
    return InstanceReport(
        dominates=report.conclusive,
        norm_f=norm_f,
        norm_g=norm_g,
        principle_holds=norm_f <= norm_g + 2.0 * tol,
    )


def random_dominating_pair(rng: np.random.Generator) -> tuple[Polynomial, Polynomial]:
    """A random pair (f, g) with f = h*g and |h| <= 1 on the closed disk.

    h is either a monomial z^k or an affine contraction (z + a)/2 with
    |a| <= 1, so |f| <= |g| holds on every annulus; callers still confirm
    by sampling before relying on it.
    """
    while True:
        degree = int(rng.integers(0, PAIR_MAX_DEGREE + 1))
        re = rng.standard_normal(degree + 1)
        im = rng.standard_normal(degree + 1)
        coeffs = re + 1j * im
        if np.any(coeffs != 0):
            break
    g = Polynomial(tuple(coeffs))
    if rng.random() < 0.5:
        k = int(rng.integers(1, 4))
        h = Polynomial.monomial(k)
    else:
        a = rng.random() * np.exp(2j * np.pi * rng.random())
        h = Polynomial((a / 2.0, 0.5))
    return h * g, g
