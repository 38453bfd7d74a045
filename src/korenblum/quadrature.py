"""Adaptive composite Gauss-Legendre quadrature on finite intervals.

A panel's estimate is compared against the sum of its two half-panel
estimates; the panel is bisected until the difference falls below its
share of the absolute tolerance. Gauss nodes never touch panel
endpoints, so integrable endpoint singularities are refined into
rather than evaluated.

The panel tree is walked level by level: the halves of all panels still
open at one bisection level are evaluated together, in calls of the
integrand on at most 65536 nodes each. Integrands must therefore be
elementwise functions of a 1-D array of any length.
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import QuadratureDivergence, positive

#: default absolute tolerance of the package's quadratures
DEFAULT_TOL = 1e-9
#: bisection levels before a panel is declared stuck
MAX_DEPTH = 40
#: nodes passed to an integrand in one call (also the block size of the
#: angular grids in ``analytic``)
_BLOCK_NODES = 1 << 16

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_sums(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """15-node Gauss estimates of the panels [lo[k], hi[k]].

    The integrand sees at most _BLOCK_NODES nodes per call, which bounds
    the memory of a deep bisection level.
    """
    half = 0.5 * (hi - lo)
    sums = np.empty(lo.size)
    rows = _BLOCK_NODES // _NODES.size
    for start in range(0, lo.size, rows):
        block = slice(start, start + rows)
        x = lo[block, None] + half[block, None] * (_NODES + 1.0)
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        # row sums round exactly as a sum over one panel does, so every
        # settle/split decision matches a panel-by-panel walk bit for bit
        sums[block] = np.sum(_WEIGHTS * fx, axis=1)
    return half * sums


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate a vectorized integrand over [a, b] to absolute tolerance.

    ``f`` must map a 1-D array of any length elementwise to its values:
    all panels open at one bisection level are evaluated together, at
    most _BLOCK_NODES nodes per call.
    ``breakpoints`` are interior points where the integrand is known to be
    non-smooth (jumps, kinks); panels never straddle them. Returns
    ``(value, err_est)``. Raises :class:`QuadratureDivergence` when a
    panel sum is not finite (such a panel never settles; declare interior
    singularities as breakpoints, since nodes never touch a panel's
    ends), or when the accumulated error of panels that hit ``MAX_DEPTH``
    still exceeds ``tol``.
    """
    positive("tol", tol)
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0, 0.0

    def finite_sums(lo, hi):
        sums = _panel_sums(f, lo, hi)
        if not np.isfinite(sums).all():
            raise QuadratureDivergence(f"quadrature on [{a}, {b}] met a non-finite panel sum")
        return sums

    cuts = sorted({float(x) for x in breakpoints if a < x < b})
    edges = np.array([a, *cuts, b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    coarse = finite_sums(lo, hi)
    panel_tol = np.full(lo.size, tol / lo.size)

    total = 0.0
    settled_err = 0.0
    stuck_err = 0.0
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        halves = finite_sums(np.concatenate((lo, mid)), np.concatenate((mid, hi)))
        left, right = halves[: lo.size], halves[lo.size :]
        fine = left + right
        err = np.abs(fine - coarse)
        settled = (err <= panel_tol) | (mid <= lo) | (mid >= hi)
        done = settled | (depth >= MAX_DEPTH)
        total += float(np.sum(fine[done]))
        settled_err += float(np.sum(err[settled]))
        stuck_err += float(np.sum(err[done & ~settled]))
        split = ~done
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        coarse = np.concatenate((left[split], right[split]))
        half_tol = 0.5 * panel_tol[split]
        panel_tol = np.concatenate((half_tol, half_tol))
        depth += 1

    if stuck_err > tol:
        raise QuadratureDivergence(
            f"quadrature on [{a}, {b}] left error {stuck_err:.3e} > tol {tol:.3e} "
            f"after {MAX_DEPTH} bisection levels"
        )
    return total, settled_err + stuck_err
