"""Adaptive composite Gauss-Legendre quadrature on finite intervals.

A panel's estimate is compared against the sum of its two half-panel
estimates; the panel is bisected until the difference falls below its
share of the absolute tolerance, or below the rounding of the halves
themselves, which no bisection can lower: 8 eps (|left| + |right|), or
the shift that rounding the nodes makes, 8 eps |mid| times the sum of
the halves' rises |f(last node) - f(first node)|.
Gauss nodes never touch panel endpoints, so integrable endpoint
singularities are bisected toward rather than evaluated.

:func:`integrate_many` integrates K integrands over the same [a, b] and
breakpoints in one walk of their panel trees, level by level: the halves
of every panel still open at one bisection level, of every component,
are evaluated together, in calls ``f(x, comp)`` on at most 65536 nodes
each, ``comp[i]`` being the component of node ``x[i]``. Integrands must
therefore be elementwise functions of the two 1-D arrays. Each component
keeps its own tolerance, panel tree, settle/split decisions, non-finite
check and stuck-error test. Its value and error estimate are added up
by one ``np.bincount`` per level, which adds each component's panels one
by one in frontier order, the order a walk of it alone takes; so each
component's result is bit for bit what a separate walk would give.
:func:`integrate` is that walk for a single integrand ``f(x)``.

``integrate_many(..., rtols=...)`` makes each tolerance relative to
the integral it walks: once every piece's panel sum and its two halves
are evaluated, component k takes min(tols[k], rtols[k] |v_k|), v_k the
sum of its level-0 halves, for level 0 and every later level. The walk
is bit for bit a fresh walk at those tolerances, and calls the integrand
as that walk does.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, QuadratureDivergence, positive

#: default absolute tolerance of the package's quadratures
DEFAULT_TOL = 1e-9
#: bisection levels before a panel is declared stuck
MAX_DEPTH = 40
#: nodes passed to an integrand in one call (also the block size of the
#: angular grids in ``analytic``)
_BLOCK_NODES = 1 << 16
#: a panel whose halves agree to this share of their magnitudes is settled
_ROUNDING = 8.0 * np.finfo(float).eps

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_sums(
    f: Callable, lo: np.ndarray, hi: np.ndarray, comp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """15-node Gauss estimates of the panels [lo[k], hi[k]] of components
    comp[k], and the rise f(last node) - f(first node) of each.

    The integrand sees at most _BLOCK_NODES nodes per call, which bounds
    the memory of a deep bisection level.
    """
    half = 0.5 * (hi - lo)
    sums = np.empty(lo.size)
    rise = np.empty(lo.size)
    rows = _BLOCK_NODES // _NODES.size
    for start in range(0, lo.size, rows):
        block = slice(start, start + rows)
        x = lo[block, None] + half[block, None] * (_NODES + 1.0)
        fx = np.asarray(f(x.ravel(), np.repeat(comp[block], _NODES.size)), dtype=float)
        fx = fx.reshape(x.shape)
        # row sums round exactly as a sum over one panel does, so every
        # settle/split decision matches a panel-by-panel walk bit for bit
        sums[block] = (_WEIGHTS * fx).sum(axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf: its panel sum is not finite
            rise[block] = fx[:, -1] - fx[:, 0]
    return half * sums, rise


def _walk(finite_sums, edges, tols, rtols=None):
    """One level-by-level walk of every component's panel tree over the
    pieces between ``edges``, component k at tolerance ``tols[k]``, its
    panels evaluated by ``finite_sums(lo, hi, comp)``.

    With ``rtols``, component k walks at min(tols[k], rtols[k] |v_k|)
    instead, v_k the sum of its level-0 halves. Returns per-component
    arrays (total, settled error, stuck error) and the tolerances walked.
    """
    K = len(tols)
    pieces = edges.size - 1
    lo, hi = np.tile(edges[:-1], K), np.tile(edges[1:], K)
    comp = np.repeat(np.arange(K), pieces)
    coarse = finite_sums(lo, hi, comp)[0]

    total, settled_err, stuck_err = np.zeros(K), np.zeros(K), np.zeros(K)
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        halves, rise = finite_sums(
            np.concatenate((lo, mid)), np.concatenate((mid, hi)), np.concatenate((comp, comp))
        )
        left, right = halves[: lo.size], halves[lo.size :]
        fine = left + right
        err = np.abs(fine - coarse)
        # rounding a node x by eps |x| moves a half's sum by about eps |x|
        # times its rise: at most eps |mid| (|rise_left| + |rise_right|)
        rise = np.abs(rise)
        rounding = _ROUNDING * np.maximum(
            np.abs(left) + np.abs(right), np.abs(mid) * (rise[: lo.size] + rise[lo.size :])
        )
        if depth == 0:
            if rtols is not None:
                level0 = np.abs(np.bincount(comp, fine, K))
                tols = np.minimum(tols, np.asarray(rtols) * level0).tolist()
            panel_tol = np.repeat(np.array(tols) / pieces, pieces)
        settled = (err <= np.maximum(panel_tol, rounding)) | (mid <= lo) | (mid >= hi)
        done = settled | (depth >= MAX_DEPTH)
        total += np.bincount(comp[done], fine[done], K)
        # a panel settled at the rounding floor may be off by that much
        settled_err += np.bincount(comp[settled], np.maximum(err, rounding)[settled], K)
        if depth >= MAX_DEPTH:  # the panels still open are stuck
            stuck_err += np.bincount(comp[~settled], err[~settled], K)
        # children keep each component's panels in the order of its own walk:
        # all left halves, then all right halves
        split = ~done
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        coarse = np.concatenate((left[split], right[split]))
        comp = np.concatenate((comp[split], comp[split]))
        half_tol = 0.5 * panel_tol[split]
        panel_tol = np.concatenate((half_tol, half_tol))
        depth += 1
    return total, settled_err, stuck_err, tols


def integrate_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    tols: Sequence[float],
    *,
    breakpoints: Iterable[float] = (),
    rtols: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """Integrate the components k of ``f(x, comp)`` over [a, b], component
    k to absolute tolerance ``tols[k]``, in one walk (see the module notes).

    ``breakpoints`` are interior points where some integrand is known to
    be non-smooth (jumps, kinks); panels never straddle them. Returns one
    ``(value, err_est)`` per component; ``err_est`` adds up, over the
    settled panels, the larger of each one's error and its rounding
    floor, and over the stuck ones their error. Raises
    :class:`QuadratureDivergence` when a panel sum is not finite (such a
    panel never settles; declare interior singularities as breakpoints,
    since nodes never touch a panel's ends), or when the accumulated
    error of a component's panels that hit ``MAX_DEPTH`` still exceeds
    its tolerance.

    ``rtols``, one finite entry >= 0 per component, makes component k's
    tolerance min(tols[k], rtols[k] |v_k|), v_k the sum of its level-0
    halves, fixed before any panel settles: the result is bit for bit a
    fresh walk's at those tolerances.
    """
    tols = [positive("tol", tol) for tol in tols]
    if rtols is not None:
        rtols = [positive("rtol", rtol, closed=True) for rtol in rtols]
        if len(rtols) != len(tols):
            raise DomainError(f"rtols needs one entry per component: {len(tols)}, got {len(rtols)}")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return [(0.0, 0.0)] * len(tols)

    def finite_sums(lo, hi, comp):
        sums, rise = _panel_sums(f, lo, hi, comp)
        if not np.isfinite(sums).all():
            raise QuadratureDivergence(f"quadrature on [{a}, {b}] met a non-finite panel sum")
        return sums, rise

    cuts = sorted({float(x) for x in breakpoints if a < x < b})
    edges = np.array([a, *cuts, b], dtype=float)
    total, settled_err, stuck_err, tols = _walk(finite_sums, edges, tols, rtols)
    for tol, err in zip(tols, stuck_err.tolist()):
        if err > tol:
            raise QuadratureDivergence(
                f"quadrature on [{a}, {b}] left error {err:.3e} > tol {tol:.3e} "
                f"after {MAX_DEPTH} bisection levels"
            )
    return list(zip(total.tolist(), (settled_err + stuck_err).tolist()))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate one vectorized integrand ``f(x)`` over [a, b] to absolute
    tolerance: :func:`integrate_many` with the single component f.

    Returns ``(value, err_est)``. Kept as its own function because
    perfbench's tracer hooks it by name.
    """
    [result] = integrate_many(lambda x, comp: f(x), a, b, [tol], breakpoints=breakpoints)
    return result
