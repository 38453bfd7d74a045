"""Radial weights on [0, 1): moments, partial masses and integrals.

All radial integrals use the kernel 2 r w(r) dr, normalized so the
constant weight 1 has total mass exactly 1. Moments

    m(s) = int_0^1 2 r^{s+1} w(r) dr

are computed in closed form for every kind and returned as plain floats,
with no tolerance; they give the norm ||a z^d||^p = |a|^p m(dp) of a
monomial directly. RadialWeight.moment_error(s) bounds the rounding
error of m(s), which the Parseval sum of an even-p norm gates on. The
constant, step and table kinds are piecewise linear, each given once by
its knots, and share one implementation: power masses by primitives, w
by interpolation and the knots as quadrature breakpoints. For the
standard kind
w(r) = (alpha+1)(1-r^2)^alpha, m(s) = (alpha+1) B(s/2 + 1, alpha + 1),
its log-Gamma ratio from Stirling's series once alpha is large
(_log_gamma_ratio), and the partial masses of s = 0 from the primitive
-(1-r^2)^{alpha+1};
its other partial power masses have no closed form here and are refused.
Both radial walks of general integrands phi(r, k),
:meth:`RadialWeight.integrate_against` and
:meth:`RadialWeight.integrate_graded`, keep one contract: the caller's
components k = 0..K-1 go in, one adaptive quadrature walk takes them
all, with ``tols`` and ``rtols`` passed straight to it, and one
(value, err_est) per component comes out. The direct walk runs in r
with the weight's knots as breakpoints, for every kind; only a walk of
the standard kind with alpha < 0 up to r = 1 runs in the substituted
variable v = (1-r^2)^{alpha+1}, which absorbs the integrable singularity
there into a bounded integrand. The graded walk, of a bounded weight,
takes a component with kinks at the radii it names: [0, 1] is cut at
the knots and midway between neighbouring kinks, and each cell is
graded toward its own kink. Its cell ends in s are cube roots from
math.cbrt, a scalar call, so they do not depend on which SIMD kernels
numpy picks for the CPU.
"""
from __future__ import annotations

import bisect
import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, positive
from .quadrature import integrate_many


#: from x = 10 on, Stirling's series to the 1/x^13 term below has a
#: truncation error under 1e-16 (its next term is 3617/(122400 x^15))
_STIRLING_X = 10.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_EPS = float(np.finfo(float).eps)


def _stirling_tail(x: float) -> float:
    # lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2 = sum_k c_k / x^(2k-1)
    y, total = 1.0 / (x * x), 0.0
    for c in reversed(_STIRLING):
        total = total * y + c
    return total / x


def _log_gamma_ratio(x: float, t: float) -> float:
    """log Gamma(x + t) - log Gamma(x) for x >= _STIRLING_X and t >= 0, with
    an absolute error of about eps t log(x + t). The difference of two
    lgamma values would lose about eps x log x to cancellation, all of
    the value once x is large against t: Stirling's series leaves the
    difference (x - 1/2) log1p(t/x) + t log(x + t) - t of its leading
    terms, which cancels nothing of size x."""
    lead = (x - 0.5) * math.log1p(t / x) + t * math.log(x + t) - t
    return lead + (_stirling_tail(x + t) - _stirling_tail(x))


class OriginLiminf(enum.Enum):
    """Classification of liminf_{r -> 0+} w(r), used for diagnostics only."""

    POSITIVE_LIMINF = "PositiveLiminf"
    ZERO_NEAR_ORIGIN = "ZeroNearOrigin"


def _power_primitive(s: float, alpha: float, beta: float, r: float) -> float:
    # antiderivative of 2 r^{s+1} (alpha + beta r)
    return 2.0 * alpha * r ** (s + 2) / (s + 2) + 2.0 * beta * r ** (s + 3) / (s + 3)


class RadialWeight:
    """Base class for radial weights; all kinds are immutable and pure."""

    #: whether w is bounded on [0, 1]: integrate_graded needs it, and
    #: integrate_against walks an unbounded w up to r = 1 in its own way
    bounded = True

    def liminf_at_origin(self) -> OriginLiminf:
        raise NotImplementedError

    def _kernel(self, r):
        """2 r w(r) at the radii r, the kernel of every radial integral."""
        raise NotImplementedError

    def _support_knots(self) -> tuple[float, ...]:
        """The knots of w in [0, 1): w is 0 below the first one and smooth
        between them."""
        raise NotImplementedError

    def integrate_against(
        self, phi: Callable, a: float, b: float, tols: Sequence[float], *,
        rtols: Sequence[float] | None = None,
    ) -> list[tuple[float, float]]:
        """int_a^b 2 r w(r) phi(r, k) dr for k = 0..K-1, component k with
        absolute error <= tols[k], in one quadrature walk.

        ``phi(r, comp)`` maps arrays of radii and of their components
        elementwise; ``tols`` and ``rtols``, which makes the walk's
        tolerances relative to its own level 0, go straight to
        :func:`korenblum.quadrature.integrate_many`. Returns one
        (value, err_est) per component. The walk runs in r from the first
        knot (w is 0 below it) with the knots as breakpoints; a walk of an
        unbounded weight up to r = 1 is its own (_integrate_to_one).
        """
        if not self.bounded and b == 1.0:
            return self._integrate_to_one(phi, a, tols, rtols)
        knots = self._support_knots()
        # a walk of [b, b] returns zeros
        lo = min(max(a, knots[0]), b)

        def kernel(r, comp):
            return self._kernel(r) * phi(r, comp)

        return integrate_many(kernel, lo, b, tols, breakpoints=knots, rtols=rtols)

    def _integrate_to_one(self, phi, a, tols, rtols):
        """integrate_against on [a, 1] for an unbounded weight."""
        raise NotImplementedError

    def integrate_graded(
        self, phi: Callable, centres: Sequence[Sequence[float]], tols: Sequence[float], *,
        rtols: Sequence[float] | None = None,
    ) -> list[tuple[float, float]]:
        """int_0^1 2 r w(r) phi(r, k) dr for k = 0..K-1, component k smooth but
        for a kink |r - c|^q at each of its centres c, centres[k], sorted
        and in (0, 1), with absolute error <= tols[k], in one quadrature
        walk.

        [0, 1] is cut at the weight's knots and, per component, at the
        midpoints between neighbouring centres, and each cell [a, b] is
        taken in its own s, r = c + s^3, graded toward the centre c of
        the cell, the centre nearest all of it, with
        s = cbrt(a - c) + (cbrt(b - c) - cbrt(a - c)) x for x in [0, 1]:
        the Jacobian 3 s^2 and the kink make the kinked part vanish like
        |s|^{3q + 2} at s = 0, so a few Gauss panels in x resolve what a
        walk in r would bisect toward c. The cube roots of the cell ends
        come from math.cbrt, which, unlike np.cbrt, does not change with
        the SIMD kernels numpy picks for the CPU. Component k is one
        component of a :func:`korenblum.quadrature.integrate_many` walk in
        x, whose integrand adds, at each x, its cells in order; ``phi``,
        ``tols`` and ``rtols`` keep the contract of
        :meth:`integrate_against`. Returns one (value, err_est) per
        component, each bit for bit what it gets alone. The weight must be
        bounded, and every component needs a centre.
        """
        if not self.bounded:
            raise DomainError(f"integrate_graded needs a bounded weight, got {self.to_spec()}")
        if not all(centres):
            raise DomainError("integrate_graded needs at least one centre per component")
        knots = self._support_knots()
        comp, centre, lo, width, counts = [], [], [], [], []
        for k, cs in enumerate(centres):
            mids = [0.5 * (c + d) for c, d in zip(cs, cs[1:])]
            edges = sorted({*knots, *(m for m in mids if m > knots[0]), 1.0})
            counts.append(len(edges) - 1)
            for a, b in zip(edges, edges[1:]):
                c = cs[bisect.bisect_right(mids, a)]
                s_a, s_b = math.cbrt(a - c), math.cbrt(b - c)
                comp.append(k)
                centre.append(c)
                lo.append(s_a)
                width.append(s_b - s_a)
        comp = np.array(comp, dtype=int)
        centre, lo, width = map(np.array, (centre, lo, width))
        counts = np.array(counts, dtype=int)
        starts = np.cumsum(counts) - counts

        def kernel(x, k):
            # one row per (node, cell of its component), summed per node
            n = counts[k]
            node = np.repeat(np.arange(x.size), n)
            row = np.arange(node.size) + np.repeat(starts[k] - (np.cumsum(n) - n), n)
            s = lo[row] + width[row] * x[node]
            r = centre[row] + s**3
            cells = self._kernel(r) * phi(r, comp[row]) * (3.0 * width[row] * s * s)
            return np.bincount(node, cells, x.size)

        return integrate_many(kernel, 0.0, 1.0, tols, rtols=rtols)

    def power_mass(self, s: float, a: float, b: float) -> float:
        """int_a^b 2 r^{s+1} w(r) dr in closed form."""
        raise NotImplementedError

    def moment_error(self, s: float) -> float:
        """A bound on the absolute rounding error of moment(self, s)."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


class _PiecewiseLinear(RadialWeight):
    """w given by ``_knots()`` = (knots, values), knots increasing below 1:
    0 below the first knot, linear between knots, constant from the last
    knot to 1. The pieces (lo, hi, alpha, beta), w = alpha + beta r on
    each, and w pointwise (``eval``) are both derived from the knots."""

    def _knots(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        raise NotImplementedError

    def _pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        ks, vs = self._knots()
        pieces = []
        for i in range(len(ks) - 1):
            slope = (vs[i + 1] - vs[i]) / (ks[i + 1] - ks[i])
            pieces.append((ks[i], ks[i + 1], vs[i] - slope * ks[i], slope))
        return (*pieces, (ks[-1], 1.0, vs[-1], 0.0))

    def eval(self, r):
        ks, vs = self._knots()
        return np.interp(r, ks, vs, left=0.0)

    def _kernel(self, r):
        return 2.0 * r * self.eval(r)

    def _support_knots(self):
        return self._knots()[0]

    def liminf_at_origin(self) -> OriginLiminf:
        ks, vs = self._knots()
        if ks[0] == 0.0 and vs[0] > 0.0:
            return OriginLiminf.POSITIVE_LIMINF
        return OriginLiminf.ZERO_NEAR_ORIGIN

    def power_mass(self, s, a, b):
        total = 0.0
        for lo, hi, alpha, beta in self._pieces():
            lo, hi = max(lo, a), min(hi, b)
            if hi > lo:
                total += _power_primitive(s, alpha, beta, hi) - _power_primitive(
                    s, alpha, beta, lo
                )
        return total

    def moment_error(self, s):
        # each term 2 alpha r^{s+2}/(s+2) or 2 beta r^{s+3}/(s+3) of a piece's
        # primitives is a few roundings, a pow included, of its own size;
        # alpha and beta, from the knots, a few more, and the alpha term's
        # share of that is at most the beta term's size, since r >= lo;
        # each sum adds one per piece. A term whose pow underflows is off by
        # a subnormal spacing times 2 (|alpha| + |beta|)
        pieces = self._pieces()
        size = sum(_power_primitive(s, abs(alpha), abs(beta), r)
                   for lo, hi, alpha, beta in pieces for r in (lo, hi))
        lost = sum(abs(alpha) + abs(beta) for _, _, alpha, beta in pieces)
        return (8 + len(pieces)) * _EPS * size + lost * 2.0**-1070


@dataclass(frozen=True)
class ConstantWeight(_PiecewiseLinear):
    level: float

    def __post_init__(self):
        positive("constant weight level", self.level)
        positive("constant weight total mass", self.power_mass(0.0, 0.0, 1.0))

    def _knots(self):
        return (0.0,), (self.level,)

    def to_spec(self) -> dict:
        return {"kind": "constant", "level": self.level}


@dataclass(frozen=True)
class StandardWeight(RadialWeight):
    """w(r) = (alpha+1)(1-r^2)^alpha, integrable iff alpha > -1."""

    alpha: float

    def __post_init__(self):
        positive("standard weight alpha", self.alpha, least=-1.0)

    @property
    def bounded(self) -> bool:
        return self.alpha >= 0.0

    def liminf_at_origin(self) -> OriginLiminf:
        return OriginLiminf.POSITIVE_LIMINF

    def _kernel(self, r):
        return 2.0 * (self.alpha + 1.0) * r * (1.0 - r * r) ** self.alpha

    def _support_knots(self):
        return (0.0,)

    def _integrate_to_one(self, phi, a, tols, rtols):
        # v = (1-r^2)^{alpha+1} turns the kernel into plain dv and keeps the
        # transformed integrand bounded up to r = 1, where v = 0; walks short
        # of r = 1 stay in r, since v cannot resolve r^2 under rounding
        q = 1.0 / (self.alpha + 1.0)
        va = (1.0 - a * a) ** (self.alpha + 1.0)

        def transformed(v, comp):
            u = np.clip(1.0 - v**q, 0.0, 1.0)
            return phi(np.sqrt(u), comp)

        return integrate_many(transformed, 0.0, va, tols, rtols=rtols)

    def power_mass(self, s, a, b):
        ap1 = self.alpha + 1.0
        if s == 0.0:
            # primitive -(1-r^2)^{alpha+1}, shifted by 1 and kept as expm1 so
            # that small radii do not cancel against 1
            def v_minus_one(r):
                return -1.0 if r == 1.0 else math.expm1(ap1 * math.log1p(-r * r))

            return v_minus_one(a) - v_minus_one(b)
        if a == 0.0 and b == 1.0:
            # (alpha+1) B(s/2 + 1, alpha + 1) = Gamma(h) Gamma(alpha+2) / Gamma(alpha+1+h)
            h = 0.5 * s + 1.0
            try:
                if ap1 + 1.0 < _STIRLING_X:
                    return ap1 * math.exp(math.lgamma(h) + math.lgamma(ap1) - math.lgamma(h + ap1))
                return math.exp(math.lgamma(h) - _log_gamma_ratio(ap1 + 1.0, 0.5 * s))
            except OverflowError:
                raise DomainError(
                    f"standard weight moment (alpha+1) B(s/2 + 1, alpha + 1) overflows a "
                    f"float in log-Gamma at s = {s}, alpha = {self.alpha}"
                ) from None
        raise DomainError(
            f"standard weight power mass has no closed form for s = {s} on [{a}, {b}]"
        )

    def moment_error(self, s):
        # m(0) = 0 - (-1) is exact. Any other m(s) is exp of a sum of
        # log-Gamma terms, each within a few ulps of its own size, so m(s)
        # is off by a few eps times their sizes, relative, plus the
        # subnormal spacing where it underflows
        if s == 0.0:
            return 0.0
        ap1, h = self.alpha + 1.0, 0.5 * s + 1.0
        if ap1 + 1.0 < _STIRLING_X:
            logs = abs(math.lgamma(h)) + abs(math.lgamma(ap1)) + abs(math.lgamma(h + ap1))
        else:
            x, t = ap1 + 1.0, 0.5 * s
            logs = abs(math.lgamma(h)) + (x - 0.5) * math.log1p(t / x) + t * math.log(x + t) + t
        return 4.0 * (logs + 1.0) * _EPS * self.power_mass(s, 0.0, 1.0) + 2.0**-1070

    def to_spec(self) -> dict:
        return {"kind": "standard", "alpha": self.alpha}


@dataclass(frozen=True)
class StepWeight(_PiecewiseLinear):
    """0 on [0, R), 1 on [R, 1)."""

    R: float

    def __post_init__(self):
        if not (np.isfinite(self.R) and 0.0 < self.R < 1.0):
            raise DomainError(f"step weight needs R in (0,1), got {self.R}")

    def _knots(self):
        return (self.R,), (1.0,)

    def to_spec(self) -> dict:
        return {"kind": "step", "R": self.R}


@dataclass(frozen=True)
class TableWeight(_PiecewiseLinear):
    """Piecewise-linear between knots, constant beyond the last knot.

    Knots must start at 0, increase strictly and stay below 1; values are
    finite and nonnegative with a finite, positive total mass.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        knots = tuple(float(x) for x in self.knots)
        values = tuple(float(x) for x in self.values)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if len(knots) != len(values) or not knots:
            raise DomainError("table weight needs matching, nonempty knots and values")
        if knots[0] != 0.0 or knots[-1] >= 1.0:
            raise DomainError("table knots must start at 0 and end below 1")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise DomainError("table knots must be strictly increasing")
        for v in values:
            positive("table weight value", v, closed=True)
        positive("table weight total mass", self.power_mass(0.0, 0.0, 1.0))

    def _knots(self):
        return self.knots, self.values

    def to_spec(self) -> dict:
        return {"kind": "table", "r": list(self.knots), "w": list(self.values)}


def moment(w: RadialWeight, s: float) -> float:
    """m(s) = int_0^1 2 r^{s+1} w(r) dr, nonincreasing in s, in closed form."""
    positive("moment exponent", s, closed=True)
    return w.power_mass(s, 0.0, 1.0)


def weight_from_spec(spec) -> RadialWeight:
    """Build a weight from its JSON spec (dict or JSON string)."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid weight JSON: {exc}") from exc
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("weight spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "constant":
            return ConstantWeight(level=float(spec["level"]))
        if kind == "standard":
            return StandardWeight(alpha=float(spec["alpha"]))
        if kind == "step":
            return StepWeight(R=float(spec["R"]))
        if kind == "table":
            return TableWeight(knots=tuple(spec["r"]), values=tuple(spec["w"]))
    except KeyError as exc:
        raise DomainError(f"weight spec missing field {exc} for kind {kind!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed weight spec: {exc}") from exc
    raise DomainError(f"unknown weight kind {kind!r}")
