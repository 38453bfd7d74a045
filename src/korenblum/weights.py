"""Radial weights on [0, 1): moments, partial masses and integrals.

All radial integrals use the kernel 2 r w(r) dr, normalized so the
constant weight 1 has total mass exactly 1. Moments

    m(s) = int_0^1 2 r^{s+1} w(r) dr

are computed in closed form for every kind and returned as plain floats,
with no tolerance and no error estimate. The constant, step and table
kinds are piecewise linear, each given once by its knots, and share one
implementation: power masses by primitives, w by interpolation and the
knots as quadrature breakpoints. For the standard kind
w(r) = (alpha+1)(1-r^2)^alpha, m(s) = (alpha+1) B(s/2 + 1, alpha + 1),
with the partial masses of s = 0 from the primitive -(1-r^2)^{alpha+1};
its other partial power masses have no closed form here and are refused.
Integrals against general integrands phi(r, k), k = 0..K-1, use one
adaptive quadrature walk for all K and return one (value, err_est) per
component; for the standard kind with alpha < 0 a walk up to r = 1 runs
in the substituted variable v = (1-r^2)^{alpha+1}, which absorbs the
integrable singularity there into a bounded integrand.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, positive
from .quadrature import integrate_many


class OriginLiminf(enum.Enum):
    """Classification of liminf_{r -> 0+} w(r), used for diagnostics only."""

    POSITIVE_LIMINF = "PositiveLiminf"
    ZERO_NEAR_ORIGIN = "ZeroNearOrigin"


def _power_primitive(s: float, alpha: float, beta: float, r: float) -> float:
    # antiderivative of 2 r^{s+1} (alpha + beta r)
    return 2.0 * alpha * r ** (s + 2) / (s + 2) + 2.0 * beta * r ** (s + 3) / (s + 3)


class RadialWeight:
    """Base class for radial weights; all kinds are immutable and pure."""

    def liminf_at_origin(self) -> OriginLiminf:
        raise NotImplementedError

    def integrate_against(
        self, phi: Callable, a: float, b: float, tols: Sequence[float]
    ) -> list[tuple[float, float]]:
        """int_a^b 2 r w(r) phi(r, k) dr for k = 0..K-1, component k with
        absolute error <= tols[k], in one quadrature walk.

        ``phi(r, comp)`` maps arrays of radii and of their components
        elementwise (see :func:`korenblum.quadrature.integrate_many`).
        Returns one (value, err_est) per tolerance.
        """
        raise NotImplementedError

    def power_mass(self, s: float, a: float, b: float) -> float:
        """int_a^b 2 r^{s+1} w(r) dr in closed form."""
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

    def liminf_at_origin(self) -> OriginLiminf:
        ks, vs = self._knots()
        if ks[0] == 0.0 and vs[0] > 0.0:
            return OriginLiminf.POSITIVE_LIMINF
        return OriginLiminf.ZERO_NEAR_ORIGIN

    def integrate_against(self, phi, a, b, tols):
        knots, _ = self._knots()
        lo = max(a, knots[0])
        if b <= lo:
            return [(0.0, 0.0)] * len(tols)

        def kernel(r, comp):
            return 2.0 * r * self.eval(r) * phi(r, comp)

        return integrate_many(kernel, lo, b, tols, breakpoints=knots)

    def power_mass(self, s, a, b):
        total = 0.0
        for lo, hi, alpha, beta in self._pieces():
            lo, hi = max(lo, a), min(hi, b)
            if hi > lo:
                total += _power_primitive(s, alpha, beta, hi) - _power_primitive(
                    s, alpha, beta, lo
                )
        return total


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

    def liminf_at_origin(self) -> OriginLiminf:
        return OriginLiminf.POSITIVE_LIMINF

    def integrate_against(self, phi, a, b, tols):
        al = self.alpha
        # walks short of r = 1 stay in r: v below cannot resolve r^2 under rounding
        if al >= 0.0 or b < 1.0:
            def direct(r, comp):
                return 2.0 * (al + 1.0) * r * (1.0 - r * r) ** al * phi(r, comp)

            return integrate_many(direct, a, b, tols)

        # v = (1-r^2)^{alpha+1} turns the kernel into plain dv and keeps the
        # transformed integrand bounded up to r = 1.
        q = 1.0 / (al + 1.0)
        va = (1.0 - a * a) ** (al + 1.0)
        vb = (1.0 - b * b) ** (al + 1.0)

        def transformed(v, comp):
            u = np.clip(1.0 - v**q, 0.0, 1.0)
            return phi(np.sqrt(u), comp)

        return integrate_many(transformed, vb, va, tols)

    def power_mass(self, s, a, b):
        ap1 = self.alpha + 1.0
        if s == 0.0:
            # primitive -(1-r^2)^{alpha+1}, shifted by 1 and kept as expm1 so
            # that small radii do not cancel against 1
            def v_minus_one(r):
                return -1.0 if r == 1.0 else math.expm1(ap1 * math.log1p(-r * r))

            return v_minus_one(a) - v_minus_one(b)
        if a == 0.0 and b == 1.0:
            # (alpha+1) B(s/2 + 1, alpha + 1)
            h = 0.5 * s + 1.0
            try:
                return ap1 * math.exp(math.lgamma(h) + math.lgamma(ap1) - math.lgamma(h + ap1))
            except OverflowError:
                raise DomainError(
                    f"standard weight moment (alpha+1) B(s/2 + 1, alpha + 1) overflows a "
                    f"float in log-Gamma at s = {s}, alpha = {self.alpha}"
                ) from None
        raise DomainError(
            f"standard weight power mass has no closed form for s = {s} on [{a}, {b}]"
        )

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
