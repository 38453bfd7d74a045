"""Explicit failures of the domination principle.

Two constructions are implemented. For 0 < p < 1 the two-parameter family

    f(z) = (c^n / (c^n + e^n)) (z^n + e^n),   g(z) = z^n,

with n(1-p) > 2 and e in (0, c), satisfies |f| <= |g| on {c <= |z| < 1}
identically, yet ||f|| > ||g|| for small enough e whenever the weight has
positive liminf at the origin. For every p > 0 the pair f = 1, g = z/c
reverses the norms as soon as c^p exceeds the moment ratio m(p)/m(0),
which bounds the largest admissible radius strictly below 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytic import Polynomial, weighted_norms
from .certifier import check_domination
from .errors import DomainError, KorenblumError, NoWitnessFound, positive
from .quadrature import DEFAULT_TOL, integrate
from .weights import RadialWeight, moment

EPSILON_SCAN_STEPS = 48


@dataclass(frozen=True)
class CounterexampleWitness:
    """A norm-reversing dominated pair: evidence that radius c is not admissible."""

    p: float
    c: float
    n: int
    epsilon: float
    norm_f: float
    norm_g: float
    gap: float


@dataclass(frozen=True)
class RadiusUpperBound:
    """Moment-ratio bound: no radius above c_star is admissible for exponent p."""

    p: float
    c_star: float
    witness_c: float


@dataclass(frozen=True)
class FinalInequalityCheck:
    lhs: float
    rhs: float
    holds: bool


def choose_n(p: float) -> int:
    """Smallest integer n with n(1-p) > 2."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"choose_n needs p in (0,1), got {p}")
    n = int(2.0 / (1.0 - p)) + 1
    while n > 1 and (n - 1) * (1.0 - p) > 2.0:
        n -= 1
    while n * (1.0 - p) <= 2.0:
        n += 1
    return n


def family_pair(c: float, n: int, epsilon: float) -> tuple[Polynomial, Polynomial]:
    """The explicit pair (f, g) at parameters (c, n, epsilon)."""
    if not 0.0 < epsilon < c < 1.0:
        raise DomainError(f"need 0 < epsilon < c < 1, got epsilon={epsilon}, c={c}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    prefactor = c**n / (c**n + epsilon**n)
    f = Polynomial((prefactor * epsilon**n,) + (0.0,) * (n - 1) + (prefactor,))
    return f, Polynomial.monomial(n)


def find_counterexample(
    p: float,
    c: float,
    w: RadialWeight,
    quad_tol: float = DEFAULT_TOL,
    n: int | None = None,
) -> CounterexampleWitness:
    """Scan epsilon = c 2^{-j}, j = 1..48, for the widest norm reversal.

    With n unset, p must lie in (0,1) and n is the smallest exponent with
    n(1-p) > 2. An explicit n may be forced for any p > 0, which is how
    the p >= 1 immunity sweeps are run. Raises :class:`NoWitnessFound`
    when no scanned epsilon clears the gap threshold 2*quad_tol.
    """
    positive("p", p)
    if not 0.0 < c < 1.0:
        raise DomainError(f"find_counterexample needs c in (0,1), got {c}")
    positive("quad_tol", quad_tol)
    if n is None:
        n = choose_n(p)
    elif n < 1:
        raise DomainError(f"forced n must be a positive integer, got {n}")

    family = [family_pair(c, n, c * 2.0**-j)[0] for j in range(1, EPSILON_SCAN_STEPS + 1)]
    norm_g, *norms_f = weighted_norms([Polynomial.monomial(n), *family], w, p, tol=quad_tol)
    best_j, best_gap, best_norm_f = None, -np.inf, 0.0
    for j, norm_f in enumerate(norms_f, start=1):
        gap = norm_f - norm_g
        if gap > best_gap:
            best_j, best_gap, best_norm_f = j, gap, norm_f
    if best_gap <= 2.0 * quad_tol:
        hint = w.liminf_at_origin().value
        raise NoWitnessFound(
            f"no epsilon in the scan reversed the norms at p={p}, c={c}, n={n} "
            f"(best gap {best_gap:.3e}; weight liminf hint: {hint})"
        )
    epsilon = c * 2.0**-best_j
    f, g = family_pair(c, n, epsilon)
    report = check_domination(f, g, c)
    if not report.conclusive:
        raise NoWitnessFound(
            f"norm reversal found at epsilon={epsilon} but domination sampling "
            f"failed (min gap {report.min_gap:.3e}); rejecting the witness"
        )
    return CounterexampleWitness(
        p=p,
        c=c,
        n=n,
        epsilon=epsilon,
        norm_f=best_norm_f,
        norm_g=norm_g,
        gap=best_gap,
    )


def revalidate_witness(
    witness: CounterexampleWitness, w: RadialWeight, quad_tol: float
) -> CounterexampleWitness:
    """Recompute a witness's norms and domination at a fresh tolerance."""
    f, g = family_pair(witness.c, witness.n, witness.epsilon)
    norm_f, norm_g = weighted_norms([f, g], w, witness.p, tol=quad_tol)
    gap = norm_f - norm_g
    if gap <= 2.0 * quad_tol:
        raise NoWitnessFound(
            f"witness gap {gap:.3e} fell below 2*{quad_tol} on revalidation"
        )
    report = check_domination(f, g, witness.c)
    if not report.conclusive:
        raise NoWitnessFound("witness failed domination sampling on revalidation")
    return replace(witness, norm_f=norm_f, norm_g=norm_g, gap=gap)


def check_final_inequality(
    p: float,
    c: float,
    w: RadialWeight,
    n: int,
    epsilon: float,
    quad_tol: float = DEFAULT_TOL,
) -> FinalInequalityCheck:
    """The sufficient inequality whose truth forces the norm reversal:

        int_0^1 (1 - r^{np}) 2 r w(epsilon r) dr
            >  (p / c^n) epsilon^{n(1-p)-2} int_0^1 2 r w(r) r^{np} dr.

    The left side samples the dilated weight near the origin; the right
    side vanishes as epsilon -> 0 because n(1-p) > 2.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"check_final_inequality needs p in (0,1), got {p}")
    if not 0.0 < epsilon < c < 1.0:
        raise DomainError(f"need 0 < epsilon < c < 1, got epsilon={epsilon}, c={c}")
    if n * (1.0 - p) <= 2.0:
        raise DomainError(f"need n(1-p) > 2, got n={n}, p={p}")
    positive("quad_tol", quad_tol)

    np_exp = n * p

    def lhs_integrand(r):
        return (1.0 - r**np_exp) * 2.0 * r * w.eval(epsilon * r)

    cuts = [b / epsilon for b in w.breakpoints() if 0.0 < b / epsilon < 1.0]
    lhs, _ = integrate(lhs_integrand, 0.0, 1.0, quad_tol, breakpoints=cuts)
    rhs = (p / c**n) * epsilon ** (n * (1.0 - p) - 2.0) * moment(w, np_exp)
    return FinalInequalityCheck(lhs=lhs, rhs=rhs, holds=lhs > rhs + 2.0 * quad_tol)


def monomial_upper_bound(
    p: float, w: RadialWeight, quad_tol: float = DEFAULT_TOL
) -> RadiusUpperBound:
    """c_star = (m(p)/m(0))^{1/p}, verified by the explicit pair (1, z/c).

    At witness_c slightly above c_star, |1| <= |z|/witness_c on the
    annulus while ||z/witness_c|| < ||1||, so no radius above c_star is
    admissible. Both facts are re-verified numerically before returning.
    The domination sampling starts a relative 1e-12 above witness_c, off
    the inner boundary where the two moduli are exactly equal and the
    sampled gap would be rounding noise.
    """
    positive("p", p)
    positive("quad_tol", quad_tol)
    c_star = (moment(w, p) / moment(w, 0.0)) ** (1.0 / p)
    witness_c = min(1.0 - 1e-9, c_star * (1.0 + 1e-3))

    unit = Polynomial((1.0,))
    g = Polynomial((0.0, 1.0 / witness_c))
    norm_unit, norm_g = weighted_norms([unit, g], w, p, tol=quad_tol)
    report = check_domination(unit, g, witness_c * (1.0 + 1e-12))
    if not report.conclusive or not norm_g < norm_unit:
        raise KorenblumError(
            f"monomial bound verification failed at p={p}: "
            f"min_gap={report.min_gap:.3e}, ||g||={norm_g!r}, ||1||={norm_unit!r}"
        )
    return RadiusUpperBound(p=p, c_star=c_star, witness_c=witness_c)
