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

import sys
from dataclasses import dataclass

import numpy as np

from .analytic import Polynomial, _check_root_tol, weighted_norms
from .errors import DomainError, KorenblumError, NoWitnessFound, positive
from .quadrature import DEFAULT_TOL
from .weights import OriginLiminf, RadialWeight, moment

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


def _family_f(c: float, n: int, epsilon: float) -> Polynomial:
    """The f of :func:`family_pair`, after the same parameter checks."""
    if not 0.0 < epsilon < c < 1.0:
        raise DomainError(f"need 0 < epsilon < c < 1, got epsilon={epsilon}, c={c}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    prefactor = c**n / (c**n + epsilon**n)
    return Polynomial((prefactor * epsilon**n,) + (0.0,) * (n - 1) + (prefactor,))


def family_pair(c: float, n: int, epsilon: float) -> tuple[Polynomial, Polynomial]:
    """The explicit pair (f, g) at parameters (c, n, epsilon)."""
    return _family_f(c, n, epsilon), Polynomial.monomial(n)


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
    when no scanned epsilon clears the gap threshold 2*quad_tol, naming
    the n and epsilons scanned, the best gap and its epsilon, and, as
    context, the weight's liminf at 0. A miss claims only that this scan
    found nothing.

    Only the norms are computed. Domination needs no check: on |z| = rho
    the least value of |g| - |f| is (rho^n - c^n) e^n / (c^n + e^n),
    which is >= 0 exactly for rho >= c, and :func:`family_pair` enforces
    0 < e < c < 1.
    """
    positive("p", p)
    if not 0.0 < c < 1.0:
        raise DomainError(f"find_counterexample needs c in (0,1), got {c}")
    positive("quad_tol", quad_tol)
    if n is None:
        n = choose_n(p)
    elif n < 1:
        raise DomainError(f"forced n must be a positive integer, got {n}")

    family = [_family_f(c, n, c * 2.0**-j) for j in range(1, EPSILON_SCAN_STEPS + 1)]
    norm_g, *norms_f = weighted_norms([Polynomial.monomial(n), *family], w, p, tol=quad_tol)
    best_j, best_gap, best_norm_f = None, -np.inf, 0.0
    for j, norm_f in enumerate(norms_f, start=1):
        gap = norm_f - norm_g
        if gap > best_gap:
            best_j, best_gap, best_norm_f = j, gap, norm_f
    if best_gap <= 2.0 * quad_tol:
        liminf = w.liminf_at_origin()
        context = f"liminf of w at 0: {liminf.value}"
        if p < 1.0:
            has = "has" if liminf is OriginLiminf.POSITIVE_LIMINF else "does not have"
            context += (f"; the failure theorem for 0 < p < 1 assumes liminf w > 0, "
                        f"which this weight {has}")
        raise NoWitnessFound(
            f"no epsilon reversed the norms at p={p}, c={c}: the scan took n={n} and "
            f"epsilon = c 2^-j for j = 1..{EPSILON_SCAN_STEPS}, and its best gap "
            f"||f|| - ||g|| = {best_gap:.3e}, at epsilon = {c * 2.0**-best_j!r} (j = {best_j}), "
            f"is not above 2 quad_tol = {2.0 * quad_tol:g} ({context})"
        )
    return CounterexampleWitness(
        p=p,
        c=c,
        n=n,
        epsilon=c * 2.0**-best_j,
        norm_f=best_norm_f,
        norm_g=norm_g,
        gap=best_gap,
    )


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

    The left side, epsilon^-2 int_0^epsilon (1 - (rho/epsilon)^{np}) 2 rho
    w(rho) drho, samples the weight near the origin; the right side
    vanishes as epsilon -> 0 because n(1-p) > 2.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"check_final_inequality needs p in (0,1), got {p}")
    if not 0.0 < epsilon < c < 1.0:
        raise DomainError(f"need 0 < epsilon < c < 1, got epsilon={epsilon}, c={c}")
    if n * (1.0 - p) <= 2.0:
        raise DomainError(f"need n(1-p) > 2, got n={n}, p={p}")
    positive("quad_tol", quad_tol)

    np_exp = n * p
    lhs_tol = quad_tol * epsilon**2
    if lhs_tol < 1e-300:
        raise DomainError(f"epsilon = {epsilon}: quad_tol epsilon^2 falls below 1e-300")

    def phi(rho, comp):
        return 1.0 - (rho / epsilon) ** np_exp

    [(lhs, _)] = w.integrate_against(phi, 0.0, epsilon, [lhs_tol])
    lhs /= epsilon**2
    rhs = (p / c**n) * epsilon ** (n * (1.0 - p) - 2.0) * moment(w, np_exp)
    return FinalInequalityCheck(lhs=lhs, rhs=rhs, holds=lhs > rhs + 2.0 * quad_tol)


def monomial_upper_bound(
    p: float, w: RadialWeight, tol: float = DEFAULT_TOL
) -> RadiusUpperBound:
    """c_star = (m(p)/m(0))^{1/p}, decided by the explicit pair (1, z/c).

    Two exact facts make the pair a witness at c = witness_c, slightly
    above c_star: |1| <= |z/c| holds exactly on c <= |z| < 1, and
    ||z/c||^p = m(p)/c^p while ||1||^p = m(0). So no radius above c_star
    is admissible once witness_c > c_star and m(p)/witness_c^p < m(0);
    both are checked in closed form, with no quadrature and no sampling.
    A moment ratio m(p)/m(0) below the smallest normal float is refused,
    and so is a p whose p-th root turns the ratio's rounding eps into more
    than tol, p tol < eps (_check_root_tol).
    """
    positive("p", p)
    _check_root_tol(p, tol)
    m0, mp = moment(w, 0.0), moment(w, p)
    if not min(mp, mp / m0) >= sys.float_info.min:
        raise DomainError(
            f"moment m(p) underflows at p = {p}: m(p) = {mp!r}, m(p)/m(0) = {mp / m0!r}, "
            f"below the smallest normal float {sys.float_info.min!r}"
        )
    c_star = (mp / m0) ** (1.0 / p)
    witness_c = min(1.0 - 1e-9, c_star * (1.0 + 1e-3))
    if witness_c > c_star and mp / witness_c**p < m0:
        return RadiusUpperBound(p=p, c_star=c_star, witness_c=witness_c)
    failed = "m(p)/witness_c^p < m(0)" if witness_c > c_star else "witness_c > c_star"
    raise KorenblumError(
        f"monomial bound verification failed at p={p}: {failed} does not hold "
        f"(witness_c={witness_c!r}, c_star={c_star!r}, m(p)={mp!r}, m(0)={m0!r})"
    )
