"""Schuster's explicit product bound F and the derived bound H.

For 0 < c < 1/4 and c < rho < 1,

    F(rho, c) = (2c/rho) (1 + rho^2/c) * (1 - c^12)/(1 - c^10)
                * prod_{n=1}^{5} (1 + rho^2 c^{2n-1}) (1 + rho^-2 c^{2n+1}) (1 + c^{2n})^2
                              / ((1 + rho^2 c^{2n-2}) (1 + rho^-2 c^{2n}) (1 + c^{2n-1})^2),

and H(rho, c) = F / sqrt(1 - F^2) wherever F < 1. H dominates the
extremal ratio that drives the certification inequality; where F >= 1 the
bound is vacuous and consumers must treat 1/H as 0. As c -> 0+, H tends
to 2 rho / (1 - rho^2).

Evaluation keeps the displayed factor grouping so double precision can be
compared meaningfully against a high-precision evaluation of the same
expression.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SchusterBound:
    """F and H at one point of the validity box; H is None where F >= 1."""

    rho: float
    c: float
    F: float
    H: float | None


def _check_box(rho: float, c: float) -> None:
    if not 0.0 < c < 0.25:
        raise DomainError(f"need 0 < c < 1/4, got c={c}")
    if not c < rho < 1.0:
        raise DomainError(f"need c < rho < 1, got rho={rho} with c={c}")


def _F_values(rho, c: float):
    """F on an array of rho for one c; no domain checks."""
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    value = (2.0 * c / rho) * (1.0 + rho2 / c)
    value = value * (1.0 - c**12) / (1.0 - c**10)
    for n in range(1, 6):
        num = (1.0 + rho2 * c ** (2 * n - 1)) * (1.0 + c ** (2 * n + 1) / rho2)
        num = num * (1.0 + c ** (2 * n)) ** 2
        den = (1.0 + rho2 * c ** (2 * n - 2)) * (1.0 + c ** (2 * n) / rho2)
        den = den * (1.0 + c ** (2 * n - 1)) ** 2
        value = value * num / den
    return value


def eval_F(rho: float, c: float) -> float:
    """The product bound F(rho, c) on its validity box."""
    _check_box(rho, c)
    return float(_F_values(rho, c))


def eval_H(rho: float, c: float) -> SchusterBound:
    """F together with H = F/sqrt(1 - F^2); H is undefined where F >= 1."""
    _check_box(rho, c)
    F = float(_F_values(rho, c))
    if F >= 1.0:
        return SchusterBound(rho=rho, c=c, F=F, H=None)
    return SchusterBound(rho=rho, c=c, F=F, H=F / np.sqrt(1.0 - F * F))


def inverse_H(rho, c: float):
    """1/H(rho, c) with the vacuous value 0 where F >= 1; vectorized in rho.

    This is the certification integrand factor: sqrt(1 - F^2)/F, clamped
    to 0 outside the region where the bound is informative.
    """
    F = np.atleast_1d(_F_values(rho, c))
    out = np.zeros_like(F)
    ok = F < 1.0
    Fok = F[ok]
    out[ok] = np.sqrt(1.0 - Fok * Fok) / Fok
    return out if np.ndim(rho) else float(out[0])
