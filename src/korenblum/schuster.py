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

import numpy as np


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
