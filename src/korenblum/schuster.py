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

import functools

import numpy as np


@functools.lru_cache(maxsize=128)
def _factor_powers(c: float) -> np.ndarray:
    """The six powers of c in F's factor pairs, a (6, 5) array whose
    column n - 1, n = 1..5, holds c^(2n-1), c^(2n+1), (1 + c^(2n))^2,
    c^(2n-2), c^(2n) and (1 + c^(2n-1))^2, each the Python float of the
    scalar formula."""
    powers = np.array([
        [c ** (2 * n - 1), c ** (2 * n + 1), (1.0 + c ** (2 * n)) ** 2,
         c ** (2 * n - 2), c ** (2 * n), (1.0 + c ** (2 * n - 1)) ** 2]
        for n in range(1, 6)
    ]).T
    powers.flags.writeable = False  # shared by every caller through the cache
    return powers


def _F_values(rho, c: float):
    """F on an array of rho for one c; no domain checks.

    The five factor pairs are (5, ...) arrays, and value = value * num / den
    takes them in order of n: every element goes through the operations
    of the scalar formula, in its order."""
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    powers = _factor_powers(c).reshape((6, 5) + (1,) * rho.ndim)
    odd_up, odd_down, even_sq, even_low, even, odd_sq = powers
    value = (2.0 * c / rho) * (1.0 + rho2 / c)
    value = value * (1.0 - c**12) / (1.0 - c**10)
    num = (1.0 + rho2 * odd_up) * (1.0 + odd_down / rho2)
    num = num * even_sq
    den = (1.0 + rho2 * even_low) * (1.0 + even / rho2)
    den = den * odd_sq
    for n in range(5):
        value = value * num[n] / den[n]
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
