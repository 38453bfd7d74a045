"""Independent oracles: closed-form moments, Parseval norms, a
high-precision evaluation of the Schuster product, and a depth-first
walk of the adaptive quadrature's panel tree.

Nothing here goes through the package's quadrature paths.
"""
import math

import mpmath as mp
import numpy as np

from korenblum.errors import QuadratureDivergence


def const_moment(s: float, level: float = 1.0) -> float:
    """int_0^1 2 level r^{s+1} dr."""
    return 2.0 * level / (s + 2.0)


def step_moment(s: float, R: float) -> float:
    """int_R^1 2 r^{s+1} dr."""
    return (1.0 - R ** (s + 2.0)) * 2.0 / (s + 2.0)


def std_moment(s: float, alpha: float) -> float:
    """(alpha+1) B(s/2 + 1, alpha + 1), the Beta closed form of the moment."""
    log_beta = (
        math.lgamma(s / 2.0 + 1.0)
        + math.lgamma(alpha + 1.0)
        - math.lgamma(s / 2.0 + alpha + 2.0)
    )
    return (alpha + 1.0) * math.exp(log_beta)


def parseval_norm(coeffs, moment_fn) -> float:
    """sqrt(sum_j |a_j|^2 m(2j)) with m supplied by a closed-form oracle."""
    return math.sqrt(
        sum(abs(a) ** 2 * moment_fn(2.0 * j) for j, a in enumerate(coeffs))
    )


def mp_schuster_F(rho, c, dps: int = 60):
    """The Schuster product at `dps` decimal digits, term by term."""
    with mp.workdps(dps):
        rho, c = mp.mpf(rho), mp.mpf(c)
        value = (2 * c / rho) * (1 + rho**2 / c)
        value *= (1 - c**12) / (1 - c**10)
        for n in range(1, 6):
            num = (1 + rho**2 * c ** (2 * n - 1)) * (1 + c ** (2 * n + 1) / rho**2)
            num *= (1 + c ** (2 * n)) ** 2
            den = (1 + rho**2 * c ** (2 * n - 2)) * (1 + c ** (2 * n) / rho**2)
            den *= (1 + c ** (2 * n - 1)) ** 2
            value *= num / den
        return value


def binomial_mean(p, a0, a1, r, d: int = 1, dps: int = 30):
    """M_p^p(r; a0 + a1 z^d) = max(A, B)^p 2F1(-p/2, -p/2; 1; x^2), with
    A = |a0|, B = |a1| r^d and x = min(A, B) / max(A, B), from the binomial
    series of |1 + x e^{it}|^p and Parseval."""
    with mp.workdps(dps):
        A, B = abs(mp.mpc(a0)), abs(mp.mpc(a1)) * mp.mpf(r) ** d
        hi, lo = max(A, B), min(A, B)
        if hi == 0:
            return 0.0
        return float(hi**p * mp.hyp2f1(-mp.mpf(p) / 2, -mp.mpf(p) / 2, 1, (lo / hi) ** 2))


def std_final_lhs(alpha, np_exp, eps, dps: int = 30) -> float:
    """int_0^1 (1 - r^{np}) 2 r w(eps r) dr for w(r) = (alpha+1)(1-r^2)^alpha,
    the left side of the refuter's final inequality, by mpmath quadrature."""
    with mp.workdps(dps):
        al, e, s = mp.mpf(alpha), mp.mpf(eps), mp.mpf(np_exp)
        return float(mp.quad(lambda r: (1 - r**s) * 2 * r * (al + 1) * (1 - (e * r) ** 2) ** al,
                             [0, 1]))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panel(f, lo, hi):
    half = 0.5 * (hi - lo)
    x = lo + half * (_GL_NODES + 1.0)
    return half * float(np.sum(_GL_WEIGHTS * np.asarray(f(x), dtype=float)))


def depth_first_integrate(f, a, b, tol, *, breakpoints=(), max_depth=40):
    """The adaptive 15-node Gauss-Legendre panel tree walked depth first,
    one integrand call per panel, with the same settle / stuck / split
    rules as ``korenblum.quadrature.integrate``: a panel settles when its
    error is within its share of tol or within the rounding
    8 eps (|left| + |right|) of its halves. Returns
    ``(value, err_est, deepest)``, deepest the largest bisection level
    at which a panel was refined."""
    if a == b:
        return 0.0, 0.0, -1
    cuts = sorted({float(x) for x in breakpoints if a < x < b})
    edges = [a, *cuts, b]
    share = tol / (len(edges) - 1)

    total = 0.0
    settled_err = 0.0
    stuck_err = 0.0
    deepest = 0
    stack = [
        (lo, hi, _gl_panel(f, lo, hi), share, 0)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    while stack:
        lo, hi, coarse, panel_tol, depth = stack.pop()
        deepest = max(deepest, depth)
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        fine = left + right
        err = abs(fine - coarse)
        rounding = 8.0 * np.finfo(float).eps * (abs(left) + abs(right))
        if err <= panel_tol or err <= rounding or mid <= lo or mid >= hi:
            total += fine
            settled_err += err
        elif depth >= max_depth:
            total += fine
            stuck_err += err
        else:
            stack.append((lo, mid, left, 0.5 * panel_tol, depth + 1))
            stack.append((mid, hi, right, 0.5 * panel_tol, depth + 1))

    if stuck_err > tol:
        raise QuadratureDivergence(
            f"quadrature on [{a}, {b}] left error {stuck_err:.3e} > tol {tol:.3e} "
            f"after {max_depth} bisection levels"
        )
    return total, settled_err + stuck_err, deepest
