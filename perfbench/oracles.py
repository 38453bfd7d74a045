"""Independent checks of every benchmark report.

Nothing here imports ``korenblum``: weights, moments, Schuster's F and
the family's circle means are written out again from their formulas and
integrated with scipy (QUADPACK) or mpmath, never with the package's
quadrature. Each check returns a list of problems; an empty list means
the report is correct.
"""
from __future__ import annotations

import json
import math

import mpmath
import numpy as np
from scipy import integrate, special

#: scanned family parameters epsilon = c 2^{-j}, j = 1..48
EPSILON_STEPS = 48


# -- weights ------------------------------------------------------------------


def _pieces(w: dict):
    """(lo, hi, a, b) with w(r) = a + b r on [lo, hi], for piecewise-linear kinds."""
    kind = w["kind"]
    if kind == "constant":
        return [(0.0, 1.0, w["level"], 0.0)]
    if kind == "step":
        return [(0.0, w["R"], 0.0, 0.0), (w["R"], 1.0, 1.0, 0.0)]
    if kind == "table":
        r, v = w["r"], w["w"]
        out = []
        for i in range(len(r) - 1):
            b = (v[i + 1] - v[i]) / (r[i + 1] - r[i])
            out.append((r[i], r[i + 1], v[i] - b * r[i], b))
        return out + [(r[-1], 1.0, v[-1], 0.0)]
    return None


def breakpoints(w: dict) -> list[float]:
    pieces = _pieces(w)
    return [] if pieces is None else sorted({lo for lo, *_ in pieces if 0.0 < lo < 1.0})


def moment(w: dict, s: float) -> float:
    """m(s) = int_0^1 2 r^{s+1} w(r) dr in closed form (Beta function for standard)."""
    if w["kind"] == "standard":
        al = w["alpha"]
        return (al + 1.0) * math.exp(special.betaln(s / 2.0 + 1.0, al + 1.0))
    return mass(w, s, 0.0, 1.0)


def mass(w: dict, s: float, a: float, b: float) -> float:
    """int_a^b 2 r^{s+1} w(r) dr for the piecewise-linear kinds."""
    total = 0.0
    for lo, hi, ca, cb in _pieces(w):
        lo, hi = max(lo, a), min(hi, b)
        if hi > lo:
            total += 2.0 * ca * (hi ** (s + 2) - lo ** (s + 2)) / (s + 2)
            total += 2.0 * cb * (hi ** (s + 3) - lo ** (s + 3)) / (s + 3)
    return total


def inner_mass(w: dict, c: float) -> float:
    if w["kind"] == "standard":
        return -math.expm1((w["alpha"] + 1.0) * math.log1p(-c * c))
    return mass(w, 0.0, 0.0, c)


def radial_integral(w: dict, phi, a: float, b: float, cuts=()) -> float:
    """int_a^b 2 r w(r) phi(r) dr by QUADPACK, split at w's kinks and ``cuts``.

    The standard kind's (1 - r)^alpha factor goes to QUADPACK's algebraic
    weight so an integrable singularity at r = 1 is handled exactly.
    """
    edges = sorted({a, b, *(x for x in (*breakpoints(w), *cuts) if a < x < b)})
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if w["kind"] == "standard":
            al = w["alpha"]
            fn = lambda r: 2.0 * r * (al + 1.0) * (1.0 + r) ** al * phi(r)  # noqa: E731
            if hi == 1.0:
                val, _ = integrate.quad(fn, lo, hi, weight="alg", wvar=(0.0, al),
                                        epsabs=1e-14, epsrel=1e-12, limit=200)
            else:
                val, _ = integrate.quad(lambda r: fn(r) * (1.0 - r) ** al, lo, hi,
                                        epsabs=1e-14, epsrel=1e-12, limit=200)
        else:
            (_, _, ca, cb), = [pc for pc in _pieces(w) if pc[0] <= lo and hi <= pc[1]]
            val, _ = integrate.quad(lambda r: 2.0 * r * (ca + cb * r) * phi(r), lo, hi,
                                    epsabs=1e-14, epsrel=1e-12, limit=200)
        total += val
    return total


# -- certify ------------------------------------------------------------------


def schuster_factory(c: float):
    """rho -> Schuster's product F(rho, c) in mpmath arithmetic, for one c."""
    c = mpmath.mpf(c)
    head = 2 * c * (1 - c**12) / (1 - c**10)
    terms = [
        (c ** (2 * n - 1), c ** (2 * n + 1), c ** (2 * n - 2), c ** (2 * n),
         ((1 + c ** (2 * n)) / (1 + c ** (2 * n - 1))) ** 2)
        for n in range(1, 6)
    ]

    def F(rho):
        rho2 = mpmath.mpf(rho) ** 2
        value = head / rho * (1 + rho2 / c)
        for a, b, d, e, ratio in terms:
            value *= (1 + rho2 * a) * (1 + b / rho2) * ratio / ((1 + rho2 * d) * (1 + e / rho2))
        return value

    return F


def weight_value(w: dict, r):
    """w(r) in whatever arithmetic r carries (float or mpmath)."""
    if w["kind"] == "standard":
        return (w["alpha"] + 1) * (1 - r * r) ** w["alpha"]
    for lo, hi, a, b in _pieces(w):
        if lo <= r <= hi:
            return a + b * r
    raise ValueError(f"radius {r} outside [0, 1]")


def certificate_sides(w: dict, c: float) -> tuple[float, float]:
    """(inner, outer) of the certification inequality at radius c.

    outer = int_c^1 rho w(rho) / H(rho, c) drho with 1/H = sqrt(1-F^2)/F
    where F < 1 and 0 elsewhere, by mpmath's tanh-sinh rule on pieces
    split where F crosses 1 and where w has a kink.
    """
    with mpmath.workdps(15):
        F = schuster_factory(c)
        grid = np.linspace(c, 1.0, 65)[1:-1]
        below = [F(r) < 1 for r in grid]
        cuts = [
            mpmath.findroot(lambda x: F(x) - 1, (grid[i], grid[i + 1]), solver="anderson")
            for i in range(len(grid) - 1) if below[i] != below[i + 1]
        ]
        edges = sorted({c, 1.0, *(float(x) for x in cuts),
                        *(x for x in breakpoints(w) if c < x < 1.0)})

        def integrand(r):
            Fr = F(r)
            return r * weight_value(w, r) * mpmath.sqrt(1 - Fr * Fr) / Fr if Fr < 1 else 0

        outer = sum(
            mpmath.quad(integrand, [lo, hi])
            for lo, hi in zip(edges[:-1], edges[1:])
            if F(0.5 * (lo + hi)) < 1
        )
    return inner_mass(w, c), float(outer)


def check_certify(params: dict, code: int, report: str) -> list[str]:
    w = params["weight"]
    rows = json.loads(report)["rows"]
    problems = []
    if [row["p"] for row in rows] != params["ps"]:
        problems.append("rows do not match the requested p grid")
    cert_c = {row["c_certified"] for row in rows}
    if len(cert_c) != 1:
        problems.append(f"rows disagree on the certified radius: {sorted(map(str, cert_c))}")
    c = cert_c.pop()
    if c is None:
        problems.append("no certificate reported")
    else:
        inner, outer = certificate_sides(w, c)
        if not outer - inner > 0.0:
            problems.append(f"certificate at c={c} fails: outer {outer!r} <= inner {inner!r}")
    for row in rows:
        p = row["p"]
        c_star = (moment(w, p) / moment(w, 0.0)) ** (1.0 / p)
        if not abs(row["c_star_upper"] - c_star) <= 1e-7 * c_star:
            problems.append(f"c*({p}) = {row['c_star_upper']!r}, oracle {c_star!r}")
        if row["status"] != "ok" or row["witness_found_at_c_star"] is not None:
            problems.append(f"row p={p} has status {row['status']!r}")
    if code != 0:
        problems.append(f"exit code {code}")
    return problems


# -- refute -------------------------------------------------------------------


def family_norm_p(w: dict, p: float, c: float, n: int, eps: float) -> float:
    """||f||^p for f = (c^n/(c^n+e^n))(z^n + e^n), from the closed-form circle mean

        M_p^p(r) = max(r^n, e^n)^p 2F1(-p/2, -p/2; 1; x^2),  x = min/max,

    integrated in r with a break at r = e.
    """
    K = c**n / (c**n + eps**n)

    def mean(r):
        a, b = r**n, eps**n
        hi, lo = max(a, b), min(a, b)
        return hi**p * special.hyp2f1(-p / 2.0, -p / 2.0, 1.0, (lo / hi) ** 2)

    return K**p * radial_integral(w, mean, 0.0, 1.0, (eps,))


def family_n(p: float) -> int:
    """Smallest n with n(1 - p) > 2."""
    n = 1
    while n * (1.0 - p) <= 2.0:
        n += 1
    return n


def check_refute(params: dict, code: int, report: str) -> list[str]:
    w, p, c, tol = params["weight"], params["p"], params["c"], params["tol"]
    n = family_n(p)
    norm_g = moment(w, n * p) ** (1.0 / p)
    out = json.loads(report)
    problems = []
    # the package aims at relative accuracy tol per norm
    allowance = 8.0 * tol * norm_g
    if code == 0:
        if out["n"] != n:
            problems.append(f"n = {out['n']}, expected {n}")
        j = math.log2(c / out["epsilon"])
        if not (abs(j - round(j)) < 1e-9 and 1 <= round(j) <= EPSILON_STEPS):
            problems.append(f"epsilon {out['epsilon']!r} is not c 2^-j")
        norm_f = family_norm_p(w, p, c, n, out["epsilon"]) ** (1.0 / p)
        gap = norm_f - norm_g
        if not gap > 0.0:
            problems.append(f"witness does not reverse the norms: oracle gap {gap!r}")
        if abs(out["gap"] - gap) > allowance:
            problems.append(f"gap {out['gap']!r} vs oracle {gap!r}")
        if abs(out["norm_g"] - norm_g) > allowance:
            problems.append(f"norm_g {out['norm_g']!r} vs oracle {norm_g!r}")
    elif code == 1 and out.get("reason") == "NoWitnessFound":
        gaps = [
            family_norm_p(w, p, c, n, c * 2.0**-j) ** (1.0 / p) - norm_g
            for j in range(1, EPSILON_STEPS + 1)
        ]
        best = int(np.argmax(gaps))
        if gaps[best] > 2.0 * tol + allowance:
            problems.append(
                f"NoWitnessFound, but epsilon = c 2^-{best + 1} reverses the norms "
                f"by {gaps[best]!r}"
            )
    else:
        problems.append(f"exit code {code}: {out.get('reason')}")
    return problems


# -- verify -------------------------------------------------------------------


def parseval_norm(w: dict, coeffs, p: float) -> float:
    """||f||_p for even p = 2k: sum |b_j|^2 m(2j) over the coefficients b of f^k."""
    b = np.array([1.0 + 0j])
    for _ in range(int(p) // 2):
        b = np.convolve(b, coeffs)
    total = sum(abs(bj) ** 2 * moment(w, 2.0 * j) for j, bj in enumerate(b))
    return total ** (1.0 / p)


def check_verify(params: dict, code: int, report: str) -> list[str]:
    out = json.loads(report)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out["dominates"] is not True:
        problems.append("domination not confirmed although |h| <= 1 on the disk")
    if out["principle_holds"] is not True:
        problems.append("principle reported broken although |f| <= |g| on the disk")
    p = params["p"]
    if p in (2.0, 4.0):
        for key, coeffs in (("norm_f", params["f"]), ("norm_g", params["g"])):
            exact = parseval_norm(params["weight"], np.asarray(coeffs), p)
            if abs(out[key] - exact) > 1e-7 * exact:
                problems.append(f"{key} {out[key]!r} vs Parseval {exact!r}")
    return problems


CHECKS = {"certify": check_certify, "refute": check_refute, "verify": check_verify}
