"""Independent oracles: closed-form moments, Parseval norms, a
high-precision evaluation of the Schuster product, a depth-first
walk of the adaptive quadrature's panel tree, the allocating
formula of the angular circle means, circle means by mpmath quadrature,
weighted norms by a tanh-sinh product rule and the full binomial series.

Nothing here goes through the package's quadrature paths, except
:func:`two_walk_norms`, the weighted norms as two separate walks, which
the package's one walk, relative to its own level 0, must reproduce bit
for bit.
"""
import math
import sys

import mpmath as mp
import numpy as np

from korenblum.analytic import _above_floor, _mean_pows
from korenblum.errors import QuadratureDivergence
from korenblum.weights import moment


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


def mp_weight(spec: dict):
    """(w(r) in mpmath, knots) of a weight spec (see weight_from_spec)."""
    kind = spec["kind"]
    if kind == "constant":
        level = mp.mpf(spec["level"])
        return (lambda r: level), ()
    if kind == "standard":
        alpha = mp.mpf(spec["alpha"])
        return (lambda r: (alpha + 1) * (1 - r * r) ** alpha), ()
    if kind == "step":
        R = mp.mpf(spec["R"])
        return (lambda r: mp.mpf(r >= R)), (spec["R"],)
    knots, values = [mp.mpf(x) for x in spec["r"]], [mp.mpf(x) for x in spec["w"]]

    def table(r):
        for k in range(len(knots) - 1):
            if r <= knots[k + 1]:
                slope = (values[k + 1] - values[k]) / (knots[k + 1] - knots[k])
                return values[k] + slope * (r - knots[k])
        return values[-1]

    return table, tuple(spec["r"])


def mp_moment(spec: dict, s):
    """m(s) = int_0^1 2 r^{s+1} w(r) dr of a weight spec in mpmath, at the
    caller's precision: (alpha+1) B(s/2 + 1, alpha + 1) for a standard
    weight, else the exact primitive of 2 r^{s+1} (alpha + beta r) on each
    piece between the knots."""
    s = mp.mpf(s)
    if spec["kind"] == "standard":
        alpha = mp.mpf(spec["alpha"])
        return (alpha + 1) * mp.beta(s / 2 + 1, alpha + 1)
    knots, values = {
        "constant": lambda: ([0], [spec["level"]]),
        "step": lambda: ([spec["R"]], [1]),
        "table": lambda: (spec["r"], spec["w"]),
    }[spec["kind"]]()
    knots, values = [mp.mpf(x) for x in knots] + [mp.mpf(1)], [mp.mpf(x) for x in values]
    values.append(values[-1])
    total = mp.mpf(0)
    for lo, hi, w_lo, w_hi in zip(knots, knots[1:], values, values[1:]):
        beta = (w_hi - w_lo) / (hi - lo)
        alpha = w_lo - beta * lo
        total += 2 * alpha * (hi ** (s + 2) - lo ** (s + 2)) / (s + 2)
        total += 2 * beta * (hi ** (s + 3) - lo ** (s + 3)) / (s + 3)
    return total


def mp_parseval_norm(coeffs, p: int, spec: dict, dps: int = 40) -> float:
    """||f||_{p,w} at an even p = 2k by Parseval in mpmath:
    (sum_j |b_j|^2 m(2j))^(1/p), b the coefficients of f^k by repeated
    multiplication and m from mp_moment, all at ``dps`` digits."""
    with mp.workdps(dps):
        a = [mp.mpc(c) for c in coeffs]
        b = [mp.mpc(1)]
        for _ in range(p // 2):
            b = [sum(a[i] * b[j - i] for i in range(len(a)) if 0 <= j - i < len(b))
                 for j in range(len(a) + len(b) - 1)]
        total = sum(abs(bj) ** 2 * mp_moment(spec, 2 * j) for j, bj in enumerate(b))
        return float(total ** (mp.mpf(1) / p))


def mp_binomial_norms(p, a0, a1, d, weights, dps: int = 30):
    """||a0 + a1 z^d||_{p,w} for each (w, knots) of ``weights`` (as from
    mp_weight): int_0^1 2 r w(r) M_p^p(r) dr by mpmath's tanh-sinh quad,
    M_p^p the hyp2f1 mean of binomial_mean, split at the kink radius
    (a0/a1)^(1/d), where M_p^p has its |r - rho|^{p+1} kink, at the
    knots and at 1 - 2^-k for 16 <= 2^k <= 2p: at large p the integrand
    lives within about 1/p of r = 1, where one quad over all of [rho, 1]
    missed it (1.9e-5 relative at p = 950). The weights share their
    means, cached per node."""
    with mp.workdps(dps):
        p, a0, a1 = mp.mpf(p), abs(mp.mpf(a0)), abs(mp.mpf(a1))
        cuts = {0, 1, *(1 - mp.mpf(2) ** -k for k in range(4, int(mp.log(2 * p, 2)) + 1))}
        cuts |= {(a0 / a1) ** (mp.mpf(1) / d)} if a0 and a1 else set()
        cache = {}

        def mean(r):
            if r not in cache:
                hi, lo = max(a0, a1 * r**d), min(a0, a1 * r**d)
                cache[r] = hi**p * mp.hyp2f1(-p / 2, -p / 2, 1, (lo / hi) ** 2) if hi else 0
            return cache[r]

        norms = []
        for w, knots in weights:
            edges = sorted(c for c in cuts | {mp.mpf(k) for k in knots} if 0 <= c <= 1)
            norms.append(float(mp.quad(lambda r: 2 * r * w(r) * mean(r), edges) ** (1 / p)))
        return norms


def circle_mean(coeffs, r, p, dps: int = 20):
    """M_p^p(r; f) for f = sum_j coeffs[j] z^j by mpmath's tanh-sinh
    quadrature in the angle, split at the argument of every nonzero root,
    where |f|^p has its cusps."""
    with mp.workdps(dps):
        cs = [mp.mpc(c) for c in coeffs][::-1]
        roots = mp.polyroots(cs, maxsteps=200, extraprec=2 * dps)
        cuts = sorted({float(mp.arg(z)) % (2 * math.pi) for z in roots if z != 0})
        points = [0, *cuts, 2 * mp.pi]
        mean = mp.quad(lambda t: abs(mp.polyval(cs, r * mp.expj(t))) ** p, points)
        return float(mean / (2 * mp.pi))


def _tanh_sinh(edges, h):
    """Nodes and weights of the tanh-sinh rule of step h, |t| <= 3, on
    each piece between consecutive ``edges``; a node's distance to the
    nearer end of its piece is computed directly, so nodes next to an end
    keep their accuracy."""
    t = h * np.arange(-round(3.0 / h), round(3.0 / h) + 1)
    u = 0.5 * np.pi * np.sinh(t)
    scale = h * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(np.where(u < 0, a + (b - a) / (1.0 + np.exp(-2.0 * u)),
                              b - (b - a) / (1.0 + np.exp(2.0 * u))))
        weights.append((b - a) * scale)
    return np.concatenate(nodes), np.concatenate(weights)


def tanh_sinh_norm_p(coeffs, p, w, knots=(), h=1.0 / 64):
    """||f||_{p,w}^p = int_0^1 2 r w(r) M_p^p(r; f) dr for f = sum_j coeffs[j] z^j
    and a bounded weight given pointwise by w(r) with non-smooth points
    ``knots``: the tanh-sinh rule (mpmath's default quadrature) in double
    precision, in r on the pieces between 0, the knots, the moduli of f's
    roots inside the disk and 1, and in the angle on the pieces between
    the roots' arguments, so every kink and cusp of the integrand is at
    the end of a piece. On the near-root pair of the CLI's pinned verify
    report it is within 6.4e-14 of that test's QUADPACK/mpmath reference."""
    coeffs = np.asarray(coeffs, dtype=complex)
    roots = np.roots(coeffs[::-1])
    moduli = {float(abs(z)) for z in roots if 0.0 < abs(z) < 1.0}
    r, r_weights = _tanh_sinh(sorted({0.0, 1.0, *knots, *moduli}), h)
    args = {float(np.angle(z)) % (2.0 * math.pi) for z in roots if z != 0}
    t, t_weights = _tanh_sinh(sorted({0.0, 2.0 * math.pi, *args}), h)
    circle = np.exp(1j * t)
    means = np.empty(r.size)
    for i in range(0, r.size, 64):
        values = np.polynomial.polynomial.polyval(r[i : i + 64, None] * circle, coeffs)
        means[i : i + 64] = np.abs(values) ** p @ t_weights / (2.0 * math.pi)
    return float(np.sum(r_weights * 2.0 * r * w(r) * means))


def full_series_binomial_means(x, p):
    """1 + sum_k C(p/2, k)^2 x^{2k} per row of x (x^2 <= 1/2), every row
    through every term: the series of
    ``korenblum.analytic._unit_binomial_means`` with no row taking 1.0
    directly. Terms k = 1..K run past k = p/2 until
    C(p/2, K)^2 2^-K <= 1e-17, and are added up as a row-wise cumprod of
    x^2 times the coefficients."""
    coeffs, c, k = [], 1.0, 0
    while k <= 0.5 * p or c * 0.5**k > 1e-17:
        c *= ((k - 0.5 * p) / (k + 1)) ** 2
        k += 1
        coeffs.append(c)
    coeffs = np.array(coeffs)
    powers = np.repeat((x * x)[:, None], coeffs.size, axis=1)
    np.cumprod(powers, axis=1, out=powers)
    powers *= coeffs
    return 1.0 + np.sum(powers, axis=1)


def std_final_lhs(alpha, np_exp, eps, dps: int = 30) -> float:
    """int_0^1 (1 - r^{np}) 2 r w(eps r) dr for w(r) = (alpha+1)(1-r^2)^alpha,
    the left side of the refuter's final inequality, by mpmath quadrature."""
    with mp.workdps(dps):
        al, e, s = mp.mpf(alpha), mp.mpf(eps), mp.mpf(np_exp)
        return float(mp.quad(lambda r: (1 - r**s) * 2 * r * (al + 1) * (1 - (e * r) ** 2) ** al,
                             [0, 1]))


def family_min_gap(c, n, eps, rho, angles: int = 64, dps: int = 40):
    """The minimum of |g| - |f| over theta = 2 pi k/angles on |z| = rho,
    and its closed form (rho^n - c^n) eps^n/(c^n + eps^n), for the
    refutation family g = z^n, f = K (z^n + eps^n), K = c^n/(c^n + eps^n),
    with exact parameters at `dps` decimal digits."""
    with mp.workdps(dps):
        c, eps, rho = mp.mpf(c), mp.mpf(eps), mp.mpf(rho)
        k = c**n / (c**n + eps**n)
        gaps = [rho**n - k * abs(rho**n * mp.expjpi(2 * n * mp.mpf(j) / angles) + eps**n)
                for j in range(angles)]
        return min(gaps), (rho**n - c**n) * eps**n / (c**n + eps**n)


def allocating_abs_pow_means(coeffs, radii, p, n, offset=0.0):
    """Mean over n equispaced angles (from offset) of |f|^p per radius,
    f = sum_j coeffs[j] z^j: the separable formula of
    ``korenblum.analytic._abs_pow_means`` with a fresh temporary for every
    step, on its own grid of m = n/2^k <= 8192 angles turned n/m times,
    radii in blocks of at most 65536 nodes."""
    coeffs = np.asarray(coeffs, dtype=complex)
    degree = coeffs.size - 1
    js = np.arange(degree + 1)
    m = n
    while m > 8192:
        m //= 2
    base = np.exp(2j * np.pi / m * np.arange(m))
    circle = np.empty((degree + 1, m), dtype=complex)
    circle[0] = 1.0
    for j in range(1, degree + 1):
        circle[j] = circle[j - 1] * base
    out = np.empty(len(radii))
    rows = max(1, (1 << 16) // n)
    for start in range(0, len(radii), rows):
        amps = coeffs[None, :] * radii[start : start + rows, None] ** js[None, :]
        if offset:
            amps = amps * np.exp(1j * offset * js)[None, :]
        if m < n:
            turns = np.exp(2j * np.pi / n * np.outer(np.arange(n // m), js))
            amps = (amps[:, None, :] * turns).reshape(-1, degree + 1)
        fz = amps @ circle
        mod2 = fz.real**2 + fz.imag**2
        out[start : start + rows] = np.mean((mod2 ** (0.5 * p)).reshape(-1, n), axis=1)
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panel(f, lo, hi, rise=False):
    """The 15-node Gauss sum of f over [lo, hi]; with ``rise``, also
    |f(last node) - f(first node)|."""
    half = 0.5 * (hi - lo)
    x = lo + half * (_GL_NODES + 1.0)
    fx = np.asarray(f(x), dtype=float)
    value = half * float(np.sum(_GL_WEIGHTS * fx))
    if rise:
        return value, abs(float(fx[-1] - fx[0]))
    return value


def depth_first_integrate(f, a, b, tol, *, breakpoints=(), max_depth=40):
    """The adaptive 15-node Gauss-Legendre panel tree walked depth first,
    one integrand call per panel, with the same settle / stuck / split
    rules as ``korenblum.quadrature.integrate``: a panel settles when its
    error is within its share of tol or within the rounding
    8 eps max(|left| + |right|, |mid| (rise_left + rise_right)) of its
    halves, a half's rise |f(last node) - f(first node)|, and adds the
    larger of its error and that rounding to err_est. Returns
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
        left, left_rise = _gl_panel(f, lo, mid, rise=True)
        right, right_rise = _gl_panel(f, mid, hi, rise=True)
        fine = left + right
        err = abs(fine - coarse)
        rounding = 8.0 * np.finfo(float).eps * max(
            abs(left) + abs(right), abs(mid) * (left_rise + right_rise)
        )
        if err <= panel_tol or err <= rounding or mid <= lo or mid >= hi:
            total += fine
            settled_err += max(err, rounding)
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


def two_walk_norms(fs, w, p, tol):
    """``weighted_norms(fs, w, p, tol)`` by two separate walks per route.
    A monomial, a constant or zero takes |a| m(dp)^(1/p), and no walk. On
    a bounded weight, a polynomial with kink radii in (0, 1) is a
    component of two ``integrate_graded`` walks of M_p^p centred at them:
    rho = (|a_0|/|a_d|)^(1/d) of a binomial a_0 + a_d z^d, else the sorted
    moduli of its roots (``np.roots``) in (0, 1), those within 1e-4
    relative of the next smaller modulus dropped. Every other polynomial
    is a component of two plain ``integrate_against`` walks. Each route's
    first walk runs at tolerances every level-0 panel meets
    (``sys.float_info.max``) for the level-0 values v, its second, fresh
    one at min(0.25 tol p v, 1e-3 (sum |a_k|)^p m(0)). Returns the norms
    and a call that repeats the fresh plain walk (None without one)."""
    norms = [0.0] * len(fs)
    graded, plain, centres = [], [], []
    for i, f in enumerate(fs):
        cs = np.abs(np.asarray(f.coeffs, dtype=complex))
        d = f.degree
        if np.count_nonzero(cs) <= 1:
            norms[i] = float(np.sum(cs)) * moment(w, d * p) ** (1.0 / p)
            continue
        if np.count_nonzero(cs) == 2 and cs[0]:
            radii = [(float(cs[0]) / float(cs[d])) ** (1.0 / d)]
        else:
            moduli = sorted(np.abs(np.roots(np.asarray(f.coeffs)[::-1])).tolist())
            radii = [c for lower, c in zip([0.0] + moduli, moduli) if c - lower > 1e-4 * c]
        radii = tuple(c for c in radii if 0.0 < c < 1.0)
        if w.bounded and radii:
            graded.append(i)
            centres.append(radii)
        else:
            plain.append(i)
    scales = [float(np.sum(np.abs(f.coeffs))) ** p * moment(w, 0.0) for f in fs]

    def two_walks(route, integrate):
        sub = [fs[i] for i in route]
        coarse_tols = _above_floor(p, [1e-3 * scales[i] for i in route])
        phi = _mean_pows(sub, p, 0.25 * tol)

        def fresh(tols):
            with np.errstate(over="ignore", invalid="ignore"):
                return integrate(phi, tols)

        level0 = fresh([sys.float_info.max] * len(sub))
        fine_tols = _above_floor(p, [
            min(0.25 * tol * p * v, ct) for (v, _), ct in zip(level0, coarse_tols)
        ])
        for i, (v, _) in zip(route, fresh(fine_tols)):
            norms[i] = max(v, 0.0) ** (1.0 / p)
        return lambda: fresh(fine_tols)

    if graded:
        two_walks(graded, lambda phi, tols: w.integrate_graded(phi, centres, tols))
    if not plain:
        return norms, None
    return norms, two_walks(plain, lambda phi, tols: w.integrate_against(phi, 0.0, 1.0, tols))
