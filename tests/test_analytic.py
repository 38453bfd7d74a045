import cmath
import math
import re
import struct
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korenblum import (
    ConstantWeight,
    DomainError,
    Polynomial,
    StandardWeight,
    StepWeight,
    TableWeight,
    certify,
    check_domination,
    check_final_inequality,
    choose_n,
    family_pair,
    find_counterexample,
    mean_profile,
    moment,
    monomial_upper_bound,
    polynomial_from_spec,
    random_dominating_pair,
    verify_instance,
    weight_from_spec,
    weighted_norm,
    weighted_norms,
)
import korenblum.analytic as analytic
from korenblum.analytic import _mean_pow_batch
import korenblum.quadrature as quadrature
from korenblum.quadrature import integrate, integrate_many
from korenblum.refuter import EPSILON_SCAN_STEPS
from korenblum.weights import RadialWeight

from oracles import (
    allocating_abs_pow_means,
    binomial_mean,
    circle_mean,
    const_moment,
    full_series_binomial_means,
    mp_binomial_norms,
    mp_parseval_norm,
    mp_weight,
    parseval_norm,
    std_moment,
    step_moment,
    tanh_sinh_norm_p,
    two_walk_norms,
)

TOL = 1e-9


def random_poly(rng, max_degree=8):
    d = int(rng.integers(0, max_degree + 1))
    coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    return Polynomial(tuple(coeffs))


class TestPolynomial:
    def test_eval_cube(self):
        assert Polynomial((0, 0, 0, 1))(0.5) == pytest.approx(0.125)

    def test_eval_constant(self):
        assert Polynomial((1,))(3.7 + 2j) == 1.0

    def test_eval_root(self):
        assert abs(Polynomial((1, 0, 1))(1j)) == pytest.approx(0.0, abs=1e-15)

    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1 + 0j, 2 + 0j)
        assert Polynomial((0, 0)).is_zero

    def test_degree_cap(self):
        Polynomial((0,) * 64 + (1,))
        with pytest.raises(DomainError):
            Polynomial((0,) * 65 + (1,))

    def test_product(self):
        prod = Polynomial((1, 1)) * Polynomial((1, -1))
        assert prod.coeffs == (1 + 0j, 0j, -1 + 0j)

    def test_pinned_product(self):
        # f = h g of `verify --count --seed 0`'s first pair; np.convolve's
        # BLAS dot product gave a1 as -0x1.b78ddfb951728p-4 on AVX-512
        # kernels and -0x1.b78ddfb951726p-4 on Haswell's
        f, _ = random_dominating_pair(np.random.default_rng(0))
        assert [(c.real.hex(), c.imag.hex()) for c in f.coeffs] == [
            ("0x1.b25a72ae58329p-4", "0x1.4481cb1f042a6p-3"),
            ("-0x1.b78ddfb951726p-4", "-0x1.02b7885a6bfbcp-1"),
            ("0x1.36b359f5b4224p-2", "-0x1.3d35782ab32a7p-2"),
            ("0x1.24fa29fe85000p-2", "0x1.2a49cc4816b2fp-2"),
            ("-0x1.33a7e8d50aaf9p-2", "-0x1.1bb46aae91ce7p+0"),
            ("0x1.85c9dd8b636b2p-4", "0x1.2cf327fc83ecap-3"),
            ("0x1.27cbd20603350p-1", "-0x1.d6aef48bdf0f4p-2"),
            ("0x1.35b2b90810dd7p-1", "-0x1.5f7bef5d71687p-2"),
            ("-0x1.684ffc1daaf28p-2", "-0x1.16a91d07da4d4p-2"),
        ]

    def test_json_round_trip(self):
        f = Polynomial((1 + 2j, 0, -0.5))
        assert polynomial_from_spec(f.to_spec()) == f
        g = polynomial_from_spec('{"coeffs": [[1.0, 0.0], [0.0, 1.0]]}')
        assert g.coeffs == (1 + 0j, 1j)

    def test_bad_specs(self):
        with pytest.raises(DomainError):
            polynomial_from_spec("nope")
        with pytest.raises(DomainError):
            polynomial_from_spec('{"coeffs": [[1, 2, 3]]}')
        for entry in ('"abc"', '["1", 0]', "null"):
            with pytest.raises(DomainError):
                polynomial_from_spec(f'{{"coeffs": [{entry}]}}')
        # coeffs must be an array, not a string of digits or a number
        for spec in ({"coeffs": "12"}, {"coeffs": 5}, '{"coeffs": "12"}'):
            with pytest.raises(DomainError, match="'coeffs' array"):
                polynomial_from_spec(spec)
        # JSON reads 1e999 as inf; the message names the first bad coefficient
        for spec, name in (('{"coeffs": [1e999]}', "a0"), ('{"coeffs": [[0, 1], [1, NaN], 1e999]}', "a1")):
            with pytest.raises(DomainError, match=f"coefficient {name} = .* is not finite"):
                polynomial_from_spec(spec)


def mean_at(f, r, p):
    """M_p(r; f) at one radius 0 < r < 1, by mean_profile."""
    return mean_profile(f, p, (r,)).values[0]


def batch_mean_at(f, r, p, tol=TOL):
    """M_p(r; f) at one radius by _mean_pow_batch, which also takes r = 0
    and a tol below eps."""
    vals, _ = _mean_pow_batch(f, np.array([r]), p, tol)
    return float(vals[0] ** (1.0 / p))


class TestCircleMean:
    @pytest.mark.parametrize("n", [1, 3, 7])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
    def test_monomial_mean_is_power(self, n, p):
        # |z^n| is constant on circles
        f = Polynomial.monomial(n)
        assert batch_mean_at(f, 0.0, p) == pytest.approx(0.0, rel=1e-12, abs=1e-15)
        for r in (0.2, 0.7, 0.95):
            assert mean_at(f, r, p) == pytest.approx(r**n, rel=1e-12, abs=1e-15)

    def test_orthogonality_at_p2(self):
        n, eps = 4, 0.3
        f = Polynomial((eps**n,) + (0,) * (n - 1) + (1,))
        for r in (0.1, 0.5, 0.9):
            expected = np.sqrt(r ** (2 * n) + eps ** (2 * n))
            assert mean_at(f, r, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_mean_power_lower_bounds(self):
        # M_p^p(r; z^n + eps^n) >= max(eps^{np}, r^{np})
        n, eps, r, p = 5, 0.3, 0.2, 0.5
        f = Polynomial((eps**n,) + (0,) * (n - 1) + (1,))
        value = mean_at(f, r, p) ** p
        assert value >= max(eps ** (n * p), r ** (n * p)) - 1e-12

    def test_zero_polynomial(self):
        assert mean_at(Polynomial(()), 0.5, 1.0) == 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            mean_at(Polynomial((1,)), 1.0, 2.0)
        with pytest.raises(DomainError):
            mean_at(Polynomial((1,)), 0.5, 0.0)


class TestAngularDoubling:
    def test_converged_radius_leaves_the_doubling(self, monkeypatch):
        # one radius next to the cusp r = eps of the family must not drag
        # a smooth radius in the same batch up to its own grid size
        calls = []
        inner = analytic._abs_pow_means

        def counting(f, radii, p, n, offset=0.0):
            calls.append((np.array(radii), n))
            return inner(f, radii, p, n, offset)

        monkeypatch.setattr(analytic, "_abs_pow_means", counting)
        eps = 0.45
        # not a binomial, so it is not taken by the closed form
        f = family_pair(0.9, 5, eps)[0] * Polynomial((1.0, 0.5))
        radii = np.array([0.8, eps + 5e-6])
        vals, _ = _mean_pow_batch(f, radii, 0.5, 2.5e-10)
        smooth = calls[0][0][0]  # the first call sees every row, in order
        spent = sum(n * np.count_nonzero(rows == smooth) for rows, n in calls)
        assert spent <= 512
        assert max(n for _, n in calls) > 512
        for i in range(len(radii)):
            alone, _ = _mean_pow_batch(f, radii[i : i + 1], 0.5, 2.5e-10)
            assert alone[0] == pytest.approx(vals[i], rel=1e-14)

    def test_overflowed_row_leaves_the_doubling(self, monkeypatch):
        # M_p^p overflows at r = 0.6 and 0.8; their step inf - inf is NaN,
        # which used to keep both rows doubling up to the angular cap
        calls = []
        inner = analytic._abs_pow_means

        def counting(f, radii, p, n, offset=0.0):
            calls.append(n)
            return inner(f, radii, p, n, offset)

        monkeypatch.setattr(analytic, "_abs_pow_means", counting)
        with pytest.raises(DomainError, match="circle mean M_p"):
            mean_profile(Polynomial((1, 2, 1)), 1000.0, [0.2, 0.4, 0.6, 0.8])
        assert calls == [256, 256]

    @pytest.mark.parametrize("p", [0.45, 0.5, 0.7])
    def test_family_mean_against_hypergeometric(self, p):
        eps = 0.45
        n = choose_n(p)
        f, _ = family_pair(0.9, n, eps)
        for r in (0.3, 0.449, 0.45001, 0.451, 0.8):
            expected = binomial_mean(p, f.coeffs[0], f.coeffs[-1], r, n) ** (1.0 / p)
            assert mean_at(f, r, p) == pytest.approx(expected, rel=1e-9)

    def test_lacunary_reduction(self, rng):
        d = 3
        for _ in range(4):
            h = Polynomial(tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            coeffs = np.zeros(d * h.degree + 1, dtype=complex)
            coeffs[::d] = h.coeffs
            f = Polynomial(tuple(coeffs))
            for p in (0.5, 1.0, 3.0):
                for r in (0.3, 0.7, 0.9):
                    assert mean_at(f, r, p) == pytest.approx(mean_at(h, r**d, p), rel=1e-14)


def _counting_means(monkeypatch):
    """Record (polynomial, radii, n) of every _abs_pow_means call."""
    calls = []
    inner = analytic._abs_pow_means

    def counting(f, radii, p, n, offset=0.0):
        calls.append((f, np.array(radii), n))
        return inner(f, radii, p, n, offset)

    monkeypatch.setattr(analytic, "_abs_pow_means", counting)
    return calls


# a root z_k at modulus 0.6, and two others away from it
CUSP_ROOT = 0.6 * cmath.exp(0.7j)
CUSP_F = (Polynomial((0.8 + 0.3j,)) * Polynomial((-CUSP_ROOT, 1.0))
          * Polynomial((0.3 - 0.4j, 1.0)) * Polynomial((-1.5j, 1.0)))
CUSP_LOG_GAPS = (1e-2, -1e-3, 1e-5, -1e-7, 1e-9)


class TestCuspVariate:
    """Rows near a root modulus switch to the control variate z - z_k."""

    # tol fine enough that every row but the farthest is still open at 1024
    # angles, so it switches
    @pytest.mark.parametrize("p, tol", [(0.5, 1e-12), (1.0, 1e-12), (1.5, 1e-12), (3.0, 1e-13)])
    def test_against_mpmath(self, monkeypatch, p, tol):
        calls = _counting_means(monkeypatch)
        radii = abs(CUSP_ROOT) * np.exp(np.array(CUSP_LOG_GAPS))
        vals, diff = _mean_pow_batch(CUSP_F, radii, p, tol)
        for r, v in zip(radii, vals):
            assert v == pytest.approx(circle_mean(CUSP_F.coeffs, r, p), rel=1e-10, abs=0.0)
        switched = np.concatenate([rows for b, rows, _ in calls if b.degree == 1])
        assert set(radii[1:]) <= set(switched)
        assert np.all(diff <= tol * vals ** (1.0 / p))

    def test_near_root_batch_nodes(self, monkeypatch):
        # the pinned near-root verify pair's f = z g at p = 1, radii within
        # log-distance 1e-7 to 1e-2 of its root modulus 0.45: without the
        # variate the batch took 477,184 angular nodes and stopped at the cap
        calls = _counting_means(monkeypatch)
        g = Polynomial((1.038897546081614 + 0.14586410298052038j,
                        -1.7682983986165577 - 0.6955234255325711j,
                        -1.2008062553292007 + 0.8252910543661071j))
        f = Polynomial((0.0, 1.0)) * g
        radii = 0.45 * np.exp(np.array([-1e-3, -1e-5, -1e-7, 1e-6, 1e-4, 1e-2]))
        vals, diff = _mean_pow_batch(f, radii, 1.0, 2.5e-10)
        assert sum(rows.size * n for _, rows, n in calls) <= 12288
        assert max(n for _, _, n in calls) <= 512
        assert np.all(diff <= 2.5e-10 * vals)

    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    def test_row_alone_equals_row_in_batch(self, monkeypatch, p):
        # the matrix product of _abs_pow_means may round a row by an ulp
        # differently with the rows around it, so it runs row by row here:
        # what is left to differ is the switch, G_k, S_k and the grouping
        inner = analytic._abs_pow_means

        def row_by_row(f, radii, p, n, offset=0.0):
            return np.concatenate([inner(f, radii[i : i + 1], p, n, offset)
                                   for i in range(len(radii))])

        monkeypatch.setattr(analytic, "_abs_pow_means", row_by_row)
        calls = _counting_means(monkeypatch)
        # two root moduli (0.6 and 0.8), a far row and one next to no root
        f = CUSP_F * Polynomial((-0.8 * cmath.exp(-2.0j), 1.0))
        radii = np.array([0.2, 0.6 * math.exp(1e-6), 0.8 * math.exp(-1e-4), 0.95,
                          0.6 * math.exp(-1e-3), 0.8])
        vals, diff = _mean_pow_batch(f, radii, p, 2.5e-13)
        assert len({b.coeffs for b, _, _ in calls if b.degree == 1}) == 2
        for i in range(len(radii)):
            alone, alone_diff = _mean_pow_batch(f, radii[i : i + 1], p, 2.5e-13)
            assert (alone[0], alone_diff[0]) == (vals[i], diff[i])

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_radius_at_the_root_modulus_takes_its_variate(self, monkeypatch, p):
        # this row used to be left out of the variates and to double to the
        # angular cap
        roots, _ = analytic._root_factors(CUSP_F)
        k = int(np.argmin(np.abs(np.abs(roots) - 0.6)))
        r = float(abs(roots[k]))
        rows, near, _, _ = analytic._cusp_variates(CUSP_F, np.array([r]), p)
        assert rows.tolist() == [0] and near.tolist() == [k]
        calls = _counting_means(monkeypatch)
        vals, _ = _mean_pow_batch(CUSP_F, np.array([r]), p, 2.5e-10)
        assert any(g.degree == 1 for g, _, _ in calls)
        assert max(n for _, _, n in calls) < analytic._THETA_CAP
        assert vals[0] == pytest.approx(circle_mean(CUSP_F.coeffs, r, p), rel=1e-10, abs=0.0)
        # in a batch with a row just off the root modulus, each as alone
        near = r * math.exp(1e-6)
        both, _ = _mean_pow_batch(CUSP_F, np.array([r, near]), p, 2.5e-10)
        alone, _ = _mean_pow_batch(CUSP_F, np.array([near]), p, 2.5e-10)
        np.testing.assert_allclose(both, [vals[0], alone[0]], rtol=1e-14)

    def test_degree_64_switches_at_1024_angles(self, monkeypatch):
        # every degree starts its doubling at 256 angles, so a row near a
        # root of a degree-64 f still meets _CUSP_SWITCH_N and its variate
        # (a start of 8 (deg + 1) = 520 angles switched at 1040)
        root = 0.6 * cmath.exp(0.7j)
        f = Polynomial((-root, 1.0)) * Polynomial((1.0,) + (0.0,) * 62 + (0.5,))
        assert f.degree == 64
        calls = _counting_means(monkeypatch)
        r = 0.6 * math.exp(1e-7)
        vals, diff = _mean_pow_batch(f, np.array([r]), 1.0, 2.5e-10)
        assert [(g.degree, n) for g, _, n in calls] == [
            (64, 256), (64, 256), (64, 512), (1, 512), (1, 512)]
        assert diff[0] <= 2.5e-10 * vals[0]

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_double_root(self, p):
        f = Polynomial((-CUSP_ROOT, 1.0)) * Polynomial((-CUSP_ROOT, 1.0)) * Polynomial((0.3, 1.0))
        radii = 0.6 * np.exp(np.array([-1e-3, 1e-6, 1e-9]))
        vals, diff = _mean_pow_batch(f, radii, p, 2.5e-10)
        assert np.all(np.isfinite(diff))
        for r, v in zip(radii, vals):
            assert v == pytest.approx(circle_mean(f.coeffs, r, p), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_several_roots_on_one_circle(self, monkeypatch, p):
        # five cusps on |z| = 0.45: with the variate of the nearest root
        # alone the row at 0.45 + 5e-6 stopped at the angle cap, its change
        # 7.8e-10 against a tolerance of 5.2e-12 at p = 0.5
        calls = _counting_means(monkeypatch)
        f = family_pair(0.9, 5, 0.45)[0] * Polynomial((1.0, 0.5))
        radii = np.array([0.45 + 5e-6, 0.45 * math.exp(-1e-4)])
        vals, diff = _mean_pow_batch(f, radii, p, 2.5e-10)
        assert np.all(diff <= 2.5e-10 * vals ** (1.0 / p))
        assert max(n for _, _, n in calls) <= 8192
        assert len({b.coeffs for b, _, _ in calls if b.degree == 1}) == 5
        for r, v in zip(radii, vals):
            assert v == pytest.approx(circle_mean(f.coeffs, r, p), rel=1e-10, abs=0.0)

    def test_double_root_takes_one_variate(self):
        # np.roots splits the double root into two about 1e-8 apart, whose
        # cusps merge on circles farther away than that
        f = Polynomial((-CUSP_ROOT, 1.0)) * Polynomial((-CUSP_ROOT, 1.0)) * Polynomial((0.3, 1.0))
        roots, _ = analytic._root_factors(f)
        assert 0.0 < abs(roots[0] - roots[1]) < 1e-7
        radii = 0.6 * np.exp(np.array([-1e-3, 1e-5, -1e-6]))
        rows, _, _, _ = analytic._cusp_variates(f, radii, 1.0)
        assert rows.tolist() == [0, 1, 2]

    def test_large_p_with_interior_roots(self):
        # G_k and S_k are huge or tiny at p = 500; no NaN, no error
        radii = np.array([0.3, 0.5, 0.6 * math.exp(1e-6), 0.9])
        vals, diff = _mean_pow_batch(CUSP_F, radii, 500.0, 2.5e-10)
        assert np.all(np.isfinite(diff))
        for r, v in zip(radii, vals):
            assert v == pytest.approx(circle_mean(CUSP_F.coeffs, r, 500.0), rel=1e-9, abs=0.0)


BINOMIAL_PS = (0.05, 0.45, 0.5, 0.74, 1.0, 1.5, 2.0, 3.0, 4.0, 7.3, 20.0)
BINOMIAL_XS = (0.0, 0.3, 0.7071, 0.7072, 0.9, 0.999, 1 - 1e-8, 1 - 2.0**-52, 1.0)


def _x_at_top(top):
    """The x whose tau interval [0, asinh(1/(2b))], b = (1 - x)/(2 sqrt x),
    ends at top: sqrt(x) solves s^2 + s/sinh(top) - 1 = 0."""
    k = 1.0 / math.sinh(top)
    return (0.5 * (math.sqrt(k * k + 4.0) - k)) ** 2


def _near_one_route(p):
    """The way _unit_binomial_means takes its rows 1/2 < x^2 < 1 at p:
    "sum" (the finite series of an even p), "agm" (p = 1), "connection"
    or "integral"."""
    if p % 2 == 0 and p <= analytic._FINITE_SUM_P:
        return "sum"
    if p == 1.0:
        return "agm"
    m = round(p)
    near = m >= 1 and abs(p - m) < analytic._CONNECTION_WINDOW
    return "integral" if near or p > analytic._CONNECTION_P else "connection"


def _binomial_path(x, p, one):
    """The way _unit_binomial_means takes a row x at p: "one" (a series
    whose tail cannot move 1.0; one is the x^2 bound of _binomial_series),
    "series", "edge" (x = 1), or for 1/2 < x^2 < 1 its _near_one_route,
    an integral row as its count of tau panels. A row of the finite sum of
    an even p is "one" or "sum" for every x."""
    route = _near_one_route(p)
    if x * x <= 0.5 or route == "sum":
        return "one" if x * x <= one else "series" if x * x <= 0.5 else "sum"
    if x == 1.0:
        return "edge"
    if route != "integral":
        return route
    top = math.asinh(math.sqrt(x) / (1.0 - x))
    return 4 if top <= 4.0 else 8 if top <= 8.0 else 16


def _first_float(pred, lo, hi):
    """The smallest float in (lo, hi] at which pred holds, for 0 <= lo < hi
    and a pred that is false at lo, true at hi and monotone between: a
    bisection on the bit patterns, which order non-negative floats."""
    def bits(v):
        return struct.unpack("<q", struct.pack("<d", v))[0]

    def value(b):
        return struct.unpack("<d", struct.pack("<q", b))[0]

    lo_bits, hi_bits = bits(lo), bits(hi)
    assert not pred(lo) and pred(hi)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if pred(value(mid)):
            hi_bits = mid
        else:
            lo_bits = mid
    return value(hi_bits)


class TestBinomialMeans:
    @pytest.mark.parametrize("p", BINOMIAL_PS)
    def test_against_hypergeometric(self, p):
        # h = 1 + w at radius x has A = 1, B = x: both branches of S_p
        # (series for x^2 <= 1/2, integral above) and the x = 1 edge
        h = Polynomial((1.0, 1.0))
        radii = np.array(BINOMIAL_XS)
        vals, diff = _mean_pow_batch(h, radii, p, 1e-9)
        for x, v in zip(BINOMIAL_XS, vals):
            assert v == pytest.approx(binomial_mean(p, 1.0, 1.0, x), rel=1e-13, abs=0.0)
        assert np.array_equal(diff, 1e-13 * vals ** (1.0 / p))

    @pytest.mark.parametrize("p", BINOMIAL_PS)
    def test_against_trapezoid(self, p):
        # a0 dominant and a1 dominant, with phases; x <= 0.9 throughout
        radii = np.array([0.1, 0.45, 0.9])
        for h in (Polynomial((2.0j, -1.8)), Polynomial((0.3 - 0.4j, 1.0))):
            vals, _ = _mean_pow_batch(h, radii, p, 1e-9)
            trapezoid = analytic._abs_pow_means(h, radii, p, 1024)
            np.testing.assert_allclose(vals, trapezoid, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", BINOMIAL_PS + (1000.0,))
    def test_each_row_path_against_hypergeometric(self, p):
        # either side of the series switch x^2 = 1/2, of the integral's 4/8
        # and 8/16 tau panel switches top = 4 and top = 8, and the last x
        # below 1, whose top is about 36.7
        xs = [0.7071, 0.7072, 1.0 - 2.0**-52]
        for top in (4.0, 8.0):
            xs += [_x_at_top(top) * (1.0 - 1e-9), _x_at_top(top) * (1.0 + 1e-9)]
        paths = [_binomial_path(x, p, 0.0) for x in xs]
        route = _near_one_route(p)
        if route == "integral":
            assert paths == ["series", 4, 16, 4, 8, 8, 16]
        else:
            assert paths == ["series"] + [route] * 6
        vals = analytic._unit_binomial_means(np.array(xs), p)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(binomial_mean(p, 1.0, 1.0, x), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", BINOMIAL_PS + (1000.0,))
    def test_rows_that_round_to_one_match_the_full_series(self, p):
        # at and just below the largest x^2 that takes 1.0 directly, and on
        # the series rows just above it, bit for bit the full series
        _, one = analytic._binomial_series(p)
        # x: the largest float at or below sqrt(one) with x^2 <= one; above:
        # the next float whose square is above one, many floats up at
        # p = 1000, where x^2 is subnormal
        x = math.sqrt(one)
        above = _first_float(lambda v: v * v > one, 0.0, 2.0 * x)
        if x * x > one:
            x = math.nextafter(above, 0.0)
        xs = np.array([0.0, 0.5 * x, math.nextafter(x, 0.0), x,
                       above, 1.5 * x, 2.0 * x, 4.0 * x, 0.3])
        paths = [_binomial_path(v, p, one) for v in xs]
        assert paths == ["one"] * 4 + ["series"] * 5
        vals = analytic._unit_binomial_means(xs, p)
        assert np.array_equal(vals, full_series_binomial_means(xs, p))
        assert np.all(vals[:4] == 1.0)

    @pytest.mark.parametrize("p", [1000.0, 1030.0])
    def test_zero_row_at_large_p(self, p):
        # sum_k C(p/2, k)^2 overflows a float at p = 1030, and 0 times it
        # would raise a RuntimeWarning under the test suite's warning gate
        vals = analytic._unit_binomial_means(np.array([0.0, 0.5]), p)
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(binomial_mean(p, 1.0, 1.0, 0.5), rel=1e-13, abs=0.0)

    def test_integral_row_at_large_p_forms_no_series(self):
        # at p = 1100 the series coefficients C(p/2, k)^2 overflow a float,
        # but x = 0.9 takes the integral form and needs none of them
        p = 1100.0
        expected = binomial_mean(p, 1.0, 1.0, 0.9)
        vals = analytic._unit_binomial_means(np.array([0.9]), p)
        assert vals[0] == pytest.approx(expected, rel=1e-13, abs=0.0)
        mean = mean_at(Polynomial((1.0, 1.0)), 0.9, p)
        assert mean == pytest.approx(expected ** (1.0 / p), rel=1e-15, abs=0.0)

    def test_refutation_family_takes_no_angular_nodes(self, monkeypatch):
        calls = []
        inner = analytic._abs_pow_means

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(analytic, "_abs_pow_means", counting)
        witness = find_counterexample(0.5, 0.9, ConstantWeight(1.0))
        assert (witness.n, witness.epsilon) == (5, 0.45)
        assert calls == []

    def test_binomial_form_reads_the_coefficients(self):
        # (|a_0|, |a_d|, d) of a_0 + a_d z^d; None for any other polynomial
        cases = {
            (): (0.0, 0.0, 0),
            (2 - 1j,): (abs(2 - 1j), 0.0, 0),
            (0, 3): (0.0, 3.0, 1),
            (1, 2): (1.0, 2.0, 1),
            (0, 0, 0.5j): (0.0, 0.5, 2),
            (1, 0, 0, -2j): (1.0, 2.0, 3),
            (1, 1, 1): None,
            (0, 1, 0, 1): None,
            (0, 0, 1, 0, 1): None,
        }
        for coeffs, expected in cases.items():
            assert analytic._binomial_form(Polynomial(coeffs)) == expected

    def test_profile_across_the_cusp_is_monotone(self):
        eps = 0.45
        f, _ = family_pair(0.9, 5, eps)
        radii = eps + 1e-4 * np.arange(-100, 100)  # r = eps included
        for p in (0.45, 0.5, 0.74):
            prof = mean_profile(f, p, radii)  # raises MonotonicityViolation on failure
            assert prof.est_error <= 1e-13 * max(prof.values)


#: p -> the route of its rows 1/2 < x^2 < 1: small p, both sides of the
#: integer windows at 1 and 3, p = 1, even p and both sides of the cap
NEAR_ONE_ROUTES = {
    1e-6: "connection", 1e-3: "connection", 0.5: "connection",
    0.99: "connection", 0.995: "integral", 1.0: "agm", 1.005: "integral",
    1.01: "connection", 1.5: "connection", 2.0: "sum", 2.99: "connection",
    3.0: "integral", 3.01: "connection", 4.0: "sum", 11.99: "connection",
    12.0: "sum", 12.5: "integral", 13.0: "integral",
}
#: both sides of x^2 = 1/2, the middle, near 1 and the last float below 1
NEAR_ONE_XS = (0.7071, 0.70711, 0.75, 0.9, 0.99, 0.999999, 1 - 1e-12, 1 - 2.0**-52)


class TestBinomialNearOne:
    """S_p for 1/2 < x^2 < 1: the finite sum of an even p, the AGM at
    p = 1, the connection series, and the integral form elsewhere."""

    @pytest.mark.parametrize("p", sorted(NEAR_ONE_ROUTES))
    def test_route_against_mpmath(self, monkeypatch, p):
        taken = []
        for name, route in (("_agm_means", "agm"), ("_connection_means", "connection"),
                            ("_binomial_integral", "integral")):
            inner = getattr(analytic, name)
            monkeypatch.setattr(analytic, name,
                                lambda *args, inner=inner, route=route: taken.append(route) or inner(*args))
        xs = np.array(NEAR_ONE_XS)
        vals = analytic._unit_binomial_means(xs, p)
        route = NEAR_ONE_ROUTES[p]
        assert _near_one_route(p) == route
        assert taken == ([] if route == "sum" else [route])
        for x, v in zip(NEAR_ONE_XS, vals):
            assert v == pytest.approx(binomial_mean(p, 1.0, 1.0, x, dps=40), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("x", [0.7072, 0.99, 1 - 1e-8, 1 - 2.0**-52, 1 - 2.0**-53, 1.0])
    def test_even_p_is_the_finite_sum(self, x):
        # at x near 1 as elsewhere: 1 + x^2 at p = 2 and 1 + 4 x^2 + x^4 at
        # p = 4, in float, bit for bit (4 x^2 is exact, and x^4 the square
        # of x^2)
        x2 = x * x
        row = np.array([x])
        assert analytic._unit_binomial_means(row, 2.0)[0] == 1.0 + x2
        assert analytic._unit_binomial_means(row, 4.0)[0] == 1.0 + (4.0 * x2 + x2 * x2)

    def test_agm_steps_have_converged(self, monkeypatch):
        # _AGM_STEPS gives the value of 14 steps bit for bit, down to the
        # last float below 1, whose k' = (1 - x)/(1 + x) is 2^-54
        xs = np.concatenate(([0.70711, 1 - 2.0**-53, 1 - 2.0**-52], 1 - np.logspace(-16, -0.6, 2001)))
        vals = analytic._agm_means(xs)
        monkeypatch.setattr(analytic, "_AGM_STEPS", 14)
        assert np.array_equal(vals, analytic._agm_means(xs))


class TestAngularBlocks:
    def test_large_batch_memory_is_bounded(self):
        # 64 radii at the finest batch grid: rows are taken in blocks, so
        # the (radii x nodes) product never exists in one piece
        f = Polynomial((0.3, -1.2, 0.7j, 0.4))
        radii = np.linspace(0.05, 0.95, 64)
        n = 1 << 16
        tracemalloc.start()
        try:
            vals = analytic._abs_pow_means(f, radii, 0.5, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for r, v in zip(radii, vals):
            alone = analytic._abs_pow_means(f, np.array([r]), 0.5, n)[0]
            assert v == pytest.approx(alone, rel=1e-14)


    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_large_binomial_batch_memory_is_bounded(self, p):
        # a batch of many polynomials' radii: every path of S_p is taken in
        # row blocks, and a row's value does not depend on its block or on
        # the paths of the other rows; p = 0.5 takes the connection series,
        # 1 the AGM, 2 the finite sum and 3 the integral
        x = np.concatenate((np.linspace(0.0, 1.0, 20001), np.logspace(-30, -6, 1001)))
        tracemalloc.start()
        try:
            vals = analytic._unit_binomial_means(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        _, one = analytic._binomial_series(p)
        paths = np.array([str(_binomial_path(v, p, one)) for v in x])
        expected = {
            0.5: ("one", "series", "connection", "edge"),
            1.0: ("one", "series", "agm", "edge"),
            2.0: ("one", "series", "sum"),
            3.0: ("one", "series", "4", "8", "16", "edge"),
        }[p]
        assert set(paths) == set(expected)
        for path in expected:
            rows = np.flatnonzero(paths == path)
            for i in (rows[0], rows[rows.size // 2], rows[-1]):
                assert vals[i] == analytic._unit_binomial_means(x[i : i + 1], p)[0]


class TestTurnedGrids:
    """Angle counts above _CIRCLE_CACHE_MAX_N run on turned cached grids."""

    @pytest.mark.parametrize(
        "degree, n",
        [(3, 16384), (3, 32768), (3, 65536), (40, 16384), (40, 20992), (40, 65536)],
    )
    @pytest.mark.parametrize("half_step", [False, True])
    def test_against_direct_grid(self, monkeypatch, rng, degree, n, half_step):
        # 20992 is 4 turned grids of 5248: any m times a power of two is taken
        monkeypatch.setattr(analytic, "_circle_cache", {})
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = Polynomial(tuple(coeffs))
        radii = np.array([0.2, 0.55, 0.9])
        offset = np.pi / n if half_step else 0.0
        angles = np.exp(1j * (offset + 2 * np.pi * np.arange(n) / n))
        for p in (0.5, 1.0, 3.0):
            vals = analytic._abs_pow_means(f, radii, p, n, offset)
            reference = [
                np.mean(np.abs(np.polynomial.polynomial.polyval(r * angles, coeffs)) ** p)
                for r in radii
            ]
            np.testing.assert_allclose(vals, reference, rtol=1e-13, atol=0.0)
        assert analytic._circle_cache
        assert max(analytic._circle_cache) <= analytic._CIRCLE_CACHE_MAX_N

    def test_grid_cache_holds_powers_of_two(self, monkeypatch, rng):
        # a doubling that started at 8 (degree + 1) angles kept one set of
        # grids per degree
        monkeypatch.setattr(analytic, "_circle_cache", {})
        for degree in range(32, 65):
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            mean_profile(Polynomial(tuple(coeffs)), 1.5, np.linspace(0.1, 0.9, 9))
        assert set(analytic._circle_cache) <= {256 << k for k in range(6)}

    def test_single_row_memory_at_the_finest_grid(self):
        f = Polynomial(tuple(np.linspace(1.0, 0.1, 10)))
        radius, n = np.array([0.7]), 1 << 16
        analytic._abs_pow_means(f, radius, 1.0, n)  # warm the grid cache
        tracemalloc.start()
        try:
            analytic._abs_pow_means(f, radius, 1.0, n, offset=np.pi / n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a 10 x 65536 grid alone takes 10 MB
        assert peak < 4 * 2**20

    def test_one_call_per_doubling_step(self, monkeypatch):
        # |f| has a kink on the circle through its root 0.5. At exactly the
        # root's modulus (as np.roots finds it) and one float above it, the
        # row switches to the control variate at 1024 angles, with one call
        # of z - z_k on each half of that grid, and settles there
        calls = []
        inner = analytic._abs_pow_means

        def counting(f, radii, p, n, offset=0.0):
            calls.append((f.degree, n))
            return inner(f, radii, p, n, offset)

        monkeypatch.setattr(analytic, "_abs_pow_means", counting)
        f = Polynomial((-0.5, 1.0)) * Polynomial((0.3, 1.0))
        at_root = float(np.max(np.abs(analytic._root_factors(f)[0])))
        for r in (at_root, math.nextafter(at_root, 1.0)):
            calls.clear()
            _mean_pow_batch(f, np.array([r]), 1.0, 2.5e-10)
            assert calls == [(2, 256), (2, 256), (2, 512), (1, 512), (1, 512)]


class TestAllocatingFormula:
    """_abs_pow_means against the oracle's copy of its formula, and under
    concurrent use."""

    @pytest.mark.parametrize("n", [256, 8192, 16384, 65536])
    @pytest.mark.parametrize("degree", [2, 40])
    @pytest.mark.parametrize("half_step", [False, True])
    def test_bit_identical_to_allocating_formula(self, rng, degree, n, half_step):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = Polynomial(tuple(coeffs))
        # at n = 256 a block holds 256 radii, so 300 radii span two blocks
        radii = rng.uniform(0.0, 0.99, 300 if n == 256 else 3)
        offset = np.pi / n if half_step else 0.0
        # p/2 = 0.5, 1 and 2 take the sqrt, identity and square paths of **
        for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            vals = analytic._abs_pow_means(f, radii, p, n, offset)
            reference = allocating_abs_pow_means(coeffs, radii, p, n, offset)
            assert np.array_equal(vals, reference), p

    def test_concurrent_threads_match_sequential_norms(self):
        fs = [Polynomial((0.3, -1.1, 0.0, 0.8j)), Polynomial((1.0, 0.5j, -0.7, 0.2, 0.9))]
        w = ConstantWeight(1.0)
        sequential = [weighted_norms([f], w, 1.0) for f in fs]
        concurrent = [[], []]
        start = threading.Barrier(2, timeout=60)

        def run(k):
            start.wait()
            for _ in range(3):
                concurrent[k].append(weighted_norms([fs[k]], w, 1.0))

        # daemon threads: a shared workspace can send a walk astray for minutes
        threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert concurrent == [[value] * 3 for value in sequential]


class TestWeightedNorm:
    @pytest.mark.parametrize("n,p", [(1, 2.0), (2, 1.0), (5, 0.5), (3, 3.0)])
    def test_monomial_norm_constant_weight(self, n, p):
        f = Polynomial.monomial(n)
        expected = (2.0 / (n * p + 2.0)) ** (1.0 / p)
        assert weighted_norm(f, ConstantWeight(1.0), p) == pytest.approx(expected, rel=TOL)

    def test_sqrt_half_instance(self):
        value = weighted_norm(Polynomial((0, 1)), ConstantWeight(1.0), 2.0)
        assert value == pytest.approx(np.sqrt(0.5), rel=1e-10)

    def test_constant_function_norm(self, fixture_weights):
        for w in fixture_weights:
            for p in (0.5, 1.0, 2.0):
                expected = moment(w, 0.0) ** (1.0 / p)
                assert weighted_norm(Polynomial((1,)), w, p) == pytest.approx(expected, rel=1e-8)

    def test_parseval_pinned_instance(self):
        # ||z^3 - 2z + 1||_{2, standard alpha=1}: coefficient oracle
        f = Polynomial((1, -2, 0, 1))
        expected = parseval_norm(f.coeffs, lambda s: std_moment(s, 1.0))
        assert expected == pytest.approx(1.559914527573012, rel=1e-12)
        assert weighted_norm(f, StandardWeight(1.0), 2.0) == pytest.approx(expected, rel=1e-8)

    def test_parseval_random(self, rng, fixture_weights):
        oracles = [
            lambda s: const_moment(s),
            lambda s: std_moment(s, 1.0),
            lambda s: step_moment(s, 0.5),
        ]
        for k in range(24):
            f = random_poly(rng)
            if f.is_zero:
                continue
            w = fixture_weights[k % 3]
            expected = parseval_norm(f.coeffs, oracles[k % 3])
            assert weighted_norm(f, w, 2.0) == pytest.approx(expected, rel=1e-8)

    def test_norm_shrink_under_inner_monomials(self, rng, fixture_weights):
        # ||z^k f|| <= ||f|| since M_p(r; z^k f) = r^k M_p(r; f)
        for _ in range(200):
            f = random_poly(rng, max_degree=6)
            if f.is_zero:
                continue
            k = int(rng.integers(1, 4))
            p = float(rng.choice([0.5, 1.0, 1.5, 2.0, 4.0]))
            w = fixture_weights[int(rng.integers(0, 3))]
            shifted = Polynomial.monomial(k) * f
            a = weighted_norm(shifted, w, p, tol=1e-8)
            b = weighted_norm(f, w, p, tol=1e-8)
            assert a <= b + 2e-8 * max(1.0, b)

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        phase=st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, scale, phase):
        lam = scale * np.exp(1j * phase)
        f = Polynomial((0.3, -1.2, 0.7j))
        w = ConstantWeight(1.0)
        a = weighted_norm(Polynomial(tuple(lam * c for c in f.coeffs)), w, 1.5)
        b = abs(lam) * weighted_norm(f, w, 1.5)
        assert a == pytest.approx(b, rel=1e-9)

    def test_zero_polynomial(self, fixture_weights):
        for w in fixture_weights:
            assert weighted_norm(Polynomial(()), w, 1.0) == 0.0

    def test_step_weight_locality(self, rng):
        # the norm sees nothing below the jump: cross-check against an
        # independent radial integrator restricted to [R, 1)
        R = 0.5
        w = StepWeight(R)
        for p in (1.0, 2.0):
            for _ in range(5):
                f = random_poly(rng, max_degree=6)
                if f.is_zero:
                    continue
                full = weighted_norm(f, w, p, tol=1e-12)

                def phi(r):
                    vals, _ = _mean_pow_batch(f, np.asarray(r, dtype=float), p, 2.5e-13)
                    return 2.0 * r * vals

                restricted, _ = integrate(phi, R, 1.0, 1e-14)
                assert full**p == pytest.approx(restricted, rel=1e-12)


class TestToleranceFloor:
    """A norm whose radial walk would need a tolerance below 1e-300 is
    refused instead of settling at once on a lost integral; a monomial,
    which walks nothing, takes its closed form instead."""

    # the graded route (kink radius 0.002) at the coarse and at the fine
    # floor, and the plain route at the coarse floor, twice: (sum |a_k|)^p
    # is 0.5^999, 0.5^985 and 8e-600, at odd p, which Parseval's sum of
    # an even p does not take (test_even_p_takes_parseval)
    @pytest.mark.parametrize(
        "coeffs, p",
        [((0.001, 0.499), 999.0), ((0.001, 0.499), 985.0), ((0.0, 1e-200, 1e-200), 3.0),
         ((0.0, 0.25, 0.25), 999.0)],
    )
    def test_refused(self, coeffs, p):
        fs = [Polynomial(()), Polynomial(coeffs)]
        with pytest.raises(DomainError, match=f"p = {p} is out of range"):
            weighted_norms(fs, ConstantWeight(1.0), p)

    # the same norms at even p, which used to be refused, against mpmath
    # (f^k is 0.25^k z^k (1 + z)^k for the last): Parseval's sum walks
    # nothing and forms no (sum |a_k|)^p
    @pytest.mark.parametrize(
        "coeffs, p, norm",
        [((0.001, 0.499), 1000.0, 0.49631810996275093),
         ((0.0, 1e-200, 1e-200), 2.0, 9.1287092917527686e-201),
         ((0.0, 0.25, 0.25), 1000.0, 0.49487583104880119)],
    )
    def test_even_p_takes_parseval(self, coeffs, p, norm, monkeypatch):
        counts = _count_walks(monkeypatch)
        fs = [Polynomial(()), Polynomial(coeffs)]
        assert weighted_norms(fs, ConstantWeight(1.0), p) == [0.0, pytest.approx(norm, rel=1e-15)]
        assert counts == {"plain": 0, "graded": 0}

    def test_zero_polynomial_keeps_norm_zero(self):
        assert weighted_norms([Polynomial(())], ConstantWeight(1.0), 1000.0) == [0.0]

    @pytest.mark.parametrize(
        "coeffs, p, norm",
        [((0.0, 0.5), 1000.0, 0.5 * (2.0 / 1002.0) ** (1.0 / 1000.0)),
         ((0.0, 0.5), 985.0, 0.5 * (2.0 / 987.0) ** (1.0 / 985.0)),
         ((0.0, 1e-200), 2.0, 1e-200 * 0.5**0.5)],
    )
    def test_monomials_below_the_floor_take_the_closed_form(self, coeffs, p, norm):
        # ||a z||^p = |a|^p 2/(p + 2) on the constant weight: the walk's
        # tolerance would fall below 1e-300, the closed form has none
        fs = [Polynomial(()), Polynomial(coeffs)]
        assert weighted_norms(fs, ConstantWeight(1.0), p) == [0.0, norm]


def _mp_zero_free_norm(coeffs, p, dps=40, terms=200):
    """||f||_p on the constant weight, for f with no root in |z| <= 1, by
    Parseval: f^{p/2} = sum b_k z^k (J. C. P. Miller's power recurrence)
    and ||f||^p = sum_k |b_k|^2 / (k + 1), all in mpmath at ``dps`` digits."""
    with mp.workdps(dps):
        a, half = [mp.mpc(c) for c in coeffs], mp.mpf(p) / 2
        b = [a[0] ** half]
        for k in range(1, terms):
            b.append(sum(((half + 1) * j - k) * a[j] * b[k - j]
                         for j in range(1, min(k, len(a) - 1) + 1)) / (k * a[0]))
        return sum(abs(bk) ** 2 / (k + 1) for k, bk in enumerate(b)) ** (1 / mp.mpf(p))


class TestTinyP:
    """x^(1/p) turns a relative rounding eps of x = ||f||^p or M_p^p into
    eps/p: a p with p tol < eps is refused, not missed silently."""

    F = Polynomial((1.0, 0.5, 0.25))  # roots at |z| = 2

    def test_norm_meets_tol_at_p_1e_6(self):
        exact = _mp_zero_free_norm(self.F.coeffs, 1e-6)
        norm = weighted_norm(self.F, ConstantWeight(1.0), 1e-6)
        assert float(abs(norm / exact - 1)) <= TOL

    @pytest.mark.parametrize("p", [1e-7, 1e-8, 1e-200])
    def test_refused_where_the_root_misses_tol(self, p):
        # the norm was 1.08e-9 off at p = 1e-7, 1.14e-8 at 1e-8 and 0 for
        # an about 1 at 1e-200; the mean at r = 0.7 was 1.26e-9 off at 1e-7
        smallest = re.escape(f"eps/p = {np.finfo(float).eps / p:.3e}")
        with pytest.raises(DomainError, match=f"p = {p} is too small .* {smallest}"):
            weighted_norm(self.F, ConstantWeight(1.0), p)
        with pytest.raises(DomainError, match=smallest):
            mean_profile(self.F, p, (0.7,))

    def test_tol_below_eps_is_best_effort(self):
        # p tol < eps, but a tol below eps is let through; the exact mean is
        # about 1 + p x^2/4 = 1 + 1.6e-10 at x = 0.25
        mean = batch_mean_at(Polynomial((1.0, 0.5)), 0.5, 1e-8, tol=1e-17)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_underflowing_series_gives_one(self):
        # C(p/2, 1)^2 underflows, and the series' coefficient sum with it:
        # dividing by it warned "divide by zero" on stderr
        assert batch_mean_at(Polynomial((1.0, 0.5)), 0.5, 1e-200, tol=1e-17) == 1.0


def _family_scan(p, c):
    n = choose_n(p)
    family = [family_pair(c, n, c * 2.0**-j)[0] for j in range(1, EPSILON_SCAN_STEPS + 1)]
    return [Polynomial.monomial(n), *family]


class TestWeightedNorms:
    """weighted_norms walks all its polynomials at once; each norm must
    come out bit for bit as weighted_norm gives it alone."""

    # one refute cell per weight kind, and the substituted variable of a
    # standard weight with alpha < 0
    REFUTE_CELLS = {
        "constant": (0.45, 0.50, ConstantWeight(1.0)),
        "standard": (0.57, 0.80, StandardWeight(1.0)),
        "standard_alpha_below_0": (0.5, 0.9, StandardWeight(-0.5)),
        "step": (0.53, 0.65, StepWeight(0.3)),
        "table": (0.55, 0.75, TableWeight(knots=(0.0, 0.35, 0.6), values=(0.0, 1.2, 0.6))),
    }

    @pytest.mark.parametrize("cell", sorted(REFUTE_CELLS))
    def test_refute_scan_equals_one_norm_at_a_time(self, cell):
        p, c, w = self.REFUTE_CELLS[cell]
        fs = _family_scan(p, c)
        assert weighted_norms(fs, w, p) == [weighted_norm(f, w, p) for f in fs]

    @pytest.mark.parametrize("p", [0.5, 1.5, 3.0])
    def test_mixed_degrees_equal_one_norm_at_a_time(self, p, rng, fixture_weights):
        # degree >= 2 components take their own angular doubling; binomials,
        # lacunary ones among them, share one closed form; zero is 0. Each
        # route (closed form, graded, plain) is taken on the bounded
        # weights; on alpha = -0.5 the graded binomials walk plain
        g = random_poly(rng, max_degree=5)
        fs = [
            Polynomial((0.5, 0.5)) * g,
            Polynomial(()),
            g,
            Polynomial((2.0,)),
            Polynomial((1.0, 0.0, 0.0, -0.7j)),
            Polynomial((1.0, 0.0, 0.4, 0.0, 0.2)),
            Polynomial((0.3, 1.0)),
            Polynomial((0.2j, 0.0, 0.0, 1.0)),
            Polynomial((0.0, 0.0, 2.0 - 1.0j)),
        ]
        table = TableWeight(knots=(0.0, 0.3), values=(0.5, 1.5))
        for w in (*fixture_weights, table, StandardWeight(-0.5)):
            assert weighted_norms(fs, w, p, tol=1e-10) == [
                weighted_norm(f, w, p, tol=1e-10) for f in fs
            ]

    def test_near_root_pair_equals_one_norm_at_a_time(self, monkeypatch):
        # both walks have radial nodes next to the root modulus 0.6, whose
        # rows switch to the control variate
        calls = _counting_means(monkeypatch)
        fs = [Polynomial((0.5, 0.5)) * CUSP_F, CUSP_F]
        w = ConstantWeight(1.0)
        assert weighted_norms(fs, w, 1.0) == [weighted_norm(f, w, 1.0) for f in fs]
        assert any(b.degree == 1 for b, _, _ in calls)

    def test_fine_tolerance_not_below_coarse(self):
        # at tol = 0.5 the fine tolerance of 1, 0.25 tol p ||1||^p = 0.25,
        # is above its coarse one, 1e-3 m(0); its fine pass reuses every panel
        fs = [Polynomial((1.0,)), Polynomial.monomial(3)]
        for w in (ConstantWeight(1.0), StandardWeight(-0.5), StepWeight(0.5)):
            assert weighted_norms(fs, w, 2.0, tol=0.5) == [
                weighted_norm(f, w, 2.0, tol=0.5) for f in fs
            ]

    def test_only_zero_polynomials(self):
        w = ConstantWeight(1.0)
        assert weighted_norms([Polynomial(()), Polynomial((0.0,))], w, 1.0) == [0.0, 0.0]
        assert weighted_norms([], w, 1.0) == []


def _count_walks(monkeypatch):
    """Counts of the plain and the graded radial walks from now on."""
    counts = {"plain": 0, "graded": 0}
    plain, graded = RadialWeight.integrate_against, RadialWeight.integrate_graded

    def counted(name, walk):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return walk(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(RadialWeight, "integrate_against", counted("plain", plain))
    monkeypatch.setattr(RadialWeight, "integrate_graded", counted("graded", graded))
    return counts


class TestNormRoutes:
    """A monomial or a constant takes |a| m(dp)^(1/p); a binomial with its
    kink radius rho in (0, 1) on a bounded weight takes the graded walk
    centred at rho (other polynomials: TestGradedRoots); a binomial with
    rho >= 1, and any binomial on a standard weight with alpha < 0, the
    plain walk."""

    RHOS = [0.9 * 2.0**-48, 0.01, 0.45, 0.99]

    @staticmethod
    def _weights(rho):
        # (weight, its mpmath form): a step at R = rho and a table with its
        # knot at rho put a weight's kink on the binomial's
        specs = [
            {"kind": "constant", "level": 1.0},
            {"kind": "step", "R": rho},
            {"kind": "table", "r": [0.0, rho], "w": [0.5, 1.5]},
            {"kind": "standard", "alpha": 1.0},
            {"kind": "standard", "alpha": 6.0},
        ]
        return [(weight_from_spec(s), mp_weight(s)) for s in specs]

    @pytest.mark.parametrize("rho", RHOS, ids=["rho_tiny", "rho_0.01", "rho_0.45", "rho_0.99"])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.74, 1.0, 1.5, 3.0])
    def test_graded_binomial_against_mpmath(self, p, rho, monkeypatch):
        weights = self._weights(rho)
        references = mp_binomial_norms(p, rho, 1.0, 1, [mp_w for _, mp_w in weights])
        counts = _count_walks(monkeypatch)
        for (w, _), reference in zip(weights, references):
            [norm] = weighted_norms([Polynomial((rho, 1.0))], w, p)
            assert norm == pytest.approx(reference, rel=1e-11), w
        assert counts == {"plain": 0, "graded": len(weights)}

    @pytest.mark.parametrize("rho", [0.01, 0.45])
    @pytest.mark.parametrize("p", [0.5, 1.5])
    def test_alpha_below_0_walks_plain(self, p, rho, monkeypatch):
        # the graded walk would have to resolve the weight's singularity at
        # r = 1, so the binomial keeps the plain walk in v = (1 - r^2)^(1/2)
        spec = {"kind": "standard", "alpha": -0.5}
        [reference] = mp_binomial_norms(p, rho, 1.0, 1, [mp_weight(spec)])
        counts = _count_walks(monkeypatch)
        [norm] = weighted_norms([Polynomial((rho, 1.0))], weight_from_spec(spec), p)
        assert norm == pytest.approx(reference, rel=1e-11)
        assert counts == {"plain": 1, "graded": 0}

    def test_lacunary_binomial_against_mpmath(self, monkeypatch):
        # 0.2 + z^4 has its kink at 0.2^(1/4), the family K (z^5 + e^5) at e
        w = TableWeight(knots=(0.0, 0.35, 0.6), values=(0.0, 1.2, 0.6))
        spec = {"kind": "table", "r": [0.0, 0.35, 0.6], "w": [0.0, 1.2, 0.6]}
        family = family_pair(0.9, 5, 0.45)[0]
        counts = _count_walks(monkeypatch)
        for f, p in [(Polynomial((0.2, 0.0, 0.0, 0.0, 1.0)), 0.7), (family, 0.5)]:
            a0, a1 = abs(f.coeffs[0]), abs(f.coeffs[-1])
            [reference] = mp_binomial_norms(p, a0, a1, f.degree, [mp_weight(spec)])
            assert weighted_norm(f, w, p) == pytest.approx(reference, rel=1e-11)
        assert counts == {"plain": 0, "graded": 2}

    def test_graded_binomial_at_a_large_p(self):
        # at p = 950 the integrand lives within about 1e-3 of r = 1: a
        # reference split only at the kink read 0.4961774580664
        constant = {"kind": "constant", "level": 1.0}
        [reference] = mp_binomial_norms(950, 0.001, 0.499, 1, [mp_weight(constant)])
        assert reference == pytest.approx(0.4961679994335, rel=1e-12)
        [norm] = weighted_norms([Polynomial((0.001, 0.499))], ConstantWeight(1.0), 950.0)
        assert norm == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("p", [0.3, 1.0, 2.5, 1000.0])
    def test_monomial_is_its_moment(self, p, monkeypatch):
        weights = [ConstantWeight(2.0), StandardWeight(1.0), StandardWeight(-0.5),
                   StepWeight(0.3), TableWeight(knots=(0.0, 0.35, 0.6), values=(0.0, 1.2, 0.6))]
        counts = _count_walks(monkeypatch)
        for w in weights:
            for a, d in [(0.5 - 0.5j, 3), (2.0, 0), (1.0, 1)]:
                f = Polynomial((0.0,) * d + (a,))
                expected = abs(a) * moment(w, d * p) ** (1.0 / p)
                assert weighted_norm(f, w, p) == expected
        assert counts == {"plain": 0, "graded": 0}
        assert weighted_norm(Polynomial.monomial(2), ConstantWeight(1.0), 1.5) == pytest.approx(
            const_moment(3.0) ** (1.0 / 1.5), rel=1e-15
        )

    @pytest.mark.parametrize("f", [Polynomial((0.0, 1.0)), Polynomial((0.5, 1.0))],
                             ids=["closed_form", "graded"])
    def test_refusals_hold(self, f):
        is_graded = f.coeffs[0] != 0
        # a p-th root that cannot meet tol
        with pytest.raises(DomainError, match="is too small for tol"):
            weighted_norms([f], ConstantWeight(1.0), 1e-8)
        # a norm that overflows: ||f||^p is about 1e300, its square is not
        with pytest.raises(DomainError, match=r"the norm \(int 2 r w M_p\^p dr\)\^\(1/p\) overflows"):
            weighted_norms([f], ConstantWeight(1e300), 0.5)
        if is_graded:
            # (sum |a_k|)^p = 3^1101 overflows, and so does M_p^p near r = 1
            with pytest.raises(DomainError, match=r"too large: \(sum \|a_k\|\)\^p"):
                weighted_norms([Polynomial((1.0, 2.0))], ConstantWeight(1.0), 1101.0)
            # the mass of alpha = 1e20 lies within about 1e-10 of r = 0,
            # where the graded walk finds 0
            with pytest.raises(DomainError, match=r"mass m\(0\) = 1 was not resolved"):
                weighted_norms([f], StandardWeight(1e20), 3.0)
            # at even p Parseval's sum answers both, against mpmath:
            # (sum |b_j|^2 m(2j))^(1/p), b the coefficients of f^(p/2)
            [norm] = weighted_norms([Polynomial((1.0, 2.0))], ConstantWeight(1.0), 1100.0)
            assert norm == pytest.approx(2.9739981916682366, rel=1e-15)
            [norm] = weighted_norms([f], StandardWeight(1e20), 2.0)
            spec = {"kind": "standard", "alpha": 1e20}
            assert norm == pytest.approx(mp_parseval_norm(f.coeffs, 2, spec), rel=1e-15)
        else:
            # m(40) = 20! Gamma(1e20 + 2)/Gamma(1e20 + 22), about 2.4e-382,
            # underflows to 0
            with pytest.raises(DomainError, match=r"moment m\(40\) = 0 underflows"):
                weighted_norms([f], StandardWeight(1e20), 40.0)

    @pytest.mark.parametrize("alpha", [1e8, 1e12, 1e15, 1e20])
    def test_monomial_on_a_huge_alpha(self, alpha, monkeypatch):
        # ||z||^2 = m(2) = (alpha+1) B(2, alpha+1): a difference of log-Gamma
        # values made it 4.8e-9 relative off at 1e8, 3.2e-4 at 1e12 and a
        # factor 2.9 at 1e15
        mp.mp.dps = 50
        expected = mp.sqrt((alpha + 1) * mp.beta(2, mp.mpf(alpha) + 1))
        counts = _count_walks(monkeypatch)
        [norm] = weighted_norms([Polynomial((0.0, 1.0))], StandardWeight(alpha), 2.0)
        assert norm == pytest.approx(float(expected), rel=1e-13)
        assert counts == {"plain": 0, "graded": 0}


_G4 = Polynomial((0.3 - 0.2j, 1.0, -0.4j, 0.25, 0.6 + 0.1j))
# a verify-style pair f = h g of degree 8, g, and binomials (one lacunary)
_MIXED = [
    Polynomial((0.5, -0.2j, 0.1, 0.0, 0.3)) * _G4,
    _G4,
    Polynomial((0.4, 0.0, 0.0, 1.0)),
    Polynomial((2.0,)),
]


class TestResumedNorms:
    """weighted_norms walks each norm to a tolerance relative to its own
    level-0 value (``rtols``): the norms are bit for bit those of two
    separate walks, and no more panels are evaluated than the fine walk
    alone takes."""

    # (polynomials, weight, p): the pinned refute scan, the verify-style
    # pair, and each walk path of integrate_against (piecewise linear with
    # a breakpoint, standard direct in r, standard substituted in v)
    CASES = {
        "refute_scan": (_family_scan(0.5, 0.9), ConstantWeight(1.0), 0.5),
        "verify_pair": (_MIXED[:2], ConstantWeight(1.0), 1.5),
        "step": (_MIXED, StepWeight(0.3), 0.5),
        "standard_direct": (_MIXED, StandardWeight(1.0), 3.0),
        "standard_alpha_below_0": (_MIXED, StandardWeight(-0.5), 0.5),
        # twenty roots on |z| = 0.9 and one at -2, in one graded walk
        "twenty_roots": ([Polynomial((-0.9**20,) + (0.0,) * 19 + (1.0,)) * Polynomial((1.0, 0.5))],
                         ConstantWeight(1.0), 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_two_walks(self, case):
        fs, w, p = self.CASES[case]
        assert weighted_norms(fs, w, p) == two_walk_norms(fs, w, p, TOL)[0]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_more_panels_than_the_fine_walk(self, case, monkeypatch):
        # the plain walk and the graded walk each take no more panels than
        # a fresh walk of the same integrand at the final tolerances
        fs, w, p = self.CASES[case]
        _, plain_walk = two_walk_norms(fs, w, p, TOL)
        counts = {"walk": 0, "graded": 0}
        graded, calls = [False], []
        panel_sums, integrate_graded = quadrature._panel_sums, type(w).integrate_graded

        def counted(f, lo, hi, comp):
            counts["graded" if graded[0] else "walk"] += lo.size
            return panel_sums(f, lo, hi, comp)

        def counted_graded(self, phi, centres, tols, *, rtols=None):
            calls.append((phi, centres, tols, rtols))
            graded[0] = True
            try:
                return integrate_graded(self, phi, centres, tols, rtols=rtols)
            finally:
                graded[0] = False

        monkeypatch.setattr(quadrature, "_panel_sums", counted)
        monkeypatch.setattr(type(w), "integrate_graded", counted_graded)
        weighted_norms(fs, w, p)
        resumed = dict(counts)
        assert (resumed["graded"] > 0) == bool(calls)
        assert (resumed["walk"] > 0) == (plain_walk is not None)
        # each graded walk's final tolerances, min(tols, rtols |v0|), v0
        # its level-0 values
        fine = []
        for phi, centres, tols, rtols in calls:
            level0 = integrate_graded(w, phi, centres, [sys.float_info.max] * len(tols))
            fine.append([min(t, r * abs(v)) for t, r, (v, _) in zip(tols, rtols, level0)])
        counts.update(walk=0, graded=0)
        if plain_walk is not None:
            plain_walk()
        graded[0] = True
        for (phi, centres, _, _), tols in zip(calls, fine):
            integrate_graded(w, phi, centres, tols)
        assert resumed["walk"] <= counts["walk"]
        assert resumed["graded"] <= counts["graded"]


# polynomials with radial kinks inside the disk, each with a hazard
KINK_POLYS = {
    "two_roots_on_one_ray": Polynomial((-0.3, 1.0)) * Polynomial((-0.6, 1.0)),
    "double_root": Polynomial((-0.5, 1.0)) * Polynomial((-0.5, 1.0)) * Polynomial((0.2, 1.0)),
    "triple_root": (Polynomial((-0.5, 1.0)) * Polynomial((-0.5, 1.0)) * Polynomial((-0.5, 1.0))
                    * Polynomial((0.2, 1.0))),
    "five_roots_on_one_circle": family_pair(0.9, 5, 0.45)[0] * Polynomial((1.0, 0.5)),
    "root_at_zero": Polynomial((0.0, 1.0)) * Polynomial((-0.5j, 1.0)) * Polynomial((0.3 - 0.4j, 1.0)),
    "root_next_to_the_circle": (Polynomial((-0.999 * cmath.exp(0.7j), 1.0))
                                * Polynomial((0.4j, 1.0)) * Polynomial((2.0, 1.0))),
    "lacunary": Polynomial((-0.3, 0.0, 0.0, 1.0)) * Polynomial((0.5j, 0.0, 0.0, 1.0)),
}
# (weight, w pointwise, its knots) for the reference
KINK_WEIGHTS = {
    "constant": (ConstantWeight(1.0), np.ones_like, ()),
    "step": (StepWeight(0.5), lambda r: (r >= 0.5).astype(float), (0.5,)),
    "table": (TableWeight(knots=(0.0, 0.35, 0.6), values=(0.0, 1.2, 0.6)),
              lambda r: np.interp(r, (0.0, 0.35, 0.6), (0.0, 1.2, 0.6)), (0.35, 0.6)),
    "standard": (StandardWeight(1.0), lambda r: 2.0 * (1.0 - r * r), ()),
}
_GOLDEN = (1 + 5**0.5) / 2


def _affine_pair():
    """The 8-root affine pair of the perfbench verify deck (rotation 0,
    leading coefficient 1): g with roots of moduli 0.35 .. 3.5 at
    arguments 2 pi k / golden ratio, and f = (z + a)/2 g, |a| = 0.85."""
    moduli = (0.35, 0.6, 0.8, 1.12, 1.35, 1.75, 2.5, 3.5)
    roots = [m * cmath.exp(2j * math.pi * k / _GOLDEN) for k, m in enumerate(moduli)]
    g = Polynomial(tuple(np.poly(roots)[::-1]))
    a = -0.85 * cmath.exp(2j * math.pi * len(moduli) / _GOLDEN)
    return Polynomial((a / 2.0, 0.5)) * g, g


def _count_work(monkeypatch):
    """Counts of radial panels and of angular nodes from now on."""
    counts = {"panels": 0, "nodes": 0}
    panel_sums, inner = quadrature._panel_sums, analytic._abs_pow_means

    def counted_panels(f, lo, hi, comp):
        counts["panels"] += lo.size
        return panel_sums(f, lo, hi, comp)

    def counted_means(f, radii, p, n, offset=0.0):
        counts["nodes"] += len(radii) * n
        return inner(f, radii, p, n, offset)

    monkeypatch.setattr(quadrature, "_panel_sums", counted_panels)
    monkeypatch.setattr(analytic, "_abs_pow_means", counted_means)
    return counts


class TestGradedRoots:
    """On a bounded weight a polynomial with roots 0 < |z_k| < 1 is a
    component of the graded walk, its cells graded toward the root moduli,
    neighbours within 1e-4 relative taken as one."""

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("name", sorted(KINK_POLYS))
    def test_against_reference(self, name, p):
        f = KINK_POLYS[name]
        for w, w_of_r, knots in KINK_WEIGHTS.values():
            reference = tanh_sinh_norm_p(f.coeffs, p, w_of_r, knots) ** (1.0 / p)
            assert weighted_norm(f, w, p) == pytest.approx(reference, rel=1e-11, abs=0.0)

    def test_kink_radii(self):
        def radii(name):
            f = KINK_POLYS[name]
            return [round(c, 6) for c in analytic._kink_radii(f, analytic._binomial_form(f))]

        assert radii("two_roots_on_one_ray") == [0.3, 0.6]
        # np.roots splits the double root 0.5 into two moduli about 1e-8
        # apart and the triple one into three up to 1.1e-5 apart, each
        # merged into the lowest of them
        assert radii("double_root") == [0.2, 0.5]
        assert radii("triple_root") == [0.2, 0.499996]
        assert radii("five_roots_on_one_circle") == [0.45]
        assert radii("root_at_zero") == [0.5]
        assert radii("root_next_to_the_circle") == [0.4, 0.999]
        assert radii("lacunary") == [round(0.3 ** (1 / 3), 6), round(0.5 ** (1 / 3), 6)]
        # a binomial's one radius, none at or beyond 1
        assert analytic._kink_radii(Polynomial((0.25, 0.0, 1.0)), (0.25, 1.0, 2)) == (0.5,)
        assert analytic._kink_radii(Polynomial((1.0, 0.5)), (1.0, 0.5, 1)) == ()
        assert analytic._kink_radii(Polynomial((6.0, -5.0, 1.0)), None) == ()  # roots 2, 3

    def test_many_roots_on_one_circle(self):
        # twenty roots on |z| = 0.9, one kink radius. The reference's
        # h = 1/16 is within 5e-14 of its h = 1/64 here
        f = Polynomial((-0.9**20,) + (0.0,) * 19 + (1.0,)) * Polynomial((1.0, 0.5))
        for p in (0.5, 1.0, 1.5):
            reference = tanh_sinh_norm_p(f.coeffs, p, np.ones_like, h=1.0 / 16) ** (1.0 / p)
            assert weighted_norm(f, ConstantWeight(1.0), p) == pytest.approx(
                reference, rel=1e-11, abs=0.0
            )

    @pytest.mark.parametrize("name, bound", [("double_root", 2e6), ("triple_root", 1e6)])
    def test_split_multiple_root_work(self, name, bound, monkeypatch):
        # cells graded toward each modulus np.roots splits out of the
        # multiple root 0.5 took 19,090,944 (double) and 3,352,064
        # (triple) angular nodes; one cell takes 1,216,000 and 313,344
        counts = _count_work(monkeypatch)
        weighted_norm(KINK_POLYS[name], StepWeight(0.5), 0.5)
        assert counts["nodes"] <= bound

    def test_thirty_roots_on_one_circle_work(self, monkeypatch):
        # np.roots spreads the thirty roots of z^30 - 0.8^30 over 2.8e-15
        # of modulus, which are merged into one kink radius; the plain walk
        # took 1,231,688,448 angular nodes, the graded one takes 9,861,120
        f = Polynomial((-0.8**30,) + (0.0,) * 29 + (1.0,)) * Polynomial((-0.3, 1.0))
        counts = _count_work(monkeypatch)
        weighted_norm(f, ConstantWeight(1.0), 1.0)
        assert counts["nodes"] <= 5e7

    @pytest.mark.parametrize("weight", sorted(KINK_WEIGHTS))
    def test_norm_alone_equals_norm_in_batch(self, weight):
        w = KINK_WEIGHTS[weight][0]
        fs = [*KINK_POLYS.values(), Polynomial((0.3, 1.0)), Polynomial(())]
        assert weighted_norms(fs, w, 1.0) == [weighted_norm(f, w, 1.0) for f in fs]

    # (polynomials, weight, p): binomials, graded at p = 2.5 and at p = 3,
    # and a standard weight with alpha < 0, on which every f walks plain
    # (an even p takes Parseval's sum, no walk: TestParsevalRoute)
    CASES = {
        "binomials": ([Polynomial((0.3, 1.0)), Polynomial((1.0, 0.0, 0.0, -0.7j)), Polynomial(())],
                      ConstantWeight(1.0), 1.0),
        "p_2.5": (list(KINK_POLYS.values()), StepWeight(0.5), 2.5),
        "p_3": (list(KINK_POLYS.values()), ConstantWeight(1.0), 3.0),
        "standard_alpha_below_0": (list(KINK_POLYS.values()), StandardWeight(-0.5), 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_two_walks(self, case):
        fs, w, p = self.CASES[case]
        assert weighted_norms(fs, w, p) == two_walk_norms(fs, w, p, TOL)[0]

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_affine_pair_work(self, p, monkeypatch):
        # the verify deck's affine pair, roots at moduli 0.35, 0.6 and 0.8
        # inside the disk: the plain walk with the kinks subtracted took
        # 68, 48 and 34 radial panels at p = 1, 1.5 and 3, and 679,680,
        # 339,200 and 276,992 angular nodes; the graded walk takes 6 panels
        counts = _count_work(monkeypatch)
        weighted_norms(list(_affine_pair()), ConstantWeight(1.0), p)
        assert counts["panels"] <= 12
        assert counts["nodes"] <= 1_000_000


class TestParsevalRoute:
    """At an even p = 2k, ||f||^p = S^p sum_j |b_j|^2 m(2j), b the
    coefficients of (f/S)^k and S = sum |a_j|: no walk and no angular
    node, unless k deg f exceeds the cap or the sum fails its rounding
    gate, when the norm takes its walk."""

    SPECS = {
        "constant": {"kind": "constant", "level": 1.3},
        "step": {"kind": "step", "R": 0.45},
        "table": {"kind": "table", "r": [0.0, 0.35, 0.6], "w": [0.0, 1.2, 0.6]},
        "standard_1": {"kind": "standard", "alpha": 1.0},
        "standard_-0.5": {"kind": "standard", "alpha": -0.5},
        "standard_1e20": {"kind": "standard", "alpha": 1e20},
    }
    FS = [_G4, *_MIXED[:2], KINK_POLYS["root_next_to_the_circle"], KINK_POLYS["lacunary"],
          Polynomial((0.3, 1.0))]

    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_against_mpmath(self, p, spec, monkeypatch):
        counts = _count_walks(monkeypatch)
        norms = weighted_norms(self.FS, weight_from_spec(self.SPECS[spec]), float(p))
        for f, norm in zip(self.FS, norms):
            assert norm == pytest.approx(mp_parseval_norm(f.coeffs, p, self.SPECS[spec]), rel=1e-13)
        assert counts == {"plain": 0, "graded": 0}

    def test_no_walk_and_no_angular_node(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an even-p norm walked or sampled a circle")

        monkeypatch.setattr(quadrature, "integrate_many", refuse)
        monkeypatch.setattr("korenblum.weights.integrate_many", refuse)
        monkeypatch.setattr(analytic, "_abs_pow_means", refuse)
        for spec in self.SPECS.values():
            for p in (2.0, 4.0):
                assert all(n > 0.0 for n in weighted_norms(self.FS, weight_from_spec(spec), p))

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
    def test_alone_equals_batch(self, p):
        w = weight_from_spec(self.SPECS["table"])
        fs = [*self.FS, Polynomial(()), Polynomial((0.0, 2.0)), Polynomial((0.0, 0.25, 0.25))]
        assert weighted_norms(fs, w, p) == [weighted_norm(f, w, p) for f in fs]

    @pytest.mark.parametrize(
        "f, p",
        [
            # |f| <= 8^(1/2) on the circle, where sum |a_j| = 4: the
            # coefficients of f^20 cancel, and sum |b_j|^2 m(2j) falls below
            # gamma sum B_j^2 m(2j) / (0.25 tol p)
            (Polynomial((1.0, 1.0, 1.0, -1.0)), 40.0),
            # k deg f = 65 * 64 is above the cap 4096
            (Polynomial((0.5,) + (0.0,) * 63 + (1.0,)), 130.0),
        ],
        ids=["cancelling", "above_the_cap"],
    )
    def test_walks_where_the_route_does_not_apply(self, f, p):
        w = ConstantWeight(1.0)
        assert analytic._parseval_norm(f, w, p, TOL) is None
        assert weighted_norms([f], w, p) == two_walk_norms([f], w, p, TOL)[0]

    def test_at_the_cap(self):
        # k deg f = 64 * 64 takes the sum, within the walk's tolerance
        f = Polynomial((0.5,) + (0.0,) * 63 + (1.0,))
        norm = analytic._parseval_norm(f, ConstantWeight(1.0), 128.0, TOL)
        assert norm == pytest.approx(two_walk_norms([f], ConstantWeight(1.0), 128.0, TOL)[0][0], rel=TOL)


class TestMeanProfile:
    def test_square_profile(self):
        prof = mean_profile(Polynomial((0, 0, 1)), 1.0, (0.1, 0.5, 0.9))
        assert prof.values == pytest.approx((0.01, 0.25, 0.81), rel=1e-12)

    def test_constant_profile(self):
        prof = mean_profile(Polynomial((5,)), 3.0, (0.2, 0.4, 0.8))
        assert prof.values == pytest.approx((5.0, 5.0, 5.0), rel=1e-14)

    def test_nondecreasing_for_affine(self):
        radii = tuple(np.linspace(0.04, 0.96, 20))
        prof = mean_profile(Polynomial((1, 1)), 0.7, radii)
        slack = 10 * max(prof.est_error, 1e-15)
        assert all(b >= a - slack for a, b in zip(prof.values, prof.values[1:]))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
    def test_monotone_means_random(self, p, rng):
        radii = tuple(np.linspace(0.03, 0.97, 32))
        for _ in range(5):
            f = random_poly(rng, max_degree=6)
            if f.is_zero:
                continue
            prof = mean_profile(f, p, radii)  # raises MonotonicityViolation on failure
            slack = 10 * max(prof.est_error, 1e-15)
            assert all(b >= a - slack for a, b in zip(prof.values, prof.values[1:]))

    def test_bad_radii(self):
        f = Polynomial((1, 1))
        with pytest.raises(DomainError):
            mean_profile(f, 1.0, (0.5, 0.4))
        with pytest.raises(DomainError):
            mean_profile(f, 1.0, (0.0, 0.5))


_F, _W = Polynomial((1.0, 2.0)), ConstantWeight(1.0)
# each call takes the bad number x as its exponent or its tolerance; at p =
# nan or inf the circle means and their series used to loop without end
NUMBER_ARGUMENTS = {
    "weighted_norm.p": lambda x: weighted_norm(_F, _W, x),
    "weighted_norm.tol": lambda x: weighted_norm(_F, _W, 2.0, tol=x),
    "weighted_norms.p": lambda x: weighted_norms([_F, _F], _W, x),
    "weighted_norms.tol": lambda x: weighted_norms([_F, _F], _W, 2.0, tol=x),
    "mean_profile.p": lambda x: mean_profile(_F, x, (0.5,)),
    "verify_instance.p": lambda x: verify_instance(_F, _F, _W, x, 0.5),
    "verify_instance.tol": lambda x: verify_instance(_F, _F, _W, 2.0, 0.5, tol=x),
    "find_counterexample.p": lambda x: find_counterexample(x, 0.9, _W, n=5),
    "choose_n.p": choose_n,
    "family_pair.epsilon": lambda x: family_pair(0.9, 5, x),
    "check_domination.c": lambda x: check_domination(_F, _F, x),
    "check_final_inequality.p": lambda x: check_final_inequality(x, 0.9, _W, 5, 0.45),
    "check_final_inequality.quad_tol": lambda x: check_final_inequality(0.5, 0.9, _W, 5, 0.45, x),
    "find_counterexample.quad_tol": lambda x: find_counterexample(0.5, 0.9, _W, quad_tol=x),
    "monomial_upper_bound.p": lambda x: monomial_upper_bound(x, _W),
    "certify.quad_tol": lambda x: certify(_W, quad_tol=x),
    "moment.s": lambda x: moment(_W, x),
    "integrate.tol": lambda x: integrate(np.sin, 0.0, 1.0, x),
    "integrate_many.tol": lambda x: integrate_many(lambda r, comp: r, 0.0, 1.0, [1e-9, x]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", NUMBER_ARGUMENTS.values(), ids=list(NUMBER_ARGUMENTS))
def test_non_finite_number_is_a_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)
