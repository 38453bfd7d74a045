import tracemalloc

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
    certification_scan,
    choose_n,
    family_pair,
    find_counterexample,
    integral_mean,
    mean_profile,
    moment,
    monomial_upper_bound,
    polynomial_from_spec,
    verify_instance,
    weighted_norm,
)
import korenblum.analytic as analytic
from korenblum.analytic import _mean_pow_batch
from korenblum.quadrature import integrate

from oracles import binomial_mean, const_moment, parseval_norm, std_moment, step_moment

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


class TestIntegralMean:
    @pytest.mark.parametrize("n", [1, 3, 7])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
    def test_monomial_mean_is_power(self, n, p):
        # |z^n| is constant on circles
        f = Polynomial.monomial(n)
        for r in (0.0, 0.2, 0.7, 0.95):
            assert integral_mean(f, r, p) == pytest.approx(r**n, rel=1e-12, abs=1e-15)

    def test_orthogonality_at_p2(self):
        n, eps = 4, 0.3
        f = Polynomial((eps**n,) + (0,) * (n - 1) + (1,))
        for r in (0.1, 0.5, 0.9):
            expected = np.sqrt(r ** (2 * n) + eps ** (2 * n))
            assert integral_mean(f, r, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_mean_power_lower_bounds(self):
        # M_p^p(r; z^n + eps^n) >= max(eps^{np}, r^{np})
        n, eps, r, p = 5, 0.3, 0.2, 0.5
        f = Polynomial((eps**n,) + (0,) * (n - 1) + (1,))
        value = integral_mean(f, r, p) ** p
        assert value >= max(eps ** (n * p), r ** (n * p)) - 1e-12

    def test_zero_polynomial(self):
        assert integral_mean(Polynomial(()), 0.5, 1.0) == 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            integral_mean(Polynomial((1,)), 1.0, 2.0)
        with pytest.raises(DomainError):
            integral_mean(Polynomial((1,)), 0.5, 0.0)


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

    @pytest.mark.parametrize("p", [0.45, 0.5, 0.7])
    def test_family_mean_against_hypergeometric(self, p):
        eps = 0.45
        n = choose_n(p)
        f, _ = family_pair(0.9, n, eps)
        for r in (0.3, 0.449, 0.45001, 0.451, 0.8):
            expected = binomial_mean(p, f.coeffs[0], f.coeffs[-1], r, n) ** (1.0 / p)
            assert integral_mean(f, r, p) == pytest.approx(expected, rel=1e-9)

    def test_lacunary_reduction(self, rng):
        d = 3
        for _ in range(4):
            h = Polynomial(tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
            coeffs = np.zeros(d * h.degree + 1, dtype=complex)
            coeffs[::d] = h.coeffs
            f = Polynomial(tuple(coeffs))
            for p in (0.5, 1.0, 3.0):
                for r in (0.3, 0.7, 0.9):
                    assert integral_mean(f, r, p) == pytest.approx(
                        integral_mean(h, r**d, p), rel=1e-14
                    )


BINOMIAL_PS = (0.05, 0.45, 0.5, 0.74, 1.0, 1.5, 2.0, 3.0, 4.0, 7.3, 20.0)
BINOMIAL_XS = (0.0, 0.3, 0.7071, 0.7072, 0.9, 0.999, 1 - 1e-8, 1 - 2.0**-52, 1.0)


class TestBinomialMeans:
    @pytest.mark.parametrize("p", BINOMIAL_PS)
    def test_against_hypergeometric(self, p):
        # h = 1 + w at radius x has A = 1, B = x: both branches of S_p
        # (series for x^2 <= 1/2, integral above) and the x = 1 edge
        h = Polynomial((1.0, 1.0))
        radii = np.array(BINOMIAL_XS)
        vals, diff = analytic._binomial_means(h, radii, p)
        for x, v in zip(BINOMIAL_XS, vals):
            assert v == pytest.approx(binomial_mean(p, 1.0, 1.0, x), rel=1e-13, abs=0.0)
        assert np.array_equal(diff, 1e-13 * vals ** (1.0 / p))

    @pytest.mark.parametrize("p", BINOMIAL_PS)
    def test_against_trapezoid(self, p):
        # a0 dominant and a1 dominant, with phases; x <= 0.9 throughout
        radii = np.array([0.1, 0.45, 0.9])
        for h in (Polynomial((2.0j, -1.8)), Polynomial((0.3 - 0.4j, 1.0))):
            vals, _ = analytic._binomial_means(h, radii, p)
            trapezoid = analytic._abs_pow_means(h, radii, p, 1024)
            np.testing.assert_allclose(vals, trapezoid, rtol=1e-13, atol=0.0)

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

    def test_profile_across_the_cusp_is_monotone(self):
        eps = 0.45
        f, _ = family_pair(0.9, 5, eps)
        radii = eps + 1e-4 * np.arange(-100, 100)  # r = eps included
        for p in (0.45, 0.5, 0.74):
            prof = mean_profile(f, p, radii)  # raises MonotonicityViolation on failure
            assert prof.est_error <= 1e-13 * max(prof.values)


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
                expected = moment(w, 0.0).value ** (1.0 / p)
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
    "integral_mean.p": lambda x: integral_mean(_F, 0.5, x),
    "integral_mean.tol": lambda x: integral_mean(_F, 0.5, 2.0, tol=x),
    "mean_profile.p": lambda x: mean_profile(_F, x, (0.5,)),
    "verify_instance.p": lambda x: verify_instance(_F, _F, _W, x, 0.5),
    "verify_instance.tol": lambda x: verify_instance(_F, _F, _W, 2.0, 0.5, tol=x),
    "find_counterexample.p": lambda x: find_counterexample(x, 0.9, _W, n=5),
    "find_counterexample.quad_tol": lambda x: find_counterexample(0.5, 0.9, _W, quad_tol=x),
    "monomial_upper_bound.p": lambda x: monomial_upper_bound(x, _W),
    "monomial_upper_bound.quad_tol": lambda x: monomial_upper_bound(2.0, _W, quad_tol=x),
    "certification_scan.quad_tol": lambda x: certification_scan(_W, quad_tol=x),
    "moment.s": lambda x: moment(_W, x),
    "integrate.tol": lambda x: integrate(np.sin, 0.0, 1.0, x),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", NUMBER_ARGUMENTS.values(), ids=list(NUMBER_ARGUMENTS))
def test_non_finite_number_is_a_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)
