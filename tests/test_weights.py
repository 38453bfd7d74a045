import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta, betainc

from korenblum import (
    ConstantWeight,
    DomainError,
    OriginLiminf,
    StandardWeight,
    StepWeight,
    TableWeight,
    moment,
    monomial_upper_bound,
    weight_from_spec,
)
import korenblum.quadrature as quadrature

from oracles import const_moment, mp_moment, std_moment, step_moment

TOL = 1e-9


class TestMomentExamples:
    def test_constant_total_mass(self):
        assert moment(ConstantWeight(1.0), 0.0) == pytest.approx(1.0, abs=TOL)

    def test_constant_at_p(self):
        assert moment(ConstantWeight(1.0), 2.0) == pytest.approx(0.5, abs=TOL)

    def test_standard_alpha1_s2(self):
        # exact symbolic value: 4 int_0^1 r^3 (1 - r^2) dr = 1/3
        assert moment(StandardWeight(1.0), 2.0) == pytest.approx(1.0 / 3.0, abs=TOL)

    def test_step_total_mass(self):
        assert moment(StepWeight(0.5), 0.0) == pytest.approx(0.75, abs=TOL)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            moment(ConstantWeight(1.0), -0.5)


class TestInnerMassExamples:
    def test_constant(self):
        assert ConstantWeight(1.0).power_mass(0.0, 0.0, 0.2) == pytest.approx(0.04, abs=TOL)

    def test_step_below_jump(self):
        assert StepWeight(0.5).power_mass(0.0, 0.0, 0.3) == 0.0

    def test_standard_alpha0_matches_constant(self):
        assert StandardWeight(0.0).power_mass(0.0, 0.0, 0.5) == pytest.approx(0.25, abs=TOL)

    def test_monotone_in_c(self):
        w = StandardWeight(1.0)
        values = [w.power_mass(0.0, 0.0, c) for c in np.linspace(0.05, 0.95, 12)]
        assert all(b >= a - 2 * TOL for a, b in zip(values, values[1:]))


class TestLiminfHint:
    def test_constant(self):
        assert ConstantWeight(1.0).liminf_at_origin() is OriginLiminf.POSITIVE_LIMINF

    def test_standard(self):
        assert StandardWeight(-0.5).liminf_at_origin() is OriginLiminf.POSITIVE_LIMINF

    def test_step(self):
        assert StepWeight(0.5).liminf_at_origin() is OriginLiminf.ZERO_NEAR_ORIGIN

    def test_table_vanishing_at_origin(self):
        w = TableWeight(knots=(0.0, 0.5), values=(0.0, 1.0))
        assert w.liminf_at_origin() is OriginLiminf.ZERO_NEAR_ORIGIN

    def test_table_positive_at_origin(self):
        w = TableWeight(knots=(0.0, 0.5), values=(0.3, 1.0))
        assert w.liminf_at_origin() is OriginLiminf.POSITIVE_LIMINF


class TestClosedFormsAgainstOracles:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_constant_closed_form(self, s):
        assert abs(moment(ConstantWeight(1.0), s) - const_moment(s)) <= TOL

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.5, 7.0])
    def test_step_closed_form(self, s):
        w = StepWeight(0.5)
        assert abs(moment(w, s) - step_moment(s, 0.5)) <= TOL

    @pytest.mark.parametrize("alpha", [-0.5, -0.2, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [0.0, 0.7, 2.0, 5.0])
    def test_standard_quadrature_vs_beta(self, alpha, s):
        w = StandardWeight(alpha)
        assert moment(w, s) == pytest.approx(std_moment(s, alpha), abs=5 * TOL)

    def test_step_quadrature_path_matches_closed_form(self):
        # same integral through the generic engine instead of the primitive
        w = StepWeight(0.5)
        ss = np.array([0.0, 1.5, 4.0])
        quads = w.integrate_against(lambda r, comp: r ** ss[comp], 0.0, 1.0, [TOL] * ss.size)
        for s, (quad, _) in zip(ss, quads):
            assert quad == pytest.approx(step_moment(s, 0.5), abs=2 * TOL)

    def test_table_quadrature_path_matches_closed_form(self):
        w = TableWeight(knots=(0.0, 0.25, 0.6), values=(1.0, 0.2, 0.8))
        ss = np.array([0.0, 1.0, 3.5])
        quads = w.integrate_against(lambda r, comp: r ** ss[comp], 0.0, 1.0, [TOL] * ss.size)
        for s, (quad, _) in zip(ss, quads):
            assert quad == pytest.approx(moment(w, s), abs=2 * TOL)

    @pytest.mark.parametrize("spec", [
        {"kind": "constant", "level": 1.3},
        {"kind": "step", "R": 0.45},
        {"kind": "table", "r": [0.0, 0.25, 0.6], "w": [1.0, 0.2, 0.8]},
        # a falling piece whose primitive terms are about 250 times m(0)
        {"kind": "table", "r": [0.0, 0.5, 0.51], "w": [0.0, 1e300, 0.0]},
        {"kind": "standard", "alpha": 1.0},
        {"kind": "standard", "alpha": -0.5},
        {"kind": "standard", "alpha": 1e20},
    ], ids=["constant", "step", "table", "falling_table", "standard_1", "standard_-0.5",
            "standard_1e20"])
    def test_moment_error_bounds_the_error(self, spec):
        # the bound the even-p Parseval sum gates on, against 50-digit mpmath
        w = weight_from_spec(spec)
        for s in (0.0, 2.0, 10.0, 100.0, 1000.0, 8192.0):
            with mp.workdps(50):
                error = abs(mp.mpf(moment(w, s)) - mp_moment(spec, s))
            assert error <= w.moment_error(s), s


class TestPiecewisePartialRanges:
    """Closed-form power masses of the piecewise-linear kinds against their
    own quadrature path, on partial ranges [a, b] of [0, 1]."""

    CASES = [
        (ConstantWeight(0.7), 0.0, 0.4),
        (ConstantWeight(0.7), 0.2, 0.9),
        (ConstantWeight(0.7), 0.5, 1.0),
        (StepWeight(0.5), 0.3, 0.8),  # a < R < b
        (StepWeight(0.5), 0.1, 0.4),  # b < R
        (StepWeight(0.5), 0.2, 0.5),  # b == R
        (TableWeight(knots=(0.0, 0.25, 0.6), values=(1.0, 0.2, 0.8)), 0.1, 0.7),
        (TableWeight(knots=(0.0, 0.25, 0.6), values=(1.0, 0.2, 0.8)), 0.3, 0.95),
        (TableWeight(knots=(0.0, 0.25, 0.6), values=(0.0, 0.2, 0.8)), 0.2, 0.3),
    ]

    @pytest.mark.parametrize("s", [0.0, 1.5, 4.0])
    @pytest.mark.parametrize("w,a,b", CASES)
    def test_power_mass_matches_quadrature(self, w, a, b, s):
        closed = w.power_mass(s, a, b)
        [(quad, _)] = w.integrate_against(lambda r, comp: r**s, a, b, [TOL])
        assert closed == pytest.approx(quad, abs=2 * TOL)


class TestEqualShapesEqualNumbers:
    """A constant and a one-knot table of the same level are one shape, so
    every number the two give must be bit for bit the same."""

    CONST, TABLE = ConstantWeight(1.3), TableWeight(knots=(0.0,), values=(1.3,))

    @pytest.mark.parametrize("s,a,b", [(0.0, 0.0, 1.0), (2.5, 0.0, 1.0), (1.0, 0.2, 0.7)])
    def test_power_mass(self, s, a, b):
        assert self.CONST.power_mass(s, a, b) == self.TABLE.power_mass(s, a, b)

    @pytest.mark.parametrize(
        "phi",
        [
            lambda r, comp: r ** (comp + 0.5),
            lambda r, comp: np.cos(7.0 * r + comp),
            lambda r, comp: np.abs(r - 0.3 * (comp + 1)) ** 0.5,
        ],
        ids=["powers", "cosines", "kinks"],
    )
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.1, 0.8)])
    def test_integrate_against(self, phi, a, b):
        tols = [TOL, 1e-6, 1e-11]
        assert self.CONST.integrate_against(phi, a, b, tols) == self.TABLE.integrate_against(
            phi, a, b, tols
        )

    def test_liminf_at_origin(self):
        assert self.CONST.liminf_at_origin() is self.TABLE.liminf_at_origin()
        assert self.CONST.liminf_at_origin() is OriginLiminf.POSITIVE_LIMINF


def test_step_is_one_from_its_jump_on():
    r = np.array([0.0, 0.3, np.nextafter(0.45, 0.0), 0.45, np.nextafter(0.45, 1.0), 0.99])
    assert StepWeight(0.45).eval(r).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


class TestStandardClosedForms:
    @pytest.mark.parametrize("alpha", [-0.95, -0.5, 0.25, 6.0])
    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0, 2.0, 5.0, 17.0])
    def test_moment_against_beta(self, alpha, s):
        m = moment(StandardWeight(alpha), s)
        assert m == pytest.approx((alpha + 1.0) * beta(s / 2.0 + 1.0, alpha + 1.0), rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.95, -0.5, 0.25, 6.0])
    @pytest.mark.parametrize("a,b", [(0.0, 1e-6), (0.0, 0.3), (0.2, 0.9), (0.5, 1.0)])
    def test_partial_mass_against_betainc(self, alpha, a, b):
        # int_a^b 2 r w(r) dr = I_{b^2}(1, alpha+1) - I_{a^2}(1, alpha+1)
        value = StandardWeight(alpha).power_mass(0.0, a, b)
        expected = betainc(1.0, alpha + 1.0, b * b) - betainc(1.0, alpha + 1.0, a * a)
        assert value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.5, 1.0])
    def test_quadrature_paths_match_closed_form(self, alpha):
        # integrate_against (the substituted variable for alpha < 0) on the
        # full range and on a partial range, where a power mass with s > 0
        # has no closed form and is refused
        w = StandardWeight(alpha)
        ss = np.array([0.0, 1.5, 4.0])
        quads = w.integrate_against(lambda r, comp: r ** ss[comp], 0.0, 1.0, [TOL] * ss.size)
        for s, (quad, _) in zip(ss, quads):
            assert quad == pytest.approx(moment(w, s), abs=2 * TOL)
        a, b, s = 0.3, 0.8, 2.0
        with pytest.raises(DomainError, match="no closed form"):
            w.power_mass(s, a, b)
        [(partial, _)] = w.integrate_against(lambda r, comp: r**s, a, b, [TOL])
        h = s / 2.0 + 1.0
        full = (alpha + 1.0) * beta(h, alpha + 1.0)
        expected = full * (betainc(h, alpha + 1.0, b * b) - betainc(h, alpha + 1.0, a * a))
        assert partial == pytest.approx(expected, abs=2 * TOL)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5])
    @pytest.mark.parametrize("b", [1e-3, 1e-6, 1e-9])
    def test_walk_near_the_origin(self, alpha, b):
        # a walk short of r = 1 must stay in r: in v = (1-r^2)^{alpha+1}
        # the interval [0, 1e-9] has no width
        w = StandardWeight(alpha)
        [(quad, _)] = w.integrate_against(lambda r, comp: np.ones_like(r), 0.0, b, [TOL * b * b])
        assert quad == pytest.approx(w.power_mass(0.0, 0.0, b), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("alpha", [7.9, 8.0, 1e3, 1e8, 1e12, 1e15, 1e20, 1e100])
    @pytest.mark.parametrize("s", [0.3, 2.0, 7.0, 60.0])
    def test_moment_of_a_large_alpha(self, alpha, s):
        # lgamma(alpha + 1) - lgamma(alpha + 1 + h) cancels about eps alpha
        # log alpha: m(2) = 1/(alpha + 2) came out 3.2e-4 off at 1e12 and
        # 1e20 at 1e20. From alpha + 2 = 10 on Stirling's series takes it
        mp.mp.dps = 250
        h, a = mp.mpf(s) / 2 + 1, mp.mpf(alpha)
        expected = mp.exp(mp.loggamma(h) + mp.loggamma(a + 2) - mp.loggamma(a + 1 + h))
        if expected < 2.3e-308:
            assert moment(StandardWeight(alpha), s) < 2.3e-308
        else:
            assert moment(StandardWeight(alpha), s) == pytest.approx(float(expected), rel=1e-13)

    def test_c_star_of_arcsine_weight_is_quarter_pi(self):
        # m(1)/m(0) = (1/2) B(3/2, 1/2) = pi/4 for alpha = -1/2
        c_star = monomial_upper_bound(1.0, StandardWeight(-0.5)).c_star
        assert abs(c_star - math.pi / 4.0) <= math.ulp(math.pi / 4.0)


@pytest.mark.parametrize(
    "w",
    [ConstantWeight(1.0), StandardWeight(1.0), StandardWeight(-0.5)],
    ids=repr,
)
def test_integrate_against_no_components(w):
    assert w.integrate_against(lambda r, comp: r, 0.0, 1.0, []) == []


class TestIntegrateGraded:
    """int_0^1 2 r w(r) phi(r, k) dr for each component k, kinked at its
    centres: [0, 1] cut at the weight's knots and midway between
    neighbouring centres, each cell walked graded toward its own centre."""

    # (weight, w for mpmath, its knots)
    WEIGHTS = {
        "constant": (ConstantWeight(2.0), lambda r: 2, ()),
        "step": (StepWeight(0.45), lambda r: 1 if r >= 0.45 else 0, (0.45,)),
        "table": (TableWeight(knots=(0.0, 0.35, 0.6), values=(0.0, 1.2, 0.6)),
                  lambda r: (1.2 * r / 0.35 if r < 0.35
                             else 1.2 - 2.4 * (r - 0.35) if r < 0.6 else 0.6),
                  (0.35, 0.6)),
        "standard": (StandardWeight(1.5), lambda r: 2.5 * (1 - r * r) ** 1.5, ()),
    }
    # the centres of each component: one below the step's knot, the step's
    # knot with a second centre, whose midway cut 0.69 is no knot, and one
    # on a table knot
    CENTRES = ((0.3,), (0.45, 0.93), (0.6,))

    @staticmethod
    def _kinked(r, comp):
        # prod_c |r - c|^1.5 e^r over the centres c of each node's component
        out = np.exp(r)
        for k, cs in enumerate(TestIntegrateGraded.CENTRES):
            own = comp == k
            for c in cs:
                out[own] *= np.abs(r[own] - c) ** 1.5
        return out

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_against_mpmath(self, name):
        w, w_mp, knots = self.WEIGHTS[name]
        results = w.integrate_graded(self._kinked, self.CENTRES, [1e-13] * len(self.CENTRES))
        for cs, (value, err) in zip(self.CENTRES, results):
            with mp.workdps(30):
                reference = mp.quad(
                    lambda r: 2 * r * w_mp(r) * mp.exp(r) * mp.fprod(abs(r - c) ** 1.5 for c in cs),
                    sorted({0, 1, *cs, *knots}),
                )
            assert value == pytest.approx(float(reference), rel=1e-12, abs=1e-13)
            assert err <= 1e-13

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_each_component_alone_equals_the_batch(self, name):
        w = self.WEIGHTS[name][0]
        tols, rtols = [1e-10] * len(self.CENTRES), [1e-12] * len(self.CENTRES)
        batch = w.integrate_graded(self._kinked, self.CENTRES, tols, rtols=rtols)
        for k, cs in enumerate(self.CENTRES):
            [alone] = w.integrate_graded(lambda r, comp, k=k: self._kinked(r, comp + k),
                                         [cs], [1e-10], rtols=[1e-12])
            assert alone == batch[k]

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_each_centre_has_its_cell(self, name, monkeypatch):
        # the two-centre component at tol 1e-13 takes 11 to 51 panels; with
        # one cell per weight piece, all graded toward 0.45, it took 79 to 123
        w = self.WEIGHTS[name][0]
        panels, panel_sums = [0], quadrature._panel_sums

        def counted(f, lo, hi, comp):
            panels[0] += lo.size
            return panel_sums(f, lo, hi, comp)

        monkeypatch.setattr(quadrature, "_panel_sums", counted)
        w.integrate_graded(lambda r, comp: self._kinked(r, comp + 1), [(0.45, 0.93)], [1e-13])
        assert panels[0] <= 64

    def test_no_components(self):
        assert ConstantWeight(1.0).integrate_graded(self._kinked, [], []) == []

    def test_a_component_needs_a_centre(self):
        with pytest.raises(DomainError, match="at least one centre"):
            ConstantWeight(1.0).integrate_graded(self._kinked, [(0.3,), ()], [1e-9] * 2)

    def test_unbounded_weight_is_refused(self):
        with pytest.raises(DomainError, match="bounded"):
            StandardWeight(-0.5).integrate_graded(self._kinked, [[0.5]], [1e-9])


class TestInvariants:
    @given(
        s1=st.floats(min_value=0.0, max_value=20.0),
        s2=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_moment_nonincreasing_in_exponent(self, s1, s2):
        lo, hi = min(s1, s2), max(s1, s2)
        w = StandardWeight(1.0)
        assert moment(w, hi) <= moment(w, lo) + 2 * TOL

    @pytest.mark.parametrize("c", [0.1, 0.35, 0.6, 0.9])
    def test_mass_additivity(self, c, fixture_weights):
        for w in fixture_weights:
            total = moment(w, 0.0)
            inner = w.power_mass(0.0, 0.0, c)
            outer = w.power_mass(0.0, c, 1.0)
            assert inner + outer == pytest.approx(total, abs=2 * TOL)


class TestConstruction:
    def test_standard_non_integrable_rejected(self):
        with pytest.raises(DomainError):
            StandardWeight(-1.0)
        with pytest.raises(DomainError):
            StandardWeight(-1.5)

    def test_constant_zero_rejected(self):
        with pytest.raises(DomainError):
            ConstantWeight(0.0)

    def test_step_bad_radius_rejected(self):
        for R in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                StepWeight(R)

    def test_table_validation(self):
        with pytest.raises(DomainError):
            TableWeight(knots=(0.1, 0.5), values=(1.0, 1.0))  # must start at 0
        with pytest.raises(DomainError):
            TableWeight(knots=(0.0, 1.0), values=(1.0, 1.0))  # last knot < 1
        with pytest.raises(DomainError):
            TableWeight(knots=(0.0, 0.5, 0.4), values=(1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            TableWeight(knots=(0.0, 0.5), values=(1.0, -1.0))
        with pytest.raises(DomainError):
            TableWeight(knots=(0.0, 0.5), values=(0.0, 0.0))  # zero mass

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "constant", "level": 1e308},
         {"kind": "table", "r": [0.0, 0.5], "w": [1e308, 1e308]}],
        ids=["constant", "table"],
    )
    def test_total_mass_must_be_finite(self, spec):
        with pytest.raises(DomainError, match="weight total mass must be a finite number > 0"):
            weight_from_spec(spec)

    def test_beta_moment_overflow_is_a_domain_error(self):
        # lgamma(1 + s/2) overflows at s = 1e308; alpha = 1e308, whose
        # lgamma(alpha + 1) overflowed, now has m(2) = 1/(alpha + 2)
        w = StandardWeight(1.0)
        assert moment(w, 0.0) == 1.0
        with pytest.raises(DomainError, match="overflows a float in log-Gamma"):
            moment(w, 1e308)
        assert moment(StandardWeight(1e308), 2.0) == pytest.approx(1e-308, rel=1e-13)

    def test_table_constant_extension_beyond_last_knot(self):
        w = TableWeight(knots=(0.0, 0.5), values=(0.0, 2.0))
        assert float(w.eval(0.9)) == 2.0


class TestJsonSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "constant", "level": 1.0},
            {"kind": "standard", "alpha": 0.0},
            {"kind": "step", "R": 0.5},
            {"kind": "table", "r": [0.0, 0.5], "w": [0.0, 1.0]},
        ],
    )
    def test_round_trip(self, spec):
        w = weight_from_spec(spec)
        assert weight_from_spec(w.to_spec()) == w

    def test_string_input(self):
        w = weight_from_spec('{"kind":"constant","level":1.0}')
        assert isinstance(w, ConstantWeight)

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            '{"kind":"nope"}',
            '{"kind":"constant"}',
            '{"level": 1.0}',
            '{"kind":"standard","alpha":-2}',
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DomainError):
            weight_from_spec(bad)

