"""The adaptive Gauss-Legendre engine: accuracy, the level-by-level walk
of the panel tree against the depth-first reference walk, the walk of
many integrals at once against one walk per integral, and a walk whose
tolerances are relative to its own level 0 against a fresh walk."""
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korenblum.quadrature import _BLOCK_NODES, integrate, integrate_many

from oracles import depth_first_integrate

# (integrand, a, b, tol, breakpoints)
PANEL_TREE_CASES = {
    "sin": (np.sin, 0.0, np.pi, 1e-12, ()),
    # decisions at the rounding floor: the tree depends on the exact bits
    # of each panel sum
    "sin_rounding_floor": (np.sin, 0.0, np.pi, 1e-16, ()),
    "kink": (lambda x: np.abs(x - 1.0 / 3.0) ** 0.5, 0.0, 1.0, 1e-10, ()),
    "step": (lambda x: np.where(x < 0.3, 1.0, 2.0), 0.0, 1.0, 1e-12, (0.3,)),
    "endpoint": (lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, 1e-6, ()),
}


def _recording(f):
    calls = []

    def g(x):
        calls.append(np.array(x, dtype=float, copy=True))
        return f(x)

    return g, calls


class TestPanelTree:
    @pytest.mark.parametrize("case", sorted(PANEL_TREE_CASES))
    def test_same_tree_as_depth_first_walk(self, case):
        f, a, b, tol, cuts = PANEL_TREE_CASES[case]
        g_ref, ref_calls = _recording(f)
        ref_value, ref_err, deepest = depth_first_integrate(g_ref, a, b, tol, breakpoints=cuts)
        g, calls = _recording(f)
        value, err = integrate(g, a, b, tol, breakpoints=cuts)

        ref_nodes = np.sort(np.concatenate(ref_calls))
        nodes = np.sort(np.concatenate(calls))
        assert np.array_equal(nodes, ref_nodes)
        assert abs(value - ref_value) <= 1e-14
        assert abs(err - ref_err) <= 1e-14
        assert len(calls) <= deepest + 2
        assert all(x.ndim == 1 for x in calls)

    def test_integrand_calls_are_bounded(self):
        # 122,880 nodes at the deepest level: split into calls of at most
        # _BLOCK_NODES nodes, with the nodes and panel sums of one call
        f = lambda x: np.sin(10000.0 * x)
        g_ref, ref_calls = _recording(f)
        ref_value, _, _ = depth_first_integrate(g_ref, 0.0, 10.0, 1e-8)
        g, calls = _recording(f)
        value, _ = integrate(g, 0.0, 10.0, 1e-8)

        assert max(x.size for x in calls) <= _BLOCK_NODES
        assert sum(x.size for x in calls) > 2 * _BLOCK_NODES
        assert np.array_equal(np.sort(np.concatenate(calls)), np.sort(np.concatenate(ref_calls)))
        assert abs(value - ref_value) <= 1e-14


class TestQuadratureEngine:
    def test_smooth_integral(self):
        value, err = integrate(lambda x: np.sin(x), 0.0, np.pi, 1e-12)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert err <= 1e-12

    def test_breakpoints_handle_jumps(self):
        f = lambda x: np.where(x < 0.3, 1.0, 2.0)
        value, _ = integrate(f, 0.0, 1.0, 1e-12, breakpoints=(0.3,))
        assert value == pytest.approx(0.3 + 1.4, abs=1e-12)

    def test_endpoint_singularity_converges(self):
        # (1-x)^(-1/2) is integrable with integral 2
        value, _ = integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, 1e-6)
        assert value == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("tol", [1e-12, 1e-14])
    def test_err_est_covers_the_rounding_floor(self, tol):
        # below tol 1e-12 panels settle at the node-rounding floor, and each
        # counts that floor in err_est, which once read 7.7e-12 for an
        # error of 1.2e-11
        value, err = integrate(lambda x: np.exp(x) * np.sin(7.0 * x), 0.0, 10.0, tol)
        with mp.workdps(40):
            exact = mp.e**10 * (mp.sin(70) - 7 * mp.cos(70)) / 50 + mp.mpf(7) / 50
            actual = float(abs(mp.mpf(value) - exact))
        assert actual > 1e-12  # the value is no better than rounding allows
        assert err >= actual

    # a NaN or inf panel never settles, so the frontier used to double at
    # every level until memory ran out; nodes never touch 0 or 1, so
    # 1/(x - 1/4) first fails at the level whose middle node is 1/4
    @pytest.mark.parametrize(
        "f",
        [lambda x: np.full_like(x, np.nan), lambda x: np.full_like(x, np.inf), lambda x: 1.0 / (x - 0.25)],
        ids=["nan", "inf", "pole_at_a_node"],
    )
    def test_non_finite_panel_sum_raises(self, f):
        from korenblum import QuadratureDivergence

        with np.errstate(divide="ignore"), pytest.raises(QuadratureDivergence, match=r"\[0\.0, 1\.0\]"):
            integrate(f, 0.0, 1.0, 1e-9)

    def test_divergent_integrand_raises(self):
        from korenblum import QuadratureDivergence

        with pytest.raises(QuadratureDivergence):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-9)


def _kinked(amp, kink, power, freq):
    """Component k: amp_k |x - kink_k|^power_k + sin(freq_k x), elementwise
    in the nodes and their components."""
    amp, kink, power, freq = map(np.asarray, (amp, kink, power, freq))

    def f(x, comp):
        return amp[comp] * np.abs(x - kink[comp]) ** power[comp] + np.sin(freq[comp] * x)

    return f


_component = st.tuples(
    st.floats(0.1, 10.0),  # amplitude
    st.floats(0.0, 1.0),  # kink, as a share of [a, b]
    st.sampled_from([0.5, 1.0, 1.5, 3.0]),  # power at the kink
    st.floats(0.0, 300.0),  # frequency: many panels settle at one level
    st.integers(4, 14),  # tolerance 10^-k
)


class TestManyIntegrals:
    """integrate_many walks K panel trees at once; each component must come
    out bit for bit as it does from its own walk."""

    @settings(max_examples=40, deadline=None)
    @given(
        components=st.lists(_component, min_size=1, max_size=8),
        a=st.floats(-1.0, 1.0),
        width=st.floats(0.1, 3.0),
        cut_shares=st.lists(st.floats(0.01, 0.99), max_size=2),
    )
    def test_each_component_equals_its_own_walk(self, components, a, width, cut_shares):
        b = a + width
        amp, share, power, freq, digits = zip(*components)
        kink = [a + s * width for s in share]
        tols = [10.0**-k for k in digits]
        cuts = [a + s * width for s in cut_shares]
        f = _kinked(amp, kink, power, freq)

        batch = integrate_many(f, a, b, tols, breakpoints=cuts)
        for k, tol in enumerate(tols):
            alone = integrate(lambda x: f(x, np.full(x.size, k)), a, b, tol, breakpoints=cuts)
            assert batch[k] == alone

    def test_one_integrand_call_per_level(self):
        calls = []
        f = _kinked([1.0, 2.0, 0.5], [0.3, 0.6, 0.9], [0.5, 1.5, 3.0], [1.0, 5.0, 9.0])

        def recording(x, comp):
            calls.append(np.unique(comp).tolist())
            return f(x, comp)

        integrate_many(recording, 0.0, 1.0, [1e-10, 1e-6, 1e-12])
        # the first call has every component's coarse panels, each later one
        # the halves of every open panel of every component
        assert calls[0] == [0, 1, 2]
        depths = [
            depth_first_integrate(lambda x, k=k: f(x, np.full(x.size, k)), 0.0, 1.0, tol)[2]
            for k, tol in enumerate([1e-10, 1e-6, 1e-12])
        ]
        assert len(calls) == max(depths) + 2

    def test_nan_component_raises_naming_the_interval(self):
        from korenblum import QuadratureDivergence

        def f(x, comp):
            return np.where(comp == 1, np.nan, np.sin(x))

        with pytest.raises(QuadratureDivergence, match=r"\[0\.0, 2\.0\] met a non-finite"):
            integrate_many(f, 0.0, 2.0, [1e-9, 1e-9, 1e-9])

    def test_stuck_component_raises_with_its_own_tolerance(self):
        from korenblum import QuadratureDivergence

        # 1/x is finite at every node but its panel at 0 never settles
        def f(x, comp):
            return np.where(comp == 1, 1.0 / x, x)

        with pytest.raises(QuadratureDivergence, match=r"> tol 3\.700e-09 after 40 bisection"):
            integrate_many(f, 0.0, 1.0, [1e-9, 3.7e-9])

    def test_zero_width_interval(self):
        assert integrate_many(lambda x, comp: x, 0.5, 0.5, [1e-9, 1e-3]) == [(0.0, 0.0)] * 2

    def test_no_components(self):
        assert integrate_many(lambda x, comp: x, 0.0, 1.0, []) == []


def _recording_many(f):
    """f(x, comp), keeping the (x, comp) rows of every call."""
    rows = []

    def g(x, comp):
        rows.append(np.column_stack((x, comp)))
        return f(x, comp)

    return g, rows


class TestRelativeTolerance:
    """integrate_many(..., rtols=...) walks component k to
    min(tols[k], rtols[k] |v_k|), v_k its level-0 value: bit for bit a
    fresh walk at those tolerances, with no node evaluated twice."""

    F = staticmethod(
        _kinked([1.0, 2.0, 0.5, 3.0], [0.3, 0.6, 0.9, 0.45], [0.5, 1.5, 3.0, 1.0],
                [1.0, 50.0, 9.0, 200.0])
    )
    CUTS = (0.25, 0.7)
    T1 = [1e-6, 1e-6, 1e-4, 1e-3]
    # component 0 keeps its tolerance, the others go a little, a lot and
    # down to the rounding floor below it
    R = [1.0, 2e-7, 2.5e-12, 1e-300]

    @staticmethod
    def fresh_tols(f, a, b, tols, rtols, cuts=()):
        """min(tols, rtols |v0|), v0 the values of a walk whose tolerances
        every level-0 panel meets."""
        level0 = integrate_many(f, a, b, [sys.float_info.max] * len(tols), breakpoints=cuts)
        return [min(t, r * abs(v)) for t, r, (v, _) in zip(tols, rtols, level0)]

    @pytest.mark.parametrize("cuts", [(), CUTS], ids=["no_breakpoints", "breakpoints"])
    def test_equals_a_fresh_walk(self, cuts):
        fresh = self.fresh_tols(self.F, -0.5, 1.5, self.T1, self.R, cuts)
        assert fresh[0] == self.T1[0] and all(t < u for t, u in zip(fresh[1:], self.T1[1:]))
        relative = integrate_many(self.F, -0.5, 1.5, self.T1, breakpoints=cuts, rtols=self.R)
        assert relative == integrate_many(self.F, -0.5, 1.5, fresh, breakpoints=cuts)

    def test_equals_a_fresh_walk_at_the_node_rounding_floor(self):
        # the chirp's panels settle by node rounding, eps |mid| times the
        # halves' rises, at both tolerances
        def chirp(x, comp):
            return np.sin(2000.0 * x**2) * (1.0 + comp)

        rtols = [1e-10, 1e-11]
        fresh = self.fresh_tols(chirp, 0.0, 3.0, [1e-10, 1e-11], rtols)
        relative = integrate_many(chirp, 0.0, 3.0, [1e-10, 1e-11], rtols=rtols)
        assert relative == integrate_many(chirp, 0.0, 3.0, fresh)

    def test_each_panel_evaluated_once(self):
        g, rows = _recording_many(self.F)
        integrate_many(g, -0.5, 1.5, self.T1, breakpoints=self.CUTS, rtols=self.R)
        relative = np.concatenate(rows)
        assert np.unique(relative, axis=0).shape == relative.shape

    def test_calls_like_a_fresh_walk(self):
        # the same integrand calls, in the same order, as a fresh walk at
        # the tolerances rtols sets
        fresh_tols = self.fresh_tols(self.F, -0.5, 1.5, self.T1, self.R, self.CUTS)
        g, relative = _recording_many(self.F)
        integrate_many(g, -0.5, 1.5, self.T1, breakpoints=self.CUTS, rtols=self.R)
        g, fresh = _recording_many(self.F)
        integrate_many(g, -0.5, 1.5, fresh_tols, breakpoints=self.CUTS)
        assert len(relative) == len(fresh)
        assert all(np.array_equal(r, s) for r, s in zip(relative, fresh))

    def test_rtols_above_tols_change_nothing(self):
        g, rows = _recording_many(self.F)
        first = integrate_many(g, -0.5, 1.5, self.T1)
        calls = len(rows)
        assert integrate_many(g, -0.5, 1.5, self.T1, rtols=[1.0] * 4) == first
        assert len(rows) == 2 * calls

    def test_stuck_component_raises_as_a_fresh_walk(self):
        from korenblum import QuadratureDivergence

        # an undeclared jump hits MAX_DEPTH with an error of about 2.3e-14,
        # within tols but not within rtols |v| (about 1e-14)
        def f(x, comp):
            return np.where(comp == 1, (x >= 1.0 / 3.0).astype(float), np.cos(x))

        rtols = [1e-10, 1.5e-14]
        fresh_tols = self.fresh_tols(f, 0.0, 1.0, [1e-9, 1e-9], rtols)
        with pytest.raises(QuadratureDivergence) as fresh:
            integrate_many(f, 0.0, 1.0, fresh_tols)
        with pytest.raises(QuadratureDivergence) as relative:
            integrate_many(f, 0.0, 1.0, [1e-9, 1e-9], rtols=rtols)
        assert str(relative.value) == str(fresh.value)
        assert f"> tol {fresh_tols[1]:.3e} after 40 bisection levels" in str(fresh.value)

    @pytest.mark.parametrize(
        "rtols", [[1e-6, 1e-6, 1e-6], [1e-6, -1e-6, 1e-6, 1e-6], [1e-6, np.nan, 1e-6, 1e-6],
                  [1e-6, np.inf, 1e-6, 1e-6]],
        ids=["too_few", "negative", "nan", "inf"],
    )
    def test_refused_rtols(self, rtols):
        from korenblum import DomainError

        with pytest.raises(DomainError, match="rtol"):
            integrate_many(self.F, -0.5, 1.5, self.T1, rtols=rtols)

    def test_zero_width_interval(self):
        assert integrate_many(self.F, 0.5, 0.5, [1e-3, 1e-3], rtols=[0.0, 1e-9]) == [(0.0, 0.0)] * 2


class TestRoundingFloor:
    """A tolerance below the rounding of the integral settles each panel
    once its halves agree to 8 eps of their size, or to 8 eps of the
    shift that rounding the nodes makes, instead of splitting every panel
    to MAX_DEPTH."""

    def test_tolerance_below_rounding_settles(self):
        g, calls = _recording(np.sin)
        value, err = integrate(g, 0.0, np.pi, 1e-300)
        assert value == pytest.approx(2.0, rel=1e-15)
        assert err <= 1e-14
        assert sum(x.size for x in calls) < 1000

    def test_norm_at_tolerance_below_rounding(self):
        from korenblum import ConstantWeight, Polynomial, weighted_norm

        f, w = Polynomial((1.0, 2.0, 0.5)), ConstantWeight(1.0)
        fine = weighted_norm(f, w, 1.5, tol=1e-16)
        assert fine == pytest.approx(weighted_norm(f, w, 1.5, tol=1e-12), rel=1e-12)

    def test_node_rounding_settles_a_fast_chirp(self):
        # rounding x by eps |x| moves sin(2000 x^2) by up to 4e4 eps |x|:
        # over [0, 10] that is about 1e-10, far above tol, at every depth
        g, calls = _recording(lambda x: np.sin(2000.0 * x**2))
        value, _ = integrate(g, 0.0, 10.0, 1e-12)
        with mp.workdps(30):
            s = mp.sqrt(mp.pi / 4000)
            exact = float(s * mp.fresnels(10 / s))
        assert value == pytest.approx(exact, abs=1e-12)
        assert sum(x.size for x in calls) < 2_000_000

    def test_node_rounding_settles_below_reachable_tolerance(self):
        # a draw of test_each_component_equals_its_own_walk: its noise of
        # about 285 eps |x| per node is above tol = 1e-14 at every depth,
        # and the frontier used to double at each level up to 15 million panels
        amp, share, freq = 0.99, 0.5947527811844654, 285.4360666338655
        a, width = -0.8663643175629674, 2.7389441415257982
        b, kink = a + width, a + share * width
        cuts = [a + s * width for s in (0.14253651812878604, 0.3482760915008587)]
        g, calls = _recording(lambda x: amp * np.abs(x - kink) + np.sin(freq * x))
        value, _ = integrate(g, a, b, 1e-14, breakpoints=cuts)
        with mp.workdps(30):
            A, B, K, F = map(mp.mpf, (a, b, kink, freq))
            exact = amp * ((K - A) ** 2 + (B - K) ** 2) / 2 + (mp.cos(F * A) - mp.cos(F * B)) / F
            exact = float(exact)
        assert value == pytest.approx(exact, abs=1e-13)
        assert sum(x.size for x in calls) < 100_000
