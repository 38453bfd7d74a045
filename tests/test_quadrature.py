"""The adaptive Gauss-Legendre engine: accuracy, and the level-by-level
walk of the panel tree against the depth-first reference walk."""
import numpy as np
import pytest

from korenblum.quadrature import _BLOCK_NODES, integrate

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

    def test_divergent_integrand_raises(self):
        from korenblum import QuadratureDivergence

        with pytest.raises(QuadratureDivergence):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-9)
