import numpy as np
import pytest

from korenblum import DomainError, eval_F, eval_H, inverse_H

from oracles import mp_schuster_F


class TestEvalF:
    def test_small_c_limit_value(self):
        # F(rho, c) -> 2 rho/(1 + rho^2) as c -> 0+
        assert abs(eval_F(0.5, 1e-6) - 0.8) <= 1e-4

    def test_pinned_high_precision_point(self):
        # 60-digit evaluation: 0.8174632579200212453917786...
        assert eval_F(0.5, 0.01) == pytest.approx(0.8174632579200212, rel=1e-12)

    def test_near_boundary_point(self):
        # stays barely below 1 here; valid H, large
        assert eval_F(0.9, 0.24) == pytest.approx(0.9995820592449590, rel=1e-12)
        bound = eval_H(0.9, 0.24)
        assert bound.H is not None and bound.H == pytest.approx(34.57733164644842, rel=1e-10)

    @pytest.mark.parametrize("frac", [0.02, 0.25, 0.5, 0.75, 0.97])
    @pytest.mark.parametrize("c", [0.001, 0.05, 0.12, 0.2, 0.24])
    def test_oracle_agreement_sample(self, frac, c):
        rho = c + (1.0 - c) * frac
        assert eval_F(rho, c) == pytest.approx(float(mp_schuster_F(rho, c)), rel=1e-12)

    def test_positive_on_box(self):
        rhos = np.linspace(0.26, 0.99, 25)
        for c in (1e-4, 0.1, 0.2, 0.249):
            assert all(eval_F(float(r), c) > 0.0 for r in rhos)

    @pytest.mark.parametrize(
        "rho,c",
        [(0.5, 0.25), (0.5, 0.3), (0.5, 0.0), (0.5, -0.1), (0.1, 0.2), (1.0, 0.1), (0.05, 0.1)],
    )
    def test_domain_errors(self, rho, c):
        with pytest.raises(DomainError):
            eval_F(rho, c)
        with pytest.raises(DomainError):
            eval_H(rho, c)


class TestEvalH:
    @pytest.mark.parametrize("rho", [0.1 * k for k in range(1, 10)])
    def test_small_c_limit(self, rho):
        bound = eval_H(rho, 1e-5)
        assert bound.H is not None
        assert abs(bound.H - 2 * rho / (1 - rho * rho)) <= 1e-3

    def test_undefined_where_F_at_least_one(self):
        bound = eval_H(0.999, 0.24)
        assert bound.F >= 1.0
        assert bound.H is None

    def test_H_dominates_F(self):
        for rho in np.linspace(0.3, 0.97, 15):
            bound = eval_H(float(rho), 0.2)
            if bound.H is not None:
                assert bound.H >= bound.F

    def test_inverse_H_vectorized(self):
        rhos = np.linspace(0.3, 0.999, 50)
        inv = inverse_H(rhos, 0.24)
        assert inv.shape == rhos.shape
        assert np.all(inv >= 0.0)
        # vacuous region near rho = 1 contributes exactly 0
        assert inv[-1] == 0.0
        # agreement with the scalar path
        k = 10
        bound = eval_H(float(rhos[k]), 0.24)
        expected = 1.0 / bound.H if bound.H is not None else 0.0
        assert inverse_H(float(rhos[k]), 0.24) == pytest.approx(expected, rel=1e-14)


def below_one_window(c, samples=4096):
    """Hull of the sampled rho in (c, 1) where F(., c) < 1, i.e. 1/H > 0."""
    rho = np.linspace(c, 1.0, samples + 2)[1:-1]
    idx = np.nonzero(inverse_H(rho, c) > 0.0)[0]
    return (float(rho[idx[0]]), float(rho[idx[-1]])) if idx.size else None


class TestBelowOneWindow:
    def test_window_found_and_consistent(self):
        window = below_one_window(0.2)
        assert window is not None
        lo, hi = window
        assert 0.2 < lo < hi < 1.0
        assert eval_F(0.5 * (lo + hi), 0.2) < 1.0

    def test_window_shrinks_near_quarter(self):
        lo_small, hi_small = below_one_window(0.01)
        lo_big, hi_big = below_one_window(0.249)
        assert (hi_big - lo_big) < (hi_small - lo_small)
