import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest

from korenblum import (
    ConstantWeight,
    DomainError,
    NoCertificate,
    Polynomial,
    RadiusCertificate,
    StandardWeight,
    StepWeight,
    TableWeight,
    certification_scan,
    certify,
    check_domination,
    family_pair,
    random_dominating_pair,
    verify_instance,
    weight_from_spec,
    weighted_norm,
)
from korenblum import certifier
from korenblum.certifier import radius_grid

QUAD_TOL = 1e-9

# largest passing radii pinned by the pre-build scan at quad_tol 1e-9
PINNED_CONST1 = dict(c=0.18682104186142803, inner=0.03490210168218945, outer=0.05486705868055169)
PINNED_STEP05 = dict(c=0.22686557610436464, inner=0.0, outer=0.026572150271133077)
PINNED_STD2 = dict(c=0.1538448550966299, inner=0.06933742025050535, outer=0.10187354208689124)

TOP_DOWN_WEIGHTS = (
    ConstantWeight(1.0),
    *(StandardWeight(alpha) for alpha in (-0.95, -0.5, 1.0, 6.0)),
    StepWeight(0.15),
    StepWeight(0.8),
    TableWeight(knots=(0.0, 0.3, 0.7), values=(1.0, 0.4, 1.6)),
)


class TestCertify:
    def test_constant_weight_pinned(self):
        cert = certify(ConstantWeight(1.0), quad_tol=QUAD_TOL)
        assert cert.c == pytest.approx(PINNED_CONST1["c"], rel=1e-12)
        assert cert.inner == pytest.approx(PINNED_CONST1["inner"], rel=1e-8)
        assert cert.outer == pytest.approx(PINNED_CONST1["outer"], rel=1e-6)
        assert cert.margin > 2 * QUAD_TOL

    def test_step_weight_largest_grid_point(self):
        # inner mass vanishes below the jump, so every scanned radius passes
        cert = certify(StepWeight(0.5), quad_tol=QUAD_TOL)
        assert cert.c == pytest.approx(PINNED_STEP05["c"], rel=1e-12)
        assert cert.c == pytest.approx(radius_grid(64)[-1], rel=1e-14)
        assert cert.inner == 0.0
        assert cert.outer == pytest.approx(PINNED_STEP05["outer"], rel=1e-6)

    def test_standard_weight_pinned(self):
        cert = certify(StandardWeight(2.0), quad_tol=QUAD_TOL)
        assert cert.c == pytest.approx(PINNED_STD2["c"], rel=1e-12)
        assert cert.outer == pytest.approx(PINNED_STD2["outer"], rel=1e-6)

    def test_margin_stable_under_refinement(self):
        cert = certify(ConstantWeight(1.0), quad_tol=QUAD_TOL)
        from korenblum.certifier import _sides_at

        inner, outer = _sides_at(ConstantWeight(1.0), cert.c, QUAD_TOL / 10.0)
        assert abs((outer - inner) - cert.margin) <= QUAD_TOL

    def test_takes_no_p_and_is_deterministic(self):
        params = inspect.signature(certify).parameters
        assert "p" not in params
        a = certify(ConstantWeight(1.0))
        b = certify(ConstantWeight(1.0))
        assert a == b

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            certify(ConstantWeight(1.0), grid=16)

    def test_admissible_points_form_a_prefix(self, fixture_weights):
        # once a radius fails, all larger scanned radii fail too
        for w in fixture_weights:
            scan = certification_scan(w, quad_tol=QUAD_TOL)
            flags = [point.admissible for point in scan]
            assert flags == sorted(flags, reverse=True)
            assert any(flags)

    def test_scan_margins_match_certificate(self):
        scan = certification_scan(ConstantWeight(1.0), quad_tol=QUAD_TOL)
        best = [point for point in scan if point.admissible][-1]
        cert = certify(ConstantWeight(1.0), quad_tol=QUAD_TOL)
        assert best.c == cert.c and best.margin == cert.margin

    @pytest.mark.parametrize("grid", [32, 64, 128])
    @pytest.mark.parametrize("w", TOP_DOWN_WEIGHTS, ids=repr)
    def test_top_down_equals_last_admissible_of_full_scan(self, w, grid):
        scan = certification_scan(w, quad_tol=QUAD_TOL, grid=grid)
        best = [point for point in scan if point.admissible][-1]
        expected = RadiusCertificate(
            c=best.c, inner=best.inner, outer=best.outer, margin=best.margin, quad_tol=QUAD_TOL
        )
        assert certify(w, quad_tol=QUAD_TOL, grid=grid) == expected

    def test_stops_at_first_admissible_point_from_the_top(self, monkeypatch):
        # the full scan evaluates all 64 grid points; from the top down the
        # constant weight clears the margin within four
        calls = []
        sides_at = certifier._sides_at

        def counted(w, c, quad_tol):
            calls.append(c)
            return sides_at(w, c, quad_tol)

        monkeypatch.setattr(certifier, "_sides_at", counted)
        cert = certify(ConstantWeight(1.0), quad_tol=QUAD_TOL)
        assert 1 <= len(calls) <= 4
        assert calls == sorted(calls, reverse=True) and calls[-1] == cert.c

    def test_no_certificate_possible(self):
        # weight supported only on [0, 2e-7]: every scanned radius sees the
        # whole mass inside and nothing outside, so none can pass
        w = TableWeight(knots=(0.0, 1e-7, 2e-7), values=(1.0, 1.0, 0.0))
        with pytest.raises(NoCertificate) as exc:
            certify(w, quad_tol=QUAD_TOL)
        assert str(exc.value) == "no radius in (1e-06, 0.25) cleared margin 2*1e-09"


class TestCheckDomination:
    def test_inner_factor_dominates(self):
        g = Polynomial((0.4, -0.3, 1.0))
        f = Polynomial.monomial(1) * g
        report = check_domination(f, g, 0.5)
        assert report.conclusive and report.min_gap >= 0.0

    def test_family_pair_dominates_at_own_radius(self):
        f, g = family_pair(0.9, 5, 0.45)
        report = check_domination(f, g, 0.9)
        assert report.conclusive

    def test_constant_over_z_fails(self):
        report = check_domination(Polynomial((2.0,)), Polynomial((0, 1)), 0.5)
        assert report.min_gap < 0.0
        assert not report.conclusive

    def test_bad_inputs(self):
        f, g = Polynomial((1,)), Polynomial((0, 1))
        with pytest.raises(DomainError):
            check_domination(f, g, 0.0)


class TestVerifyInstance:
    def test_shifted_pair_holds(self, fixture_weights):
        g = Polynomial((1.0, 0.5, -0.25))
        f = Polynomial.monomial(2) * g
        for w in fixture_weights:
            report = verify_instance(f, g, w, 2.0, 0.3)
            assert report.dominates and report.principle_holds

    def test_witness_pair_violates_below_one(self):
        # the family reverses the norms at p = 1/2 while still dominating
        f, g = family_pair(0.9, 5, 0.45)
        report = verify_instance(f, g, ConstantWeight(1.0), 0.5, 0.9)
        assert report.dominates
        assert not report.principle_holds
        assert report.norm_f > report.norm_g

    def test_empirical_domination_sweep(self, rng, fixture_weights):
        # certified radius + conclusive domination => norm inequality, p >= 1
        certs = {w: certify(w, quad_tol=QUAD_TOL).c for w in fixture_weights}
        checked = 0
        for _ in range(60):
            f, g = random_dominating_pair(rng)
            w = fixture_weights[int(rng.integers(0, 3))]
            p = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
            c = certs[w]
            if not check_domination(f, g, c).conclusive:
                continue
            checked += 1
            report = verify_instance(f, g, w, p, c, tol=1e-8)
            assert report.principle_holds
        assert checked >= 50


class TestCertificateJson:
    def test_round_trip(self):
        # the certify report is asdict(cert) plus the weight spec
        w = StepWeight(0.5)
        cert = certify(w, quad_tol=QUAD_TOL)
        payload = json.loads(json.dumps(asdict(cert) | {"weight": w.to_spec()}))
        assert weight_from_spec(payload.pop("weight")) == w
        assert RadiusCertificate(**payload) == cert
