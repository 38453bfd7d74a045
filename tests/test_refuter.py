import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korenblum
from korenblum import (
    ConstantWeight,
    CounterexampleWitness,
    DomainError,
    KorenblumError,
    NoWitnessFound,
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
    moment,
    monomial_upper_bound,
    weight_from_spec,
    weighted_norms,
)

from oracles import family_min_gap, std_final_lhs

QUAD_TOL = 1e-9

# pinned by the pre-build quadrature sweep at (p, c, w) = (0.5, 0.9, constant 1)
PINNED_WITNESS = dict(epsilon=0.45, gap=8.285435936473e-3, norm_f=0.20581630013400384,
                      norm_g=0.19753086419753085)
# and at (0.5, 0.5, standard alpha=1)
PINNED_STD1 = dict(epsilon=0.0625, gap=1.8122161866973574e-07)


class TestChooseN:
    @pytest.mark.parametrize("p,n", [(0.5, 5), (0.9, 21), (0.1, 3)])
    def test_examples(self, p, n):
        assert choose_n(p) == n

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            choose_n(p)

    @given(p=st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_minimality(self, p):
        n = choose_n(p)
        assert n * (1.0 - p) > 2.0
        assert (n - 1) * (1.0 - p) <= 2.0


class TestFamilyPair:
    def test_shape(self):
        f, g = family_pair(0.5, 5, 0.1)
        assert g.coeffs == (0j,) * 5 + (1 + 0j,)
        pref = 0.5**5 / (0.5**5 + 0.1**5)
        assert f.coeffs[0] == pytest.approx(pref * 0.1**5)
        assert f.coeffs[5] == pytest.approx(pref)

    def test_domain(self):
        with pytest.raises(DomainError):
            family_pair(0.5, 5, 0.6)
        with pytest.raises(DomainError):
            family_pair(0.5, 0, 0.1)

    # the sampled gap at the inner radius is ~ epsilon^n (1 - cos(n pi/256));
    # keep j n small enough that it stays above double rounding noise
    @pytest.mark.parametrize("n,j", [(3, 1), (3, 4), (3, 8), (5, 1), (5, 4), (8, 1), (8, 4)])
    @pytest.mark.parametrize("c", [0.3, 0.7])
    def test_domination_identity(self, n, c, j):
        # |f| <= |g| on the annulus across the scanned family
        f, g = family_pair(c, n, c * 2.0**-j)
        assert check_domination(f, g, c).conclusive


class TestExactFamilyDomination:
    """|f| <= |g| on c <= |z| < 1 is exact for the family, so a grid sample
    of |g| - |f| that reads below 0 is rounding noise, not a violation."""

    def test_sampled_inconclusive_pairs_dominate_exactly(self):
        inconclusive = []
        for c in (0.5, 0.6, 0.75, 0.9):
            for n in (3, 5, 8):
                for j in range(1, 49):
                    f, g = family_pair(c, n, c * 2.0**-j)
                    report = check_domination(f, g, c)
                    if not report.conclusive:
                        inconclusive.append((c, n, c * 2.0**-j, report.min_gap))
        assert len(inconclusive) == 37
        for c, n, eps, min_gap in inconclusive:
            assert -1e-15 < min_gap < 0.0
            for rho in (c, (1.0 + c) / 2.0, 1.0 - 1e-6):
                sampled, exact = family_min_gap(c, n, eps, rho)
                assert exact >= 0.0
                assert abs(sampled - exact) <= 1e-30

    def test_revalidates_a_witness_that_sampling_rejected(self):
        # the grid sample of this pair reads below 0 by rounding noise, which
        # used to reject it with "witness failed domination sampling"
        w = ConstantWeight(1.0)
        f, g = family_pair(0.9, 8, 0.9 * 2.0**-6)
        assert not check_domination(f, g, 0.9).conclusive
        norm_f, norm_g = weighted_norms([f, g], w, 0.05, tol=QUAD_TOL)
        gap = norm_f - norm_g
        assert gap == pytest.approx(3.75e-6, rel=1e-2)
        assert gap > 2 * QUAD_TOL


class TestFindCounterexample:
    def test_pinned_constant_weight_witness(self):
        witness = find_counterexample(0.5, 0.9, ConstantWeight(1.0), quad_tol=QUAD_TOL)
        assert witness.n == 5
        assert witness.epsilon == pytest.approx(PINNED_WITNESS["epsilon"], rel=1e-14)
        assert witness.gap == pytest.approx(PINNED_WITNESS["gap"], abs=1e-8)
        assert witness.norm_f == pytest.approx(PINNED_WITNESS["norm_f"], rel=1e-8)
        assert witness.norm_g == pytest.approx(PINNED_WITNESS["norm_g"], rel=1e-8)
        assert witness.gap > 2 * QUAD_TOL

    def test_pinned_standard_weight_witness(self):
        witness = find_counterexample(0.5, 0.5, StandardWeight(1.0), quad_tol=QUAD_TOL)
        assert witness.n == 5
        assert witness.epsilon == pytest.approx(PINNED_STD1["epsilon"], rel=1e-14)
        assert witness.gap == pytest.approx(PINNED_STD1["gap"], abs=1e-10)

    def test_step_weight_has_no_witness(self):
        with pytest.raises(NoWitnessFound) as err:
            find_counterexample(0.5, 0.2, StepWeight(0.5), quad_tol=QUAD_TOL)
        assert "ZeroNearOrigin" in str(err.value)

    def test_no_witness_states_the_search(self):
        # the scan's n and its epsilons; the liminf at 0 is context, not the
        # cause. A best gap below quad_tol ||g||, which the norms do not
        # resolve, is not printed, only that bound
        with pytest.raises(NoWitnessFound) as err:
            find_counterexample(0.5, 0.2, StepWeight(0.5), quad_tol=QUAD_TOL)
        [norm_g] = weighted_norms([Polynomial.monomial(5)], StepWeight(0.5), 0.5, tol=QUAD_TOL)
        assert str(err.value) == (
            "no epsilon reversed the norms at p=0.5, c=0.2: the scan took n=5 and "
            "epsilon = c 2^-j for j = 1..48, and no gap ||f|| - ||g|| reaches quad_tol "
            f"||g|| = {QUAD_TOL * norm_g:.2e} (liminf of w at 0: ZeroNearOrigin; the failure "
            "theorem for 0 < p < 1 assumes liminf w > 0, which this weight does not have)"
        )
        # a best gap the norms resolve is printed with its epsilon
        with pytest.raises(NoWitnessFound) as err:
            find_counterexample(0.55, 0.7, ConstantWeight(1.0), quad_tol=QUAD_TOL)
        message = str(err.value)
        assert message.startswith(
            "no epsilon reversed the norms at p=0.55, c=0.7: the scan took n=5 and "
            "epsilon = c 2^-j for j = 1..48, and its best gap ||f|| - ||g|| = "
        )
        best_j = int(re.search(r"\(j = (\d+)\)", message)[1])
        assert f"at epsilon = {0.7 * 2.0**-best_j!r} (j = {best_j}), " in message
        assert message.endswith(
            "is not above 2 quad_tol = 2e-09 (liminf of w at 0: PositiveLiminf; the failure "
            "theorem for 0 < p < 1 assumes liminf w > 0, which this weight has)"
        )
        # the theorem's assumption is named only for 0 < p < 1
        with pytest.raises(NoWitnessFound) as err:
            find_counterexample(2.0, 0.3, ConstantWeight(1.0), quad_tol=QUAD_TOL, n=5)
        assert str(err.value).endswith("(liminf of w at 0: PositiveLiminf)")

    def test_revalidates_at_finer_quadrature(self):
        witness = find_counterexample(0.5, 0.9, ConstantWeight(1.0), quad_tol=QUAD_TOL)
        pair = family_pair(witness.c, witness.n, witness.epsilon)
        norm_f, norm_g = weighted_norms(pair, ConstantWeight(1.0), witness.p, tol=QUAD_TOL / 10.0)
        finer_gap = norm_f - norm_g
        assert finer_gap > 2 * QUAD_TOL / 10.0
        assert finer_gap == pytest.approx(witness.gap, abs=1e-8)
        assert witness.n * (1.0 - witness.p) > 2.0

    def test_forced_n_allows_p_at_least_one(self):
        with pytest.raises(NoWitnessFound):
            find_counterexample(2.0, 0.3, ConstantWeight(1.0), quad_tol=QUAD_TOL, n=5)

    def test_unforced_needs_p_below_one(self):
        with pytest.raises(DomainError):
            find_counterexample(2.0, 0.3, ConstantWeight(1.0))

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            find_counterexample(0.5, 1.2, ConstantWeight(1.0))
        with pytest.raises(DomainError):
            find_counterexample(-0.5, 0.5, ConstantWeight(1.0))


class TestFinalInequality:
    def test_constant_weight_lhs(self):
        # int_0^1 (1 - r^{np}) 2r dr = np/(np+2), independent of epsilon
        for eps in (0.01, 0.004):
            chk = check_final_inequality(0.5, 0.5, ConstantWeight(1.0), 5, eps, QUAD_TOL)
            assert chk.lhs == pytest.approx(5.0 / 9.0, abs=1e-8)

    def test_rhs_values_and_verdicts(self):
        chk = check_final_inequality(0.5, 0.5, ConstantWeight(1.0), 5, 0.01, QUAD_TOL)
        assert chk.rhs == pytest.approx(0.7111111111111111, rel=1e-12)
        assert not chk.holds
        chk = check_final_inequality(0.5, 0.5, ConstantWeight(1.0), 5, 0.004, QUAD_TOL)
        assert chk.rhs == pytest.approx(0.44974615611283614, rel=1e-12)
        assert chk.holds

    def test_rhs_vanishes_with_epsilon(self):
        rhs = [
            check_final_inequality(0.5, 0.9, ConstantWeight(1.0), 5, eps, QUAD_TOL).rhs
            for eps in (0.1, 0.01, 0.001, 1e-6)
        ]
        assert all(b < a for a, b in zip(rhs, rhs[1:]))
        assert rhs[-1] < 1e-3

    def test_dilated_weight_sampling(self):
        # left side sees w near the origin: for the step weight it vanishes
        # whenever epsilon stays below the jump
        chk = check_final_inequality(0.5, 0.4, StepWeight(0.5), 5, 0.1, QUAD_TOL)
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert not chk.holds

    def test_dilated_table_weight(self):
        w = TableWeight(knots=(0.0, 0.5), values=(1.0, 0.0))
        chk = check_final_inequality(0.5, 0.4, w, 5, 0.2, QUAD_TOL)
        # w(0.2 r) is linear 1 -> 0.6 on [0,1]; lhs must be positive
        assert chk.lhs > 0.3

    @pytest.mark.parametrize(
        "alpha, c, eps, reference",
        [
            (1.0, 0.5, 0.3, 1.076495726495726497),
            (-0.5, 0.5, 0.3, 0.28226075911910217255),
            (-0.9, 0.999, 0.998, 0.10258456248927534047),
            # the family's smallest epsilon, where 1 - eps^2 rounds to 1
            (-0.5, 0.5, 0.5 * 2.0**-48, 5.0 / 18.0),
            (-0.9, 0.5, 1e-9, 1.0 / 18.0),
        ],
    )
    def test_standard_weight_lhs_against_mpmath(self, alpha, c, eps, reference):
        oracle = std_final_lhs(alpha, 2.5, eps)
        assert oracle == pytest.approx(reference, rel=1e-14)
        chk = check_final_inequality(0.5, c, StandardWeight(alpha), 5, eps, QUAD_TOL)
        assert chk.lhs == pytest.approx(oracle, abs=1e-8)

    def test_epsilon_below_tolerance_floor(self):
        # quad_tol epsilon^2 = 1e-409 is below the walk's tolerance floor,
        # where a walk would settle at once on a lost integral
        with pytest.raises(DomainError, match=r"epsilon = 1e-200: .* below 1e-300"):
            check_final_inequality(0.5, 0.5, ConstantWeight(1.0), 5, 1e-200, QUAD_TOL)

    def test_domain_checks(self):
        w = ConstantWeight(1.0)
        with pytest.raises(DomainError):
            check_final_inequality(0.5, 0.5, w, 3, 0.01, QUAD_TOL)  # n(1-p) = 1.5
        with pytest.raises(DomainError):
            check_final_inequality(0.5, 0.5, w, 5, 0.6, QUAD_TOL)  # eps >= c
        with pytest.raises(DomainError):
            check_final_inequality(1.5, 0.5, w, 5, 0.01, QUAD_TOL)

    def test_sufficiency_chain_sample(self):
        # wherever the sufficient inequality holds, the norms do reverse
        from korenblum import weighted_norm

        w = ConstantWeight(1.0)
        norm_g = weighted_norm(family_pair(0.9, 5, 0.45)[1], w, 0.5, tol=1e-10)
        seen_hold = seen_fail = False
        for c in (0.6, 0.9):
            for eps in (0.05, 0.15, 0.45):
                if eps >= c:
                    continue
                chk = check_final_inequality(0.5, c, w, 5, eps, QUAD_TOL)
                if chk.holds:
                    seen_hold = True
                    f, _ = family_pair(c, 5, eps)
                    norm_f = weighted_norm(f, w, 0.5, tol=1e-10)
                    assert norm_f > norm_g
                else:
                    seen_fail = True
        assert seen_hold and seen_fail


class TestMonomialUpperBound:
    def test_p2_constant(self):
        bound = monomial_upper_bound(2.0, ConstantWeight(1.0))
        assert bound.c_star == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert bound.c_star < bound.witness_c < 1.0

    def test_p1_constant(self):
        bound = monomial_upper_bound(1.0, ConstantWeight(1.0))
        assert bound.c_star == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_degrades_as_mass_concentrates_at_boundary(self):
        values = [
            monomial_upper_bound(2.0, StepWeight(R)).c_star
            for R in (0.5, 0.9, 0.99)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.98
        assert all(v < 1.0 for v in values)

    def test_upper_bound_exceeds_certified_radius(self):
        c_cert = certify(ConstantWeight(1.0), quad_tol=QUAD_TOL).c
        for p in (1.0, 2.0, 4.0):
            bound = monomial_upper_bound(p, ConstantWeight(1.0))
            assert c_cert < bound.c_star

    def test_domain(self):
        with pytest.raises(DomainError):
            monomial_upper_bound(0.0, ConstantWeight(1.0))

    def test_refuses_p_too_small_for_its_root(self):
        # c_star is a p-th root: its relative rounding error is eps/p
        with pytest.raises(DomainError, match="too small .* eps/p"):
            monomial_upper_bound(1e-14, ConstantWeight(1.0))

    def test_names_the_failed_part(self):
        # c_star = 1 - 5e-11 rounds to 1.0, above the largest witness radius
        with pytest.raises(KorenblumError, match=r"at p=1.0: witness_c > c_star does not hold"):
            monomial_upper_bound(1.0, StepWeight(0.9999999999))

    # the weight kinds of the pinned CLI reports
    @pytest.mark.parametrize("spec", [
        '{"kind":"constant","level":1}',
        '{"kind":"standard","alpha":-0.5}',
        '{"kind":"step","R":0.15}',
        '{"kind":"table","r":[0,0.3,0.7],"w":[1,0.4,1.6]}',
    ], ids=["constant", "standard", "step", "table"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_closed_form_matches_quadrature(self, monkeypatch, spec, p):
        # ||1||^p = m(0) and ||z/c||^p = m(p)/c^p, the two facts the bound
        # decides in closed form, against the radial quadrature
        w = weight_from_spec(spec)

        def no_walk(*args, **kwargs):
            raise AssertionError("monomial_upper_bound made a radial walk")

        with monkeypatch.context() as patch:
            patch.setattr(korenblum.weights, "integrate_many", no_walk)
            patch.setattr(korenblum.refuter, "weighted_norms", no_walk)
            bound = monomial_upper_bound(p, w)
        c = bound.witness_c
        unit, g = Polynomial((1.0,)), Polynomial((0.0, 1.0 / c))
        norm_unit, norm_g = weighted_norms([unit, g], w, p, tol=QUAD_TOL)
        assert norm_unit == pytest.approx(moment(w, 0.0) ** (1.0 / p), rel=QUAD_TOL)
        assert norm_g == pytest.approx((moment(w, p) / c**p) ** (1.0 / p), rel=QUAD_TOL)
        assert norm_g < norm_unit
        assert check_domination(unit, g, c * (1.0 + 1e-12)).conclusive


class TestImmunityAtCertifiedRadius:
    def test_no_witness_for_p_two(self):
        c_cert = certify(ConstantWeight(1.0), quad_tol=QUAD_TOL).c
        with pytest.raises(NoWitnessFound):
            find_counterexample(2.0, c_cert, ConstantWeight(1.0), quad_tol=QUAD_TOL, n=5)


class TestWitnessJson:
    def test_round_trip(self):
        # the refute report is asdict(witness)
        witness = find_counterexample(0.5, 0.9, ConstantWeight(1.0), quad_tol=QUAD_TOL)
        payload = json.loads(json.dumps(asdict(witness)))
        assert CounterexampleWitness(**payload) == witness
