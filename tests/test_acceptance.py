"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import time

import numpy as np
import pytest

from korenblum import (
    ConstantWeight,
    NoWitnessFound,
    Polynomial,
    StandardWeight,
    StepWeight,
    certify,
    check_domination,
    check_final_inequality,
    eval_F,
    eval_H,
    family_pair,
    find_counterexample,
    integral_mean,
    monomial_upper_bound,
    random_dominating_pair,
    revalidate_witness,
    verify_instance,
    weighted_norm,
)
from korenblum.certifier import _sides_at

from oracles import const_moment, mp_schuster_F, parseval_norm, std_moment, step_moment

QUAD_TOL = 1e-9
SWEEP_TOL = 1e-8

CONST1 = ConstantWeight(1.0)
STD1 = StandardWeight(1.0)
STEP05 = StepWeight(0.5)

# certified radius for the constant weight, pinned by the pre-build scan
PINNED_CERT_C = 0.18682104186142803


def report(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[acceptance {num:2d}] {verdict} ({elapsed:6.2f}s / {limit:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit:.0f}s budget"


def test_criterion_01_schuster_limit():
    start = time.monotonic()
    worst = 0.0
    for k in range(1, 10):
        rho = k / 10.0
        bound = eval_H(rho, 1e-5)
        worst = max(worst, abs(bound.H - 2 * rho / (1 - rho * rho)))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-3, elapsed, 1.0, f"max |H - limit| = {worst:.3e}")


def test_criterion_02_schuster_oracle_agreement():
    start = time.monotonic()
    worst = 0.0
    for j in range(20):
        c = 0.25 * (j + 0.5) / 20.0
        for i in range(20):
            rho = c + (1.0 - c) * (i + 0.5) / 20.0
            mine = eval_F(rho, c)
            exact = float(mp_schuster_F(rho, c, dps=60))
            worst = max(worst, abs(mine - exact) / abs(exact))
    elapsed = time.monotonic() - start
    report(2, worst <= 1e-12, elapsed, 10.0, f"max rel error on 20x20 grid = {worst:.3e}")


def test_criterion_03_certificate_exists_and_is_stable():
    start = time.monotonic()
    cert = certify(CONST1, quad_tol=QUAD_TOL)
    inner, outer = _sides_at(CONST1, cert.c, QUAD_TOL / 10.0)
    drift = abs((outer - inner) - cert.margin)
    ok = (
        cert.c >= 0.01
        and cert.margin > 2 * QUAD_TOL
        and drift <= QUAD_TOL
        and cert.c == pytest.approx(PINNED_CERT_C, rel=1e-12)
    )
    elapsed = time.monotonic() - start
    report(3, ok, elapsed, 30.0, f"c = {cert.c:.6f}, margin = {cert.margin:.3e}, drift = {drift:.2e}")


def test_criterion_04_empirical_domination_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(20240405)
    weights = (CONST1, STD1, STEP05)
    certified = {w: certify(w, quad_tol=QUAD_TOL).c for w in weights}
    p_grid = (1.0, 1.5, 2.0, 4.0)
    verified = 0
    violations = 0
    while verified < 500:
        f, g = random_dominating_pair(rng)
        w = weights[int(rng.integers(0, 3))]
        p = float(rng.choice(p_grid))
        c = certified[w]
        if not check_domination(f, g, c).conclusive:
            continue
        verified += 1
        result = verify_instance(f, g, w, p, c, tol=SWEEP_TOL)
        if not result.principle_holds:
            violations += 1
    elapsed = time.monotonic() - start
    report(4, violations == 0, elapsed, 300.0,
           f"{verified} verified pairs, {violations} norm violations")


def test_criterion_05_refutation_witness():
    start = time.monotonic()
    witness = find_counterexample(0.5, 0.9, CONST1, quad_tol=QUAD_TOL)
    finer = revalidate_witness(witness, CONST1, QUAD_TOL / 10.0)
    ok = (
        witness.n == 5
        and witness.gap > 1e-6
        and check_domination(*family_pair(0.9, witness.n, witness.epsilon), 0.9).conclusive
        and finer.gap > 2 * QUAD_TOL / 10.0
    )
    elapsed = time.monotonic() - start
    report(5, ok, elapsed, 30.0,
           f"epsilon = {witness.epsilon}, gap = {witness.gap:.6e}, refined gap = {finer.gap:.6e}")


def test_criterion_06_sufficiency_chain():
    start = time.monotonic()
    norm_g = weighted_norm(Polynomial.monomial(5), CONST1, 0.5, tol=1e-10)
    holds = fails = exceptions = 0
    for c in np.linspace(0.55, 0.95, 10):
        for eps in np.geomspace(0.05, 0.42, 10):
            chk = check_final_inequality(0.5, float(c), CONST1, 5, float(eps), QUAD_TOL)
            if not chk.holds:
                fails += 1
                continue
            holds += 1
            f, _ = family_pair(float(c), 5, float(eps))
            if not weighted_norm(f, CONST1, 0.5, tol=1e-10) > norm_g:
                exceptions += 1
    ok = exceptions == 0 and holds >= 10 and fails >= 10
    elapsed = time.monotonic() - start
    report(6, ok, elapsed, 120.0,
           f"{holds} holding points, {fails} failing points, {exceptions} exceptions")


def test_criterion_07_monomial_bound():
    start = time.monotonic()
    bound = monomial_upper_bound(2.0, CONST1)
    g = Polynomial((0.0, 1.0 / 0.71))
    dom = check_domination(Polynomial((1.0,)), g, 0.71 * (1.0 + 1e-12))
    norm_g = weighted_norm(g, CONST1, 2.0, tol=QUAD_TOL)
    ok = (
        abs(bound.c_star - 0.7071068) <= 1e-6
        and dom.conclusive
        and norm_g < 1.0
    )
    elapsed = time.monotonic() - start
    report(7, ok, elapsed, 5.0,
           f"c_star = {bound.c_star:.7f}, ||z/0.71|| = {norm_g:.6f}")


def test_criterion_08_exact_norms_and_parseval():
    start = time.monotonic()
    worst_monomial = 0.0
    for n in range(1, 6):
        for p in (0.5, 1.0, 2.0, 3.0):
            value = weighted_norm(Polynomial.monomial(n), CONST1, p, tol=QUAD_TOL)
            exact = (2.0 / (n * p + 2.0)) ** (1.0 / p)
            worst_monomial = max(worst_monomial, abs(value - exact) / exact)

    rng = np.random.default_rng(11)
    weights = (CONST1, STD1, STEP05)
    oracles = (const_moment, lambda s: std_moment(s, 1.0), lambda s: step_moment(s, 0.5))
    worst_parseval = 0.0
    for k in range(100):
        degree = int(rng.integers(0, 9))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = Polynomial(tuple(coeffs))
        if f.is_zero:
            continue
        value = weighted_norm(f, weights[k % 3], 2.0, tol=QUAD_TOL)
        exact = parseval_norm(f.coeffs, oracles[k % 3])
        worst_parseval = max(worst_parseval, abs(value - exact) / exact)
    ok = worst_monomial <= 1e-9 and worst_parseval <= 1e-8
    elapsed = time.monotonic() - start
    report(8, ok, elapsed, 60.0,
           f"monomial rel err {worst_monomial:.2e}, Parseval rel err {worst_parseval:.2e}")


def test_criterion_09_step_weight_example():
    from korenblum.analytic import _mean_pow_batch
    from korenblum.quadrature import integrate

    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(6):
        degree = int(rng.integers(1, 7))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = Polynomial(tuple(coeffs))
        if k < 4:
            # p = 2: restriction value in closed form from the coefficients
            full = weighted_norm(f, STEP05, 2.0, tol=1e-12) ** 2
            restricted = sum(
                abs(a) ** 2 * step_moment(2.0 * j, 0.5) for j, a in enumerate(f.coeffs)
            )
        else:
            # p = 1: independent radial integration of the same circle means
            full = weighted_norm(f, STEP05, 1.0, tol=1e-12)

            def phi(r, f=f):
                vals, _ = _mean_pow_batch(f, np.asarray(r, dtype=float), 1.0, 2.5e-13)
                return 2.0 * r * vals

            restricted, _ = integrate(phi, 0.5, 1.0, 1e-14)
        worst = max(worst, abs(full - restricted) / restricted)

    violations = 0
    checked = 0
    while checked < 100:
        f, g = random_dominating_pair(rng)
        p = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        result = verify_instance(f, g, STEP05, p, 0.5, tol=1e-7)
        if not result.dominates:
            continue
        checked += 1
        if not result.principle_holds:
            violations += 1
    ok = worst <= 1e-12 and violations == 0
    elapsed = time.monotonic() - start
    report(9, ok, elapsed, 60.0,
           f"restriction rel err {worst:.2e}; {checked} pairs at c=R, {violations} violations")


def test_criterion_10_immunity_for_p_at_least_one():
    start = time.monotonic()
    c_cert = certify(CONST1, quad_tol=QUAD_TOL).c
    attempts = 0
    surprises = []
    for p in (1.0, 2.0, 4.0):
        for n in (5, 10, 20, 40):
            attempts += 1
            try:
                witness = find_counterexample(p, c_cert, CONST1, quad_tol=QUAD_TOL, n=n)
                surprises.append((p, n, witness.gap))
            except NoWitnessFound:
                pass
    elapsed = time.monotonic() - start
    report(10, not surprises, elapsed, 120.0,
           f"{attempts} scans at c = {c_cert:.6f}, witnesses found: {surprises}")
