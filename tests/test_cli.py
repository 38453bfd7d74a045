import argparse
import csv
import json
from dataclasses import fields

import mpmath as mp
import numpy as np
import pytest

from korenblum import (
    CounterexampleWitness,
    InstanceReport,
    QuadratureDivergence,
    RadiusCertificate,
    RadiusUpperBound,
    certifier,
    certify,
    cli,
    find_counterexample,
    weight_from_spec,
)
from korenblum.cli import SWEEP_HEADER, main
from oracles import circle_mean, mp_binomial_norms, mp_parseval_norm, mp_weight

CONST1 = '{"kind":"constant","level":1}'


def _binomial_mean(a, b, p):
    """M_p^p of a + b z on the unit circle, a, b >= 0, by mpmath's hyp2f1."""
    hi, lo = max(a, b), min(a, b)
    return hi**p * mp.hyp2f1(-p / 2, -p / 2, 1, (lo / hi) ** 2) if hi else 0

STEP05 = '{"kind":"step","R":0.5}'
#: a step so close to 1 that c_star lies above 1 - 1e-6
STEP_NEAR_1 = '{"kind":"step","R":0.9995}'


def run_cli(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestNorm:
    def test_monomial_norm(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", CONST1
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["norm"] - np.sqrt(0.5)) <= 1e-9
        assert payload["weight"] == {"kind": "constant", "level": 1.0}

    def test_human_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", CONST1,
            "--output", "human",
        )
        assert code == 0
        assert out.split() == ["norm", "0.707106781187"]

    def test_poly_json_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--poly", '{"coeffs": [[0,0],[1,0]]}', "--p", "2",
            "--weight", CONST1,
        )
        assert code == 0
        assert abs(json.loads(out)["norm"] - np.sqrt(0.5)) <= 1e-9

    def test_divergence_exit_3(self, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise QuadratureDivergence("quadrature on [0.0, 1.0] met a non-finite panel sum")

        monkeypatch.setattr(cli, "weighted_norm", diverge)
        code, out, err = run_cli(capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", CONST1)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "korenblum norm: quadrature on [0.0, 1.0] met a non-finite panel sum"
        ]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_integrand_warns_nothing(self, capsys):
        # 1e300 times |30000 + 1e-9 z|^2.01 overflows the radial integrand
        # of the plain walk (the binomial's kink radius is far outside the
        # disk): the walk's non-finite panel check reports it, with no
        # numpy RuntimeWarning before the one diagnostic line. The norm
        # (about 1.6e151) is representable, so this exit 3 may later
        # become a success.
        weight = '{"kind":"table","r":[0,0.5,0.51],"w":[0,1e300,0]}'
        code, out, err = run_cli(capsys, "norm", "--poly", "30000,1e-9", "--p", "2.01", "--weight", weight)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "korenblum norm: quadrature on [0.0, 1.0] met a non-finite panel sum"
        ]
        # at p = 2 Parseval's sum 30000^2 m(0) + 1e-18 m(2) overflows
        # nothing; m(0), whose primitive terms on the weight's falling
        # piece are about 250 times its size, is 7e-15 off
        code, out, err = run_cli(capsys, "norm", "--poly", "30000,1e-9", "--p", "2", "--weight", weight)
        assert (code, err) == (0, "")
        expected = mp_parseval_norm((30000.0, 1e-9), 2, json.loads(weight))
        assert json.loads(out)["norm"] == pytest.approx(expected, rel=1e-13)
        # the constant 30000 walks nothing: 30000 m(0)^(1/2) in closed form
        code, out, err = run_cli(capsys, "norm", "--poly", "30000", "--p", "2", "--weight", weight)
        assert (code, err) == (0, "")
        mass = weight_from_spec(weight).power_mass(0.0, 0.0, 1.0)
        assert json.loads(out)["norm"] == 30000.0 * mass**0.5

    def test_unresolved_weight_mass_exit_2(self, capsys):
        # the mass of a standard weight with alpha = 1e20 lies within about
        # 1e-10 of r = 0, where the coarse walk finds 0 for a nonzero f
        weight = '{"kind":"standard","alpha":1e20}'
        code, out, err = run_cli(capsys, "norm", "--poly", "1,2", "--p", "3", "--weight", weight)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "korenblum norm: the weight's mass m(0) = 1 was not resolved: the radial "
            "quadrature of ||f||^p at tolerance 2.700e-02 found 0 for a nonzero f"
        ]
        # at p = 2 Parseval's sum m(0) + 4 m(2) needs no walk
        code, out, err = run_cli(capsys, "norm", "--poly", "1,2", "--p", "2", "--weight", weight)
        assert (code, err) == (0, "")
        expected = mp_parseval_norm((1.0, 2.0), 2, json.loads(weight))
        assert json.loads(out)["norm"] == pytest.approx(expected, rel=1e-15)

    def test_tolerance_underflow_exit_2(self, capsys):
        # (sum |a_k|)^p = 0.5^999 puts the coarse tolerance of the graded
        # walk (kink radius 0.002) under 1e-300 (p = 1000 takes Parseval's
        # sum: test_even_p_norm_takes_parseval)
        code, out, err = run_cli(
            capsys, "norm", "--poly", "0.001,0.499", "--p", "999", "--weight", CONST1
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "korenblum norm: p = 999.0 is out of range: the radial quadrature "
            "tolerance of ||f||^p, 1.867e-304, falls below 1e-300"
        ]

    @pytest.mark.parametrize(
        "command", [("norm", "--weight", CONST1), ("means",)], ids=["norm", "means"]
    )
    def test_two_polys_rejected(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--poly", "0,1", "--poly", "1", "--p", "2")
        assert code == 2
        assert out == ""
        assert f"korenblum {command[0]}: {command[0]} requires exactly one --poly" in err


class TestMeans:
    def test_monotone_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "means", "--poly", "1,1", "--p", "1", "--grid", "16"
        )
        assert code == 0
        payload = json.loads(out)
        values = payload["values"]
        assert len(values) == 16
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "means", "--poly", "0,0,1", "--p", "1", "--grid", "16",
            "--output", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,mean"
        assert len(lines) == 17

    def test_radius_at_a_root_modulus(self, capsys):
        # np.roots puts the root -0.3 of -0.15 - 0.2 z + z^2 exactly on the
        # grid radius 0.3; that row used to double to the angular cap and
        # print 0.16409993641791806, 5.3e-8 relative from mpmath
        code, out, err = run_cli(capsys, "means", "--poly=-0.15,-0.2,1", "--p", "0.5",
                                 "--grid", "9")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["radii"][2] == 0.3
        expected = circle_mean((-0.15, -0.2, 1.0), 0.3, 0.5) ** 2  # 0.16409994513495551
        assert payload["values"][2] == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("poly, p, report", [
        # a binomial, in closed form
        ("1,1", "1", "r,mean\n"
         "0.111111111111,1.00308880864\n0.222222222222,1.01238426268\n"
         "0.333333333333,1.02797628346\n0.444444444444,1.05002506243\n"
         "0.555555555556,1.07878016911\n0.666666666667,1.11461748102\n"
         "0.777777777778,1.15811593428\n0.888888888889,1.21025077341\n"),
        # 0.3 - z + z^3, with a root at |z| = 0.786 between two grid radii
        ("0.3,-1,0,1", "1.5", "r,mean\n"
         "0.111111111111,0.315272830393\n0.222222222222,0.359432138305\n"
         "0.333333333333,0.428920686523\n0.444444444444,0.51977559973\n"
         "0.555555555556,0.628072194953\n0.666666666667,0.757429342523\n"
         "0.777777777778,0.917282919596\n0.888888888889,1.12146239259\n"),
        # 0.1 - z^2 + z^4, a polynomial in z^2 with roots at |z| = 0.336 and 0.942
        ("0.1,0,-1,0,1", "1", "r,mean\n"
         "0.111111111111,0.100381170648\n0.222222222222,0.106132305446\n"
         "0.333333333333,0.132238824727\n0.444444444444,0.202883009454\n"
         "0.555555555556,0.308662487184\n0.666666666667,0.450501636779\n"
         "0.777777777778,0.638510001025\n0.888888888889,0.89304719344\n"),
    ], ids=["binomial", "cubic", "quartic-in-z2"])
    def test_pinned_csv_report(self, capsys, poly, p, report):
        code, out, err = run_cli(
            capsys, "means", "--poly", poly, "--p", p, "--grid", "8", "--output", "csv"
        )
        assert (code, err) == (0, "")
        assert out == report


class TestCertify:
    def test_constant_weight(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--weight", CONST1)
        assert code == 0
        payload = json.loads(out)
        w = weight_from_spec(CONST1)
        assert weight_from_spec(payload.pop("weight")) == w
        cert = RadiusCertificate(**payload)
        assert cert == certify(w)
        assert cert.margin > 0
        assert cert.c == pytest.approx(0.18682104186142803, rel=1e-12)

    def test_no_certificate_exit_code(self, capsys):
        spec = '{"kind":"table","r":[0.0, 1e-7, 2e-7],"w":[1.0, 1.0, 0.0]}'
        code, out, err = run_cli(capsys, "certify", "--weight", spec)
        assert code == 1
        assert "NoCertificate" in json.loads(out)["reason"]
        assert err.strip()

    def test_no_certificate_csv(self, capsys):
        spec = '{"kind":"table","r":[0.0, 1e-7, 2e-7],"w":[1.0, 1.0, 0.0]}'
        _, out, _ = run_cli(capsys, "certify", "--weight", spec)
        detail = json.loads(out)["detail"]
        code, out, _ = run_cli(capsys, "certify", "--weight", spec, "--output", "csv")
        assert code == 1
        assert "," in detail  # the CSV writer must quote it
        assert list(csv.reader(out.splitlines())) == [
            ["found", "reason", "detail"],
            ["false", "NoCertificate", detail],
        ]


class TestRefute:
    def test_witness_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "refute", "--p", "0.5", "--c", "0.9", "--weight", CONST1
        )
        assert code == 0
        witness = CounterexampleWitness(**json.loads(out))
        assert witness == find_counterexample(0.5, 0.9, weight_from_spec(CONST1))
        assert witness.n == 5
        assert witness.gap > 1e-6

    def test_no_witness_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "refute", "--p", "0.5", "--c", "0.2", "--weight", STEP05
        )
        assert code == 1
        assert json.loads(out)["found"] is False
        assert "ZeroNearOrigin" in err

    def test_no_witness_detail_is_pinned(self, capsys):
        # the best gap of this scan is rounding noise, printed as 6.939e-16
        # on AVX-512 kernels and 7.216e-16 on AVX2's: the detail names only
        # the bound quad_tol ||g|| that it misses, the same on every CPU
        code, out, err = run_cli(capsys, "refute", "--p", "0.5297938131590573", "--c", "0.65",
                                 "--weight", '{"kind":"step","R":0.3}')
        assert code == 1
        detail = (
            "no epsilon reversed the norms at p=0.5297938131590573, c=0.65: the scan took "
            "n=5 and epsilon = c 2^-j for j = 1..48, and no gap ||f|| - ||g|| reaches "
            "quad_tol ||g|| = 2.02e-10 (liminf of w at 0: ZeroNearOrigin; the failure "
            "theorem for 0 < p < 1 assumes liminf w > 0, which this weight does not have)"
        )
        assert json.loads(out) == {"detail": detail, "found": False, "reason": "NoWitnessFound"}
        assert detail in err

    def test_forced_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "refute", "--p", "0.5", "--c", "0.9", "--weight", CONST1,
            "--n", "7",
        )
        assert code == 0
        assert json.loads(out)["n"] == 7

    def test_tiny_p_witness(self, capsys):
        # p tol = 1e-15 >= eps: the p-th roots meet tol, and the witness stands
        code, out, _ = run_cli(
            capsys, "refute", "--p", "1e-8", "--c", "0.5", "--tol", "1e-7", "--weight", CONST1
        )
        assert code == 0
        assert json.loads(out)["gap"] == pytest.approx(1.78e-3, abs=5e-6)


class TestBound:
    def test_p2(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--p", "2", "--weight", CONST1)
        assert code == 0
        payload = json.loads(out)
        assert payload["c_star"] == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert payload["witness_c"] > payload["c_star"]

    def test_failed_self_check_is_a_negative_result(self, capsys):
        # at R this close to 1, c_star = 1 - 5e-11 rounds above the largest
        # witness radius 1 - 1e-9, so the pair (1, z/c) decides nothing: a
        # negative result record with exit 1, not a traceback
        code, out, err = run_cli(
            capsys, "bound", "--p", "1", "--weight", '{"kind":"step","R":0.9999999999}'
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["found"] is False
        assert payload["reason"] == "KorenblumError"
        assert payload["detail"].startswith("monomial bound verification failed at p=1.0")
        assert payload["detail"] in err

    def test_c_star_above_one_minus_1e_6(self, capsys):
        # ||z/c|| = 0.031611 < ||1|| = 0.031619 at witness_c = 1 - 1e-9
        code, out, err = run_cli(capsys, "bound", "--p", "2", "--weight", STEP_NEAR_1)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["c_star"] == 0.9997500312578435
        assert payload["witness_c"] == 1.0 - 1e-9

    @pytest.mark.parametrize(
        "weight",
        ['{"kind":"table","r":[0,1e-7,2e-7],"w":[1,1,0]}', '{"kind":"standard","alpha":1000}'],
        ids=["table", "standard"],
    )
    def test_underflowed_moment_exit_2(self, capsys, weight):
        # m(1e6) underflows to 0.0, which made c_star = 0 and ended in a
        # ZeroDivisionError traceback at 1 / witness_c
        code, out, err = run_cli(capsys, "bound", "--p", "1e6", "--weight", weight)
        assert code == 2
        assert out == ""
        assert "moment m(p) underflows at p = 1000000.0: m(p) = 0.0" in err

    @pytest.mark.parametrize("p", ["1e-13", "1e-14"])
    def test_p_too_small_for_its_root_exit_2(self, capsys, p):
        # c_star = (m(p)/m(0))^(1/p) turns the ratio's rounding eps into
        # eps/p: at p = 1e-13 it read 0.6067731014109617 against the exact
        # (2/(2+p))^(1/p) = 0.60653066, and at 1e-14 its check failed (exit 1)
        code, out, err = run_cli(capsys, "bound", "--p", p, "--weight", CONST1)
        assert code == 2
        assert out == ""
        assert f"eps/p = {np.finfo(float).eps / float(p):.3e}" in err

    def test_smallest_p_its_root_allows(self, capsys):
        # p 1e-9 >= eps: c_star is within 1e-9 of (2/(2+p))^(1/p) = 0.6065306824575313
        code, out, err = run_cli(
            capsys, "bound", "--p", "3e-7", "--weight", CONST1, "--output", "csv"
        )
        assert (code, err) == (0, "")
        row = out.splitlines()[1].split(",")
        assert row[:2] == ["3e-07", "0.606530682581"]
        assert float(row[1]) == pytest.approx(0.6065306824575313, rel=1e-9)

    def test_no_tol_flag(self, capsys):
        # the bound is decided in closed form and takes no tolerance
        code, out, err = run_cli(capsys, "bound", "--p", "2", "--tol", "1e-9", "--weight", CONST1)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err


class TestVerify:
    def test_two_polys(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--poly", "0,0.5", "--poly", "0,1",
            "--p", "2", "--c", "0.5", "--weight", CONST1,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dominates"] is True
        assert payload["principle_holds"] is True

    def test_one_poly_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--poly", "0,1", "--p", "2", "--c", "0.5",
            "--weight", CONST1,
        )
        assert code == 2
        assert "two --poly" in err

    def test_random_sweep_no_violations(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "2", "--c", "0.18", "--weight", CONST1,
            "--seed", "7", "--count", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["conclusive"] >= 1

    def test_random_sweep_samples_domination_once_per_pair(self, capsys, monkeypatch):
        calls = []
        check = certifier.check_domination

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(certifier, "check_domination", counted)
        code, _, _ = run_cli(
            capsys, "verify", "--p", "2", "--c", "0.18", "--weight", CONST1,
            "--seed", "7", "--count", "8",
        )
        assert code == 0
        assert len(calls) == 8

    def test_near_root_report_is_pinned(self, capsys):
        # f = z g at p = 1, with g's roots at moduli 0.45 and 1.6: the
        # graded walk of each norm is graded toward 0.45 in r, and its
        # radial nodes next to 0.45 switch to the control variate of that
        # root. Reference: QUADPACK in r,
        # with 0.45 as a breakpoint, over mpmath circle means split at the
        # roots' arguments (estimated error 1.3e-13 and 2.9e-15)
        f = ('{"coeffs":[[0.0,0.0],[1.038897546081614,0.14586410298052038],'
             '[-1.7682983986165577,-0.6955234255325711],[-1.2008062553292007,0.8252910543661071]]}')
        g = ('{"coeffs":[[1.038897546081614,0.14586410298052038],'
             '[-1.7682983986165577,-0.6955234255325711],[-1.2008062553292007,0.8252910543661071]]}')
        code, out, err = run_cli(
            capsys, "verify", "--poly", f, "--poly", g, "--p", "1.0",
            "--c", "0.10659979976020419", "--weight", CONST1,
        )
        assert (code, err) == (0, "")
        # the references first, so that a change of the bytes below cannot
        # hide a miss of them
        payload = json.loads(out)
        assert payload["norm_f"] == pytest.approx(1.2619959959327256, rel=1e-12)
        assert payload["norm_g"] == pytest.approx(1.7439044504269687, rel=1e-12)
        assert out == (
            "{\n"
            '  "dominates": true,\n'
            '  "norm_f": 1.2619959959327258,\n'
            '  "norm_g": 1.743904450426968,\n'
            '  "principle_holds": true\n'
            "}\n"
        )


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "0.5,1,2", "--weight", CONST1
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        half, one, two = (line.split(",") for line in lines[1:])
        assert half[1] == "" and half[3] in ("true", "false") and half[4] == "ok"
        assert one[1] != "" and one[3] == "" and one[4] == "ok"
        assert two[1] == one[1]  # certified radius does not depend on p
        assert float(half[2]) == pytest.approx(0.64, abs=1e-9)

    def test_row_of_a_p_too_small_for_its_root(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--p", "1e-14,1", "--weight", CONST1)
        assert code == 1
        assert out == SWEEP_HEADER + "\n1e-14,,,,DomainError\n1,0.186821041861,0.666666666667,,ok\n"
        assert "korenblum sweep: p = 1e-14: p = 1e-14 is too small" in err
        assert f"eps/p = {np.finfo(float).eps / 1e-14:.3e}" in err

    def test_tol_reaches_the_moment_bound(self, capsys):
        # p = 1e-8 is too small for the default tol 1e-9 (eps/p = 2.2e-8),
        # but --tol 1e-7 allows it in the bound as in the refutation
        code, out, err = run_cli(
            capsys, "sweep", "--p", "1e-8", "--tol", "1e-7", "--weight", CONST1
        )
        assert code == 0 and err == ""
        row = dict(zip(SWEEP_HEADER.split(","), out.splitlines()[1].split(",")))
        assert row["status"] == "ok"
        assert row["c_star_upper"] == "0.606530660798"

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "2", "--weight", CONST1, "--output", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["c_star_upper"] == pytest.approx(np.sqrt(0.5), abs=1e-9)

    @pytest.mark.parametrize(
        "p, weight, statuses",
        [
            ("0.5,2", STEP_NEAR_1, ["ok", "ok"]),
            # all mass within 2e-7 of the origin: no grid radius certifies
            ("0.5,2", '{"kind":"table","r":[0,1e-7,2e-7],"w":[1,1,0]}', ["ok", "no_certificate"]),
            # m(1e6) = 4 B(500001, 4) = 3.8e-22 in closed form, with no walk
            ("0.5,1e6", '{"kind":"standard","alpha":3}', ["ok", "ok"]),
            # m(1e6) = 1001 B(500001, 1001) underflows to 0.0
            ("0.5,1e6", '{"kind":"standard","alpha":1000}', ["ok", "DomainError"]),
        ],
        ids=["step-near-1", "no-certificate", "exact-bound", "domain-error"],
    )
    def test_row_statuses(self, capsys, p, weight, statuses):
        code, out, _ = run_cli(
            capsys, "sweep", "--p", p, "--weight", weight, "--output", "json"
        )
        assert [row["status"] for row in json.loads(out)["rows"]] == statuses
        assert code == (0 if statuses == ["ok", "ok"] else 1)

    def test_failed_row_keeps_certified_radius_and_says_why(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--p", "2,1e6", "--weight", '{"kind":"standard","alpha":1000}'
        )
        assert code == 1
        assert out.splitlines()[1:] == [
            "2,0.0149612963509,0.0315912011803,,ok",
            "1000000,0.0149612963509,,,DomainError",
        ]
        [line] = err.splitlines()
        assert line.startswith("korenblum sweep: p = 1000000: moment m(p) underflows")

    def test_no_certificate_is_said_once(self, capsys):
        weight = '{"kind":"table","r":[0,1e-7,2e-7],"w":[1,1,0]}'
        code, out, err = run_cli(capsys, "sweep", "--p", "1,2,4", "--weight", weight)
        assert code == 1
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["no_certificate"] * 3
        [line] = err.splitlines()
        assert line.startswith("korenblum sweep: no radius in")


CSV_CASES = {
    "certify": (("certify", "--weight", CONST1), RadiusCertificate),
    "refute": (("refute", "--p", "0.5", "--c", "0.9", "--weight", CONST1), CounterexampleWitness),
    "bound": (("bound", "--p", "2", "--weight", CONST1), RadiusUpperBound),
    "verify": (
        ("verify", "--poly", "0,0.5", "--poly", "0,1", "--p", "2", "--c", "0.5", "--weight", CONST1),
        InstanceReport,
    ),
}


@pytest.mark.parametrize("argv, result_type", CSV_CASES.values(), ids=list(CSV_CASES))
def test_csv_row_is_the_json_result(capsys, argv, result_type):
    _, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0
    header, row = csv.reader(out.splitlines())
    assert header == [f.name for f in fields(result_type)]
    assert set(header) == {k for k, v in payload.items() if not isinstance(v, (dict, list))}
    for key, cell in zip(header, row):
        value = payload[key]
        assert cell == (json.dumps(value) if isinstance(value, bool) else f"{value:.12g}")


PINNED_WEIGHTS = {
    "constant": CONST1,
    "standard": '{"kind":"standard","alpha":-0.5}',
    "step": '{"kind":"step","R":0.15}',
    "table": '{"kind":"table","r":[0,0.3,0.7],"w":[1,0.4,1.6]}',
}
PINNED_COMMANDS = {
    "certify": ("certify",),
    "bound": ("bound", "--p", "2"),
    "refute": ("refute", "--p", "0.5", "--c", "0.9"),
    "sweep": ("sweep", "--p", "0.5,1,2"),
}
CERTIFY_HEADER = "c,inner,outer,margin,quad_tol\n"
BOUND_HEADER = "p,c_star,witness_c\n"
REFUTE_HEADER = "p,c,n,epsilon,norm_f,norm_g,gap\n"
#: the full CSV report of each (command, weight), numbers as %.12g
PINNED_REPORTS = {
    ("certify", "constant"): CERTIFY_HEADER
    + "0.186821041861,0.0349021016822,0.0548670586805,0.0199649569983,1e-09\n",
    ("certify", "standard"): CERTIFY_HEADER
    + "0.226865576104,0.0260739194483,0.0262334669411,0.000159547492845,1e-09\n",
    ("certify", "step"): CERTIFY_HEADER
    + "0.226865576104,0.0289679896212,0.0378022118913,0.00883422227014,1e-09\n",
    ("certify", "table"): CERTIFY_HEADER
    + "0.226865576104,0.035899569466,0.0461468837092,0.0102473142432,1e-09\n",
    ("bound", "constant"): BOUND_HEADER + "2,0.707106781187,0.707813887968\n",
    ("bound", "standard"): BOUND_HEADER + "2,0.816496580928,0.817313077509\n",
    ("bound", "step"): BOUND_HEADER + "2,0.715017482304,0.715732499786\n",
    ("bound", "table"): BOUND_HEADER + "2,0.759372568236,0.760131940804\n",
    ("refute", "constant"): REFUTE_HEADER
    + "0.5,0.9,5,0.45,0.205816300134,0.197530864198,0.00828543593648\n",
    ("refute", "standard"): REFUTE_HEADER
    + "0.5,0.9,5,0.225,0.389822779507,0.389749762926,7.30165811331e-05\n",
    ("refute", "step"): REFUTE_HEADER
    + "0.5,0.9,5,0.45,0.203094484069,0.197453412124,0.00564107194445\n",
    ("refute", "table"): REFUTE_HEADER
    + "0.5,0.9,5,0.225,0.459361319656,0.45908727733,0.000274042325497\n",
    ("sweep", "constant"): SWEEP_HEADER + "\n"
    "0.5,,0.64,true,ok\n"
    "1,0.186821041861,0.666666666667,,ok\n"
    "2,0.186821041861,0.707106781187,,ok\n",
    ("sweep", "standard"): SWEEP_HEADER + "\n"
    "0.5,,0.763909535336,true,ok\n"
    "1,0.226865576104,0.785398163397,,ok\n"
    "2,0.226865576104,0.816496580928,,ok\n",
    ("sweep", "step"): SWEEP_HEADER + "\n"
    "0.5,,0.658179271944,false,ok\n"
    "1,0.226865576104,0.679710144928,,ok\n"
    "2,0.226865576104,0.715017482304,,ok\n",
    ("sweep", "table"): SWEEP_HEADER + "\n"
    "0.5,,0.7139324748,true,ok\n"
    "1,0.226865576104,0.732232462878,,ok\n"
    "2,0.226865576104,0.759372568236,,ok\n",
}


@pytest.mark.parametrize("command, weight", PINNED_REPORTS, ids=[f"{c}-{w}" for c, w in PINNED_REPORTS])
def test_pinned_csv_report(capsys, command, weight):
    if command == "refute":
        # the references first, so that a change of the bytes below cannot
        # hide a miss of them: both norms by 30-digit mpmath, the hyp2f1
        # mean integrated with splits at epsilon and at the weight's knots
        code, out, _ = run_cli(capsys, *PINNED_COMMANDS[command], "--weight", PINNED_WEIGHTS[weight])
        assert code == 0
        report = json.loads(out)
        c, n, eps = report["c"], report["n"], report["epsilon"]
        k = c**n / (c**n + eps**n)
        w = mp_weight(json.loads(PINNED_WEIGHTS[weight]))
        [norm_f] = mp_binomial_norms(report["p"], k * eps**n, k, n, [w])
        [norm_g] = mp_binomial_norms(report["p"], 0.0, 1.0, n, [w])
        assert report["norm_f"] == pytest.approx(norm_f, rel=1e-12)
        assert report["norm_g"] == pytest.approx(norm_g, rel=1e-12)
        assert report["gap"] == pytest.approx(norm_f - norm_g, abs=1e-12 * norm_g)
    code, out, _ = run_cli(
        capsys, *PINNED_COMMANDS[command], "--weight", PINNED_WEIGHTS[weight], "--output", "csv"
    )
    assert code == 0
    assert out == PINNED_REPORTS[command, weight]


class TestDeterminismAndErrors:
    def test_byte_identical_reports(self, capsys):
        args = ("verify", "--p", "2", "--c", "0.18", "--weight", CONST1,
                "--seed", "3", "--count", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_bad_weight_json_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", "{broken"
        )
        assert code == 2
        assert err.strip()

    def test_missing_required_flag_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "refute", "--p", "0.5", "--weight", CONST1)
        assert code == 2

    def test_nonpositive_tol_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", CONST1, "--tol", "0"
        )
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--p", "2", "--c", "0.18", "--weight", CONST1,
            "--seed", "-1", "--count", "1",
        )
        assert code == 2
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("norm", "--poly", "1,2", "--p", "nan", "--weight", CONST1), "--p"),
            (("norm", "--poly", "1,2", "--p", "inf", "--weight", CONST1), "--p"),
            (("norm", "--poly", "1,2", "--p", "2", "--tol", "inf", "--weight", CONST1), "--tol"),
            (("bound", "--p", "nan", "--weight", CONST1), "--p"),
            (("sweep", "--p", "0.5,nan", "--weight", CONST1), "--p"),
            (("sweep", "--p", "0.5,2", "--n", "0", "--weight", CONST1), "--n"),
            (("verify", "--p", "2", "--c", "0.5", "--count", "-1", "--weight", CONST1), "--count"),
            (("means", "--poly", "1,2", "--p", "nan"), "--p"),
            (("certify", "--grid", "0", "--weight", CONST1), "--grid"),
            (("means", "--poly", "nan,1", "--p", "2"), "--poly"),
            (("means", "--poly", "1,inf", "--p", "2"), "--poly"),
            (("norm", "--poly", "inf,1", "--p", "2", "--weight", CONST1), "--poly"),
            (("norm", "--poly", '{"coeffs": [1e999]}', "--p", "2", "--weight", CONST1), "--poly"),
            (("norm", "--poly", '{"coeffs": "12"}', "--p", "2", "--weight", CONST1), "--poly"),
            (("verify", "--poly", "0,nan", "--poly", "0,1", "--p", "2", "--c", "0.5",
              "--weight", CONST1), "--poly"),
        ],
        ids=["p-nan", "p-inf", "tol-inf", "bound-p-nan", "sweep-p-nan", "sweep-n-0",
             "count-negative", "means-p-nan", "grid-0", "means-poly-nan", "means-poly-inf",
             "norm-poly-inf", "norm-poly-json-inf", "norm-poly-json-string", "verify-poly-nan"],
    )
    def test_bad_number_exit_2(self, capsys, argv, flag):
        # before the flag was checked, NaN or inf p hung the solver and a
        # negative --count read as an empty clean sweep
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize("p", ["1e4", "1e5"])
    def test_large_p_norm_of_one(self, capsys, p):
        # the closed form of a constant needs neither the binomial series
        # nor the Gamma ratio at x = 1, both of which overflow at such p
        code, out, err = run_cli(capsys, "norm", "--poly", "1", "--p", p, "--weight", CONST1)
        assert code == 0
        assert err == ""
        assert json.loads(out)["norm"] == 1.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("norm", "--poly", "1,2", "--p", "999", "--weight", CONST1),
             "p = 999.0 is too large: (sum |a_k|)^p"),
            (("norm", "--poly", "0.5,1", "--p", "1101", "--weight", CONST1),
             "p = 1101.0 is too large: the series coefficient"),
            (("means", "--poly", "0.5,1", "--p", "1030", "--grid", "1"),
             "p = 1030.0 is too large: Gamma(1 + p)/Gamma(1 + p/2)^2"),
            (("means", "--poly", "1,2", "--p", "1000", "--grid", "4"),
             "p = 1000.0 is too large: the circle mean M_p^p"),
            (("means", "--poly", "1,1", "--p", "1033", "--grid", "99"),
             "p = 1033.0 is too large: the circle mean M_p^p"),
            (("norm", "--poly", "1e10,1e10,1e10", "--p", "1", "--weight", '{"kind":"constant","level":1e300}'),
             "p = 1.0: the scale (sum |a_k|)^p m(0) of the radial tolerance overflows a float"),
            (("norm", "--poly", "1", "--p", "0.5", "--weight", '{"kind":"constant","level":1e300}'),
             "p = 0.5: the norm (int 2 r w M_p^p dr)^(1/p) overflows a float"),
            (("bound", "--p", "1e308", "--weight", '{"kind":"standard","alpha":1}'),
             "B(s/2 + 1, alpha + 1) overflows a float in log-Gamma at s = 1e+308"),
        ],
        ids=["p-th-power", "binomial-series", "gamma-ratio", "circle-mean",
             "integral-circle-mean", "coarse-scale", "norm-root", "beta-moment"],
    )
    def test_large_p_overflow_exit_2(self, capsys, argv, message):
        # 3^999, the series coefficients C(550.5, k)^2, at r = 0.5 where
        # x = 1, Gamma(1031)/Gamma(516)^2, M_p^p of 1 + 2z at r = 0.6
        # (about 2.2^1000), the integral form's peak (1 + x)^1033 of 1 + z
        # at r = 0.99, which the walk would meet as a non-finite panel
        # sum, 3e10 times the weight's mass 1e300 (which used
        # to be refused as an infinite tol), the square of ||1||^p = 1e300,
        # and lgamma(1 + 1e308/2) overflow a float: bad input, not a
        # traceback and not Infinity in the report
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--poly", "1e308,1e308", "--p", "2"),
            ("norm", "--poly", "1e308,1e308,1e308", "--p", "4"),
            ("verify", "--poly", "1e308,1e308", "--poly", "1e308,1e308", "--p", "2", "--c", "0.5"),
            ("norm", "--poly", "1e308,1e308", "--p", "1"),
        ],
        ids=["parseval", "parseval-trinomial", "verify", "walk"],
    )
    def test_huge_coefficients_exit_2(self, capsys, argv):
        # sum |a_k| = 2e308 overflows a float: at even p math.fsum raised
        # an OverflowError traceback, the walk's numpy sum warned of an
        # overflow, and verify's sampled domination grid of overflows and
        # invalid values, before the one line of the refusal
        code, out, err = run_cli(capsys, *argv, "--weight", CONST1)
        assert (code, out) == (2, "")
        p = float(argv[argv.index("--p") + 1])
        assert err.splitlines() == [
            f"korenblum {argv[0]}: p = {p}: the scale (sum |a_k|)^p m(0) of the radial "
            "tolerance overflows a float"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--poly", "0.001,0.499", "--p", "999", "--weight", CONST1),
            ("norm", "--poly", "0.001,0.499", "--p", "985", "--weight", CONST1),
            ("norm", "--poly", "0,1e-200,1e-200", "--p", "3", "--weight", CONST1),
            ("verify", "--poly", "0,1e-200,1e-200", "--poly", "0,2e-200,2e-200", "--p", "3",
             "--c", "0.5", "--weight", CONST1),
        ],
        ids=["coarse-floor", "fine-floor", "tiny-poly", "verify-tiny-pair"],
    )
    def test_norm_below_tolerance_floor_exit_2(self, capsys, argv):
        # the integral ||f||^p would need a walk tolerance below 1e-300: a
        # walk of 0.5 z settled at once and printed 0.49642 (exact 0.49690)
        # at p = 1000, an error of 5.2e-9 at p = 985, and 0.0 for 1e-200 z,
        # both norms of the verify pair included, with principle_holds
        # true. A monomial takes its closed form instead
        # (test_monomial_below_the_floor), and an even p Parseval's sum
        # (test_even_p_norm_takes_parseval); at odd p the graded walk of
        # the binomial and the plain walk of the trinomials keep the refusal
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"p = {float(argv[argv.index('--p') + 1])} is out of range" in err
        assert "falls below 1e-300" in err

    @pytest.mark.parametrize("p", ["1e-8", "1e-200"])
    def test_p_too_small_for_tol_exit_2(self, capsys, p):
        # the p-th root turns the rounding of ||f||^p into eps/p: the norm
        # was 1.14e-8 off at p = 1e-8, and printed 0 for about 1 at 1e-200
        code, out, err = run_cli(capsys, "norm", "--poly", "1,1", "--p", p, "--weight", CONST1)
        assert code == 2
        assert out == ""
        assert f"p = {float(p)} is too small for tol = 1e-09" in err
        assert f"eps/p = {np.finfo(float).eps / float(p):.3e}" in err

    @pytest.mark.parametrize(
        "poly, p, norm",
        [("0,0.5", "1000", 0.496901338507709), ("0,0.5", "950", 0.4967655502368913),
         ("0,1e-200", "2", 7.071067811865475e-201), ("0,2", "1100", 1.988556979611009)],
    )
    def test_monomial_below_the_floor(self, capsys, poly, p, norm):
        # |a| m(p)^(1/p) = 0.5 (2/1002)^(1/1000), 0.5 (2/952)^(1/950) (the
        # walk's value too), 1e-200 (1/2)^(1/2) and 2 (2/1102)^(1/1100):
        # the closed form walks nothing, so no walk tolerance can fall below
        # 1e-300, and forms no (sum |a_k|)^p, such as 2^1100
        code, out, err = run_cli(capsys, "norm", "--poly", poly, "--p", p, "--weight", CONST1)
        assert (code, err) == (0, "")
        assert json.loads(out)["norm"] == norm

    @pytest.mark.parametrize(
        "poly, p, norm",
        [("1,2", "1000", 2.9718344851514862), ("1,0.001", "2000", 1.0002320273354269),
         ("0.001,0.499", "1000", 0.49631810996275093), ("0,1e-200,1e-200", "2", 9.1287092917527686e-201)],
    )
    def test_even_p_norm_takes_parseval(self, capsys, poly, p, norm):
        # once refused: (sum |a_k|)^p = 3^1000 overflowed, the series
        # coefficient C(1000, k)^2 overflowed, and the walk tolerances of
        # the last two fell below 1e-300. Parseval's sum of (f/S)^(p/2),
        # S = sum |a_k|, forms none of them; the norms are mpmath's
        code, out, err = run_cli(capsys, "norm", "--poly", poly, "--p", p, "--weight", CONST1)
        assert (code, err) == (0, "")
        assert json.loads(out)["norm"] == pytest.approx(norm, rel=1e-15)

    def test_even_p_verify_tiny_pair(self, capsys):
        # the pair refused at p = 3 (test_norm_below_tolerance_floor_exit_2)
        code, out, err = run_cli(capsys, "verify", "--poly", "0,1e-200,1e-200", "--poly",
                                 "0,2e-200,2e-200", "--p", "2", "--c", "0.5", "--weight", CONST1)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["dominates"] and report["principle_holds"]
        assert report["norm_f"] == pytest.approx(9.1287092917527686e-201, rel=1e-15)
        assert report["norm_g"] == pytest.approx(2 * 9.1287092917527686e-201, rel=1e-15)

    def test_norm_above_tolerance_floor(self, capsys):
        # at p = 950 the fine tolerance 0.25 tol p ||f||^p of these walks,
        # about 8e-297, lies within four orders of the 1e-300 floor (p = 985
        # is refused, test_norm_below_tolerance_floor_exit_2): the graded
        # walk of the binomial and the plain walk of 0.25 z (1 + z) still
        # meet tol against 30-digit mpmath. The integrand lives within
        # about 1/p of r = 1, so the reference is split at 1 - 2^-k
        walks = [("0.001,0.499", lambda r, p: _binomial_mean(0.001, 0.499 * r, p)),
                 ("0,0.25,0.25", lambda r, p: (r / 4) ** p * _binomial_mean(1, r, p))]
        for poly, mean in walks:
            code, out, err = run_cli(capsys, "norm", "--poly", poly, "--p", "950", "--weight", CONST1)
            assert (code, err) == (0, "")
            with mp.workdps(30):
                p = mp.mpf(950)
                edges = [0, mp.mpf(0.001) / mp.mpf(0.499), *(1 - mp.mpf(2) ** -k for k in range(1, 25)), 1]
                reference = mp.quad(lambda r: 2 * r * mean(r, p), sorted(edges)) ** (1 / p)
            assert json.loads(out)["norm"] == pytest.approx(float(reference), rel=1e-9), poly

    @pytest.mark.parametrize("command", [("norm", "--poly", "1", "--p", "2"), ("bound", "--p", "2"),
                                         ("refute", "--p", "0.5", "--c", "0.9"), ("certify",)])
    @pytest.mark.parametrize(
        "weight",
        ['{"kind":"constant","level":1e308}', '{"kind":"table","r":[0,0.5],"w":[1e308,1e308]}'],
        ids=["constant", "table"],
    )
    def test_weight_mass_overflow_exit_2(self, capsys, command, weight):
        # the total mass 2 int r w dr overflows: a usage error naming the
        # mass, not a NaN tolerance (exit 2) or a divergence (exit 3) later
        code, out, err = run_cli(capsys, *command, "--weight", weight)
        assert code == 2
        assert out == ""
        assert "argument --weight:" in err
        assert "total mass must be a finite number > 0, got nan" in err

    def test_seed_only_on_verify(self, capsys):
        code, _, err = run_cli(
            capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", CONST1, "--seed", "0"
        )
        assert code == 2
        assert "--seed" in err

    def test_bad_poly_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "norm", "--poly", "1,zebra", "--p", "2", "--weight", CONST1
        )
        assert code == 2

    def test_weight_file_path(self, capsys, tmp_path):
        path = tmp_path / "weight.json"
        path.write_text(CONST1)
        code, out, _ = run_cli(
            capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", str(path)
        )
        assert code == 0
        assert abs(json.loads(out)["norm"] - np.sqrt(0.5)) <= 1e-9

    def test_missing_weight_file_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "norm", "--poly", "0,1", "--p", "2", "--weight", "/nope.json"
        )
        assert code == 2
        assert "not found" in err


class TestSharedParser:
    """``main`` parses every call with one parser built per process."""

    ARGVS = {
        "verify-pair": ("verify", "--poly", "0,0.5", "--poly", "0,1", "--p", "2", "--c", "0.5",
                        "--weight", CONST1),
        "verify-seeded": ("verify", "--p", "2", "--c", "0.18", "--count", "3", "--seed", "7",
                          "--weight", CONST1),
        "sweep-csv": ("sweep", "--p", "0.5,2", "--weight", CONST1),
        "certify-json": ("certify", "--weight", STEP05),
    }

    def test_same_reports_as_a_fresh_parser(self, capsys):
        shared = {name: run_cli(capsys, *argv) for name, argv in self.ARGVS.items()}
        for name, argv in self.ARGVS.items():
            fresh = cli.build_parser.__wrapped__().parse_args(list(argv))
            code = cli.run(fresh)
            captured = capsys.readouterr()
            assert shared[name] == (code, captured.out, captured.err), name
        assert [code for code, _, _ in shared.values()] == [0, 0, 0, 0]
        assert json.loads(shared["verify-seeded"][1])["seed"] == 7
        assert shared["sweep-csv"][1].startswith(SWEEP_HEADER + "\n")
        assert json.loads(shared["certify-json"][1])["weight"] == {"kind": "step", "R": 0.5}

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        run_cli(capsys, *self.ARGVS["verify-pair"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in self.ARGVS.values():
            run_cli(capsys, *argv)
        assert built == []
        assert cli.build_parser() is cli.build_parser()
