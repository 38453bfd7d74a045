import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from korenblum import (
    CounterexampleWitness,
    InstanceReport,
    RadiusCertificate,
    RadiusUpperBound,
    certify,
    find_counterexample,
    weight_from_spec,
)
from korenblum.cli import SWEEP_HEADER, main

CONST1 = '{"kind":"constant","level":1}'
STEP05 = '{"kind":"step","R":0.5}'


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

    def test_forced_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "refute", "--p", "0.5", "--c", "0.9", "--weight", CONST1,
            "--n", "7",
        )
        assert code == 0
        assert json.loads(out)["n"] == 7


class TestBound:
    def test_p2(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--p", "2", "--weight", CONST1)
        assert code == 0
        payload = json.loads(out)
        assert payload["c_star"] == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert payload["witness_c"] > payload["c_star"]


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

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--p", "2", "--weight", CONST1, "--output", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["c_star_upper"] == pytest.approx(np.sqrt(0.5), abs=1e-9)


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
        ],
        ids=["p-nan", "p-inf", "tol-inf", "bound-p-nan", "sweep-p-nan", "sweep-n-0",
             "count-negative", "means-p-nan", "grid-0"],
    )
    def test_bad_number_exit_2(self, capsys, argv, flag):
        # before the flag was checked, NaN or inf p hung the solver and a
        # negative --count read as an empty clean sweep
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"argument {flag}:" in err

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
