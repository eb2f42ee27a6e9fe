"""Command-line interface: exit codes, output formats, determinism."""

import json
import subprocess
import sys

import pytest

from fracdyn import cli, verification

CLI = [sys.executable, "-m", "fracdyn.cli"]


def run(*args, stdin=None):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True
    )


class TestExitCodes:
    def test_success_is_zero(self):
        assert run("ml", "--alpha", "0.5", "--z", "-1").returncode == 0

    @pytest.mark.parametrize("args", [
        ("ml", "--alpha", "3.0", "--z", "-1"),       # alpha out of range
        ("ml",),                                      # missing argument
        ("simulate", "--catalog", "cubic", "--component", "x",
         "--alpha", "0.5", "--x0", "1", "--t-end", "1", "--dt", "0.1"),
        ("attractor", "--component", "x +* 2"),       # parse error
        ("attractor", "--catalog", "nosuchfield"),
        ("bifurcate", "--family", "saddle", "--gamma-range", "nonsense"),
        ("triangular", "--catalog", "fig2", "--x0", "0.5"),          # x0 too short
        ("triangular", "--catalog", "fig2", "--x0", "0.5,0.5,0.5"),  # x0 too long
        ("limits", "--catalog", "cubic", "--eta", "nan"),
        ("attractor", "--catalog", "cubic", "--scan", "5.0001:-5.0003"),  # reversed
        ("attractor", "--catalog", "cubic", "--scan", "1:1"),             # zero width
        ("simulate", "--component", "y", "--component", "x", "--x0", "1",
         "--alpha", "0.5", "--t-end", "1", "--dt", "0.1"),                # x0 too short
        ("ml", "--alpha", "0.5", "--beta", "200", "--z", "-1"),  # contour out of range
        ("ml", "--alpha", "0.5", "--z", "26.64"),  # series sum overflows
    ])
    def test_usage_errors_are_two(self, args):
        proc = run(*args)
        assert proc.returncode == 2
        assert proc.stderr != ""
        assert "Traceback" not in proc.stderr

    def test_complex_field_at_start_is_two(self):
        proc = run("simulate", "--component", "x^0.5", "--x0=-1",
                   "--alpha", "0.5", "--t-end", "1", "--dt", "0.1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_complex_field_mid_solve_is_an_escape(self):
        proc = run("simulate", "--component=-1 - x^0.5", "--x0=0.5",
                   "--alpha", "0.5", "--t-end", "2", "--dt", "0.1", "--out", "-")
        assert proc.returncode == 0
        assert "field failed at t=0.1" in proc.stderr and "escape" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_ml_batch_overflow_is_two(self):
        proc = run("ml", "--batch", stdin="0.5 1 -1\n0.05 1 3\n")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_verify_failure_is_one(self, monkeypatch, capsys):
        # Only the faulted check; test_claim runs the rest of the suite unfaulted.
        monkeypatch.setitem(verification.SUITES, "scalar",
                            {"envelope_check": verification.check_envelope_cubic})
        assert cli.main(["verify", "--suite", "scalar", "--fault", "inflate-gamma"]) == 1
        assert "fail" in capsys.readouterr().out.lower()

    def test_cli_imports_without_scipy(self):
        code = ("import sys, fracdyn.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestMittagLeffler:
    def test_single_value(self):
        proc = run("ml", "--alpha", "0.5", "--z", "-1")
        assert float(proc.stdout.strip()) == pytest.approx(
            0.427583576155807, rel=1e-12
        )

    def test_batch_mode(self):
        proc = run("ml", "--batch", stdin="0.5 1 -1\n1 1 0\n")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "alpha,beta,z,value"
        assert float(lines[1].split(",")[-1]) == pytest.approx(
            0.427583576155807, rel=1e-12
        )
        assert float(lines[2].split(",")[-1]) == 1.0


class TestSimulate:
    def test_csv_header_and_determinism(self):
        args = ("simulate", "--catalog", "cubic", "--alpha", "0.5",
                "--x0", "0.5", "--t-end", "1", "--dt", "0.1", "--out", "-")
        a, b = run(*args), run(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout  # byte-identical reruns
        lines = a.stdout.strip().split("\n")
        assert lines[0] == "t,x1"
        assert len(lines) == 12
        assert lines[1].startswith("0,0.5")


class TestAnalysis:
    def test_attractor_json(self):
        proc = run("attractor", "--catalog", "cubic")
        doc = json.loads(proc.stdout)
        assert doc["zeros"] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
        assert doc["stable"] == pytest.approx([-1.0, 1.0], abs=1e-9)
        assert doc["attractor"] == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_limits_table(self):
        proc = run("limits", "--catalog", "cubic", "--eta=-2,0.3,0")
        doc = json.loads(proc.stdout)
        assert doc["limits"] == pytest.approx([-1.0, 1.0, 0.0], abs=1e-9)

    def test_bifurcate_classification(self):
        proc = run("bifurcate", "--family", "saddle", "--gamma-range=-1:1:201")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["classification"] == "saddle-node"
        assert doc["zero_counts"][0] == 0 and doc["zero_counts"][-1] == 2

    def test_semigroup_json(self):
        proc = run("semigroup", "--catalog", "linear", "--alpha", "0.5",
                   "--dt-levels", "2", "--f0", "1.0")
        doc = json.loads(proc.stdout)
        assert len(doc["defects"]) == 2
        assert doc["ratios"][0] >= 1.5
        assert doc["state_space_defect"] > 0.01
