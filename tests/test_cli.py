"""Command-line interface: exit codes, output formats, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracdyn import CaputoProblem, bifurcation, catalog, cli, solve_pece, verification
from fracdyn import scalar_analysis as sa
from fracdyn.field_expr import Call, FieldDef, FieldEvalError, Var, parse_expr
from fracdyn.triangular_systems import TriangularField, product_attractor, validate_triangular

CLI = [sys.executable, "-m", "fracdyn.cli"]


def run(*args, stdin=""):
    """cli.main(args) in this process, as `python -m fracdyn.cli` runs it: stdin
    reads the text, stdout and stderr are captured, and the exit code is what
    main returns or raises with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return subprocess.CompletedProcess(args, code or 0, out.getvalue(), err.getvalue())


class TestExitCodes:
    def test_success_is_zero(self):
        assert run("ml", "--alpha", "0.5", "--z", "-1").returncode == 0

    @pytest.mark.parametrize("args, code", [
        (("ml", "--alpha", "0.5", "--z", "-1"), 0),
        (("verify", "--suite", "scalar", "--fault", "inflate-gamma"), 1),
        (("ml", "--alpha", "3.0", "--z", "-1"), 2),
    ], ids=["success", "failed_check", "usage_error"])
    def test_module_entry_point_exit_codes(self, args, code):
        # The in-process run() stands for these: one interpreter per exit code.
        proc = subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.returncode == run(*args).returncode
        assert ("error:" in proc.stderr) == (code == 2)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ("ml", "--alpha", "3.0", "--z", "-1"),       # alpha out of range
        ("ml",),                                      # missing argument
        ("simulate", "--catalog", "cubic", "--component", "x",
         "--alpha", "0.5", "--x0", "1", "--t-end", "1", "--dt", "0.1"),
        ("attractor", "--component", "x +* 2"),       # parse error
        ("attractor", "--catalog", "nosuchfield"),
        ("bifurcate", "--family", "saddle", "--gamma-range", "nonsense"),
        ("bifurcate", "--family", "saddle", "--gamma-range=1:-1:11"),   # descending
        ("bifurcate", "--family", "pitchfork", "--gamma-range=1:1:11"),  # empty
        ("triangular", "--catalog", "fig2", "--x0", "0.5"),          # x0 too short
        ("triangular", "--catalog", "fig2", "--x0", "0.5,0.5,0.5"),  # x0 too long
        ("limits", "--catalog", "cubic", "--eta", "nan"),
        ("attractor", "--catalog", "cubic", "--scan", "5.0001:-5.0003"),  # reversed
        ("attractor", "--catalog", "cubic", "--scan", "1:1"),             # zero width
        ("simulate", "--component", "y", "--component", "x", "--x0", "1",
         "--alpha", "0.5", "--t-end", "1", "--dt", "0.1"),                # x0 too short
        ("ml", "--alpha", "0.5", "--beta", "200", "--z", "-1"),  # contour out of range
        ("ml", "--alpha", "0.5", "--z", "26.64"),  # series sum overflows
        ("simulate", "--catalog", "cubic", "--alpha", "0.5", "--x0", "0.5",
         "--t-end", "1", "--dt", "0.1", "--out", "/nonexistent/dir/x.csv"),
        ("simulate", "--catalog", "cubic", "--alpha", "0.5", "--x0", "0.5",
         "--t-end", "1", "--dt", "0.1", "--out", "."),  # a directory
        ("semigroup", "--catalog", "linear", "--alpha", "0.5", "--dt0", "0"),
        ("semigroup", "--catalog", "linear", "--alpha", "0.5", "--dt0=-0.05"),
        ("semigroup", "--catalog", "linear", "--alpha", "1.5", "--tau1", "0", "--tau2", "0"),
        ("semigroup", "--catalog", "linear", "--alpha", "0.5", "--dt-levels", "0"),
        ("heteroclinic", "--catalog", "cubic", "--alpha", "0.6", "--eta", "0.5",
         "--t-back=-1", "--t-fwd", "1"),
        ("heteroclinic", "--catalog", "cubic", "--alpha", "0.6", "--eta", "1"),  # on a zero
        # Field flags a subcommand would not read.
        ("triangular", "--catalog", "fig2", "--component", "x", "--param", "a=1"),
        ("triangular", "--catalog", "fig2", "--alpha", "0.5", "--out", "-"),
        ("triangular", "--catalog", "fig2", "--alpha", "0.5"),               # no --x0
        ("triangular", "--catalog", "fig2", "--x0", "0.5,-0.3", "--out", "-"),  # no --alpha
        ("triangular", "--catalog", "fig2", "--h", "1"),
        ("simulate", "--catalog", "fig2", "--component", "x", "--alpha", "0.5",
         "--x0", "0.5,-0.3", "--t-end", "1", "--dt", "0.1"),
        ("simulate", "--catalog", "fig2", "--param", "q=3", "--alpha", "0.5",
         "--x0", "0.5,-0.3", "--t-end", "1", "--dt", "0.1"),
        ("bifurcate", "--family", "saddle", "--gamma-range=-1:1:21", "--param", "nonsense"),
        ("bifurcate", "--family", "saddle", "--gamma-range=-1:1:21", "--component", "x"),
        ("bifurcate", "--family", "custom", "--gamma-range=-1:1:21"),
        ("bifurcate", "--family", "nosuchfamily", "--gamma-range=-1:1:21"),
        ("ml", "--batch", "--alpha", "0.9", "--z", "5"),
        ("ml", "--batch", "--z", "5"),
        ("ml", "--batch", "--beta", "2"),
        ("triangular", "--catalog", "fig2", "--t-end", "5", "--dt", "0.5"),  # no --alpha
        ("attractor", "--catalog", "fig2"),     # the library's d=1 rule
        ("limits", "--catalog", "fig2", "--eta", "0.5"),
        ("attractor", "--catalog", "cubic", "--scan", "5"),                # no hi
        ("bifurcate", "--family", "saddle", "--gamma-range=-1:1"),         # no M
    ])
    def test_usage_errors_are_two(self, args):
        proc = run(*args)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (("attractor", "--catalog", "cubic", "--scan", "5"), "--scan expects lo:hi, got '5'"),
        (("bifurcate", "--family", "saddle", "--gamma-range=-1:1"),
         "--gamma-range expects LO:HI:M with an integer M, got '-1:1'"),
        (("bifurcate", "--family", "saddle", "--gamma-range=-1:1:2.5"),
         "--gamma-range expects LO:HI:M with an integer M, got '-1:1:2.5'"),
        (("simulate", "--catalog", "cubic", "--alpha", "0.5", "--x0", "0.5;1",
          "--t-end", "1", "--dt", "0.1"), "--x0 expects comma-separated numbers, got '0.5;1'"),
        (("triangular", "--catalog", "fig2", "--x0", "0.5,"),
         "--x0 expects comma-separated numbers, got '0.5,'"),
        (("limits", "--catalog", "cubic", "--eta", "0.5,,1"),
         "--eta expects comma-separated numbers, got '0.5,,1'"),
    ])
    def test_range_and_list_errors_name_their_flag(self, args, message):
        proc = run(*args)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("args, name, typed", [
        (("--tau1=-1", "--tau2", "0.5"), "tau1", "-1"),
        (("--dt0", "0"), "dt0", "0"),
    ])
    def test_semigroup_errors_name_what_was_typed(self, args, name, typed):
        # Not the sum tau1 + tau2 (-0.5) nor the forcing's derived horizon (21.0).
        proc = run("semigroup", "--catalog", "linear", "--alpha", "0.5", *args)
        assert proc.returncode == 2
        assert f"{name} must be" in proc.stderr and f"got {typed}" in proc.stderr
        assert "21.0" not in proc.stderr and "-0.5" not in proc.stderr

    @pytest.mark.parametrize("flag, name", [("--t-back", "t_back"), ("--t-fwd", "t_fwd")])
    def test_heteroclinic_horizon_errors_name_their_flag(self, flag, name):
        proc = run("heteroclinic", "--catalog", "cubic", "--alpha", "0.6", "--eta", "0.5",
                   flag, "0.001")
        assert proc.returncode == 2
        assert f"need 0 < dt <= {name}, got dt=0.01, {name}=0.001" in proc.stderr
        assert "t_end" not in proc.stderr

    def test_warnings_are_reported_without_a_source_line(self):
        # Under `python -m`, a warning's frame outside the package is runpy's.
        args = ["attractor", "--component", "a - x^2", "--param", "a=4"]
        proc = subprocess.run(CLI + args, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("warning: found an even number of zeros (2); "
                               "the scan interval may clip the zero set\n")
        with warnings.catch_warnings():  # the filters in force still apply
            warnings.simplefilter("ignore")
            proc = run(*args)
        assert proc.returncode == 0 and proc.stderr == ""

    def test_a_warning_turned_into_an_error_is_two(self):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "fracdyn.cli", "attractor",
                               "--component", "a - x^2", "--param", "a=4"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == ("error: found an even number of zeros (2); "
                               "the scan interval may clip the zero set\n")

    @pytest.mark.parametrize("action", ["always", "error"])
    def test_overflowing_scan_width_is_two(self, action):
        # Under "error" too: not numpy's overflow warning, but the scan's own error.
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            proc = run("attractor", "--catalog", "cubic", "--scan=-1e308:1e308")
        assert proc.returncode == 2
        assert proc.stderr == ("error: scan interval needs lo < hi and a finite hi - lo, "
                               "got -1e+308:1e+308\n")

    @pytest.mark.parametrize("t_back, message", [
        ("25", "no preimage within tol=1e-08 at horizon 25.0"),
        ("40", "no preimage within tol=1e-08 at horizon 20.0"),
    ])
    def test_unresolvable_horizon_is_two(self, t_back, message):
        # The preimage of 2.5 lies closer to the zero 2.0 than doubles resolve;
        # walking its horizons shortest first, the t_back = 40 orbit fails at 20.
        proc = run("heteroclinic", "--component", "(x-2) - (x-2)^3", "--scan=-5:8",
                   "--alpha", "0.6", "--eta", "2.5", "--t-back", t_back)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {message}")
        assert "Traceback" not in proc.stderr

    def test_semigroup_dt0_off_the_shifts_grid_is_two(self):
        # At dt0 = 0.03 the shift 0.5 would snap to 0.51 and outrun the forcing.
        proc = run("semigroup", "--component", "x - x^3", "--alpha", "0.5", "--dt0", "0.03")
        assert proc.returncode == 2
        assert proc.stderr == "error: tau1=0.5 is not a whole number of steps dt0=0.03\n"

    def test_semigroup_dt0_past_the_horizon_names_the_sum(self):
        # The forcing's horizon is named as the sum of what was typed, not as a t_end.
        proc = run("semigroup", "--catalog", "linear", "--alpha", "0.5", "--dt0", "100")
        assert proc.returncode == 2
        assert "dt0 <= tau1 + tau2 + n_max" in proc.stderr and "dt0=100.0" in proc.stderr
        assert "n_max=21.0" in proc.stderr
        assert "t_end" not in proc.stderr and "dt=" not in proc.stderr

    def test_closed_stdout_pipe_ends_quietly(self):
        # About 1 MB of CSV, more than a pipe holds, so writes meet the closed pipe.
        proc = subprocess.Popen(CLI + ["simulate", "--catalog", "cubic", "--alpha", "0.5",
                                       "--x0", "0.5", "--t-end", "400", "--dt", "0.01",
                                       "--out", "-"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "t,x1\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == ""
        proc.stderr.close()

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

    def test_ml_batch_malformed_line_names_it(self):
        proc = run("ml", "--batch", stdin="0.5 1 -1\n\n0.5 1\n")
        assert proc.returncode == 2
        assert "line 3" in proc.stderr and "alpha beta z" in proc.stderr
        assert "unpack" not in proc.stderr and "Traceback" not in proc.stderr

    def test_scalar_analysis_of_a_triangular_field_is_the_library_error(self):
        proc = run("attractor", "--catalog", "fig2")
        assert proc.returncode == 2
        assert "scalar analysis needs d=1, got d=2" in proc.stderr

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

    def test_alpha_two_far_out(self):
        proc = run("ml", "--alpha", "2", "--z=-1e40")
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(math.cos(1e20), abs=1e-12)

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

    @pytest.mark.parametrize("component, x0, t_end", [("x - x^3", "2", "50"),
                                                     ("x*x", "0.1", "30")])
    def test_stats_are_the_solve_meta(self, tmp_path, component, x0, t_end):
        args = ("simulate", "--component", component, "--alpha", "0.9", "--x0", x0,
                "--t-end", t_end, "--dt", "0.01", "--out", str(tmp_path / "out.csv"))
        plain, counted = run(*args), run(*args, "--stats")
        assert plain.returncode == counted.returncode == 0
        assert plain.stdout == counted.stdout == ""
        traj = solve_pece(CaputoProblem(0.9, FieldDef.parse([component]), (), (float(x0),),
                                        float(t_end), 0.01))
        # Without --stats, stderr holds only an escaping solve's escape line.
        *before, last = counted.stderr.splitlines(keepends=True)
        assert "".join(before) == plain.stderr
        assert len(before) == (traj.escape_index is not None)
        stats = json.loads(last)
        assert stats.pop("solve_s") > 0.0 and stats.pop("csv_s") > 0.0
        assert stats == {**dataclasses.asdict(traj.meta), "escape_index": traj.escape_index}

    @pytest.mark.parametrize("components, x0, component", [
        (["log(x)"], "-1", 0),
        # On floats operator.pow makes this abs((-1)^0.5) = 1.0; on arrays it is nan.
        (["abs(x^0.5)"], "-1", 0),
        (["1/x"], "0", 0),
        (["-x", "x - y^0.5"], "1,-1", 1),  # only component 1 fails
    ], ids=["log", "abs_sqrt", "reciprocal", "second_component"])
    def test_x0_where_the_field_fails_is_refused(self, components, x0, component):
        values = tuple(map(float, x0.split(",")))
        # The grammar has no log, which diff's derivatives call: the CLI refuses it unparsed.
        unparsed = components == ["log(x)"]
        fld = FieldDef(1, (Call("log", Var(0)),)) if unparsed else FieldDef.parse(components)
        with pytest.raises(FieldEvalError) as err:
            solve_pece(CaputoProblem(0.5, fld, (), values, 1.0, 0.1))
        assert err.value.component == component
        proc = run("simulate", *(f"--component={c}" for c in components), "--alpha", "0.5",
                   f"--x0={x0}", "--t-end", "1", "--dt", "0.1", "--out", "-")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: unknown identifier 'log' (at offset 0)\n" if unparsed
                               else f"error: {err.value}\n")


def _reference_write_csv(path, header, rows):
    """The writer that built the whole text before writing it."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cli._fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _bifurcate_rows(diag):
    return [(float(gam), z, "degenerate" if flat else "stable" if d < 0 else "unstable")
            for gam, zs in zip(diag.gammas, diag.zero_sets)
            for z, d, flat in zip(zs.zeros, zs.derivs, zs.degenerate())]


def _trajectory_rows(traj):
    return [(float(t), *map(float, s)) for t, s in zip(traj.times, traj.states)]


class TestCsvBytes:
    def test_simulate_over_several_chunks(self, tmp_path, capsys):
        traj = solve_pece(CaputoProblem(0.5, catalog.get("cubic").fld, (), (0.5,), 50.0, 0.01))
        assert len(traj.times) > cli.CSV_CHUNK
        _reference_write_csv(tmp_path / "ref.csv", ["t", "x1"], _trajectory_rows(traj))
        assert cli.main(["simulate", "--catalog", "cubic", "--alpha", "0.5", "--x0", "0.5",
                         "--t-end", "50", "--dt", "0.01", "--out", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "ref.csv").read_text()

    def test_triangular_two_columns(self, tmp_path, capsys):
        tf = catalog.get("fig2").fld
        traj = solve_pece(CaputoProblem(0.6, tf.assembled(), (), (0.5, -0.3), 20.0, 0.05))
        _reference_write_csv(tmp_path / "ref.csv", ["t", "x1", "x2"], _trajectory_rows(traj))
        assert cli.main(["triangular", "--catalog", "fig2", "--x0", "0.5,-0.3",
                         "--alpha", "0.6", "--t-end", "20", "--dt", "0.05",
                         "--out", str(tmp_path / "new.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_bifurcate_text_column(self, tmp_path, capsys):
        diag = bifurcation.sweep(catalog.get("saddle").fld, (-1.0, 1.0), 21)
        _reference_write_csv(tmp_path / "ref.csv", ["gamma", "zero", "stability"],
                             _bifurcate_rows(diag))
        assert cli.main(["bifurcate", "--family", "saddle", "--gamma-range=-1:1:21",
                         "--out", str(tmp_path / "new.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_batch_prints_only_the_header(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert cli.main(["ml", "--batch"]) == 0
        assert capsys.readouterr().out == "alpha,beta,z,value\n"


class TestAnalysis:
    def test_attractor_json(self):
        proc = run("attractor", "--catalog", "cubic")
        doc = json.loads(proc.stdout)
        assert doc["zeros"] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
        assert doc["stable"] == pytest.approx([-1.0, 1.0], abs=1e-9)
        assert doc["attractor"] == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_limits_table(self):
        # Past 2^53 a seed's distances to the zeros tie; it goes to the nearer end.
        proc = run("limits", "--catalog", "cubic", "--eta=-2,0.3,0,-1e16,9e15,1e16")
        doc = json.loads(proc.stdout)
        assert doc["limits"] == pytest.approx([-1.0, 1.0, 0.0, -1.0, 1.0, 1.0], abs=1e-9)

    def test_limits_of_seeds_on_exact_zeros(self):
        proc = run("limits", "--component", "(x-2) - (x-2)^3", "--eta=2,1.5", "--scan=-5:8")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["limits"] == [2.0, 1.0]

    def test_bifurcate_classification(self):
        proc = run("bifurcate", "--family", "saddle", "--gamma-range=-1:1:201")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["classification"] == "saddle-node"
        assert doc["fold"] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert doc["zero_counts"][0] == 0 and doc["zero_counts"][-1] == 2

    def test_semigroup_json(self):
        proc = run("semigroup", "--catalog", "linear", "--alpha", "0.5",
                   "--dt-levels", "2", "--f0", "1.0")
        doc = json.loads(proc.stdout)
        assert len(doc["defects"]) == 2
        assert max(doc["defects"]) <= 1e-12  # CORRECTOR_TOL
        assert doc["state_space_defect"] > 0.01


def _csv_text(path, header, traj):
    _reference_write_csv(path, header, _trajectory_rows(traj))
    return path.read_text()


class TestFieldFlags:
    """Each source of a field (--catalog, --family, --component, --f/--h) with
    --param, against the library calls it stands for."""

    def test_param_overrides_a_catalog_default(self, tmp_path):
        proc = run("simulate", "--catalog", "saddle", "--param", "gamma=-0.5", "--alpha", "0.5",
                   "--x0", "0.5", "--t-end", "1", "--dt", "0.1", "--out", "-")
        assert proc.returncode == 0, proc.stderr
        traj = solve_pece(CaputoProblem(0.5, catalog.get("saddle").fld, (-0.5,), (0.5,), 1.0, 0.1))
        assert proc.stdout == _csv_text(tmp_path / "ref.csv", ["t", "x1"], traj)

    def test_component_with_params(self, tmp_path):
        proc = run("simulate", "--component", "a*x - b*x^3", "--param", "a=2",
                   "--param", "b=0.5", "--alpha", "0.7", "--x0", "0.3", "--t-end", "2",
                   "--dt", "0.1", "--out", "-")
        assert proc.returncode == 0, proc.stderr
        fld = FieldDef.parse(["a*x - b*x^3"], ("a", "b"))
        traj = solve_pece(CaputoProblem(0.7, fld, (2.0, 0.5), (0.3,), 2.0, 0.1))
        assert proc.stdout == _csv_text(tmp_path / "ref.csv", ["t", "x1"], traj)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            proc = run("attractor", "--component", "a - x^2", "--param", "a=4")
        # zeros -2 and 2: the CLI reports the warning itself
        assert proc.stderr == ("warning: found an even number of zeros (2); "
                               "the scan interval may clip the zero set\n")
        assert json.loads(proc.stdout)["stable"] == pytest.approx([2.0], abs=1e-9)

    def test_simulate_triangular_catalog_is_the_assembled_field(self, tmp_path):
        proc = run("simulate", "--catalog", "fig2", "--alpha", "0.6", "--x0", "0.5,-0.3",
                   "--t-end", "2", "--dt", "0.1", "--out", "-")
        assert proc.returncode == 0, proc.stderr
        traj = solve_pece(CaputoProblem(0.6, catalog.get("fig2").fld.assembled(), (),
                                        (0.5, -0.3), 2.0, 0.1))
        assert proc.stdout == _csv_text(tmp_path / "ref.csv", ["t", "x1", "x2"], traj)

    def test_semigroup_on_a_triangular_catalog_field(self):
        # The assembled fig2 field, as two --component expressions give it.
        comps = ("--component", "1*(x*(1 - x^2))", "--component", "(1 + x^2)*(y*(1 - y^2))")
        common = ("--alpha", "0.5", "--tau1", "0.3", "--tau2", "0.4", "--dt-levels", "2")
        named = run("semigroup", "--catalog", "fig2", *common)
        given = run("semigroup", *comps, *common)
        assert named.returncode == 0, named.stderr
        assert named.stdout == given.stdout
        assert len(json.loads(named.stdout)["defects"]) == 2

    @pytest.mark.parametrize("component, params, names, base", [
        ("gamma - x^2", (), ("gamma",), (0.0,)),
        ("gamma - x^2", ("c=0.3",), ("gamma", "c"), (0.0, 0.3)),  # c declared, unused
        ("gamma*x - c*x^3", ("c=2",), ("gamma", "c"), (0.0, 2.0)),
        ("gamma*x - c*x^3", ("c=-1",), ("gamma", "c"), (0.0, -1.0)),  # subcritical
        ("gamma + x^2", (), ("gamma",), (0.0,)),  # the zero count falls with gamma
        ("-gamma - x^2", (), ("gamma",), (0.0,)),
        # the fold's derivatives read sign (from abs) and log (from 2^x)
        ("gamma - x^2 + 0.1*abs(x + 2)", (), ("gamma",), (0.0,)),
        ("gamma - x^2 + 0.1*2^x", (), ("gamma",), (0.0,)),
    ])
    def test_bifurcate_custom_family(self, tmp_path, component, params, names, base):
        argv = ["bifurcate", "--family", "custom", "--component", component,
                "--gamma-range=-1:1:21", "--out", str(tmp_path / "new.csv")]
        for pair in params:
            argv += ["--param", pair]
        proc = run(*argv)
        assert proc.returncode == 0, proc.stderr
        diag = bifurcation.sweep(FieldDef.parse([component], names), (-1.0, 1.0), 21,
                                 base_params=base)
        doc = json.loads(proc.stdout)
        assert doc["classification"] == bifurcation.classify(diag)
        fold = bifurcation.fold(diag)
        assert doc["fold"] == (None if fold is None else list(fold))
        assert doc["zero_counts"] == diag.counts()
        _reference_write_csv(tmp_path / "ref.csv", ["gamma", "zero", "stability"],
                             _bifurcate_rows(diag))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("args, name", [
        (("simulate", "--component", "a*x", "--param", "a=1", "--param", "a=-2",
          "--alpha", "0.5", "--x0", "1", "--t-end", "1", "--dt", "0.1"), "a"),
        (("simulate", "--catalog", "saddle", "--param", "gamma=1", "--param", "gamma= -2",
          "--alpha", "0.5", "--x0", "1", "--t-end", "1", "--dt", "0.1"), "gamma"),
        (("bifurcate", "--family", "custom", "--component", "gamma*x - c*x^3",
          "--param", "c=1", "--param", "c=2", "--gamma-range=-1:1:21"), "c"),
    ], ids=["component", "catalog", "custom_family"])
    def test_a_parameter_given_twice_is_two(self, args, name):
        # Neither the first nor the last value silently wins.
        proc = run(*args)
        assert proc.returncode == 2
        assert proc.stderr == f"error: --param '{name}' is given more than once\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("family, params", [
        ("saddle", ("gamma=0.7",)),
        ("pitchfork", ("gamma=0",)),
        ("custom", ("gamma=0.3",)),
        ("custom", ("c=2", "gamma=5")),
    ])
    def test_bifurcate_refuses_a_gamma_param(self, family, params):
        # sweep sets every value of gamma, so a given one would be dropped unread.
        argv = ["bifurcate", "--family", family, "--gamma-range=-1:1:21"]
        if family == "custom":
            argv += ["--component", "gamma*x - c*x^3"]
        for pair in params:
            argv += ["--param", pair]
        proc = run(*argv)
        assert proc.returncode == 2
        assert "--param gamma is the swept parameter" in proc.stderr
        assert "--gamma-range" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_triangular_factors_match_the_catalog_field(self):
        given = run("triangular", "--f", "x*(1 - x^2)", "--f", "y*(1 - y^2)",
                    "--h", "1", "--h", "1 + x^2", "--x0", "0.5,-0.3")
        named = run("triangular", "--catalog", "fig2", "--x0", "0.5,-0.3")
        assert given.returncode == 0, given.stderr
        assert given.stdout == named.stdout

    def test_triangular_missing_trailing_prefactor_is_one(self):
        proc = run("triangular", "--f", "x*(1 - x^2)", "--f", "y*(1 - y^2)", "--h", "1")
        assert proc.returncode == 0, proc.stderr
        tf = TriangularField(2, (parse_expr("1", 2),) * 2,
                             (parse_expr("x*(1 - x^2)", 2), parse_expr("y*(1 - y^2)", 2)))
        box = [(-3.0, 3.0)] * 2
        doc = json.loads(proc.stdout)
        assert doc["h_signs"] == list(validate_triangular(tf, box).h_signs)
        assert doc["attractor_box"] == [[iv.lo, iv.hi]
                                        for iv in product_attractor(tf, box).intervals]

    @pytest.mark.parametrize("call", [
        lambda: run("triangular", "--catalog", "fig2", "--x0", "0.5,-0.3"),
        lambda: verification.run_check("triangular", "componentwise_limits_fig2"),
    ], ids=["cli_triangular", "componentwise_limits_fig2"])
    def test_one_validation_per_call(self, monkeypatch, call):
        # One validate_triangular scans each coordinate's factor once.
        calls = [0]
        original = sa.find_zeros

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sa, "find_zeros", counting)
        call()
        assert calls[0] == 2

    def test_heteroclinic_reports_a_forward_end_short_of_its_target(self):
        # The solution from 1e-320 has not left the source 0 by t_fwd = 100.
        proc = run("heteroclinic", "--catalog", "cubic", "--alpha", "0.6", "--eta", "1e-320",
                   "--t-back", "5", "--dt", "0.01")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["source"], doc["target"]) == (0.0, 1.0)
        assert doc["forward_endpoint"] < 1e-250
        assert doc["forward_gap"] == 1.0 - doc["forward_endpoint"] == 1.0

    def test_heteroclinic_orbit(self, tmp_path, monkeypatch):
        out = tmp_path / "orbit.csv"
        solves = []
        solve = sa.solve_pece
        monkeypatch.setattr(sa, "solve_pece", lambda p: solves.append(p) or solve(p))
        proc = run("heteroclinic", "--catalog", "cubic", "--alpha", "0.6", "--eta", "0.5",
                   "--t-back", "3", "--t-fwd", "5", "--dt", "0.05", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        cli_solves = len(solves)
        fld = catalog.get("cubic").fld
        orbit = sa.heteroclinic_orbit(fld, 0.6, sa.find_zeros(fld, (-5.0, 5.0)), 0.5,
                                      3.0, 5.0, 0.05)
        doc = json.loads(proc.stdout)
        assert doc["backward_solves"] == cli_solves - 1 == sum(orbit.solves)  # 1 forward
        assert (doc["source"], doc["target"]) == (orbit.source, orbit.target)
        assert doc["backward_endpoint"] == float(orbit.values[0])
        assert doc["forward_endpoint"] == float(orbit.values[-1])
        assert doc["forward_gap"] == abs(float(orbit.values[-1]) - orbit.target)
        _reference_write_csv(tmp_path / "ref.csv", ["t", "x1"],
                             [(float(t), float(v)) for t, v in zip(orbit.times, orbit.values)])
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@st.composite
def random_fields(draw):
    """Random fields of depth <= 3 over x and gamma."""
    def go(depth):
        if depth == 0:
            return draw(st.sampled_from(["x", "gamma", "1", "0.5", "2"]))
        op = draw(st.sampled_from(["+", "-", "*", "/", "^", "call"]))
        if op == "call":
            fn = draw(st.sampled_from(["sin", "cos", "tanh", "exp", "abs"]))
            return f"{fn}({go(depth - 1)})"
        return f"({go(depth - 1)}) {op} ({go(depth - 1)})"

    return go(draw(st.integers(0, 3)))


class TestRandomFields:
    @given(random_fields())
    @example("abs(x + 2)")
    @example("2 ^ x")
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_command_exits_with_a_code(self, src):
        # An answer (0), a failed check (1) or a refusal (2); any other
        # exception propagates out of run() and fails the test.
        gamma = ("--component", src, "--param", "gamma=0.5")
        runs = [("attractor", *gamma), ("limits", *gamma, "--eta=-1,0.3,2"),
                ("heteroclinic", *gamma, "--alpha", "0.6", "--eta", "0.3",
                 "--t-back", "2", "--t-fwd", "2", "--dt", "0.05"),
                ("bifurcate", "--family", "custom", "--component", src, "--gamma-range=-1:1:41")]
        for args in runs:
            assert run(*args).returncode in (0, 1, 2)
        # The field also perturbs a saddle-node and a pitchfork, whose sweeps
        # mostly have a single change of zero count, so that bifurcate solves
        # for a fold.  Where the sweep itself succeeds, so must bifurcate.
        for family in (f"gamma - x^2 + 0.1*({src})", f"gamma*x - x^3 + 0.1*({src})"):
            try:
                bifurcation.sweep(FieldDef.parse([family], ("gamma",)), (-1.0, 1.0), 41)
                want = 0
            except FieldEvalError:
                want = 2
            proc = run("bifurcate", "--family", "custom", "--component", family,
                       "--gamma-range=-1:1:41")
            assert proc.returncode == want, proc.stderr
