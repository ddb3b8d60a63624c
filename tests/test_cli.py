import ast
import hashlib
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trafficflow.cli as cli
import trafficflow.solver as solver
from trafficflow.catalog import ENTRY_PARAMS, make_entry
from trafficflow.cli import main
from trafficflow.model import ModelParams
from trafficflow.solver import PositivityError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_verify_t1_viscous_exit_zero(capsys):
    code, rep = out_json(capsys, "verify", "T1?p1=1&p2=2&b=1", "--A", "1", "--D", "0.5")
    assert code == 0
    assert rep["status"] == "VERIFIED" and len(rep["fd_steps"]) == 3
    assert "manifest" in rep


def test_verify_kink_refuted_exit_two(capsys, tmp_path):
    out = tmp_path / "kink.json"
    code, rep = out_json(capsys, "verify", "KINK?mshape=gauss&c1=1", "--A", "1",
                         "--out", str(out))
    assert code == 2
    assert rep["status"] == "REFUTED"
    assert rep["max_r1"] > 0.1
    assert out.exists()
    assert Path(str(out) + ".manifest.json").exists()


def test_verify_reports_the_points_of_its_maximum_residuals(capsys, tmp_path):
    out = tmp_path / "negctrl.json"
    code, rep = out_json(capsys, "verify", "NEGCTRL", "--A", "1", "--out", str(out))
    assert code == 2
    assert rep["max_r1_at"] == [-1.0, 0.0] and rep["max_r2_at"] == [-1.0, 0.0]
    saved = json.loads(out.read_text())
    assert (saved["max_r1_at"], saved["max_r2_at"]) == (rep["max_r1_at"], rep["max_r2_at"])
    code, rep = out_json(capsys, "lie", "transform", "--generator", "4", "--eps", "0.5",
                         "--entry", "T1?p1=1&p2=2&b=1", "--A", "1", "--verify")
    assert code == 0
    for at in (rep["verify"]["max_r1_at"], rep["verify"]["max_r2_at"]):
        assert len(at) == 2 and all(math.isfinite(v) for v in at)


def test_verify_inconclusive_exit_three(capsys):
    # a tolerance below the double-precision floor cannot be certified
    code, rep = out_json(capsys, "verify", "T1?p1=1&p2=2&b=1", "--tol", "1e-18")
    assert code == 3
    assert rep["status"] == "PAPER-CLAIMED"


def test_verify_missing_keys_exit_64(capsys):
    code, _, err = run_cli(capsys, "verify", "T1?p1=1")
    assert code == 64
    assert "p2" in err and "b" in err


def test_verify_unknown_entry_exit_64(capsys):
    code, _, err = run_cli(capsys, "verify", "T9?p1=1")
    assert code == 64
    assert "T1" in err    # diagnostics list the known names


def test_verify_unknown_key_exit_64(capsys):
    code, _, err = run_cli(capsys, "verify", "T1?p1=1&p2=2&b=1&zz=3")
    assert code == 64 and "zz" in err


def test_verify_bad_value_exit_65(capsys):
    code, _, err = run_cli(capsys, "verify", "T1?p1=abc&p2=2&b=1")
    assert code == 65


@pytest.mark.parametrize("spec,key", [
    ("T1?p1=1&p2=2&b=nan", "b=nan"),
    ("T2?p1=nan&b=1", "p1=nan"),
    ("T3?p1=1&b=inf", "b=inf"),
    ("T4?p1=1&b=-inf", "b=-inf"),
    ("P522?p1=2&p2=1&e2=nan&e3=1&e4=3", "e2=nan"),
    ("E3ZERO?p1=1&e1=inf&e2=0.5&e4=1", "e1=inf"),
    ("KINK?mshape=sin&c1=nan", "c1=nan"),
], ids=["T1", "T2", "T3", "T4", "P522", "E3ZERO", "KINK"])
def test_verify_non_finite_entry_key_is_named(capsys, spec, key):
    kind, name = spec.partition("?")[0], key.partition("=")[0]
    assert run_cli(capsys, "verify", spec) == (
        65, "", f"error: {kind} entry key {name} must be finite, got {key}\n")


def test_verify_invalid_tolerance_exit_65(capsys):
    for tol in ("nan", "-1", "0", "inf"):
        code, out, err = run_cli(capsys, "verify", "T1?p1=1&p2=2&b=1", f"--tol={tol}")
        assert code == 65 and "tol must be finite and > 0" in err and out == ""
        code, _, err = run_cli(capsys, "lie", "transform", "--generator", "4", "--eps", "0.5",
                               "--entry", "T1?p1=1&p2=2&b=1", "--verify", f"--tol={tol}")
        assert code == 65 and "tol must be finite and > 0" in err


def test_verify_region_outside_domain_exit_65(capsys):
    # T1 with b = 1 has its pole at t = -1: the first point in grid order is (-1, t0).
    for t0, t1 in (("-3", "0"), ("-2", "1")):
        assert run_cli(capsys, "verify", "T1?p1=1&p2=2&b=1",
                       "--x0", "-1", "--x1", "1", "--t0", t0, "--t1", t1) == (
            65, "", f"error: region point (x=-1.0, t={float(t0)}) is outside the sampler domain\n")


def test_verify_grid_flags_resize_the_default_region(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, rep = out_json(capsys, "verify", "T1?p1=1&p2=2&b=1", "--nx", "5", "--nt", "7",
                         "--out", str(out))
    assert code == 0 and rep["status"] == "VERIFIED"
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["parameters"]["region"] == [-5.0, 5.0, 5, -0.5, 2.0, 7]


def test_verify_constraint_violation_exit_65(capsys):
    # Only a constraint of the formula itself is refused: T3's exponent divides by A.
    code, out, err = run_cli(capsys, "verify", "T3?p1=1&b=1", "--A", "0")
    assert (code, out, err) == (65, "", "error: T3 requires A > 0 (A divides the exponent)\n")


@pytest.mark.parametrize("spec,code,status", [
    ("T2?p1=1&b=0", 2, "REFUTED"),       # claimed for D = 0; measured off it at D = 0.5
    ("T3?p1=2&b=1", 0, "VERIFIED"),      # claimed for D = 0; u_xx = 0 solves any D
])
def test_verify_measures_a_form_outside_its_claimed_model(capsys, spec, code, status):
    got, rep = out_json(capsys, "verify", spec, "--D", "0.5")
    assert (got, rep["status"]) == (code, status)


def test_argparse_usage_error_maps_to_64(capsys):
    assert main(["simulate"]) == 64   # --ic is required
    capsys.readouterr()


def test_lie_commutator(capsys):
    code, rep = out_json(capsys, "lie", "commutator", "0,1,0,0", "1,0,0,0")
    assert code == 0 and rep["result"] == [0.0, 1.0, 0.0, 0.0]


def test_lie_killing(capsys):
    code, rep = out_json(capsys, "lie", "killing", "1,2,3,4")
    assert code == 0 and rep["K"] == 2.0


def test_lie_adjoint(capsys):
    code, rep = out_json(capsys, "lie", "adjoint", "0,0.7,0,0", "0,0,1,0.7")
    assert code == 0
    assert rep["result"] == [0.0, 0.0, 1.0, 0.0]


def test_lie_classify(capsys):
    code, rep = out_json(capsys, "lie", "classify", "0,0,1,-0.7")
    assert code == 0
    assert rep["family"] == "T1" and rep["b"] == -1
    assert len(rep["eps"]) == 4
    assert rep["invariants"]["N"] == 1.0
    code, rep = out_json(capsys, "lie", "classify", "2,0,3,0")
    assert rep["family"] == "T3" and rep["l1"] == 2.0 and rep["l2"] == 3.0


def test_lie_classify_zero_vector_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "lie", "classify", "0,0,0,0")
    assert code == 64


def test_lie_classify_overflowing_vector_is_usage_error(capsys):
    # 1e10 / 1e-310 overflows: the error names the vector and its leading coefficient.
    code, stdout, err = run_cli(capsys, "lie", "classify", "--", "1e-310,1e10,1,0")
    assert (code, stdout) == (64, "")
    assert err == ("usage error: cannot classify w=[1e-310, 10000000000.0, 1.0, 0.0]: "
                   "its leading coefficient w1=1e-310 is too small\n")


def test_lie_transform_with_verification(capsys):
    code, rep = out_json(capsys, "lie", "transform", "--generator", "3", "--eps", "0.4",
                         "--entry", "T4?p1=1&b=0", "--A", "1",
                         "--at", "2.0,1.0", "--verify")
    assert code == 0
    assert rep["samples"][0]["rho"] == 1.0
    assert rep["samples"][0]["u"] == pytest.approx(1.4)
    assert rep["verify"]["status"] == "VERIFIED"


def test_lie_ic(capsys):
    code, rep = out_json(capsys, "lie", "ic", "--e", "1,0,2,0", "--delta", "3",
                         "--x", "2", "--branch", "power")
    assert code == 0 and rep["theta"] == 12.0
    code, rep = out_json(capsys, "lie", "ic", "--e", "1,0,0,4", "--delta", "1",
                         "--x", "0", "--branch", "reciprocal")
    assert rep["theta"] == 0.25


@pytest.mark.parametrize("eps,err", [
    ("-1000", "error: G1: e^-eps overflows at eps=-1000.0\n"),
    ("1000", "error: G1: e^-eps underflows to 0 at eps=1000.0\n"),
    ("nan", "error: G1: eps must be finite, got eps=nan\n"),
])
def test_lie_transform_bad_eps_exit_65(capsys, eps, err):
    got = run_cli(capsys, "lie", "transform", "--generator", "1", "--eps", eps,
                  "--entry", "T1?p1=1&p2=2&b=1")
    assert got == (65, "", err)


@pytest.mark.parametrize("command", ["killing", "classify"])
def test_lie_killing_form_that_overflows_exits_65(capsys, command):
    got = run_cli(capsys, "lie", command, "--", "1e200,0,0,0")
    assert got == (65, "", "error: Killing form is not finite at a=[1e+200, 0.0, 0.0, 0.0], "
                           "b=[1e+200, 0.0, 0.0, 0.0]\n")


def test_lie_adjoint_overflowing_eps1_exit_65(capsys):
    got = run_cli(capsys, "lie", "adjoint", "--", "1000,0,0,0", "1,2,3,4")
    assert got == (65, "", "error: eps1=1000.0 is too large: e^eps1 overflows\n")


@pytest.mark.parametrize("argv,err", [
    (["commutator", "--", "1e300,0,0,0", "0,1e300,0,0"],
     "commutator has a non-finite coefficient at a=[1e+300, 0.0, 0.0, 0.0], "
     "b=[0.0, 1e+300, 0.0, 0.0]"),
    (["adjoint", "--", "709,1e300,0,0", "1,1,1,1"],
     "adjoint action has a non-finite coefficient at eps=[709.0, 1e+300, 0.0, 0.0], "
     "w=[1.0, 1.0, 1.0, 1.0]"),
], ids=["commutator", "adjoint"])
def test_lie_result_that_overflows_names_both_inputs(capsys, argv, err):
    # The commutator's w1 is NaN (inf times a zero structure constant); the
    # adjoint action's w2 overflows to -inf.  Neither is a coefficient given.
    assert run_cli(capsys, "lie", *argv) == (65, "", f"error: {err}\n")


def test_lie_non_finite_parameters_exit_65(capsys):
    code, stdout, err = run_cli(capsys, "lie", "ic", "--e", "1,0,nan,0", "--delta", "1",
                                "--x", "2", "--branch", "power")
    assert (code, stdout, err) == (65, "", "error: non-finite symmetry constant e3\n")
    code, stdout, err = run_cli(capsys, "lie", "adjoint", "0.1,inf,0.3,0.4", "1,1,1,1")
    assert (code, stdout, err) == (65, "", "error: non-finite group parameter eps2\n")


@pytest.mark.parametrize("delta,x", [("nan", "2"), ("1", "inf")])
def test_lie_ic_non_finite_point_is_usage_error(capsys, delta, x):
    # A non-finite point is a usage error; a point outside the branch's domain exits 65.
    code, stdout, err = run_cli(capsys, "lie", "ic", "--e", "1,0,2,0", f"--delta={delta}",
                                f"--x={x}", "--branch", "power")
    assert code == 64 and stdout == "" and "delta and x must be finite" in err


@pytest.mark.parametrize("e,x,branch,code,err", [
    ("1,0,2,-2", "2", "reciprocal", 65, "error: reciprocal branch: e1*x + e4 must be nonzero"),
    ("1,0,0.5,0", "-2", "power", 65,
     "error: power branch: negative base with fractional exponent"),
    ("1,1,2,0", "2", "power", 64, "usage error: invariant initial conditions require e2 = 0"),
    ("0,0,2,1", "2", "power", 64, "usage error: power branch requires e1 != 0"),
])
def test_lie_ic_domain_errors_exit_65_and_other_rejections_64(capsys, e, x, branch, code, err):
    got = run_cli(capsys, "lie", "ic", "--e", e, "--delta", "1", "--x", x, "--branch", branch)
    assert got == (code, "", err + "\n")


@pytest.mark.parametrize("argv,err", [
    ("--e 1,0,1000,0 --delta 1 --x 1e10 --branch power",
     "power branch: Theta is not finite at e=(1.0, 0.0, 1000.0, 0.0), delta=1.0, x=10000000000.0"),
    ("--e 1,0,300,0 --delta 1e10 --x 10 --branch power",
     "power branch: Theta is not finite at e=(1.0, 0.0, 300.0, 0.0), delta=10000000000.0, x=10.0"),
    ("--e 1,0,0,0 --delta 1 --x 1e-310 --branch reciprocal",
     "reciprocal branch: Theta is not finite at e=(1.0, 0.0, 0.0, 0.0), delta=1.0, x=1e-310"),
], ids=["power", "product", "reciprocal"])
def test_lie_ic_theta_that_is_not_finite_exits_65(capsys, argv, err):
    got = run_cli(capsys, "lie", "ic", *argv.split())
    assert got == (65, "", f"error: {err}\n")


_T1 = "T1?p1=1&p2=2&b=1"
_IC_ROWS = [f"{0.05 + 0.1 * i},1.0,0.0" for i in range(10)]
_CSV_ICS = {
    "good": ["x,rho,u"] + _IC_ROWS,
    "header": ["x,u,rho"] + _IC_ROWS,
    "uneven": ["x,rho,u"] + _IC_ROWS[:5] + [f"{0.06 + 0.1 * i},1.0,0.0" for i in range(5, 10)],
}


@pytest.mark.parametrize("argv,code,err", [
    (f"lie transform --generator 4 --eps 0.5 --entry {_T1} --at 0,-5", 65,
     "error: --at point (x=0.0, t=-5.0) is outside the sampler domain\n"),
    (f"verify {_T1} --x0 0 --x1 1", 64,
     "usage error: either give all of --x0 --x1 --t0 --t1 or none"),
    ("verify T1?p1=1&&p2=2&b=1", 64, "usage error: malformed entry query 'p1=1&&p2=2&b=1'"),
    ("verify T1?p1", 64, "usage error: malformed entry query 'p1'"),
    ("verify T1?p1=1&p1=2&p2=2&b=1", 64, "usage error: duplicate keys in entry spec"),
    ("lie commutator 1,2,3 1,2,3,4", 64,
     "usage error: first vector needs 4 comma-separated values, got '1,2,3'"),
    (f"conserve --entry {_T1} --which S4 --c 1,0", 64,
     "usage error: --c needs 3 comma-separated values, got '1,0'"),
    ("lie commutator 1,2,3,x 1,2,3,4", 65, "error: first vector: could not convert string"),
    (f"simulate --ic {_T1} --surface x:0:1 t:1:2:5", 64,
     "usage error: --surface[0] must look like 'x:min:max:count', got 'x:0:1'"),
    (f"simulate --ic {_T1} --surface x:0:1:5 t:1:2:abc", 65, "error: --surface[1]: invalid literal"),
    (f"simulate --ic {_T1} --surface x:1:0:5 t:1:2:5", 64,
     "usage error: --surface[0]: need count >= 2 and max > min"),
    (f"simulate --ic {_T1} --surface x:0:1:5 x:1:2:5", 64,
     "usage error: --surface needs one x spec and one t spec"),
    ("simulate --ic {tmp}/good.csv --surface x:0:1:5 t:1:2:5", 64,
     "usage error: --surface mode needs a catalog entry IC"),
    ("simulate --ic {tmp}/good.csv --bc dirichlet", 64,
     "usage error: dirichlet bc needs a catalog-entry IC, not a csv field"),
    ("simulate --ic {tmp}/good.csv --x0 5 --x1 9 --t-end 0.1", 64,
     "usage error: --x0, --x1 cannot be used with a csv field IC: its cells set the grid\n"),
    ("simulate --ic {tmp}/good.csv --nx 999", 64,
     "usage error: --nx cannot be used with a csv field IC: its cells set the grid\n"),
    ("simulate --ic {tmp}/header.csv", 65, "error: IC csv must have header x,rho,u, got 'x,u,rho'"),
    ("simulate --ic {tmp}/uneven.csv", 65, "error: IC csv must hold >= 8 uniformly spaced cells"),
], ids=["transform-at", "partial-region", "malformed-query", "bare-key", "duplicate-key",
        "vector-arity", "constants-arity", "not-a-number", "axis-fields", "axis-count",
        "axis-range", "axis-names", "surface-csv", "dirichlet-csv", "csv-bounds", "csv-nx",
        "csv-header", "csv-spacing"])
def test_rejections_exit_with_their_code_and_write_nothing(capsys, tmp_path, argv, code, err):
    for name, rows in _CSV_ICS.items():
        (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
    before = sorted(tmp_path.iterdir())
    args = [a.replace("{tmp}", str(tmp_path)) for a in argv.split()]
    if args[0] == "simulate":
        args += ["--out", str(tmp_path / "run.csv")]
    got, out, got_err = run_cli(capsys, *args)
    assert (got, out) == (code, "") and got_err.startswith(err)
    assert sorted(tmp_path.iterdir()) == before


def test_a_missing_csv_initial_condition_is_one_usage_line_naming_the_file(capsys, tmp_path):
    missing, out = str(tmp_path / "missing.csv"), str(tmp_path / "run.csv")
    assert run_cli(capsys, "simulate", "--ic", missing, "--out", out) == (
        64, "", f"usage error: --ic file {missing!r} does not exist\n")
    # An entry spec that ends in .csv is still parsed as one.
    assert run_cli(capsys, "simulate", "--ic", "T1?p1=1&p2=2&b=1.csv", "--out", out) == (
        65, "", "error: entry key b='1.csv' is not a number\n")
    assert list(tmp_path.iterdir()) == []


def test_a_csv_initial_condition_that_is_a_directory_is_one_usage_line(capsys, tmp_path):
    ic, out = tmp_path / "d.csv", tmp_path / "run.csv"
    ic.mkdir()
    code, stdout, err = run_cli(capsys, "simulate", "--ic", str(ic), "--out", str(out))
    assert (code, stdout) == (64, "") and err.startswith("usage error: "), err
    assert err.count("\n") == 1 and repr(str(ic)) in err, err
    assert list(tmp_path.iterdir()) == [ic]


def test_an_output_path_under_a_regular_file_is_one_usage_line_naming_it(capsys, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    code, stdout, err = run_cli(capsys, "verify", _T1, "--out", str(afile / "x.json"))
    assert (code, stdout) == (64, "") and err.startswith("usage error: "), err
    assert err.count("\n") == 1 and repr(str(afile)) in err, err
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == ""


@pytest.mark.parametrize("argv,out,blocked", [
    (["simulate", "--ic", _T1, "--nx", "20"], "r.csv", "r.csv.diagnostics.json"),
    (["simulate", "--ic", _T1, "--nx", "20"], "r.csv", "r.csv.manifest.json"),
    (["wavefront", "--background", "T1?p1=0&p2=1&b=1", "--pi0", "0.5", "--t-end", "5"], "w.csv",
     "w.csv.summary.json"),
], ids=["simulate-diagnostics", "simulate-manifest", "wavefront-summary"])
def test_an_output_that_cannot_be_written_leaves_none_of_the_run_behind(capsys, tmp_path, argv,
                                                                         out, blocked):
    (tmp_path / blocked).mkdir()
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / out))
    assert (code, stdout) == (64, "") and err.startswith("usage error: "), err
    assert err.count("\n") == 1 and repr(str(tmp_path / blocked)) in err, err
    assert list(tmp_path.iterdir()) == [tmp_path / blocked]


@pytest.mark.parametrize("spec", ["x:0:inf:5", "x:-1e308:1e308:5", "x:nan:1:5", "x:-inf:0:5"])
def test_surface_axis_bounds_and_span_must_be_finite(capsys, tmp_path, spec):
    got, out, err = run_cli(capsys, "simulate", "--ic", _T1, "--surface", spec, "t:1:2:3",
                            "--out", str(tmp_path / "s.csv"))
    assert (got, out) == (65, "")
    assert err == f"error: --surface[0]: bounds and their span must be finite, got {spec!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,err", [
    (f"verify {_T1} --x0 0 --x1 inf --t0 1 --t1 2",
     "region bounds must be finite and increasing, got GridRegion(x0=0.0, x1=inf, nx=41, "
     "t0=1.0, t1=2.0, nt=41)"),
    (f"simulate --ic {_T1} --x0 0 --x1 inf",
     "x0 and dx must be finite and dx > 0, got Grid(x0=0.0, dx=inf, nx=100)"),
    (f"simulate --ic {_T1} --x0 nan --x1 2",
     "x0 and dx must be finite and dx > 0, got Grid(x0=nan, dx=nan, nx=100)"),
], ids=["verify", "simulate", "simulate-nan"])
def test_non_finite_grid_bounds_exit_65_before_anything_is_evaluated(capsys, tmp_path, argv,
                                                                      err):
    # stderr holds the error alone: no numpy warning from a grid built on inf.
    args = argv.split() + (["--out", str(tmp_path / "run.csv")] if "simulate" in argv else [])
    assert run_cli(capsys, *args) == (65, "", f"error: {err}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("at,point", [("nan,1", "(x=nan, t=1.0)"), ("inf,1", "(x=inf, t=1.0)"),
                                      ("0.5,-inf", "(x=0.5, t=-inf)")])
def test_lie_transform_at_a_non_finite_point_names_it(capsys, at, point):
    got = run_cli(capsys, "lie", "transform", "--generator", "2", "--eps", "0.1",
                  "--entry", _T1, "--at", at)
    assert got == (65, "", f"error: --at point {point} is outside the sampler domain\n")


def test_simulate_snapshot_time_that_is_not_a_number_names_its_flag(capsys, tmp_path):
    got = run_cli(capsys, "simulate", "--ic", "T1?p1=1&p2=2&b=1", "--snap", "0.5,abc",
                  "--out", str(tmp_path / "run.csv"))
    assert got == (65, "", "error: --snap: could not convert string to float: 'abc'\n")
    assert list(tmp_path.iterdir()) == []


def test_simulate_constant_state(capsys, tmp_path):
    out = tmp_path / "t4.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", "T4?p1=1&b=0", "--A", "1",
                         "--nx", "32", "--x0", "0", "--x1", "1",
                         "--t0", "0", "--t-end", "0.2", "--snap", "0.1,0.2",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,rho,u"
    assert len(lines) == 1 + 2 * 32
    for line in lines[1:]:
        t, x, rho, u = (float(v) for v in line.split(","))
        assert rho == 1.0 and u == 1.0
    diags = json.loads(Path(str(out) + ".diagnostics.json").read_text())
    assert all(set(d) == {"step", "t", "dt", "mass", "momentum", "max_speed"}
               for d in diags["steps"])
    # entry-driven runs also report error norms per snapshot; constants are exact
    assert all(e["rho_L1"] == 0.0 and e["u_Linf"] == 0.0 for e in diags["errors"])


def test_simulate_dirichlet_errors_halve_with_resolution(capsys, tmp_path):
    l1 = {}
    for nx in (100, 200):
        out = tmp_path / f"t1_{nx}.csv"
        code, _, _ = run_cli(capsys, "simulate", "--ic", "T1?p1=1&p2=2&b=1",
                             "--bc", "dirichlet", "--nx", str(nx),
                             "--x0", "0", "--x1", "2", "--t0", "1",
                             "--t-end", "1.5", "--cfl", "0.4", "--out", str(out))
        assert code == 0
        diags = json.loads(Path(str(out) + ".diagnostics.json").read_text())
        l1[nx] = diags["errors"][-1]["rho_L1"]
    assert l1[100] / l1[200] >= 1.8


@pytest.mark.parametrize("D", ["0", "0.5"])
def test_simulate_dirichlet_errors_stay_within_a_tenth_of_dx(capsys, tmp_path, D):
    # T1 solves the system for any D, so the viscous run is held to the same bound.
    out = tmp_path / "t1.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", "T1?p1=1&p2=2&b=1", "--nx", "200",
                         "--bc", "dirichlet", "--x0", "0", "--x1", "2", "--t0", "1",
                         "--t-end", "1.2", "--D", D, "--out", str(out))
    assert code == 0
    e = json.loads(Path(str(out) + ".diagnostics.json").read_text())["errors"][-1]
    dx = 2 / 200
    assert e["rho_L1"] <= 0.1 * dx and e["u_L1"] <= 0.1 * dx, e


@pytest.mark.parametrize("spec,D,entry_id,status", [
    ("T1?p1=1&p2=2&b=1", "0.5", "T1?b=1.0&p1=1.0&p2=2.0", "VERIFIED"),
    ("T2?p1=1&b=0", "0.5", "T2?b=0.0&p1=1.0", "REFUTED"),   # T2 solves only the D = 0 model
])
def test_simulate_says_whether_its_entry_solves_the_model_that_ran(capsys, tmp_path, spec, D,
                                                                   entry_id, status):
    out = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", spec, "--D", D, "--nx", "50",
                         "--out", str(out))
    assert code == 0
    diags = json.loads(Path(str(out) + ".diagnostics.json").read_text())
    assert set(diags) == {"entry", "errors", "steps", "summary"}
    _, rep = out_json(capsys, "verify", spec, "--D", D)
    assert (rep["entry"], rep["status"]) == (entry_id, status)
    # the status is verify's, on the region verify used, which the entry names
    region = rep["manifest"]["parameters"]["region"]
    assert diags["entry"] == {"id": entry_id, "status": status, "verified_on": region}


def test_simulate_runs_to_t_end_past_its_last_snapshot(capsys, tmp_path):
    out = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", "T1?p1=1&p2=2&b=1", "--nx", "32",
                         "--t0", "1", "--t-end", "1.3", "--snap", "1.1", "--out", str(out))
    assert code == 0
    times = [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]]
    assert times == ["1.1"] * 32 + ["1.3"] * 32
    diags = json.loads(Path(str(out) + ".diagnostics.json").read_text())
    assert abs(diags["steps"][-1]["t"] - 1.3) <= 1e-12
    assert [e["t"] for e in diags["errors"]] == [1.1, 1.3]
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert (manifest["parameters"]["snap"], manifest["parameters"]["t_end"]) == ([1.1], 1.3)


def test_run_summary_counts_landed_steps_as_the_test_against_every_snapshot_does():
    # Many snapshots, two of them 5e-13 apart: the step that lands on both counts once.
    mp = ModelParams(A=1.0, D=0.0)
    grid = solver.Grid.over(0.0, 2.0, 400)     # dt ~ 1e-3: most steps are convective
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    cfg = solver.SolverConfig(grid=grid, params=mp, bc="dirichlet", dirichlet_sampler=s)
    snaps = [1.0 + 0.0025 * k for k in range(1, 120)] + [1.15 + 5e-13]
    traj = solver.run(cfg, s, 1.0, 1.3, snaps)
    steps = traj.diagnostics
    assert any(0.0 < b - a <= 1e-12 for a, b in zip(traj.times, traj.times[1:]))
    landed = sum(1 for d in steps if any(abs(d["t"] - ts) <= 1e-12 for ts in traj.times))
    assert 0 < landed < len(steps)
    assert traj.summary["dt_limit"] == {"snapshot": landed, "convective": len(steps) - landed}


def test_simulate_summary_says_what_limited_the_run(capsys, tmp_path):
    out = tmp_path / "run.csv"
    argv = ["simulate", "--ic", "T1?p1=1&p2=2&b=1", "--nx", "40", "--bc", "dirichlet",
            "--x0", "0", "--x1", "2", "--t0", "1", "--t-end", "1.3",
            "--snap", "1,1.1,1.25", "--out", str(out)]
    assert main(argv) == 0
    diags = json.loads(Path(str(out) + ".diagnostics.json").read_text())
    steps, summary = diags["steps"], diags["summary"]
    assert summary["steps"] == len(steps) > 10
    least = min(steps, key=lambda d: d["dt"])
    assert summary["dt_min"] == {"dt": least["dt"], "step": least["step"], "t": least["t"]}
    # the snapshot at t0 takes no step; 1.1, 1.25 and t_end each end one cut step
    assert summary["dt_limit"] == {"snapshot": 3, "convective": len(steps) - 3}
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().strip().split("\n")[1:]]
    want = []
    for k, t in enumerate((1.0, 1.1, 1.25, 1.3)):
        snap = rows[40 * k:40 * (k + 1)]
        i = min(range(40), key=lambda j: snap[j][2])
        assert snap[i][0] == t
        want.append({"t": t, "rho": snap[i][2], "cell": i, "x": snap[i][1]})
    assert summary["rho_min"] == want
    # the summary is deterministic: a replay writes the same bytes
    first = {p.name: _digest(p) for p in tmp_path.iterdir()}
    assert main(argv) == 0
    capsys.readouterr()
    assert {p.name: _digest(p) for p in tmp_path.iterdir()} == first


def test_simulate_csv_ic_roundtrip(capsys, tmp_path):
    ic = tmp_path / "ic.csv"
    xs = np.linspace(0.05, 1.95, 20)
    rows = ["x,rho,u"] + [f"{x},{1.0 + 0.1 * math.sin(math.pi * x)},0.0" for x in xs]
    ic.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", str(ic), "--t-end", "0.1",
                         "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("t,x,rho,u\n")


@pytest.mark.parametrize("scheme", ["lax_friedrichs", "rusanov"])
def test_simulate_periodic_csv_ic_keeps_mass_and_momentum(capsys, tmp_path, scheme):
    ic = tmp_path / "field.csv"
    xs = [(i + 0.5) / 100 * 2 for i in range(100)]
    cells = [(x, 1 + 0.2 * math.sin(math.pi * x), 0.3 + 0.1 * math.cos(math.pi * x)) for x in xs]
    ic.write_text("x,rho,u\n" + "".join(f"{x},{rho},{u}\n" for x, rho, u in cells))
    out = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", str(ic), "--bc", "periodic",
                         "--scheme", scheme, "--t-end", "2", "--out", str(out))
    assert code == 0
    # f-strings write each float in shortest round-trip form, so cells is what the run read
    dx = cells[1][0] - cells[0][0]
    mass = sum(rho for _, rho, _ in cells) * dx
    momentum = sum(rho * u for _, rho, u in cells) * dx
    steps = json.loads(Path(str(out) + ".diagnostics.json").read_text())["steps"]
    last, scale = steps[-1], sum(abs(rho) + abs(rho * u) for _, rho, u in cells) * dx
    bound = 8 * sys.float_info.epsilon * len(steps) * scale
    assert len(steps) > 100 and abs(last["t"] - 2) <= 1e-12, last
    assert abs(last["mass"] - mass) <= bound, (last["mass"], mass, bound)
    assert abs(last["momentum"] - momentum) <= bound, (last["momentum"], momentum, bound)


def test_simulate_csv_ic_manifest_records_the_csv_cell_count(capsys, tmp_path):
    ic = tmp_path / "ic.csv"
    rows = ["x,rho,u"] + [f"{0.05 + 0.1 * i},1.0,0.0" for i in range(16)]
    ic.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", str(ic), "--t-end", "0.1",
                         "--out", str(out))
    assert code == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["parameters"]["nx"] == 16


def test_simulate_csv_ic_short_row_exit_65(capsys, tmp_path):
    ic = tmp_path / "ic.csv"
    rows = ["x,rho,u"] + [f"{0.05 + 0.1 * i},1.0,0.0" for i in range(10)]
    rows[3] = "0.25,1.0"
    ic.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "simulate", "--ic", str(ic), "--t-end", "0.1",
                           "--out", str(tmp_path / "run.csv"))
    assert code == 65
    assert "line 4" in err and "0.25,1.0" in err


def test_simulate_csv_ic_non_numeric_value_exit_65(capsys, tmp_path):
    ic = tmp_path / "ic.csv"
    rows = ["x,rho,u"] + [f"{0.05 + 0.1 * i},1.0,0.0" for i in range(10)]
    rows[5] = "0.45,abc,0.0"
    ic.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "simulate", "--ic", str(ic), "--t-end", "0.1",
                           "--out", str(tmp_path / "run.csv"))
    assert code == 65
    assert "line 6" in err and "0.45,abc,0.0" in err


def test_simulate_solver_error_exit_4(capsys, tmp_path):
    # |u| = 1e200 drives the CFL step far below the 1e-12 floor on the first step.
    ic = tmp_path / "ic.csv"
    xs = np.linspace(0.05, 1.95, 20)
    rows = ["x,rho,u"] + [f"{x},1.0,{1e200 if i < 10 else 0.0}" for i, x in enumerate(xs)]
    ic.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "simulate", "--ic", str(ic), "--t-end", "0.1",
                           "--out", str(tmp_path / "run.csv"))
    assert code == 4
    assert err.startswith("solver error: CFL underflow")


def test_simulate_momentum_overflow_exit_4(capsys, tmp_path):
    # m^2/rho overflows in the left half on the first step: one diagnostic
    # line on stderr, no RuntimeWarning, and no output files
    ic = tmp_path / "ic.csv"
    xs = np.linspace(0.05, 1.95, 20)
    rows = ["x,rho,u"] + [f"{x},{1e160 if i < 10 else 1.0},{1.0 if i < 10 else 0.0}"
                          for i, x in enumerate(xs)]
    ic.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run.csv"
    code, _, err = run_cli(capsys, "simulate", "--ic", str(ic), "--bc", "outflow",
                           "--t-end", "0.1", "--out", str(out))
    assert code == 4
    assert err.startswith("solver error: non-finite state at cell 0")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("rho,u", [("-1", "0.0"), ("nan", "0.0"), ("inf", "0.0"),
                                   ("1.0", "nan"), ("1.0", "-inf")])
def test_simulate_csv_ic_invalid_state_exit_65(capsys, tmp_path, rho, u):
    ic = tmp_path / "ic.csv"
    rows = ["x,rho,u"] + [f"{0.05 + 0.1 * i},1.0,0.0" for i in range(10)]
    rows[5] = f"0.45,{rho},{u}"
    ic.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "simulate", "--ic", str(ic), "--t-end", "0.1",
                           "--out", str(tmp_path / "run.csv"))
    assert code == 65
    assert "line 6" in err and f"0.45,{rho},{u}" in err


def test_simulate_positivity_abort_exit_4(capsys, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise PositivityError(7, 0.25, -1e-3)

    monkeypatch.setattr(solver, "run", boom)
    code, _, err = run_cli(capsys, "simulate", "--ic", "T4?p1=1&b=0",
                           "--t0", "0", "--t-end", "0.1",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 4
    assert "cell 7" in err and "0.25" in err


@pytest.mark.parametrize("times", [["--t-end", "inf"], ["--t-end", "nan"], ["--snap", "nan"],
                                   ["--snap", "0.1,inf", "--t-end", "inf"]])
def test_simulate_non_finite_time_exit_65(capsys, tmp_path, steps_taken, times):
    out = tmp_path / "run.csv"
    code, stdout, err = run_cli(capsys, "simulate", "--ic", "T4?p1=1&b=0", "--t0", "0",
                                *times, "--out", str(out))
    assert code == 65 and err.startswith("error: t0, t_end and snapshot times must be finite")
    assert stdout == "" and steps_taken == [] and list(tmp_path.iterdir()) == []


def test_simulate_surface_mode(capsys, tmp_path):
    out = tmp_path / "fig1.csv"
    code, _, _ = run_cli(capsys, "simulate", "--ic", "T1?p1=1&p2=2&b=1",
                         "--surface", "x:-5:5:11", "t:0.5:3:6", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,rho,u" and len(lines) == 1 + 11 * 6
    # byte-stable shortest round-trip floats
    assert lines[1].split(",")[2] == repr(2.0 / 1.5)


def test_conserve_csv(capsys, tmp_path):
    out = tmp_path / "cons.csv"
    code, _, _ = run_cli(capsys, "conserve", "--entry", "T1?p1=1&p2=2&b=1",
                         "--which", "S4", "--c", "1,0,0", "--nx", "4", "--nt", "4",
                         "--h-step", "1e-3", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,t,Ux,Ut,divergence"
    assert len(lines) == 1 + 16
    divs = [abs(float(line.split(",")[4])) for line in lines[1:]]
    assert max(divs) < 1e-3      # O(h^2) discretisation of an exactly conserved row


def test_conserve_non_positive_step_exit_65(capsys, tmp_path):
    for h in ("0", "-1e-3", "nan", "1e-320"):   # 1e-320 ** 2 underflows to 0
        code, _, err = run_cli(capsys, "conserve", "--entry", "T1?p1=1&p2=2&b=1",
                               "--which", "S4", "--c", "1,0,0", f"--h-step={h}",
                               "--out", str(tmp_path / "cons.csv"))
        assert code == 65 and "h_step must be > 0" in err


def test_conserve_step_that_rounds_away_exit_65(capsys, tmp_path):
    out = tmp_path / "cons.csv"
    for which, h, failure in (
            ("S1", "1e-17", "rounds onto its centre"),  # x +- 1e-17 rounds onto x: reads 0
            ("S4", "1.0", "leaves the domain")):        # t - 1.0 lies past the pole t = -1
        code, stdout, err = run_cli(capsys, "conserve", "--entry", "T1?p1=1&p2=2&b=1",
                                    "--which", which, "--c", "1,0,0", "--nx", "5", "--nt", "5",
                                    "--h-step", h, "--out", str(out))
        assert (code, stdout) == (65, "")
        assert err == f"error: divergence stencil at (x=-4.0, t=-0.25) with step {h} {failure}\n"
        assert not out.exists()


@pytest.mark.parametrize("entry,region,h,point,n_calls", [
    # The pole of b = -1 is at t = 1, so the stencils of the last rows reach past it.
    ("T1?p1=1&p2=-2&b=1", ["--x0", "-5", "--x1", "5", "--t0", "-3", "--t1", "-0.9"], "0.2",
     {5: "(x=-4.0, t=-1.11)", 41: "(x=-4.0, t=-1.1940000000000002)"}, 3),
    # Every stencil leaves the domain, the first point's included (grid index 0).
    (_T1, [], "1.0", {5: "(x=-4.0, t=-0.25)", 41: "(x=-4.0, t=-0.25)"}, 2),
], ids=["last-rows", "first-point"])
def test_conserve_names_its_failing_point_without_replaying_the_grid(capsys, tmp_path, monkeypatch,
                                                                    entry, region, h, point,
                                                                    n_calls):
    import trafficflow.conservation as conservation
    real, calls = conservation.divergence_residual, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conservation, "divergence_residual", counted)
    out = tmp_path / "cons.csv"
    for n in (5, 41):
        calls.clear()
        code, stdout, err = run_cli(capsys, "conserve", "--entry", entry, "--which", "S4",
                                    "--c", "1,0,0", *region, "--nx", str(n), "--nt", str(n),
                                    "--h-step", h, "--out", str(out))
        assert (code, stdout) == (65, "") and not out.exists()
        assert err == f"error: divergence stencil at {point[n]} with step {h} leaves the domain\n"
        # the grid, the points before its first failure (if any), and that point alone
        assert len(calls) == n_calls, [np.shape(c[5]) for c in calls]


_T3 = "T3?p1=2&b=1"
_C1, _C2, _C3 = "1,0,0", "0,1,0", "0,0,1"


def _conserve_verdict(which: str, entry: str, D: str, c: str) -> tuple:
    """The README's conserve verdicts at h = 2e-3 on an 11x11 grid: (status, how)."""
    if which == "S1":
        return "FLOOR", "floor"                   # the printed S1 defect, on both entries
    if entry == _T1 and which == "S3":
        return ("CONSERVED", "zero") if c == _C3 else ("FLOOR", "floor")
    if entry == _T3 and which in ("S2", "S4") and D != "0" and c != _C3:
        return "FLOOR", "floor"                   # the viscous c1/c2 floors
    if entry == _T1 and which == "S4" and c == _C3:
        return "CONSERVED", "zero"
    if entry == _T3 and which == "S3" and c == _C2:
        return "CONSERVED", "rounding"
    return "CONSERVED", "order"


@pytest.mark.parametrize("which", ["S1", "S2", "S3", "S4"])
@pytest.mark.parametrize("entry", [_T1, _T3])
def test_conserve_gives_the_verdict_of_its_step_refinement(capsys, tmp_path, entry, which):
    out = tmp_path / "cons.csv"
    for D in ("0", "0.4"):
        for c in (_C1, _C2, _C3):
            code, rep = out_json(capsys, "conserve", "--entry", entry, "--which", which,
                                 "--c", c, "--D", D, "--nx", "11", "--nt", "11",
                                 "--h-step", "2e-3", "--out", str(out))
            status, how = _conserve_verdict(which, entry, D, c)
            case = (entry, which, D, c, rep)
            assert (rep["status"], code) == (status, {"CONSERVED": 0, "FLOOR": 2}[status]), case
            assert rep["steps"] == [2e-3, 1e-3, 5e-4] and "manifest" not in rep
            m, rows = rep["maxima"], np.loadtxt(out, delimiter=",", skiprows=1)
            scale = float(np.max(np.abs(rows[:, 2:4])))           # largest |Ux|, |Ut|
            assert rep["floor"] == 64.0 * np.finfo(float).eps * scale / 5e-4, case
            # The maximum at h is the CSV's, at the [x, t] where the CSV holds it.
            i = int(np.argmax(np.abs(rows[:, 4])))
            assert m[0] == abs(rows[i, 4]) and rep["max_at"] == rows[i, :2].tolist(), case
            if how == "floor":
                assert m[2] > 1.0 and all(abs(r - 1.0) < 1e-3 for r in rep["ratios"]), case
            elif how == "order":
                assert all(abs(r - 4.0) < 1e-2 for r in rep["ratios"]) and rep["notes"] == [], case
            else:
                assert (m == [0.0] * 3) if how == "zero" else (1e-14 < min(m) <= max(m) < 1e-12)
                assert max(m) <= rep["floor"] and rep["notes"] == [
                    f"every maximum is within the rounding floor {rep['floor']:.3e}"], case


@pytest.mark.parametrize("region,h,note", [
    # On x in [9.6, 14.4] the ulp of x is 1.8e-15: x +- 2e-15 and x +- 1e-15 move, while
    # x +- 5e-16 rounds back onto x, so no point admits the h/4 stencil.
    (("9", "15", "1", "2"), "2e-15", "at step 5e-16"),
    # Near the origin x +- h resolves for all three steps, but (h/2)^2 underflows to 0.
    (("0", "1e-150", "1e-150", "2e-150"), "3e-162", "at step 1.5e-162"),
])
def test_conserve_is_inconclusive_when_a_finer_step_fails(capsys, tmp_path, region, h, note):
    out = tmp_path / "cons.csv"
    x0, x1, t0, t1 = region
    code, rep = out_json(capsys, "conserve", "--entry", _T1, "--which", "S4", "--c", _C1,
                         "--x0", x0, "--x1", x1, "--t0", t0, "--t1", t1, "--nx", "5",
                         "--nt", "5", "--h-step", h, "--out", str(out))
    assert (code, rep["status"]) == (3, "INCONCLUSIVE")
    assert rep["maxima"][0] is not None and rep["maxima"][2] is None and rep["ratios"] == []
    assert rep["notes"] == [f"no interior point admitted the divergence stencil {note}"]
    assert len(out.read_text().strip().split("\n")) == 1 + 25
    assert Path(str(out) + ".manifest.json").exists()


def test_conserve_non_finite_constants_exit_65(capsys, tmp_path):
    out = tmp_path / "cons.csv"
    for c in ("nan,0,0", "1,inf,0", "1,0,-inf"):
        code, _, err = run_cli(capsys, "conserve", "--entry", "T1?p1=1&p2=2&b=1",
                               "--which", "S4", f"--c={c}", "--out", str(out))
        assert code == 65 and "multiplier constants must be finite" in err
    assert not out.exists()


def test_wavefront_outputs_and_summary(capsys, tmp_path):
    out = tmp_path / "wf.csv"
    code, summary = out_json(capsys, "wavefront", "--background", "T1?p1=0&p2=1&b=1",
                             "--A", "1", "--pi0", "-1.5", "--t-end", "3",
                             "--out", str(out))
    assert code == 0
    assert summary["pi_c"] == pytest.approx(0.75, abs=1e-6) and summary["pi_c_err"] == 0.0
    assert summary["shock_time"] == pytest.approx(2.0 ** (5.0 / 3.0) - 1.0, abs=1e-4)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,psi,E,F,pi"
    saved = json.loads(Path(str(out) + ".summary.json").read_text())
    assert saved == summary


def test_wavefront_infinity_sentinel(capsys, tmp_path):
    code, summary = out_json(capsys, "wavefront", "--background", "T1?p1=0&p2=1&b=1",
                             "--pi0", "0.5", "--t-end", "5",
                             "--out", str(tmp_path / "w.csv"))
    assert code == 0 and summary["shock_time"] == "inf"


def test_wavefront_zero_amplitude_column(capsys, tmp_path):
    out = tmp_path / "z.csv"
    code, _ = out_json(capsys, "wavefront", "--background", "T1?p1=0&p2=1&b=1",
                       "--pi0", "0", "--t-end", "3", "--n", "200", "--out", str(out))
    assert code == 0
    pis = [float(line.split(",")[5]) for line in out.read_text().strip().split("\n")[1:]]
    assert all(v == 0.0 for v in pis)


def _t1_shock_time(pi0):
    # T1 with b = 1 from t0 = 1: 1 + pi0 F = 0 at t = 2 (1 - 3/(4 |pi0|))^(-2/3) - 1
    return 2.0 * (1.0 - 3.0 / (4.0 * abs(pi0))) ** (-2.0 / 3.0) - 1.0


def test_wavefront_shock_on_a_node(capsys, tmp_path):
    # pi0 = -1/F at t = 1.285 (node 57 of 400): the shock sits on a node.
    out = tmp_path / "w.csv"
    code, stdout, err = run_cli(capsys, "wavefront", "--background", "T1?p1=1&p2=2&b=1",
                                "--A", "1", "--pi0", "-4.140703747289027", "--t0", "1",
                                "--t-end", "3", "--n", "400", "--out", str(out))
    assert code == 0 and err == ""
    summary = json.loads(stdout)
    shock = summary["shock_time"]
    assert abs(shock - _t1_shock_time(-4.140703747289027)) <= summary["shock_time_err"] <= 1e-6
    text = out.read_text()
    assert "inf" not in text
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    assert all(math.isfinite(float(r[5])) == (float(r[0]) < shock) for r in rows)


def test_wavefront_shock_on_a_wide_panel(capsys, tmp_path):
    # Ten output panels of 1e19 say nothing about F; the pass resolves it on its own steps.
    code, stdout, err = run_cli(capsys, "wavefront", "--background", "T1?p1=1&p2=2&b=1",
                                "--pi0", "-1", "--t-end", "1e20", "--n", "10",
                                "--out", str(tmp_path / "w.csv"))
    assert code == 0 and err == ""
    summary = json.loads(stdout)
    assert abs(summary["shock_time"] - _t1_shock_time(-1.0)) <= summary["shock_time_err"] <= 1e-6


def test_wavefront_overflowing_partials_far_along_the_path(capsys, tmp_path):
    # At t ~ 1e300, T1's rho_t and u_t overflow in w * w on their way to -0.0; Psi reads
    # neither, so the run is silent under error::RuntimeWarning.
    code, stdout, err = run_cli(capsys, "wavefront", "--background", "T1?p1=1&p2=2&b=1",
                                "--pi0", "-1", "--t-end", "1e300", "--n", "10",
                                "--out", str(tmp_path / "w.csv"))
    assert code == 0 and err == ""
    summary = json.loads(stdout)
    assert summary["pi_c"] == 0.75 and math.isfinite(summary["shock_time"])


def test_wavefront_non_finite_integration_exit_65(capsys, tmp_path, monkeypatch):
    # A wave speed that is NaN from t = 2 on: every step past t = 2 is rejected until the
    # step size underflows there.
    import trafficflow.wavefront as wavefront
    real = wavefront._rates

    def broken(prob):
        rates = real(prob)
        return lambda x, t: (math.nan, 0.0) if t > 2.0 else rates(x, t)

    monkeypatch.setattr(wavefront, "_rates", broken)
    code, stdout, err = run_cli(capsys, "wavefront", "--background", "T1?p1=0&p2=1&b=1",
                                "--pi0", "-0.5", "--t-end", "3", "--n", "10",
                                "--out", str(tmp_path / "w.csv"))
    assert (code, stdout) == (65, "") and list(tmp_path.iterdir()) == []
    assert err == ("error: integration along the characteristic stalls at t=2.0: its steps"
                   " overflow or underflow\n")


@pytest.mark.parametrize("flag,value", [("--t-end", "inf"), ("--t-end", "nan"),
                                        ("--x0", "nan"), ("--t0", "inf")])
def test_wavefront_non_finite_input_exit_65(capsys, tmp_path, flag, value):
    code, stdout, err = run_cli(capsys, "wavefront", "--background", "T1?p1=0&p2=1&b=1",
                                "--pi0", "0.5", f"{flag}={value}",
                                "--out", str(tmp_path / "wf.csv"))
    assert code == 65 and stdout == "" and list(tmp_path.iterdir()) == []
    assert err == f"error: {flag[2:].replace('-', '_')} must be finite, got {value}\n"


@pytest.mark.parametrize("t_end", ["15", "1e6", "1e20"])
def test_wavefront_tail_pi_c_does_not_depend_on_t_end(capsys, tmp_path, t_end):
    # T3 has Psi = 2/t: F(inf) = t0 = 1.  The tail's nodes never see t_end.
    code, summary = out_json(capsys, "wavefront", "--background", "T3?p1=2&b=1", "--A", "1",
                             "--pi0", "0.2", "--x0", "0.5", "--t0", "1", "--n", "10",
                             "--t-end", t_end, "--out", str(tmp_path / "w.csv"))
    assert code == 0
    assert abs(summary["pi_c"] - 1.0) <= min(1e-6, summary["pi_c_err"])


def test_wavefront_viscous_model_exit_65(capsys, tmp_path, monkeypatch):
    # For D > 0 the amplitude law has no meaning: the run stops before the background check.
    import trafficflow.catalog as catalog
    monkeypatch.setattr(catalog, "verify_entry", lambda *a, **k: pytest.fail("verify_entry ran"))
    code, stdout, err = run_cli(capsys, "wavefront", "--background", "T1?p1=1&p2=2&b=1",
                                "--pi0", "-1", "--D", "0.5", "--out", str(tmp_path / "w.csv"))
    assert (code, stdout) == (65, "") and list(tmp_path.iterdir()) == []
    assert err == "error: wavefront needs the inviscid system (D = 0), got D=0.5\n"


def test_wavefront_refuted_background_exit_5(capsys):
    code, _, err = run_cli(capsys, "wavefront", "--background", "NEGCTRL",
                           "--pi0", "0.5", "--t0", "1", "--t-end", "2")
    assert code == 5 and "REFUTED" in err


_CATALOG_LIST = "".join(f"{kind:8s} params: {keys:28s} {summary}\n" for kind, keys, summary in (
    ("E3ZERO", "p1, e1, e2, e4", "T2 family in (e1 x + e4, e1 t + e2); D=0"),
    ("KINK", "mshape, c1", "rho=M(x), u=-sqrt(A) tanh(sqrt(A) M'(c1+t)/M); "
     "mshape in {sin, sec, cos, gauss}; D=0; status adjudicated by the harness"),
    ("NEGCTRL", "(no parameters)", "rho=x+2, u=1; deliberate non-solution (negative control)"),
    ("P522", "p1, p2, e2, e3, e4", "pressureless similarity solution; claimed for A=0, D=0"),
    ("T1", "p1, p2, b", "rho=p2/(t+b), u=(x+p1)/(t+b); solves the system for any D"),
    ("T2", "p1, b", "branch family in sqrt((x+b)^2-4At^2); D=0"),
    ("T3", "p1, b", "rho=(p1/t)exp((t ln t - x - b)/(tA)), u=(x+b)/t+1; "
     "solves the system for any D with A>0"),
    ("T4", "p1, b", "constants rho=p1/sqrt(A), u=b+sqrt(A); solves the system for any D with A>0"),
))


def test_catalog_list(capsys):
    code, out, err = run_cli(capsys, "catalog", "list")
    assert (code, out, err) == (0, _CATALOG_LIST, "")
    for kind in ("T1", "T2", "T3", "T4", "P522", "E3ZERO", "KINK", "NEGCTRL"):
        assert kind in out
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == sorted(ENTRY_PARAMS)
    for line in lines:
        kind, _, rest = line.partition(" params: ")
        assert rest[:28].rstrip() == (", ".join(ENTRY_PARAMS[kind.strip()]) or "(no parameters)")


def _fresh_modules(code: str) -> list:
    """The trafficflow modules, and numpy, a fresh interpreter has loaded after running code."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m == 'numpy' or m.split('.')[0] == 'trafficflow'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert _fresh_modules("import trafficflow") == ["trafficflow"]
    assert _fresh_modules("from trafficflow import ModelParams") == [
        "numpy", "trafficflow", "trafficflow.model"]


def test_lie_killing_loads_only_what_it_runs():
    # The algebra runs on plain floats: no numpy, model or solver.
    for argv in (["lie", "commutator", "--", "0.5,1,0,-2", "1,0,3,0"],
                 ["lie", "killing", "--", "0.5,1,0,0"],
                 ["lie", "adjoint", "--", "0.1,-0.2,0.3,0.4", "1,2,3,4"],
                 ["lie", "classify", "--", "0,5,1,0.7"],
                 ["lie", "ic", "--e", "1,0,0.5,1", "--delta", "2", "--x", "1",
                  "--branch", "reciprocal"]):
        loaded = _fresh_modules(f"from trafficflow import cli\nassert cli.main({argv!r}) == 0")
        assert loaded == ["trafficflow", "trafficflow.cli", "trafficflow.lie"], argv


def test_only_simulate_loads_the_solver(tmp_path):
    spec = "T1?p1=1&p2=2&b=1"
    assert _fresh_modules("from trafficflow import cli\n"
                          "assert cli.main(['catalog', 'list']) == 0") == [
        "trafficflow", "trafficflow.cli"]
    for argv in (["verify", spec, "--nx", "5", "--nt", "5"],
                 ["conserve", "--entry", spec, "--which", "S4", "--c", "1,1,1", "--nx", "5",
                  "--nt", "5", "--out", str(tmp_path / "c.csv")],
                 ["wavefront", "--background", spec, "--pi0", "0.5", "--t-end", "2",
                  "--n", "50", "--out", str(tmp_path / "w.csv")],
                 ["simulate", "--ic", spec, "--surface", "x:-1:1:5", "t:1:2:5",
                  "--out", str(tmp_path / "surf.csv")]):
        loaded = _fresh_modules(f"from trafficflow import cli\nassert cli.main({argv!r}) == 0")
        assert "trafficflow.model" in loaded and "trafficflow.solver" not in loaded, argv
    loaded = _fresh_modules("from trafficflow import cli\nassert cli.main(['simulate', '--ic', "
                            f"{spec!r}, '--nx', '20', '--t-end', '1.1', '--out', "
                            f"{str(tmp_path / 's.csv')!r}]) == 0")
    assert "trafficflow.solver" in loaded


def test_catalog_list_loads_neither_lie_nor_conservation():
    loaded = _fresh_modules("from trafficflow import cli\n"
                            "assert cli.main(['catalog', 'list']) == 0")
    assert loaded == ["trafficflow", "trafficflow.cli"]


_SPEC_USAGE_ERRORS = {
    "T9?p1=1": "unknown catalog entry 'T9'; known entries: "
               "E3ZERO, KINK, NEGCTRL, P522, T1, T2, T3, T4",
    "T1?p1=1&&p2=2&b=1": "malformed entry query 'p1=1&&p2=2&b=1': bad query field: ''",
    "T1?p1=1&p1=2&p2=2&b=1": "duplicate keys in entry spec 'T1?p1=1&p1=2&p2=2&b=1'",
    "T1?p1=1&p2=2": "entry T1 requires keys (p1, p2, b); missing keys: b",
    "T1?p1=1&p2=2&b=1&zz=3": "entry T1 requires keys (p1, p2, b); unknown keys: zz",
}


@pytest.mark.parametrize("command", [
    ["verify", "{spec}"],
    ["simulate", "--ic", "{spec}"],
    ["conserve", "--entry", "{spec}", "--which", "S4", "--c", "1,1,1"],
    ["wavefront", "--background", "{spec}", "--pi0", "0.5"],
    ["lie", "transform", "--generator", "1", "--eps", "0.1", "--entry", "{spec}"],
], ids=["verify", "simulate", "conserve", "wavefront", "lie-transform"])
def test_entry_spec_usage_errors_load_no_numpy(command):
    # The spec is checked first: the invalid --A behind it is never reached.
    code = "import contextlib, io\nfrom trafficflow import cli\n"
    for spec, message in _SPEC_USAGE_ERRORS.items():
        argv = [a.replace("{spec}", spec) for a in command] + ["--A", "nan"]
        want = f"usage error: {message}\n"
        code += (f"with contextlib.redirect_stderr(io.StringIO()) as err:\n"
                 f"    assert cli.main({argv!r}) == 64\n"
                 f"assert err.getvalue() == {want!r}, err.getvalue()\n")
    loaded = _fresh_modules(code)
    assert "numpy" not in loaded and "trafficflow.model" not in loaded, loaded


def test_package_names_are_their_submodules_objects():
    import trafficflow
    owners = {}
    for name in ("model", "lie", "catalog", "conservation", "solver", "wavefront"):
        module = importlib.import_module(f"trafficflow.{name}")
        owners.update({n: module for n in module.__all__})
    for name in trafficflow.__all__:
        assert getattr(trafficflow, name) is getattr(owners[name], name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        trafficflow.no_such_name


def test_csv_writes_shortest_round_trip_floats():
    assert cli._csv(["a", "b"], [(0.1, 1e-300), (-0.0, math.nan), (math.inf, 2.0)]) == \
        "a,b\n0.1,1e-300\n-0.0,nan\ninf,2.0\n"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_byte_identical_reruns_and_manifest_replay(capsys, tmp_path):
    out = tmp_path / "wf.csv"
    argv = ["wavefront", "--background", "T1?p1=0&p2=1&b=1", "--pi0", "0.5",
            "--t-end", "4", "--n", "400", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    first = {p.name: _digest(p) for p in tmp_path.iterdir()}
    assert main(argv) == 0
    capsys.readouterr()
    second = {p.name: _digest(p) for p in tmp_path.iterdir()}
    assert first == second

    manifest = json.loads((tmp_path / "wf.csv.manifest.json").read_text())
    assert manifest["command"] == "wavefront"
    assert main(manifest["argv"]) == 0
    capsys.readouterr()
    for path, digest in manifest["outputs"].items():
        got = "sha256:" + _digest(Path(path))
        assert got == digest


def test_manifest_structure(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "T1?p1=1&p2=2&b=1", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert set(manifest) == {"command", "argv", "parameters", "artifact_version", "outputs"}
    assert manifest["artifact_version"]
    assert str(out) in manifest["outputs"]
    # stable key order: serialisation is sorted
    text = Path(str(out) + ".manifest.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_csv_uses_lf_and_header(capsys, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--ic", "T1?p1=1&p2=2&b=1", "--surface",
                 "x:0:1:3", "t:1:2:3", "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.startswith(b"t,x,rho,u\n")


def _readme_examples() -> list:
    """The trafficflow commands of the README's command-line block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command-line interface\n", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("trafficflow ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    examples = _readme_examples()
    assert len(examples) == 13
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        want = 2 if argv[:2] == ["verify", "KINK?mshape=gauss&c1=1"] else 0   # REFUTED
        code = main(argv)
        assert code == want, (argv, capsys.readouterr().err)
