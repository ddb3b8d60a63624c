import ast
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trafficflow.cli as cli
import trafficflow.solver as solver
from trafficflow.catalog import ENTRY_PARAMS
from trafficflow.cli import main
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
    assert rep["status"] == "VERIFIED"
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
    code, _, err = run_cli(capsys, "verify", "T1?p1=1&p2=2&b=1",
                           "--x0", "-1", "--x1", "1", "--t0", "-3", "--t1", "0")
    assert code == 65


def test_verify_grid_flags_resize_the_default_region(capsys, tmp_path):
    out = tmp_path / "r.json"
    code, rep = out_json(capsys, "verify", "T1?p1=1&p2=2&b=1", "--nx", "5", "--nt", "7",
                         "--out", str(out))
    assert code == 0 and rep["status"] == "VERIFIED"
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["parameters"]["region"] == [-5.0, 5.0, 5, -0.5, 2.0, 7]


def test_verify_constraint_violation_exit_65(capsys):
    code, _, err = run_cli(capsys, "verify", "T2?p1=1&b=0", "--D", "0.5")
    assert code == 65 and "D=0" in err


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
     "error: transformed sampler undefined at (x=0.0, t=-5.0)"),
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
    ("simulate --ic {tmp}/header.csv", 65, "error: IC csv must have header x,rho,u, got 'x,u,rho'"),
    ("simulate --ic {tmp}/uneven.csv", 65, "error: IC csv must hold >= 8 uniformly spaced cells"),
], ids=["transform-at", "partial-region", "malformed-query", "bare-key", "duplicate-key",
        "vector-arity", "constants-arity", "not-a-number", "axis-fields", "axis-count",
        "axis-range", "axis-names", "surface-csv", "dirichlet-csv", "csv-header", "csv-spacing"])
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


def test_simulate_csv_ic_manifest_records_the_csv_cell_count(capsys, tmp_path):
    ic = tmp_path / "ic.csv"
    rows = ["x,rho,u"] + [f"{0.05 + 0.1 * i},1.0,0.0" for i in range(16)]
    ic.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run.csv"
    for extra in ([], ["--nx", "999"]):
        code, _, _ = run_cli(capsys, "simulate", "--ic", str(ic), "--t-end", "0.1",
                             "--out", str(out), *extra)
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
    # x +- 1e-17 rounds onto x: every divergence would read an exact 0.
    out = tmp_path / "cons.csv"
    code, stdout, err = run_cli(capsys, "conserve", "--entry", "T1?p1=1&p2=2&b=1",
                                "--which", "S1", "--c", "1,0,0", "--nx", "5", "--nt", "5",
                                "--h-step", "1e-17", "--out", str(out))
    assert (code, stdout) == (65, "")
    assert err == ("error: divergence stencil at (x=-4.0, t=-0.25) with step 1e-17"
                   " rounds onto its centre\n")
    assert not out.exists()


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
    ("P522", "p1, p2, e2, e3, e4", "pressureless similarity solution; requires A=0, D=0"),
    ("T1", "p1, p2, b", "rho=p2/(t+b), u=(x+p1)/(t+b); solves the system for any D"),
    ("T2", "p1, b", "branch family in sqrt((x+b)^2-4At^2); D=0"),
    ("T3", "p1, b", "rho=(p1/t)exp((t ln t - x - b)/(tA)), u=(x+b)/t+1; D=0, A>0"),
    ("T4", "p1, b", "constants rho=p1/sqrt(A), u=b+sqrt(A); D=0, A>0"),
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
