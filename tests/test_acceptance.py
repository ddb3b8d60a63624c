"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with `pytest -s` or in captured output).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from trafficflow.catalog import (GridRegion, REFUTED, VERIFIED, make_entry,
                                 verify_entry)
from trafficflow.cli import main as cli_main
from trafficflow.conservation import MultiplierConstants, divergence_residual
from trafficflow.lie import (LieCoeffs, adjoint_exp_matrix, adjoint_series_check,
                             basis, commutator, group_transform, invariant_tuple,
                             killing_form)
from trafficflow.model import ModelParams, pde_residual
from trafficflow.solver import Field, Grid, SolverConfig, convergence_order, run
from trafficflow.wavefront import (AmplitudeProblem, amplitude_direct,
                                   amplitude_quadrature)

MP1 = ModelParams(A=1.0)
MP0 = ModelParams(A=0.0)

VERIFIED_CASES = [
    ("T1", dict(p1=1, p2=2, b=1), MP1),
    ("T3", dict(p1=1, b=1), MP1),
    ("T4", dict(p1=1, b=0), MP1),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), MP0),
    ("E3ZERO", dict(p1=1, e1=1, e2=0.5, e4=1), MP1),
    ("T2", dict(p1=1, b=0), MP1),
]


class _report:
    def __init__(self, n, desc):
        self.n, self.desc = n, desc

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, et, ev, tb):
        status = "PASS" if et is None else "FAIL"
        dt = time.perf_counter() - self.start
        print(f"ACCEPTANCE {self.n} ({self.desc}): {status} [{dt:.2f}s]")
        return False


def _table3(i, j, eps):
    """Exact adjoint action Ad(exp(eps S_i)) S_j as printed in the table."""
    out = np.array(basis(j).as_tuple())
    if i == 1 and j in (2, 4):
        out[j - 1] = math.exp(eps)
    elif i == 2 and j == 1:
        out[1] = -eps
    elif i == 2 and j == 3:
        out[3] = -eps
    elif i == 3 and j == 2:
        out[3] = eps
    elif i == 4 and j == 1:
        out[3] = -eps
    return out


def test_criterion_1_lie_tables_exact():
    with _report(1, "commutation + adjoint tables, Jacobi, <1s"):
        t0 = time.perf_counter()
        table2 = {(1, 2): (0, -1, 0, 0), (2, 1): (0, 1, 0, 0),
                  (1, 4): (0, 0, 0, -1), (4, 1): (0, 0, 0, 1),
                  (2, 3): (0, 0, 0, 1), (3, 2): (0, 0, 0, -1)}
        for i in range(1, 5):
            for j in range(1, 5):
                expect = np.array(table2.get((i, j), (0, 0, 0, 0)), dtype=float)
                assert np.array_equal(commutator(basis(i), basis(j)).as_tuple(), expect)

        for i in range(1, 5):
            for j in range(1, 5):
                for eps in (0.3, -0.45):
                    action = np.array(basis(j).as_tuple()) @ adjoint_exp_matrix(i, eps)
                    assert np.array_equal(action, _table3(i, j, eps)), (i, j)
                # first-order consistency with the bracket series
                eps = 1e-4
                action = np.array(basis(j).as_tuple()) @ adjoint_exp_matrix(i, eps)
                first = (np.array(basis(j).as_tuple())
                         - eps * np.array(commutator(basis(i), basis(j)).as_tuple()))
                assert np.max(np.abs(action - first)) <= 2.0 * eps ** 2
                # exact agreement whenever the bracket chain terminates
                if (i, j) not in ((1, 2), (1, 4)):
                    assert adjoint_series_check(i, j, 0.3) == 0.0

        for i in range(1, 5):
            for j in range(1, 5):
                for k in range(1, 5):
                    X, Y, Z = basis(i), basis(j), basis(k)
                    total = (np.array(commutator(X, commutator(Y, Z)).as_tuple())
                             + np.array(commutator(Y, commutator(Z, X)).as_tuple())
                             + np.array(commutator(Z, commutator(X, Y)).as_tuple()))
                    assert np.array_equal(total, np.zeros(4))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_killing_form():
    with _report(2, "Killing form equals 2*w1^2, 100 random, 1e-12"):
        rng = np.random.default_rng(100)
        for _ in range(100):
            w = LieCoeffs(*rng.uniform(-3, 3, 4))
            assert abs(killing_form(w, w) - 2.0 * w.w1 ** 2) <= 1e-12


def test_criterion_3_invariant_function_table():
    with _report(3, "invariant-function table rows exact"):
        rows = {
            (0, 0, 1): (0.0, 0.0, 1.0, 1, 0, 0),   # S3 + b S4
            (1, 0, 0): (2.0, 1.0, 0.0, 1, 0, 0),   # S1 + b S4
            (1, 0, 1): (2.0, 1.0, 1.0, 1, 0, 0),   # S1 + S3 + b S4
            (0, 1, 0): (0.0, 0.0, 0.0, 1, 1, 0),   # S2 + b S4
        }
        for (w1, w2, w3), expect in rows.items():
            for b in (-1, 0, 1):
                iv = invariant_tuple(LieCoeffs(w1, w2, w3, b))
                assert (iv.killing, iv.M, iv.N, iv.P, iv.Q, iv.R) == expect


def _region101(entry, mp):
    r = entry.default_region(mp)
    return GridRegion(r.x0, r.x1, 101, r.t0, r.t1, 101)


def test_criterion_4_catalog_verification():
    with _report(4, "catalog VERIFIED at 1e-10 on 101x101; controls adjudicated"):
        for kind, params, mp in VERIFIED_CASES:
            entry = make_entry(kind, **params)
            rep = verify_entry(entry, mp, region=_region101(entry, mp), tol=1e-10)
            assert rep.status == VERIFIED, (kind, rep.status, rep.max_r1, rep.max_r2)
            assert max(rep.max_r1, rep.max_r2) <= 1e-10

        neg = make_entry("NEGCTRL")
        rep = verify_entry(neg, MP1, region=_region101(neg, MP1), tol=1e-10)
        assert rep.status == REFUTED

        for mshape, c1, A in (("sin", 1.0, 1.0), ("sec", -1.0, 5.0),
                              ("cos", -6.0, 5.0), ("gauss", -6.0, 5.0)):
            entry = make_entry("KINK", mshape=mshape, c1=c1)
            mp = ModelParams(A=A)
            rep = verify_entry(entry, mp, region=_region101(entry, mp), tol=1e-10)
            assert rep.status in (VERIFIED, REFUTED)          # determinate
            assert rep.status == REFUTED                      # measured outcome
            assert len(rep.fd_floors) == 3                    # convergence evidence
            assert any("continuity residual floor" in n for n in rep.notes)


_PULLBACK = {
    1: lambda x, t, eps: (x * math.exp(-eps), t * math.exp(-eps)),
    2: lambda x, t, eps: (x, t - eps),
    3: lambda x, t, eps: (x - eps * t, t),
    4: lambda x, t, eps: (x - eps, t),
}


def test_criterion_5_group_actions_preserve_solutions():
    with _report(5, "G1..G4 at eps=+-0.3 re-verify within 10x residual floor"):
        for kind, params, mp in VERIFIED_CASES:
            entry = make_entry(kind, **params)
            s = entry.sampler(mp)
            region = entry.default_region(mp)
            dx = 0.2 * (region.x1 - region.x0)
            dt = 0.2 * (region.t1 - region.t0)
            pts = [(float(x), float(t))
                   for x in np.linspace(region.x0 + dx, region.x1 - dx, 21)
                   for t in np.linspace(region.t0 + dt, region.t1 - dt, 21)]
            for i in (1, 2, 3, 4):
                for eps in (0.3, -0.3):
                    transformed = group_transform(i, eps, s)
                    tmax = floor = 0.0
                    for (x, t) in pts:
                        r1, r2 = pde_residual(mp, transformed, x, t)
                        tmax = max(tmax, abs(r1), abs(r2))
                        xb, tb = _PULLBACK[i](x, t, eps)
                        b1, b2 = pde_residual(mp, s, xb, tb)
                        floor = max(floor, abs(b1), abs(b2))
                    if floor == 0.0:
                        assert tmax == 0.0, (kind, i, eps)
                    else:
                        assert tmax <= 10.0 * floor, (kind, i, eps, tmax, floor)


def test_criterion_6_solver():
    with _report(6, "solver convergence + discrete conservation, <30s"):
        t0 = time.perf_counter()
        for kind, params, span, ta, tb in (
                ("T1", dict(p1=1, p2=2, b=1), (0.0, 2.0), 1.0, 1.6),
                ("T3", dict(p1=2, b=1), (0.0, 1.0), 1.0, 1.4)):
            s = make_entry(kind, **params).sampler(MP1)
            base = SolverConfig(grid=Grid.over(span[0], span[1], 50), params=MP1,
                                scheme="rusanov", bc="dirichlet",
                                dirichlet_sampler=s, cfl=0.4)
            res = convergence_order(base, s, [50, 100, 200], ta, tb)
            for var in ("rho", "u"):
                assert 0.8 <= res.orders[var] <= 1.3, (kind, var, res.orders)

        grid = Grid.over(0.0, 2.0, 128)
        xs = grid.centers()
        f = Field(t=0.0, rho=np.where(xs < 1.0, 2.0, 1.0), u=np.zeros(grid.nx))
        cfg = SolverConfig(grid=grid, params=MP1, scheme="rusanov",
                           bc="periodic", cfl=0.45)
        dx = grid.dx
        mass = float(np.sum(f.rho) * dx)
        mom = float(np.sum(f.momentum) * dx)
        from trafficflow.solver import step
        for _ in range(10_000):
            f = step(f, cfg)
            m = float(np.sum(f.rho) * dx)
            q = float(np.sum(f.momentum) * dx)
            assert abs(m - mass) <= 1e-12
            assert abs(q - mom) <= 1e-12
            mass, mom = m, q
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, elapsed


def test_criterion_7_conserved_vector_divergence():
    with _report(7, "S2/S4 divergence order >= 1.9 on T1; control stays nonzero"):
        s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
        for which in ("S2", "S4"):
            for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                vals = [abs(divergence_residual(which, MultiplierConstants(*c),
                                                MP1, s, 1.0, 1.5, h))
                        for h in (4e-3, 2e-3, 1e-3)]
                if max(vals) <= 1e-12:
                    continue          # identically conserved combination
                assert math.log2(vals[0] / vals[1]) >= 1.9, (which, c, vals)
                assert math.log2(vals[1] / vals[2]) >= 1.9, (which, c, vals)
        neg = make_entry("NEGCTRL").sampler(MP1)
        vals = [abs(divergence_residual("S4", MultiplierConstants(0, 1, 0), MP1,
                                        neg, 1.0, 1.0, h)) for h in (4e-3, 2e-3, 1e-3)]
        assert min(vals) > 1e-2


def test_criterion_8_wavefront():
    with _report(8, "pi_c, shock time, quadrature-vs-RK4, three regimes"):
        s = make_entry("T1", p1=0, p2=1, b=1).sampler(MP1)

        def prob(pi0):
            return AmplitudeProblem(background=s, A=1.0, x0=1.0, t0=1.0,
                                    pi0=pi0, psi_shift_b=1.0)

        sol = amplitude_quadrature(prob(0.5), 20.0, n=9500)
        assert abs(sol.pi_c - 0.75) <= 1e-6
        tr = amplitude_direct(prob(0.5), 20.0, dt=19.0 / 9500)
        assert np.max(np.abs(sol.pi - tr.pi)) <= 1e-6

        shock = amplitude_quadrature(prob(-1.5), 3.0, n=4000)
        assert abs(shock.shock_time - (2.0 ** (5.0 / 3.0) - 1.0)) <= 1e-4

        # expansive decay
        exp_sol = amplitude_quadrature(prob(0.8), 40.0, n=4000)
        assert np.all(exp_sol.pi > 0.0)
        assert np.all(np.diff(exp_sol.pi[exp_sol.times > 5.0]) < 0.0)
        assert exp_sol.pi[-1] < 1e-2 * exp_sol.pi[0]
        assert exp_sol.shock_time == math.inf
        # subcritical persistence
        sub = amplitude_quadrature(prob(-0.5), 60.0, n=6000)
        assert sub.shock_time == math.inf
        assert np.all(np.isfinite(sub.pi)) and abs(sub.pi[-1]) < 0.02
        # supercritical shock formation
        for pi0, t_end in ((-0.76, 60.0), (-1.5, 3.0)):
            sol = amplitude_quadrature(prob(pi0), t_end, n=6000)
            assert math.isfinite(sol.shock_time), pi0


# Figure parameter sets as printed under the corresponding plots.
FIGURES = {
    "fig01": ["simulate", "--ic", "T1?p1=1&p2=2&b=1", "--A", "1",
              "--surface", "x:-5:5:101", "t:0.5:3:101"],
    "fig02": ["simulate", "--ic", "T2?p1=2&b=1", "--A", "1",
              "--surface", "x:-10:-3.2:101", "t:0.1:1:101"],
    "fig03": ["simulate", "--ic", "T3?p1=2&b=1", "--A", "1",
              "--surface", "x:-5:5:101", "t:0.5:3:101"],
    "fig04": ["simulate", "--ic", "P522?p1=2&p2=1&e2=2&e3=1&e4=3", "--A", "0",
              "--surface", "x:-5:5:101", "t:1.5:4:101"],
    "fig05": ["simulate", "--ic", "KINK?mshape=sin&c1=1", "--A", "1",
              "--surface", "x:0.2:2.9:101", "t:0:5:101"],
    "fig06": ["simulate", "--ic", "KINK?mshape=sec&c1=-1", "--A", "5",
              "--surface", "x:-1.35:1.35:101", "t:0:5:101"],
    "fig07": ["simulate", "--ic", "KINK?mshape=cos&c1=-6", "--A", "5",
              "--surface", "x:-1.35:1.35:101", "t:0:5:101"],
    "fig08": ["simulate", "--ic", "KINK?mshape=gauss&c1=-6", "--A", "5",
              "--surface", "x:-2:2:101", "t:0:5:101"],
    "fig09": ["wavefront", "--background", "T1?p1=0&p2=1&b=1", "--A", "1",
              "--pi0", "0.5", "--t-end", "20", "--n", "1000"],
    "fig10": ["wavefront", "--background", "T1?p1=0&p2=1&b=1", "--A", "1",
              "--pi0", "-1.5", "--t-end", "3", "--n", "1000"],
}


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    for name, argv in FIGURES.items():
        path = out / f"{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv + ["--out", str(path)])
        assert code == 0, (name, code)
    return out


def _load_surface(path):
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    data = np.array([[float(v) for v in r] for r in rows])
    return data  # columns t, x, rho, u


def test_criterion_9_figure_data_emission(figure_dir):
    with _report(9, "figure surface CSVs emitted; monotonicity spot-checks"):
        for name in FIGURES:
            path = figure_dir / f"{name}.csv"
            assert path.exists() and path.stat().st_size > 0
            assert (figure_dir / f"{name}.csv.manifest.json").exists()
        data = _load_surface(figure_dir / "fig01.csv")
        ts = np.unique(data[:, 0])
        xs = np.unique(data[:, 1])
        rho = data[:, 2].reshape(len(ts), len(xs))
        u = data[:, 3].reshape(len(ts), len(xs))
        assert np.all(np.diff(rho, axis=0) < 0.0)   # rho strictly decreasing in t
        assert np.all(np.diff(u, axis=1) > 0.0)     # u strictly increasing in x
        # wavefront traces carry the documented columns
        head = (figure_dir / "fig09.csv").read_text().split("\n", 1)[0]
        assert head == "t,x,psi,E,F,pi"


def test_criterion_10_manifest_replay_determinism(figure_dir):
    with _report(10, "manifest replay reproduces byte-identical outputs"):
        for name in FIGURES:
            csv_path = figure_dir / f"{name}.csv"
            manifest_path = figure_dir / f"{name}.csv.manifest.json"
            manifest = json.loads(manifest_path.read_text())
            before = {p: d for p, d in manifest["outputs"].items()}
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(manifest["argv"])
            assert code == 0
            for path, digest in before.items():
                got = "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
                assert got == digest, path
            # the manifest itself is reproduced byte-identically too
            assert json.loads(manifest_path.read_text()) == manifest


def test_criterion_10b_cli_process_determinism(tmp_path):
    # same flags through a fresh interpreter: byte-identical artifacts
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["-m", "trafficflow", "simulate", "--ic", "T1?p1=1&p2=2&b=1",
            "--surface", "x:-2:2:21", "t:0.5:2:21"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable] + argv + ["--out", str(out1)],
                   check=True, capture_output=True, env=env)
    subprocess.run([sys.executable] + argv + ["--out", str(out2)],
                   check=True, capture_output=True, env=env)
    assert out1.read_bytes() == out2.read_bytes()
