"""Seeded operation lists of the three benchmark workloads.

Every workload is a closed loop: one caller runs the operations of a fixed
list one after another.  An operation pairs a timed ``call`` into the
trafficflow public API with a ``check`` that judges the result against the
findings the package documents (README), never against whatever the code
printed at some commit.  A check raises ``CheckFailed``.

All inputs come from ``random.Random(seed)``; the program only ever sees
the generated parameters.  Functions are reached through their modules
(``catalog.verify_entry``), so the counting wrappers of the traced run see
these calls too.
"""

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from trafficflow import catalog, conservation, lie, model, solver, wavefront

WORKLOADS = ("closed_form_sweep", "fv_march", "cli_cold")

# Wall budget of one operation.  fv_march: a stable explicit viscous T1 run at
# nx=100 needs ~1.2k steps (~0.1 s here), the largest inviscid run ~0.5 s, so
# 1.5 s only cuts a run that has stopped making progress.
BUDGET_S = {"closed_form_sweep": 20.0, "fv_march": 1.5, "cli_cold": 60.0}

# First-order bound on the L1 error of an FV run against exact T1:
# err <= FV_L1_CONST * dx.  Stable runs measure 0.01-0.03 * dx here.
FV_L1_CONST = 0.1
FD_ORDER2 = 2.0 ** 1.9          # step-halving ratio of an order-2 difference
KNOWN_VISCOUS_DEFECT = "explicit viscous dt rule is unstable (ROADMAP item 1)"


class CheckFailed(Exception):
    """An operation returned, but its outcome contradicts the documented one."""


class BudgetExceeded(Exception):
    """An operation ran past its wall budget and was cut off."""


@dataclass
class Op:
    name: str
    span: str                       # span name the traced run records it under
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known_defect: str = ""          # non-empty: a documented open defect may fail it


@dataclass
class Workload:
    name: str
    ops: list
    in_process: bool                # False: each op is a child process
    budget_s: float


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(got: float, want: float, rel: float, what: str) -> None:
    _require(abs(got - want) <= rel * max(1.0, abs(want)), f"{what}: got {got!r}, want {want!r}")


def _t1_params(rng: random.Random) -> dict:
    # A +-10% neighbourhood of the T1 case of the README and ROADMAP item 1
    # (p1=1, p2=2, b=1, A=1, D=0.5).
    return {"p1": rng.uniform(0.9, 1.1), "p2": rng.uniform(1.8, 2.2), "b": rng.uniform(0.9, 1.1)}


def t1_exact(p: dict, xs: np.ndarray, t: float):
    """Exact T1 density and velocity at the points xs and time t."""
    w = t + p["b"]
    return np.full_like(xs, p["p2"] / w), (xs + p["p1"]) / w


def _t1_shock_time(b: float, t0: float, pi0: float) -> float:
    """Closed-form blow-up time of the C1 wave on T1 (Psi = 5 / (2 (t + b)))."""
    # F(t) = 2 (t0+b)/3 * (1 - ((t0+b)/(t+b))^(3/2)); solve 1 + pi0 F = 0.
    w0 = t0 + b
    return w0 * (1.0 + 3.0 / (2.0 * pi0 * w0)) ** (-2.0 / 3.0) - b


# ---------------------------------------------------------------- closed_form_sweep


def _verify_op(kind: str, params: dict, mp, want: str) -> Op:
    entry = catalog.make_entry(kind, **params)

    def check(rep):
        _require(rep.status == want, f"{entry.id()}: status {rep.status}, want {want}")
        if want == catalog.VERIFIED:
            _require(max(rep.max_r1, rep.max_r2) <= rep.tol, f"{entry.id()}: residual above tol")
        else:
            _require(rep.residual_floor > 1e-6 and rep.conv_ratios[-1] < 2.0 ** 0.9,
                     f"{entry.id()}: refutation without a stable residual floor")

    label = f"{kind}:{params.get('mshape', '')}D={mp.D:.3g}"
    return Op(f"verify_entry:{label}", "catalog.verify_entry",
              lambda: catalog.verify_entry(entry, mp), check)


def _fd4_op(kind: str, params: dict, mp, genuine: bool) -> Op:
    entry = catalog.make_entry(kind, **params)
    full = entry.sampler(mp)
    bare = model.SolutionSampler(eval=full.eval, domain=full.domain, partials=None)
    region = entry.default_region(mp)

    def check(rep):
        _require(rep.partials_method == "fd4", f"{kind}: took the {rep.partials_method} path")
        if genuine:
            # A true solution is never refuted, and its FD floor falls at order 2.
            _require(rep.status != catalog.REFUTED, f"{kind}: genuine solution refuted")
            _require(all(r >= FD_ORDER2 for r in rep.conv_ratios), f"{kind}: FD floor not order 2")
        else:
            _require(rep.status == catalog.REFUTED, f"{kind}: status {rep.status}, want REFUTED")

    return Op(f"verify_fd4:{kind}", "catalog.verify_fd4",
              lambda: catalog.verify_sampler(mp, bare, region, tol=1e-8), check)


def _transform_op(gen: int, eps: float, entry, mp, tr) -> Op:
    region = entry.default_region(mp)
    dx = 0.15 * (region.x1 - region.x0)
    dt = 0.15 * (region.t1 - region.t0)
    shrunk = catalog.GridRegion(region.x0 + dx, region.x1 - dx, 21,
                                region.t0 + dt, region.t1 - dt, 21)
    base = entry.sampler(mp)

    def call():
        with tr.span("lie.group_transform"):
            moved = lie.group_transform(gen, eps, base)
        with tr.span("catalog.verify_sampler"):
            return catalog.verify_sampler(mp, moved, shrunk, tol=1e-8)

    def check(rep):
        _require(rep.status == catalog.VERIFIED, f"G{gen}({eps:.3f}): status {rep.status}")

    return Op(f"transform_verify:G{gen}", "lie.transform_verify", call, check)


def _conserve_op(which: str, c, mp, sampler, region, n: int = 41) -> Op:
    # Same interior probe box as the CLI's conserve command.
    xs = np.linspace(region.x0 + 0.1 * (region.x1 - region.x0),
                     region.x1 - 0.1 * (region.x1 - region.x0), n).tolist()
    ts = np.linspace(region.t0 + 0.1 * (region.t1 - region.t0),
                     region.t1 - 0.1 * (region.t1 - region.t0), n).tolist()
    h = 2e-3

    def call():
        worst = [0.0, 0.0]
        for t in ts:
            for x in xs:
                conservation.symmetry_conserved_vector(which, c, mp, sampler, x, t, h)
                for k, step in enumerate((h, h / 2)):
                    div = conservation.divergence_residual(which, c, mp, sampler, x, t, step)
                    worst[k] = max(worst[k], abs(div))
        return worst

    def check(worst):
        coarse, fine = worst
        if which in ("S2", "S4"):
            # Conserved rows: the divergence falls at the FD order.
            _require(coarse <= 1e-11 or coarse / fine >= FD_ORDER2,
                     f"{which}: divergence {coarse:.3e} -> {fine:.3e} not order 2")
        else:
            # Printed S1/S3 rows carry a sign defect: an O(1) floor.
            _require(fine > 1e-3 and coarse / fine < 1.5,
                     f"{which}: expected an O(1) divergence floor, got {coarse:.3e} -> {fine:.3e}")

    return Op(f"conserve_grid:{which}", "conservation.grid", call, check)


def _wavefront_op(closed: bool, sampler, A: float, b: float, rng: random.Random) -> Op:
    x0 = rng.uniform(-1.0, 1.0)
    t0 = rng.uniform(0.5, 1.5)
    pi_c = 3.0 / (2.0 * (t0 + b))
    pi0 = -rng.uniform(1.5, 2.5) * pi_c            # below -pi_c: a shock forms
    t_shock = _t1_shock_time(b, t0, pi0)
    t_end = t0 + 1.5 * (t_shock - t0)
    prob = wavefront.AmplitudeProblem(background=sampler, A=A, x0=x0, t0=t0, pi0=pi0,
                                      psi_shift_b=b if closed else None)

    def check(sol):
        _close(sol.pi_c, pi_c, 1e-12 if closed else 1e-3, "pi_c")
        _close(sol.shock_time, t_shock, 1e-6, "shock time")

    label = "closed" if closed else "tail"
    return Op(f"amplitude_quadrature:{label}", f"wavefront.quadrature_{label}",
              lambda: wavefront.amplitude_quadrature(prob, t_end, n=1000), check)


def _family_of(w) -> str:
    """Optimal-system family from the (w1, w3) signature (both adjoint invariants)."""
    if w[0] != 0.0:
        return "T3" if w[2] != 0.0 else "T2"
    if w[2] != 0.0:
        return "T1"
    return "T4" if w[1] != 0.0 else "UNREDUCED"


def _random_algebra_vector(rng: random.Random) -> list:
    w = [rng.choice((-1, 1)) * rng.uniform(0.2, 2.0) for _ in range(4)]
    for i in rng.choice(((), (2,), (0,), (0, 2))):   # zero w1 and/or w3
        w[i] = 0.0
    return [round(v, 3) for v in w]


def _classify_op(rng: random.Random) -> Op:
    vectors = [_random_algebra_vector(rng) for _ in range(64)]

    def call():
        return [lie.classify_optimal(lie.LieCoeffs(*w)) for w in vectors]

    def check(results):
        for w, (cls, _, _) in zip(vectors, results):
            _require(cls.family == _family_of(w), f"classify {w}: {cls.family}")

    return Op("classify_optimal:x64", "lie.classify_optimal", call, check)


def closed_form_sweep(rng: random.Random, tr) -> Workload:
    A = rng.uniform(0.8, 1.25)
    mp = model.ModelParams(A=A)
    mp_visc = model.ModelParams(A=A, D=rng.uniform(0.1, 1.0))
    t1 = {"p1": rng.uniform(-1.0, 1.0), "p2": rng.uniform(0.5, 3.0), "b": rng.uniform(0.5, 1.5)}
    V, R = catalog.VERIFIED, catalog.REFUTED
    ops = [
        _verify_op("T1", t1, mp, V),
        _verify_op("T1", t1, mp_visc, V),        # T1 solves the viscous system for any D
        _verify_op("T2", {"p1": rng.choice((-1, 1)) * rng.uniform(0.5, 2.0),
                          "b": rng.uniform(-1.0, 1.0)}, mp, V),
        _verify_op("T3", {"p1": rng.uniform(0.5, 2.0), "b": rng.uniform(0.0, 1.0)}, mp, V),
        _verify_op("T4", {"p1": rng.uniform(0.5, 2.0), "b": rng.uniform(-1.0, 1.0)}, mp, V),
        _verify_op("P522", {"p1": rng.uniform(1.0, 3.0), "p2": rng.uniform(0.5, 1.5),
                            "e2": rng.uniform(1.5, 2.5), "e3": rng.uniform(0.5, 1.5),
                            "e4": rng.uniform(2.0, 4.0)}, model.ModelParams(A=0.0), V),
        _verify_op("E3ZERO", {"p1": rng.uniform(0.5, 2.0), "e1": rng.uniform(0.5, 1.5),
                              "e2": rng.uniform(0.0, 1.0), "e4": rng.uniform(0.0, 2.0)}, mp, V),
    ]
    ops += [_verify_op("KINK", {"mshape": shape, "c1": rng.uniform(0.5, 1.5)}, mp, R)
            for shape in ("sin", "cos", "sec", "gauss")]
    ops.append(_verify_op("NEGCTRL", {}, mp, R))
    ops.append(_fd4_op("T1", t1, mp, genuine=True))
    ops.append(_fd4_op("KINK", {"mshape": "gauss", "c1": rng.uniform(0.5, 1.5)}, mp, genuine=False))

    t1_entry = catalog.make_entry("T1", **t1)
    for gen in (1, 2, 3, 4):
        eps = rng.choice((-1, 1)) * rng.uniform(0.1, 0.4)
        ops.append(_transform_op(gen, eps, t1_entry, mp, tr))

    sampler = t1_entry.sampler(mp)
    region = t1_entry.default_region(mp)
    c = conservation.MultiplierConstants(*(rng.uniform(0.5, 1.5) for _ in range(3)))
    ops += [_conserve_op(which, c, mp, sampler, region) for which in ("S1", "S2", "S3", "S4")]
    ops.append(_wavefront_op(True, sampler, A, t1["b"], rng))
    ops.append(_wavefront_op(False, sampler, A, t1["b"], rng))
    ops.append(_classify_op(rng))
    return Workload("closed_form_sweep", ops, True, BUDGET_S["closed_form_sweep"])


# ---------------------------------------------------------------- fv_march


def _t1_max_speed(p: dict, mp, t0: float = 1.0) -> float:
    """Largest |u| + sqrt(A) of T1 on [0, 2] from t0 on (|u| only falls later)."""
    return max(abs(p["p1"]), abs(2.0 + p["p1"])) / (t0 + p["b"]) + mp.sqrt_A


# Runs end when the fastest wave has crossed a fixed distance, so the step
# count, and the cost, hardly depends on the seeded parameters.
WAVE_TRAVEL = 0.5
LONG_WAVE_TRAVEL = 0.75


def _fv_t1_op(p: dict, mp, nx: int, scheme: str, bc: str, known_defect: str = "") -> Op:
    t0 = 1.0
    t_end = t0 + WAVE_TRAVEL / _t1_max_speed(p, mp, t0)
    grid = solver.Grid.over(0.0, 2.0, nx)
    sampler = catalog.make_entry("T1", **p).sampler(mp)
    cfg = solver.SolverConfig(grid=grid, params=mp, scheme=scheme, bc=bc,
                              dirichlet_sampler=sampler if bc == "dirichlet" else None)
    margin = 0.0
    if bc == "outflow":
        # Zero-gradient ghosts are wrong for T1; compare only cells that no
        # boundary signal reaches.
        margin = WAVE_TRAVEL + 2.0 * grid.dx

    def check(traj):
        f = traj.fields[-1]
        _require(abs(f.t - t_end) <= 1e-12, f"run ended at t={f.t}")
        xs = grid.centers()
        keep = (xs >= grid.x0 + margin) & (xs <= grid.x0 + grid.span - margin)
        for name, got, ref in zip(("rho", "u"), (f.rho, f.u), t1_exact(p, xs, f.t)):
            err = float(np.sum(np.abs(got - ref)[keep]) * grid.dx)
            _require(err <= FV_L1_CONST * grid.dx,
                     f"{name} L1 error {err:.3e} above {FV_L1_CONST} * dx")

    visc = f"D={mp.D:.3g}" if mp.D else "inviscid"
    return Op(f"run:T1:{visc}:{scheme}:{bc}:nx{nx}", "solver.run",
              lambda: solver.run(cfg, sampler, t0, t_end), check, known_defect)


def _fv_periodic_op(rng: random.Random, A: float, nx: int, scheme: str) -> Op:
    grid = solver.Grid.over(0.0, 2.0, nx)
    xs = grid.centers()
    ph = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
    rho = (1.0 + rng.uniform(0.05, 0.2) * np.sin(math.pi * xs + ph[0])
           + rng.uniform(0.02, 0.1) * np.sin(2.0 * math.pi * xs + ph[1]))
    u = rng.uniform(-0.5, 0.5) + rng.uniform(0.05, 0.2) * np.sin(math.pi * xs + ph[2])
    field0 = solver.Field(t=0.0, rho=rho, u=u)
    t_end = LONG_WAVE_TRAVEL / float(np.max(np.abs(u)) + math.sqrt(A))
    cfg = solver.SolverConfig(grid=grid, params=model.ModelParams(A=A), scheme=scheme,
                              bc="periodic")
    mass0 = float(np.sum(rho) * grid.dx)
    mom0 = float(np.sum(rho * u) * grid.dx)
    scale = float(np.sum(np.abs(rho)) + np.sum(np.abs(rho * u))) * grid.dx

    def check(traj):
        last = traj.diagnostics[-1]
        # Periodic fluxes telescope: drift is summation round-off only.
        bound = 8.0 * np.finfo(float).eps * len(traj.diagnostics) * scale
        _require(abs(last["mass"] - mass0) <= bound, f"mass drift {last['mass'] - mass0:.3e}")
        _require(abs(last["momentum"] - mom0) <= bound,
                 f"momentum drift {last['momentum'] - mom0:.3e}")

    return Op(f"run:periodic:{scheme}:nx{nx}", "solver.run",
              lambda: solver.run(cfg, field0, 0.0, t_end), check)


def _fv_convergence_op(p: dict, mp) -> Op:
    sampler = catalog.make_entry("T1", **p).sampler(mp)
    base = solver.SolverConfig(grid=solver.Grid.over(0.0, 2.0, 50), params=mp, scheme="rusanov",
                               bc="dirichlet", dirichlet_sampler=sampler, cfl=0.4)
    t_end = 1.0 + LONG_WAVE_TRAVEL / _t1_max_speed(p, mp)

    def check(res):
        for var in ("rho", "u"):
            # First-order scheme: the criterion-6 band of the acceptance tests.
            _require(0.8 <= res.orders[var] <= 1.3, f"{var} order {res.orders[var]:.3f}")

    return Op("convergence_order:T1", "solver.convergence_order",
              lambda: solver.convergence_order(base, sampler, [50, 100, 200], 1.0, t_end), check)


def fv_march(rng: random.Random) -> Workload:
    p = _t1_params(rng)
    A = rng.uniform(0.9, 1.1)
    mp = model.ModelParams(A=A)
    mp_visc = model.ModelParams(A=A, D=rng.uniform(0.45, 0.55))
    # Eleven operations: five cheap (< 20 ms), the convergence study in the
    # middle (~30 ms) and five dear (> 60 ms), so the median operation is
    # the same one on every seed.
    ops = [
        _fv_t1_op(p, mp, 50, "rusanov", "dirichlet"),
        _fv_t1_op(p, mp, 200, "lax_friedrichs", "dirichlet"),
        _fv_t1_op(p, mp, 300, "rusanov", "outflow"),
        _fv_t1_op(p, mp, 1500, "lax_friedrichs", "outflow"),
        _fv_t1_op(p, mp, 2000, "lax_friedrichs", "dirichlet"),
        _fv_t1_op(p, mp, 4000, "rusanov", "dirichlet"),
        _fv_periodic_op(rng, A, 200, "rusanov"),
        _fv_periodic_op(rng, A, 1500, "lax_friedrichs"),
        # T1 is exact for any D, so these must meet the same bound.  With the
        # current dt rule nx=50 ends far off and nx>=100 grinds to the budget.
        _fv_t1_op(p, mp_visc, 50, "rusanov", "dirichlet", KNOWN_VISCOUS_DEFECT),
        _fv_t1_op(p, mp_visc, 100, "rusanov", "dirichlet", KNOWN_VISCOUS_DEFECT),
        _fv_convergence_op(p, mp),
    ]
    return Workload("fv_march", ops, True, BUDGET_S["fv_march"])


# ---------------------------------------------------------------- cli_cold


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class CliResult:
    code: int
    stdout: str
    outdir: Path


class CliRunner:
    """Runs ``python -m trafficflow`` children one at a time in a scratch dir."""

    def __init__(self, root: Path, workdir: Path, budget_s: float):
        self.env = cli_env(root)
        self.workdir = workdir
        self.budget_s = budget_s

    def __call__(self, argv: list) -> CliResult:
        outdir = self.workdir / "cli"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        argv = [a.replace("{out}", str(outdir)) for a in argv]
        try:
            proc = subprocess.run([sys.executable, "-m", "trafficflow", *argv], cwd=outdir,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=self.budget_s)
        except subprocess.TimeoutExpired as e:
            raise BudgetExceeded(f"cli {argv[:2]} over {self.budget_s} s") from e
        return CliResult(proc.returncode, proc.stdout, outdir)


def _check_manifest(res: CliResult, first: str) -> None:
    """The manifest beside the first output lists a digest for every file it wrote."""
    manifest = json.loads((res.outdir / (first + ".manifest.json")).read_text(encoding="utf-8"))
    _require(manifest["outputs"], "manifest lists no outputs")
    for path, digest in manifest["outputs"].items():
        data = Path(path).read_bytes()
        _require(digest == "sha256:" + hashlib.sha256(data).hexdigest(), f"digest mismatch {path}")


def _expect_code(res: CliResult, code: int) -> None:
    _require(res.code == code, f"exit code {res.code}, want {code}")


def _bracket(a: list, b: list) -> list:
    """[a, b] from the published table [S1,S2] = -S2, [S1,S4] = -S4, [S2,S3] = S4."""
    c12 = a[0] * b[1] - a[1] * b[0]
    c14 = a[0] * b[3] - a[3] * b[0]
    c23 = a[1] * b[2] - a[2] * b[1]
    return [0.0, -c12, 0.0, -c14 + c23]


def _vec(w) -> str:
    return ",".join(repr(float(v)) for v in w)


def _cli_op(name: str, argv: list, check, run: CliRunner) -> Op:
    return Op(f"cli:{name}", "cli." + name.split(":")[0], lambda: run(argv), check)


def cli_ops(rng: random.Random, run: CliRunner) -> list:
    p = {k: round(v, 4) for k, v in _t1_params(rng).items()}
    A = round(rng.uniform(0.9, 1.1), 4)
    D = round(rng.uniform(0.3, 0.7), 4)
    spec = f"T1?p1={p['p1']}&p2={p['p2']}&b={p['b']}"
    a = [round(rng.uniform(-2, 2), 3) for _ in range(4)]
    b = [round(rng.uniform(-2, 2), 3) for _ in range(4)]
    w = _random_algebra_vector(rng)
    w[0] = w[0] or 0.5                       # keeps the Killing-form check non-trivial
    eps = [round(rng.uniform(-1, 1), 3) for _ in range(4)]
    cls_w = _random_algebra_vector(rng)
    e = [round(rng.uniform(0.5, 1.5), 3), 0.0, round(rng.uniform(-1, 1), 3),
         round(rng.uniform(0.5, 1.5), 3)]
    delta, x_ic = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.0, 2.0), 3)
    gen, g_eps = rng.randint(1, 4), round(rng.choice((-1, 1)) * rng.uniform(0.1, 0.3), 3)
    kink = rng.choice(("sin", "cos", "sec", "gauss"))
    c1_kink = round(rng.uniform(0.5, 1.5), 3)
    c = [round(rng.uniform(0.5, 1.5), 3) for _ in range(3)]
    t0w = round(rng.uniform(0.5, 1.5), 3)
    pi0 = round(-rng.uniform(1.5, 2.5) * 3.0 / (2.0 * (t0w + p["b"])), 4)
    t_shock = _t1_shock_time(p["b"], t0w, pi0)
    t_endw = round(t0w + 1.5 * (t_shock - t0w), 3)
    nx = 200
    divs = {}

    def stdout_json(res):
        return json.loads(res.stdout)

    def chk_catalog(res):
        _expect_code(res, 0)
        names = sorted(line.split()[0] for line in res.stdout.strip().split("\n"))
        _require(names == sorted(catalog.ENTRY_PARAMS), f"catalog list {names}")

    def chk_commutator(res):
        _expect_code(res, 0)
        for got, want in zip(stdout_json(res)["result"], _bracket(a, b)):
            _close(got, want, 1e-12, "commutator")

    def chk_killing(res):
        _expect_code(res, 0)
        _close(stdout_json(res)["K"], 2.0 * w[0] ** 2, 1e-12, "Killing form 2 w1^2")

    def chk_adjoint(res):
        _expect_code(res, 0)
        out = stdout_json(res)["result"]
        # w1 and w3 never appear in a bracket, so every adjoint map keeps them.
        _close(out[0], w[0], 1e-12, "adjoint invariant w1")
        _close(out[2], w[2], 1e-12, "adjoint invariant w3")

    def chk_classify(res):
        _expect_code(res, 0)
        out = stdout_json(res)
        _require(out["family"] == _family_of(cls_w), f"family {out['family']}")
        _close(out["invariants"]["K"], 2.0 * cls_w[0] ** 2, 1e-12, "Killing invariant")

    def chk_ic(res):
        _expect_code(res, 0)
        _close(stdout_json(res)["theta"], delta / (e[0] * x_ic + e[3]), 1e-12, "reciprocal Theta")

    def chk_transform(res):
        _expect_code(res, 0)
        status = stdout_json(res)["verify"]["status"]
        _require(status == catalog.VERIFIED, f"G{gen} image of T1 is {status}")

    def chk_verify(status, code):
        def check(res):
            _expect_code(res, code)
            _require(stdout_json(res)["status"] == status, "verify status")
            _check_manifest(res, "verify.json")
        return check

    def chk_usage(res):
        _expect_code(res, 64)

    def chk_trajectory(res):
        _expect_code(res, 0)
        _check_manifest(res, "traj.csv")
        data = np.loadtxt(res.outdir / "traj.csv", delimiter=",", skiprows=1)
        t, xs = float(data[0, 0]), data[:, 1]
        dx = 2.0 / nx
        for name, got, ref in zip(("rho", "u"), (data[:, 2], data[:, 3]), t1_exact(p, xs, t)):
            err = float(np.sum(np.abs(got - ref)) * dx)
            _require(err <= FV_L1_CONST * dx, f"simulate {name} L1 error {err:.3e}")

    def chk_surface(res):
        _expect_code(res, 0)
        _check_manifest(res, "surf.csv")
        data = np.loadtxt(res.outdir / "surf.csv", delimiter=",", skiprows=1)
        w = data[:, 0] + p["b"]
        rho, u = p["p2"] / w, (data[:, 1] + p["p1"]) / w
        _require(np.allclose(data[:, 2], rho, rtol=1e-13, atol=0.0) and
                 np.allclose(data[:, 3], u, rtol=1e-13, atol=1e-13), "surface differs from T1")

    def chk_conserve(key):
        def check(res):
            _expect_code(res, 0)
            _check_manifest(res, "cons.csv")
            data = np.loadtxt(res.outdir / "cons.csv", delimiter=",", skiprows=1)
            divs[key] = float(np.max(np.abs(data[:, 4])))
            if key == "fine":
                # S4 is conserved on solutions: the divergence falls at order 2.
                coarse = divs.pop("coarse", math.nan)
                _require(coarse <= 1e-11 or coarse / divs["fine"] >= FD_ORDER2,
                         f"S4 divergence {coarse:.3e} -> {divs['fine']:.3e}")
        return check

    def chk_wavefront(res):
        _expect_code(res, 0)
        _check_manifest(res, "wave.csv")
        out = stdout_json(res)
        _close(out["pi_c"], 3.0 / (2.0 * (t0w + p["b"])), 1e-12, "pi_c")
        _close(out["shock_time"], t_shock, 1e-6, "shock time")

    # "--" ends the options, so vectors with a leading minus stay positional.
    model_args = ["--A", repr(A)]
    conserve = ["conserve", "--entry", spec, "--which", "S4", "--c", _vec(c), *model_args,
                "--nx", "21", "--nt", "21", "--out", "{out}/cons.csv", "--h-step"]
    return [
        _cli_op("catalog", ["catalog", "list"], chk_catalog, run),
        _cli_op("lie:commutator", ["lie", "commutator", "--", _vec(a), _vec(b)], chk_commutator,
                run),
        _cli_op("lie:killing", ["lie", "killing", "--", _vec(w)], chk_killing, run),
        _cli_op("lie:adjoint", ["lie", "adjoint", "--", _vec(eps), _vec(w)], chk_adjoint, run),
        _cli_op("lie:classify", ["lie", "classify", "--", _vec(cls_w)], chk_classify, run),
        _cli_op("lie:ic", ["lie", "ic", "--e", _vec(e), "--delta", repr(delta), "--x", repr(x_ic),
                           "--branch", "reciprocal"], chk_ic, run),
        _cli_op("lie:transform", ["lie", "transform", "--generator", str(gen), "--eps", repr(g_eps),
                                  "--entry", spec, *model_args, "--verify"], chk_transform, run),
        _cli_op("verify:T1", ["verify", spec, *model_args, "--D", repr(D),
                              "--out", "{out}/verify.json"], chk_verify(catalog.VERIFIED, 0), run),
        _cli_op("verify:KINK", ["verify", f"KINK?mshape={kink}&c1={c1_kink}", *model_args,
                                "--out", "{out}/verify.json"],
                chk_verify(catalog.REFUTED, 2), run),
        _cli_op("verify:usage", ["verify", f"T1?p1={p['p1']}&p2={p['p2']}", *model_args],
                chk_usage, run),
        _cli_op("simulate:trajectory", ["simulate", "--ic", spec, *model_args, "--nx", str(nx),
                                        "--bc", "dirichlet", "--x0", "0", "--x1", "2", "--t0", "1",
                                        "--t-end", "1.2", "--out", "{out}/traj.csv"],
                chk_trajectory, run),
        _cli_op("simulate:surface", ["simulate", "--ic", spec, *model_args, "--surface",
                                     "x:-5:5:101", "t:0.5:3:101", "--out", "{out}/surf.csv"],
                chk_surface, run),
        _cli_op("conserve:h", conserve + ["0.002"], chk_conserve("coarse"), run),
        _cli_op("conserve:h/2", conserve + ["0.001"], chk_conserve("fine"), run),
        _cli_op("wavefront", ["wavefront", "--background", spec, *model_args, "--pi0", repr(pi0),
                              "--x0", repr(round(rng.uniform(-1, 1), 3)), "--t0", repr(t0w),
                              "--t-end", repr(t_endw), "--n", "1000", "--out", "{out}/wave.csv"],
                chk_wavefront, run),
    ]


def cli_cold(rng: random.Random, workdir: Path, root: Path) -> Workload:
    run = CliRunner(root, workdir, BUDGET_S["cli_cold"])
    return Workload("cli_cold", cli_ops(rng, run), False, BUDGET_S["cli_cold"])


def build(name: str, seed: int, tr, workdir: Path, root: Path) -> Workload:
    """The workload's operations on inputs from ``seed``; ``tr`` records sub-spans."""
    rng = random.Random(seed)
    if name == "closed_form_sweep":
        return closed_form_sweep(rng, tr)
    if name == "fv_march":
        return fv_march(rng)
    if name == "cli_cold":
        return cli_cold(rng, workdir, root)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
