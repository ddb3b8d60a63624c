"""Direct layer probes, run only in the traced run.

Each probe calls one public function on fixed-size inputs and returns a
per-layer figure as a (value, unit) pair.  Timings are medians of repeated measurements; nothing
here is counted as a workload operation.
"""

import contextlib
import io
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from trafficflow import catalog, cli, lie, model, solver

import workloads

REPEATS = 5
MIN_SAMPLE_S = 0.05


def _per_call_s(fn) -> float:
    """Median over REPEATS of the mean time of fn() in a loop of >= MIN_SAMPLE_S."""
    n, t = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        t = time.perf_counter() - t0
        if t >= MIN_SAMPLE_S:
            break
        n *= 2
    samples = [t / n]
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def sampler_rates(rng: random.Random) -> dict:
    """Points per second of sampler eval/partials, and the G3-transformed eval ratio."""
    A = rng.uniform(0.8, 1.25)
    mp = model.ModelParams(A=A)
    entry = catalog.make_entry("T2", p1=rng.uniform(0.5, 2.0), b=rng.uniform(-1.0, 1.0))
    s = entry.sampler(mp)
    reg = entry.default_region(mp)
    pts = [(float(x), float(t)) for t in reg.ts() for x in reg.xs()]
    eps = rng.uniform(0.1, 0.4)
    moved = lie.group_transform(3, eps, s)
    # G3 pulls (x, t) back to (x - eps t, t): push the points forward.
    moved_pts = [(x + eps * t, t) for x, t in pts]

    def evals(fn, points):
        return lambda: [fn(x, t) for x, t in points]

    base = len(pts) / _per_call_s(evals(s.eval, pts))
    return {
        "catalog.sampler_eval.points_per_s": (base, "1/s"),
        "catalog.sampler_partials.points_per_s":
            (len(pts) / _per_call_s(evals(s.partials, pts)), "1/s"),
        "lie.transform_eval_ratio":
            (len(pts) / _per_call_s(evals(moved.eval, moved_pts)) / base, "ratio"),
    }


def _smooth_field(grid: solver.Grid) -> solver.Field:
    xs = grid.centers()
    return solver.Field(t=0.0, rho=1.0 + 0.2 * np.sin(2.0 * math.pi * xs),
                        u=0.5 + 0.1 * np.cos(2.0 * math.pi * xs))


def step_costs() -> dict:
    """Split solver.step into a fixed cost per step and a cost per cell.

    All fields are fixed; the arrays (<= 4004 doubles, ~32 KB each) sit in
    L2, so these are compute figures, not bandwidth figures.
    """
    mp = model.ModelParams(A=1.0)

    def per_step(nx: int, bc: str = "periodic") -> float:
        grid = solver.Grid.over(0.0, 1.0, nx)
        f = _smooth_field(grid)
        sampler = None
        if bc == "dirichlet":
            sampler = catalog.make_entry("T1", p1=1.0, p2=2.0, b=1.0).sampler(mp)
            grid = solver.Grid.over(0.0, 2.0, nx)
            rho, u = workloads.t1_exact({"p1": 1.0, "p2": 2.0, "b": 1.0}, grid.centers(), 1.0)
            f = solver.Field(t=1.0, rho=rho, u=u)
        cfg = solver.SolverConfig(grid=grid, params=mp, bc=bc, dirichlet_sampler=sampler)
        return _per_call_s(lambda: solver.step(f, cfg))

    fixed = per_step(8)
    out = {"solver.step.fixed_us": (fixed * 1e6, "us")}
    for nx in (200, 1000, 4000):
        out[f"solver.step.ns_per_cell.nx{nx}"] = ((per_step(nx) - fixed) / (nx - 8) * 1e9, "ns")
    out["solver.step.dirichlet_extra_us"] = \
        ((per_step(200, "dirichlet") - per_step(200)) * 1e6, "us")
    return out


def error_norms_ms() -> dict:
    p = {"p1": 1.0, "p2": 2.0, "b": 1.0}
    mp = model.ModelParams(A=1.0)
    sampler = catalog.make_entry("T1", **p).sampler(mp)
    grid = solver.Grid.over(0.0, 2.0, 1000)
    rho, u = workloads.t1_exact(p, grid.centers(), 1.2)
    f = solver.Field(t=1.2, rho=rho * 1.001, u=u)
    return {"solver.error_norms.ms":
            (_per_call_s(lambda: solver.error_norms(f, sampler, grid)) * 1e3, "ms")}


def import_times(root: Path) -> dict:
    """Wall time of a fresh interpreter that imports nothing, numpy, or trafficflow."""
    env = workloads.cli_env(root)
    out = {}
    for key, code in (("python", "pass"), ("numpy", "import numpy"),
                      ("trafficflow", "import trafficflow")):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=root)
            samples.append(time.perf_counter() - t0)
        out[f"cli.import_{key}.s"] = (statistics.median(samples), "s")
    return out


class InProcessCli:
    """Same argv as the cli_cold children, passed to cli.main in this process."""

    def __init__(self, workdir: Path):
        self.outdir = workdir / "cli-inproc"
        self.bytes_written = 0

    def __call__(self, argv: list) -> workloads.CliResult:
        self.outdir.mkdir(parents=True, exist_ok=True)
        for old in self.outdir.iterdir():
            old.unlink()
        argv = [a.replace("{out}", str(self.outdir)) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = buf.getvalue()
        self.bytes_written += len(text.encode("utf-8"))
        self.bytes_written += sum(p.stat().st_size for p in self.outdir.iterdir())
        return workloads.CliResult(code, text, self.outdir)


def cli_inproc(seed: int, workdir: Path) -> dict:
    runner = InProcessCli(workdir)
    times = []
    for op in workloads.cli_ops(random.Random(seed), runner):
        t0 = time.perf_counter()
        op.call()
        times.append(time.perf_counter() - t0)
    return {"cli.main_inproc.ms_p50": (statistics.median(times) * 1e3, "ms"),
            "cli.bytes_written": (runner.bytes_written, "bytes")}
