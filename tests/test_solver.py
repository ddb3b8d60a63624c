import math
import re
from dataclasses import replace

import numpy as np
import pytest

from trafficflow.catalog import make_entry
from trafficflow.model import DomainError, ModelParams, SolutionSampler
from trafficflow.solver import (Field, Grid, PositivityError, SolverConfig, SolverError,
                                _implicit_velocity, convergence_order, error_norms, run, step)

MP1 = ModelParams(A=1.0)


def _riemann_field(grid, rho_l=2.0, rho_r=1.0):
    xs = grid.centers()
    rho = np.where(xs < grid.x0 + 0.5 * grid.span, rho_l, rho_r)
    return Field(t=0.0, rho=rho, u=np.zeros(grid.nx))


def test_constant_state_is_fixed_point():
    g = Grid.over(0.0, 1.0, 64)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="periodic")
    f0 = Field(t=0.0, rho=np.full(64, 1.0), u=np.zeros(64))
    f1 = step(f0, cfg)
    assert np.array_equal(f1.rho, f0.rho)
    assert np.array_equal(f1.u, f0.u)
    assert f1.t > 0.0


@pytest.mark.parametrize("scheme", ["rusanov", "lax_friedrichs"])
def test_riemann_mass_and_momentum_conservation(scheme):
    g = Grid.over(0.0, 2.0, 100)
    cfg = SolverConfig(grid=g, params=MP1, scheme=scheme, bc="periodic")
    f = _riemann_field(g)
    mass0 = np.sum(f.rho) * g.dx
    mom0 = np.sum(f.momentum) * g.dx
    for _ in range(300):
        f = step(f, cfg)
    assert abs(np.sum(f.rho) * g.dx - mass0) <= 1e-12
    assert abs(np.sum(f.momentum) * g.dx - mom0) <= 1e-12


def test_viscous_term_touches_momentum_only():
    mp = ModelParams(A=1.0, D=0.5)
    g = Grid.over(0.0, 2.0, 64)
    cfg = SolverConfig(grid=g, params=mp, scheme="rusanov", bc="periodic")
    xs = g.centers()
    f = Field(t=0.0, rho=1.0 + 0.2 * np.sin(np.pi * xs), u=0.3 * np.cos(np.pi * xs))
    mass0 = np.sum(f.rho) * g.dx
    mom0 = np.sum(f.momentum) * g.dx
    for _ in range(200):
        f = step(f, cfg)
    assert abs(np.sum(f.rho) * g.dx - mass0) <= 1e-12
    # periodic second differences telescope, so momentum is conserved too
    assert abs(np.sum(f.momentum) * g.dx - mom0) <= 1e-10


def test_viscous_dt_is_convective_and_perturbations_decay():
    # D sets no dt bound: the implicit viscous term lets dt be the convective
    # step although the explicit bound dx^2 / (4D) is 900 times smaller.
    mp = ModelParams(A=1.0, D=5.0)
    g = Grid.over(0.0, 1.0, 50)
    cfg = SolverConfig(grid=g, params=mp, scheme="rusanov", bc="periodic", cfl=0.9)
    f = Field(t=0.0, rho=np.full(50, 0.5), u=np.zeros(50))
    assert step(f, cfg).t - f.t == cfg.cfl * g.dx / 1.0
    xs = g.centers()

    def spread(f):
        return float(np.max(np.abs(f.u - np.mean(f.u))))

    def energy(f):
        # acoustic energy of the linearisation about (0.5, 0), which damping only lowers
        return float(np.sum(0.5 * (f.u - np.mean(f.u)) ** 2
                            + mp.A * (f.rho - np.mean(f.rho)) ** 2 / 0.5))

    # The grid-scale mode is the one an explicit viscous term at this dt
    # amplifies (by |1 - 8r| ~ 1800); it moves no mass, so its |u| must
    # shrink.  A smooth mode feeds rho, and then u itself overshoots zero
    # (the slow overdamped root), so the acoustic energy is what must shrink.
    for pert, norm in ((np.sin(np.pi * xs / g.dx), spread), (np.sin(2.0 * np.pi * xs), energy)):
        f = Field(t=0.0, rho=np.full(50, 0.5), u=0.1 * pert)
        seq = [norm(f)]
        for _ in range(500):
            f = step(f, cfg)
            seq.append(norm(f))
        assert all(b <= a for a, b in zip(seq, seq[1:])), norm.__name__


def test_t1_dirichlet_convergence_ratio():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    errs = []
    for nx in (100, 200):
        g = Grid.over(0.0, 2.0, nx)
        cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="dirichlet",
                           dirichlet_sampler=s, cfl=0.4)
        traj = run(cfg, s, 1.0, 2.0)
        errs.append(error_norms(traj.fields[-1], s, g)["rho"][0])
    assert errs[0] / errs[1] >= 1.8


def _textbook_run(cfg, s, t0, snaps):
    """The plain first-order update, the reference for step and run at D = 0.

    F = (F_L + F_R)/2 - alpha (q_R - q_L)/2 with speed = |u| + sqrt(A), one
    ghost cell per side, dt clipped to land on each snapshot time, and the
    diagnostics summed with np.sum and np.max.  Returns the (t, rho, u) of
    each snapshot and the diagnostics.
    """
    g, p = cfg.grid, cfg.params
    c = math.sqrt(p.A)
    st = s.eval(g.centers(), t0)
    t, rho, u, diags, fields = t0, st.rho, st.u, [], []
    for target in snaps:
        while t < target - 1e-12:
            if cfg.bc == "periodic":
                ghosts = (rho[-1], u[-1]), (rho[0], u[0])
            elif cfg.bc == "outflow":
                ghosts = (rho[0], u[0]), (rho[-1], u[-1])
            else:
                ghosts = [(gs.rho, gs.u) for gs in (s.eval(xg, t) for xg in
                                                     (g.x0 - 0.5 * g.dx,
                                                      g.x0 + (g.nx + 0.5) * g.dx))]
            (rl, ul), (rr, ur) = ghosts
            rho_e, u_e = np.concatenate(([rl], rho, [rr])), np.concatenate(([ul], u, [ur]))
            speed = np.abs(u_e) + c
            max_speed = float(np.max(speed))
            dt = min(cfg.cfl * g.dx / max_speed, target - t)
            m_e = rho_e * u_e
            P = m_e * m_e / rho_e + p.A * rho_e
            alpha = (max_speed if cfg.scheme == "lax_friedrichs"
                     else np.maximum(speed[:-1], speed[1:]))
            F1 = 0.5 * (m_e[:-1] + m_e[1:]) - 0.5 * alpha * (rho_e[1:] - rho_e[:-1])
            F2 = 0.5 * (P[:-1] + P[1:]) - 0.5 * alpha * (m_e[1:] - m_e[:-1])
            lam = dt / g.dx
            rho = rho - lam * (F1[1:] - F1[:-1])
            u = (m_e[1:-1] - lam * (F2[1:] - F2[:-1])) / rho
            t_prev, t = t, t + dt
            diags.append({"step": len(diags) + 1, "t": t, "dt": t - t_prev,
                          "mass": float(np.sum(rho) * g.dx),
                          "momentum": float(np.sum(rho * u) * g.dx),
                          "max_speed": float(np.max(np.abs(u) + c))})
        fields.append((t, rho, u))
    return fields, diags


@pytest.mark.parametrize("bc", ["periodic", "outflow", "dirichlet"])
@pytest.mark.parametrize("scheme", ["lax_friedrichs", "rusanov"])
def test_run_equals_the_textbook_update_bit_for_bit(scheme, bc):
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    g = Grid.over(0.0, 2.0, 64)
    cfg = SolverConfig(grid=g, params=MP1, scheme=scheme, bc=bc,
                       dirichlet_sampler=s if bc == "dirichlet" else None)
    [(t, rho, u)], diags = _textbook_run(cfg, s, 1.0, [1.3])
    traj = run(cfg, s, 1.0, 1.3)
    assert 40 <= len(diags) <= 60
    assert traj.times == [1.3] and traj.fields[-1].t == t
    assert np.array_equal(traj.fields[-1].rho, rho) and np.array_equal(traj.fields[-1].u, u)
    assert traj.diagnostics == diags


@pytest.mark.parametrize("bc", ["periodic", "outflow", "dirichlet"])
def test_snapshots_equal_the_textbook_fields(bc):
    # Snapshots at t0, inside the run and at t_end.
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    cfg = SolverConfig(grid=Grid.over(0.0, 2.0, 64), params=MP1, bc=bc,
                       dirichlet_sampler=s if bc == "dirichlet" else None)
    snaps = [1.0, 1.13, 1.3]
    fields, diags = _textbook_run(cfg, s, 1.0, snaps)
    traj = run(cfg, s, 1.0, 1.3, snapshots=snaps)
    assert traj.times == snaps and traj.diagnostics == diags
    for f, (t, rho, u) in zip(traj.fields, fields, strict=True):
        assert f.t == t and np.array_equal(f.rho, rho) and np.array_equal(f.u, u)


@pytest.mark.parametrize("D", [0.0, 0.5])
@pytest.mark.parametrize("bc", ["periodic", "outflow", "dirichlet"])
@pytest.mark.parametrize("scheme", ["lax_friedrichs", "rusanov"])
def test_repeated_steps_equal_run_bit_for_bit(scheme, bc, D):
    mp = ModelParams(A=1.0, D=D)
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    cfg = SolverConfig(grid=Grid.over(0.0, 2.0, 64), params=mp, scheme=scheme, bc=bc,
                       dirichlet_sampler=s if bc == "dirichlet" else None)
    traj = run(cfg, s, 1.0, 1.3)
    st = s.eval(cfg.grid.centers(), 1.0)
    f, times = Field(t=1.0, rho=st.rho, u=st.u), []
    while f.t < 1.3 - 1e-12:
        f = step(f, cfg, dt_max=1.3 - f.t)
        times.append(f.t)
    assert times == [d["t"] for d in traj.diagnostics] and len(times) > 10
    assert np.array_equal(f.rho, traj.fields[-1].rho) and np.array_equal(f.u, traj.fields[-1].u)


def test_returned_fields_own_their_arrays():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    cfg = SolverConfig(grid=Grid.over(0.0, 2.0, 64), params=MP1)
    st = s.eval(cfg.grid.centers(), 1.0)
    rho0, u0 = st.rho.copy(), st.u.copy()
    ic = Field(t=1.0, rho=st.rho, u=st.u)
    snaps = [1.0, 1.1, 1.2]
    first = run(cfg, ic, 1.0, 1.2, snapshots=snaps)
    kept = [(f.rho.copy(), f.u.copy()) for f in first.fields]
    first.fields[0].rho[:] = -1.0
    first.fields[1].u[:] = math.nan
    assert np.array_equal(first.fields[2].rho, kept[2][0])
    assert np.array_equal(first.fields[2].u, kept[2][1])
    assert np.array_equal(ic.rho, rho0) and np.array_equal(ic.u, u0)
    second = run(cfg, ic, 1.0, 1.2, snapshots=snaps)
    assert second.diagnostics == first.diagnostics
    for f, (rho, u) in zip(second.fields, kept, strict=True):
        assert np.array_equal(f.rho, rho) and np.array_equal(f.u, u)
    stepped = step(ic, cfg)
    stepped.rho[:] = 2.0
    assert np.array_equal(ic.rho, rho0) and np.array_equal(ic.u, u0)


def test_step_guard_counts_every_step_of_run_and_step(steps_taken):
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    cfg = SolverConfig(grid=Grid.over(0.0, 2.0, 64), params=MP1, bc="dirichlet",
                       dirichlet_sampler=s)
    traj = run(cfg, s, 1.0, 1.3, snapshots=[1.1, 1.3])
    assert len(steps_taken) == len(traj.diagnostics) > 10
    step(traj.fields[-1], cfg)
    assert len(steps_taken) == len(traj.diagnostics) + 1


def test_zero_length_run():
    g = Grid.over(0.0, 1.0, 32)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="periodic")
    f = Field(t=0.0, rho=np.full(32, 1.0), u=np.zeros(32))
    traj = run(cfg, f, 0.0, 0.0)
    assert traj.times == [0.0]
    assert np.array_equal(traj.fields[0].rho, f.rho)
    assert traj.diagnostics == []


@pytest.mark.parametrize("t0,t_end,snaps", [
    (0.0, math.inf, None), (0.0, math.nan, None), (math.nan, 1.0, None),
    (-math.inf, 1.0, None), (0.0, 1.0, [0.5, math.nan]), (0.0, math.inf, [0.5, math.inf]),
])
def test_run_rejects_non_finite_times_before_any_step(steps_taken, t0, t_end, snaps):
    s = make_entry("T4", p1=1, b=0).sampler(MP1)
    cfg = SolverConfig(grid=Grid.over(0.0, 1.0, 32), params=MP1)
    with pytest.raises(ValueError, match="must be finite"):
        run(cfg, s, t0, t_end, snapshots=snaps)
    assert steps_taken == []


@pytest.mark.parametrize("ic_t,t_end,snaps,err", [
    (0.5, 1.0, None, r"^initial field is at t=0.5, run starts at t0=0.0$"),
    (0.0, -1.0, None, r"^t_end must be >= t0$"),
    (0.0, 1.0, [-0.5, 0.5], r"^snapshots must lie within \[t0, t_end\]$"),
    (0.0, 1.0, [0.5, 1.5], r"^snapshots must lie within \[t0, t_end\]$"),
])
def test_run_rejects_inconsistent_times_before_any_step(steps_taken, ic_t, t_end, snaps, err):
    cfg = SolverConfig(grid=Grid.over(0.0, 1.0, 32), params=MP1)
    f = Field(t=ic_t, rho=np.full(32, 1.0), u=np.zeros(32))
    with pytest.raises(ValueError, match=err):
        run(cfg, f, 0.0, t_end, snapshots=snaps)
    assert steps_taken == []


def test_dirichlet_ghost_outside_the_sampler_domain_is_named():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    g = Grid.over(0.0, 2.0, 40)
    cut = SolutionSampler(eval=s.eval, partials=s.partials,
                          domain=lambda x, t: np.logical_and(s.domain(x, t), x <= 2.0))
    cfg = SolverConfig(grid=g, params=MP1, bc="dirichlet", dirichlet_sampler=cut)
    ghost = g.x0 + (g.nx + 0.5) * g.dx
    with pytest.raises(DomainError, match=re.escape(
            f"dirichlet ghost cell at x={ghost}, t=1.0 outside domain")):
        run(cfg, s, 1.0, 1.2)


def test_run_lands_exactly_on_snapshots():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    g = Grid.over(0.0, 2.0, 64)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="dirichlet",
                       dirichlet_sampler=s)
    snaps = [1.1, 1.25, 1.5]
    traj = run(cfg, s, 1.0, 1.5, snapshots=snaps)
    assert traj.times == snaps
    assert all(abs(f.t - t) <= 1e-12 for f, t in zip(traj.fields, traj.times))


def test_t1_mass_drift_bound_over_run():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    g = Grid.over(0.0, 2.0, 64)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="periodic")
    traj = run(cfg, s, 1.0, 1.5)
    masses = [d["mass"] for d in traj.diagnostics]
    drift = max(abs(m2 - m1) for m1, m2 in zip(masses, masses[1:]))
    assert drift <= 1e-12


def test_max_speed_diagnostic():
    # a short clipped run takes exactly one step, so the first diagnostic row
    # describes the final field: max_speed must equal max(|u| + sqrt(A))
    g = Grid.over(0.0, 1.0, 32)
    cfg = SolverConfig(grid=g, params=ModelParams(A=4.0), scheme="rusanov", bc="periodic")
    f = Field(t=0.0, rho=np.full(32, 1.0), u=np.linspace(-1.5, 1.0, 32))
    traj = run(cfg, f, 0.0, 1e-4)
    assert len(traj.diagnostics) == 1
    assert traj.diagnostics[0]["max_speed"] == pytest.approx(
        float(np.max(np.abs(traj.fields[-1].u))) + 2.0, abs=1e-12)


def test_gaussian_bump_splits_at_characteristic_speeds():
    g = Grid.over(0.0, 4.0, 400)
    xs = g.centers()
    f = Field(t=0.0, rho=1.0 + 0.3 * np.exp(-16.0 * (xs - 2.0) ** 2), u=np.zeros(g.nx))
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="periodic")
    traj = run(cfg, f, 0.0, 0.8)
    fr = traj.fields[-1]
    half = g.nx // 2
    pos_l = xs[int(np.argmax(fr.rho[:half]))]
    pos_r = xs[half + int(np.argmax(fr.rho[half:]))]
    # outgoing acoustic-type waves near +- sqrt(A), allowing nonlinear drift
    assert (pos_l - 2.0) / 0.8 == pytest.approx(-1.0, abs=0.25)
    assert (pos_r - 2.0) / 0.8 == pytest.approx(1.0, abs=0.25)


def test_positivity_survives_long_riemann_run():
    g = Grid.over(0.0, 2.0, 100)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="periodic", cfl=0.45)
    f = _riemann_field(g, rho_l=2.0, rho_r=0.5)
    for _ in range(10_000):
        f = step(f, cfg)
    assert np.all(f.rho > 0.0)


def _first_step(how, f, cfg):
    """Take the first step from f through `step` or through `run`."""
    if how == "step":
        return step(f, cfg)
    return run(cfg, f, f.t, f.t + 1.0)


@pytest.mark.parametrize("how", ["step", "run"])
def test_positivity_error_reports_cell(how):
    # rho u = 1e300 * 1e9 overflows in cell 3, so the mass flux between cells
    # 2 and 3 is inf - inf and the new density of cell 2 is NaN: not > 0
    g = Grid.over(0.0, 1.0, 8)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="outflow")
    rho, u = np.ones(8), np.zeros(8)
    rho[3], u[3] = 1e300, 1e9
    with pytest.raises(PositivityError) as exc:
        _first_step(how, Field(t=1.0, rho=rho, u=u), cfg)
    t = 1.0 + cfg.cfl * g.dx / (1e9 + 1.0)
    assert (exc.value.cell, exc.value.t) == (2, t)
    assert str(exc.value) == f"positivity loss at cell 2, t={t}: rho=nan"


@pytest.mark.parametrize("how", ["step", "run"])
def test_step_aborts_on_nonfinite_update(how):
    # u = 1e200 makes the CFL step underflow on the first step, so the solver
    # aborts with a diagnostic before any update can carry NaNs forward
    g = Grid.over(0.0, 1.0, 16)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="outflow")
    f = Field(t=0.0, rho=np.full(16, 1e-300), u=np.full(16, 1e200))
    with pytest.raises(SolverError) as exc:
        _first_step(how, f, cfg)
    assert type(exc.value) is SolverError
    assert str(exc.value) == "CFL underflow: dt=2.8125e-202"


@pytest.mark.parametrize("how", ["step", "run"])
def test_step_momentum_overflow_raises_solver_error(how):
    # m^2/rho overflows to inf in the left half, so the new velocity is NaN
    # while the new density stays finite and positive; the suite turns
    # RuntimeWarnings into errors, so this also pins that the step emits none
    g = Grid.over(0.0, 2.0, 20)
    cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", bc="outflow")
    left = np.arange(20) < 10
    f = Field(t=0.0, rho=np.where(left, 1e160, 1.0), u=np.where(left, 1.0, 0.0))
    with pytest.raises(SolverError) as exc:
        _first_step(how, f, cfg)
    assert type(exc.value) is SolverError
    assert str(exc.value) == ("non-finite state at cell 0, t=0.022500000000000003: "
                              "rho=1e+160, u=nan")


# A number is the value at cell 3; a dict maps cells to values.
@pytest.mark.parametrize("rho_at,u_at,error", [
    (math.nan, 0.0, PositivityError),
    (math.inf, 0.0, SolverError),
    (1.0, math.inf, SolverError),
    (1.0, math.nan, SolverError),
    (-0.0, 0.0, PositivityError),
    (1.0, {3: math.inf, 5: -math.inf}, SolverError),
    (math.nan, {1: math.inf}, PositivityError),
    (-0.5, 0.0, PositivityError),
])
def test_field_rejects_non_finite_state_at_its_cell(rho_at, u_at, error):
    rho, u = np.ones(8), np.zeros(8)
    for arr, at in ((rho, rho_at), (u, u_at)):
        for cell, value in (at.items() if isinstance(at, dict) else [(3, at)]):
            arr[cell] = value
    with pytest.raises(error) as exc:
        Field(t=2.5, rho=rho, u=u)
    assert type(exc.value) is error
    assert "cell 3" in str(exc.value) and "t=2.5" in str(exc.value)


def test_field_accepts_a_finite_state_whose_sums_overflow():
    f = Field(t=0.0, rho=np.full(8, 1e308), u=np.full(8, 1e308))
    assert np.all(f.rho == 1e308) and np.all(f.u == 1e308)


@pytest.mark.parametrize("kind,params,span,t0,t_end", [
    ("T1", dict(p1=1, p2=2, b=1), (0.0, 2.0), 1.0, 1.6),
    ("T3", dict(p1=2, b=1), (0.0, 1.0), 1.0, 1.4),
])
def test_manufactured_convergence_first_order(kind, params, span, t0, t_end):
    s = make_entry(kind, **params).sampler(MP1)
    base = SolverConfig(grid=Grid.over(span[0], span[1], 50), params=MP1,
                        scheme="rusanov", bc="dirichlet", dirichlet_sampler=s, cfl=0.4)
    res = convergence_order(base, s, [50, 100, 200], t0, t_end)
    for var in ("rho", "u"):
        assert 0.8 <= res.orders[var] <= 1.3
        assert res.monotone[var]


def test_viscous_t1_convergence_first_order():
    # T1 solves the viscous system for any D (its u_xx vanishes), so the
    # implicit viscous term must converge at first order like the inviscid
    # runs, in the inviscid step count.
    mp = ModelParams(A=1.0, D=0.5)
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    base = SolverConfig(grid=Grid.over(0.0, 2.0, 50), params=mp, scheme="rusanov",
                        bc="dirichlet", dirichlet_sampler=s)
    res = convergence_order(base, s, [50, 100, 200], 1.0, 1.2)
    for var in ("rho", "u"):
        assert 0.8 <= res.orders[var] <= 1.3, (var, res.orders[var])
    for nx in res.nx_list:
        g = Grid.over(0.0, 2.0, nx)
        visc = run(replace(base, grid=g), s, 1.0, 1.2)
        inviscid = run(replace(base, grid=g, params=MP1), s, 1.0, 1.2)
        assert abs(len(visc.diagnostics) - len(inviscid.diagnostics)) <= 1, nx


def test_constant_solution_reports_exact():
    s = make_entry("T4", p1=1, b=0).sampler(MP1)
    base = SolverConfig(grid=Grid.over(0.0, 1.0, 50), params=MP1,
                        scheme="rusanov", bc="periodic")
    res = convergence_order(base, s, [50, 100, 200], 0.0, 0.4)
    for var in ("rho", "u"):
        assert res.exact[var]
        assert math.isnan(res.orders[var])


def test_error_norms_definitions():
    s = make_entry("T4", p1=1, b=0).sampler(MP1)
    g = Grid.over(0.0, 2.0, 40)
    f = Field(t=0.0, rho=np.full(40, 1.0), u=np.full(40, 1.0))
    norms = error_norms(f, s, g)
    assert norms["rho"] == (0.0, 0.0) and norms["u"] == (0.0, 0.0)
    f2 = Field(t=0.0, rho=np.full(40, 1.0), u=np.full(40, 1.25))
    norms = error_norms(f2, s, g)
    assert norms["u"][1] == pytest.approx(0.25)
    assert norms["u"][0] == pytest.approx(0.25 * 2.0)


def test_config_validation():
    g = Grid.over(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        SolverConfig(grid=g, params=MP1, scheme="weno")
    with pytest.raises(ValueError):
        SolverConfig(grid=g, params=MP1, cfl=0.95)
    with pytest.raises(ValueError):
        SolverConfig(grid=g, params=MP1, bc="dirichlet")
    with pytest.raises(ValueError):
        SolverConfig(grid=g, params=ModelParams(A=0.0))
    with pytest.raises(ValueError):
        Grid.over(0.0, 1.0, 4)


def test_convergence_requires_doubling_grids():
    s = make_entry("T4", p1=1, b=0).sampler(MP1)
    base = SolverConfig(grid=Grid.over(0.0, 1.0, 50), params=MP1, bc="periodic")
    with pytest.raises(ValueError):
        convergence_order(base, s, [50, 100], 0.0, 0.1)
    with pytest.raises(ValueError):
        convergence_order(base, s, [50, 100, 150], 0.0, 0.1)


def _counting(s):
    calls = {"domain": 0, "eval": 0}

    def dom(x, t):
        calls["domain"] += 1
        return s.domain(x, t)

    def ev(x, t):
        calls["eval"] += 1
        return s.eval(x, t)

    return SolutionSampler(eval=ev, domain=dom, partials=s.partials), calls


def test_dirichlet_step_samples_one_ghost_per_side():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    counted, calls = _counting(s)
    g = Grid.over(0.0, 2.0, 32)
    cfg = SolverConfig(grid=g, params=MP1, bc="dirichlet", dirichlet_sampler=counted)
    st = s.eval(g.centers(), 1.0)
    step(Field(t=1.0, rho=st.rho, u=st.u), cfg)
    assert calls == {"domain": 2, "eval": 2}


def test_viscous_dirichlet_step_samples_the_ghosts_at_t_and_t_plus_dt():
    # The fluxes read the ghosts at t; the implicit viscous closure reads u there at t + dt.
    mp = ModelParams(A=1.0, D=0.5)
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    calls = []
    recorded = SolutionSampler(eval=lambda x, t: calls.append(("eval", t)) or s.eval(x, t),
                               domain=lambda x, t: calls.append(("domain", t)) or s.domain(x, t),
                               partials=s.partials)
    g = Grid.over(0.0, 2.0, 32)
    cfg = SolverConfig(grid=g, params=mp, bc="dirichlet", dirichlet_sampler=recorded)
    st = s.eval(g.centers(), 1.0)
    t1 = step(Field(t=1.0, rho=st.rho, u=st.u), cfg).t
    assert t1 > 1.0
    assert calls == [("domain", 1.0), ("eval", 1.0)] * 2 + [("domain", t1), ("eval", t1)] * 2


@pytest.mark.parametrize("bc", ["periodic", "outflow", "dirichlet"])
@pytest.mark.parametrize("r", [1e-3, 1.0, 1e3])
def test_implicit_velocity_matches_dense_solve(bc, r):
    nx = 40
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.1, 3.0, nx)
    m = rng.uniform(0.1, 2.0, nx)
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    cfg = SolverConfig(grid=Grid.over(0.0, 2.0, nx), params=MP1, bc=bc,
                       dirichlet_sampler=s if bc == "dirichlet" else None)
    M = np.diag(rho + 2.0 * r) - r * np.eye(nx, k=1) - r * np.eye(nx, k=-1)
    rhs = m.copy()
    if bc == "periodic":
        M[0, -1] = M[-1, 0] = -r
    elif bc == "outflow":
        M[0, 0] -= r
        M[-1, -1] -= r
    else:
        left, right = (s.eval(x, 1.5).u for x in (-0.5 * cfg.grid.dx, 2.0 + 0.5 * cfg.grid.dx))
        rhs[0] += r * left
        rhs[-1] += r * right
    got = _implicit_velocity(cfg, rho, m, r, 1.5)
    np.testing.assert_allclose(got, np.linalg.solve(M, rhs), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_implicit_velocity_zero_pivot_is_left_to_field(bc):
    # rho_0 = -2r zeroes the first pivot; the solve returns NaN rather than
    # raising ZeroDivisionError, so Field reports the density at its cell.
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    cfg = SolverConfig(grid=Grid.over(0.0, 2.0, 8), params=MP1, bc=bc, dirichlet_sampler=s)
    rho = np.ones(8)
    rho[0] = -2.0
    assert np.all(np.isnan(_implicit_velocity(cfg, rho, np.ones(8), 1.0, 1.5)))


def test_dirichlet_domain_needs_only_the_first_ghost_cell():
    # The domain ends at x1 + dx: past the ghost centre x1 + dx/2, short of x1 + 3dx/2.
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    g = Grid.over(0.0, 2.0, 40)
    edge = 2.0 + g.dx
    cut = SolutionSampler(eval=s.eval, partials=s.partials,
                          domain=lambda x, t: np.logical_and(s.domain(x, t), x <= edge))
    got, ref = (run(SolverConfig(grid=g, params=MP1, bc="dirichlet", dirichlet_sampler=b),
                    s, 1.0, 1.2).fields[-1] for b in (cut, s))
    assert np.array_equal(got.rho, ref.rho) and np.array_equal(got.u, ref.u)


def _linear_mode_error(nx: int) -> float:
    """|u_hat_num - u_hat| / eps at t=1 for a small acoustic mode on periodic [0, 1].

    Linearising about (rho0, 0) gives s^2 + (D k^2/rho0) s + A k^2 = 0, so the
    sin-coefficient of u is eps e^{-gt} (cos wt - (g/w) sin wt), with
    g = D k^2 / (2 rho0) and w = sqrt(A k^2 - g^2).
    """
    A, D, rho0, eps, k, t_end = 1.0, 0.05, 1.0, 1e-5, 2.0 * math.pi, 1.0
    g = Grid.over(0.0, 1.0, nx)
    xs = g.centers()
    cfg = SolverConfig(grid=g, params=ModelParams(A=A, D=D), scheme="rusanov", cfl=0.9)
    f0 = Field(t=0.0, rho=np.full(nx, rho0), u=eps * np.sin(k * xs))
    f = run(cfg, f0, 0.0, t_end).fields[-1]
    gam = D * k * k / (2.0 * rho0)
    om = math.sqrt(A * k * k - gam * gam)
    exact = eps * math.exp(-gam * t_end) * (math.cos(om * t_end) - gam / om * math.sin(om * t_end))
    u_hat = 2.0 * g.dx * float(np.sum(f.u * np.sin(k * xs)))
    return abs(u_hat - exact) / eps


def test_viscous_linear_mode_converges_first_order():
    # u_xx is nonzero here, so the implicit viscous term itself is tested.
    nxs = [100, 200, 400]
    errs = [_linear_mode_error(nx) for nx in nxs]
    order = -np.polyfit(np.log(nxs), np.log(errs), 1)[0]
    assert 0.8 <= order <= 1.3, (order, errs)
    assert errs[-1] <= 0.002, errs


def test_viscous_run_is_bit_equivariant_under_dilation():
    # G1 with lambda = 2 maps x -> 2x, t -> 2t, rho -> rho/2, u -> u; flux, dt
    # rule and the implicit system (r -> r/2) all scale by powers of two, so
    # the twin is exact.
    mp = ModelParams(A=1.0, D=0.5)
    runs = []
    for lam in (1.0, 2.0):
        g = Grid.over(0.0, 2.0 * lam, 200)
        xs = g.centers() / lam
        f0 = Field(t=0.0, rho=(1.0 + 0.2 * np.sin(np.pi * xs)) / lam,
                   u=0.3 * np.cos(np.pi * xs) + 0.1 * np.sin(2.0 * np.pi * xs) ** 2)
        cfg = SolverConfig(grid=g, params=mp, scheme="rusanov", bc="periodic")
        runs.append(run(cfg, f0, 0.0, 0.5 * lam))
    base, twin = runs
    assert len(base.diagnostics) == len(twin.diagnostics) > 100
    assert np.array_equal(twin.fields[-1].rho * 2.0, base.fields[-1].rho)
    assert np.array_equal(twin.fields[-1].u, base.fields[-1].u)
    assert [2.0 * d["t"] for d in base.diagnostics] == [d["t"] for d in twin.diagnostics]
