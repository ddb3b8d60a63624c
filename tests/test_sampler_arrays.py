"""The broadcast sampler contract and the grid consumers built on it.

Every sampler takes floats or (x, t) arrays and returns the same shape, so
a grid costs one sampler call per stencil node instead of one per point.
"""

import math

import numpy as np
import pytest

from trafficflow import catalog, cli, conservation, solver, wavefront
from trafficflow.catalog import GridRegion, make_entry, verify_entry, verify_sampler
from trafficflow.lie import group_transform
from trafficflow.model import (DomainError, ModelParams, Partials, SolutionSampler,
                               StatePoint, fd_partials)

MP1 = ModelParams(A=1.0)
FIELDS = ("rho_t", "rho_x", "u_t", "u_x", "u_xx")

# (kind, params, model).  A point and a grid get the same numpy rounding, so
# every family, transcendental ones included, must agree bit for bit.
FAMILIES = [
    ("T1", dict(p1=1, p2=2, b=1), MP1),
    ("T1", dict(p1=0.3, p2=-2, b=1), ModelParams(A=1.0, D=0.5)),
    ("T2", dict(p1=1, b=0.3), MP1),
    ("T2", dict(p1=-1.5, b=-0.4), ModelParams(A=1.3)),
    ("T3", dict(p1=1.2, b=0.5), MP1),
    ("T4", dict(p1=1.2, b=0.5), ModelParams(A=2.0)),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), ModelParams(A=0.0)),
    ("E3ZERO", dict(p1=1, e1=0.7, e2=0.4, e4=1.1), MP1),
    ("KINK", dict(mshape="sin", c1=1), MP1),
    ("KINK", dict(mshape="cos", c1=0.7), MP1),
    ("KINK", dict(mshape="sec", c1=1.3), MP1),
    ("KINK", dict(mshape="gauss", c1=1), MP1),
    ("KINK", dict(mshape="custom", c1=1.0, M=lambda x: 2.0 + math.sin(x), Mp=math.cos,
                  Mpp=lambda x: -math.sin(x), Mppp=lambda x: -math.cos(x)), MP1),
    ("NEGCTRL", {}, MP1),
]


def _same(grid_value, point_values):
    return np.array_equal(grid_value, np.reshape(point_values, np.shape(grid_value)))


def _check_contract(s, region):
    x, t = np.meshgrid(region.xs(), region.ts())
    pts = list(zip(x.ravel().tolist(), t.ravel().tolist()))
    inside = s.domain(x, t)
    assert np.shape(inside) == x.shape
    assert np.array_equal(inside, np.reshape([s.domain(a, b) for a, b in pts], x.shape))
    st = s.eval(x, t)
    point_states = [s.eval(a, b) for a, b in pts]
    for name in ("rho", "u"):
        assert np.shape(getattr(st, name)) == x.shape
        assert _same(getattr(st, name), [getattr(p, name) for p in point_states]), name
    # Floats, not numpy scalars, keep the arithmetic of scalar callers cheap.
    assert all(type(p.rho) is float and type(p.u) is float for p in point_states)
    if s.partials is not None:
        d = s.partials(x, t)
        point_partials = [s.partials(a, b) for a, b in pts]
        for name in FIELDS:
            assert np.shape(getattr(d, name)) == x.shape
            assert _same(getattr(d, name), [getattr(p, name) for p in point_partials]), name


@pytest.mark.parametrize("kind,params,mp", FAMILIES)
def test_grid_call_matches_point_calls(kind, params, mp):
    entry = make_entry(kind, **params)
    _check_contract(entry.sampler(mp), entry.default_region(mp))


@pytest.mark.parametrize("generator,eps", [(1, 0.3), (2, -0.2), (3, 0.4), (4, 0.25)])
def test_transformed_grid_call_matches_point_calls(generator, eps):
    entry = make_entry("T1", p1=1, p2=2, b=1)
    moved = group_transform(generator, eps, entry.sampler(MP1))
    region = entry.default_region(MP1)
    shrunk = GridRegion(region.x0 + 1.5, region.x1 - 1.5, 21,
                        region.t0 + 0.4, region.t1 - 0.4, 21)
    _check_contract(moved, shrunk)


def test_transform_without_boost_keeps_the_sign_of_a_zero_velocity():
    s = make_entry("KINK", mshape="sec", c1=1.0).sampler(MP1)     # u(0, t) = -0.0
    for generator, eps in ((1, 0.1), (2, 0.1), (4, 0.0)):
        u = group_transform(generator, eps, s).eval(0.0, 1.1).u
        assert u == 0.0 and math.copysign(1.0, u) == -1.0


def test_custom_kink_written_with_math_takes_arrays():
    entry = make_entry("KINK", mshape="custom", c1=1.0,
                       M=lambda x: math.log(x), Mp=lambda x: 1.0 / x)
    s = entry.sampler(MP1)
    x = np.array([[0.5, 2.0, -1.0]])
    assert np.array_equal(s.domain(x, 1.0), [[False, True, False]])
    assert s.eval(2.0, 1.0).rho == math.log(2.0)
    assert np.array_equal(s.eval(x[:, 1:2], 1.0).rho, [[math.log(2.0)]])


def test_kink_partials_reach_the_sech_limit_without_a_warning():
    # gauss with c1 = 300 has z = -2 x (300 + t), up to ~1200 on this grid: cosh(z)^2
    # overflows past |z| ~ 355 and cosh(z) past ~ 710, where sech^2 = 0 is exact.
    # A RuntimeWarning fails the test (pyproject's filterwarnings).
    s = make_entry("KINK", mshape="gauss", c1=300).sampler(MP1)
    x, t = np.meshgrid(np.linspace(-2.0, 2.0, 81), np.array([0.0, 1.0, 2.0]))
    z = np.abs(2.0 * x * (300.0 + t))
    assert z.max() > 1200.0
    d = s.partials(x, t)
    points = [s.partials(a, b) for a, b in zip(x.ravel().tolist(), t.ravel().tolist())]
    for name in ("u_t", "u_x", "u_xx"):
        grid = getattr(d, name)
        assert _same(grid, [getattr(p, name) for p in points]), name
        assert np.all(grid[z > 360.0] == 0.0), name
        assert np.all(np.isfinite(grid)) and np.all(grid[(z > 0.0) & (z < 300.0)] != 0.0), name


def test_validation_names_the_first_bad_point():
    with pytest.raises(DomainError, match=r"rho=-1\.0 at grid index \(1,\)") as e:
        StatePoint(rho=np.array([1.0, -1.0, -2.0]), u=0.0)
    assert e.value.index == 1
    with pytest.raises(DomainError, match=r"rho=-1\.0$"):
        StatePoint(rho=-1.0, u=0.0)
    with pytest.raises(DomainError, match=r"u_t=inf at grid index \(0, 1\)"):
        Partials(rho_t=0.0, rho_x=0.0, u_t=np.array([[0.0, math.inf]]), u_x=0.0, u_xx=0.0)
    s = make_entry("T3", p1=1.2, b=0.5).sampler(MP1)
    x, t = np.meshgrid([0.0, 1.0], [1.0, -1.0, -2.0])
    with pytest.raises(DomainError, match=r"point \(x=0\.0, t=-1\.0\)") as e:
        s.require_in_domain(x, t)
    assert e.value.index == 2


def test_state_broadcasts_its_fields():
    st = StatePoint(rho=2.0, u=np.array([0.0, 1.0]))
    assert np.array_equal(st.rho, [2.0, 2.0])
    d = Partials(rho_t=np.zeros((2, 1)), rho_x=np.ones(3), u_t=0.0, u_x=0.0, u_xx=0.0)
    assert all(getattr(d, name).shape == (2, 3) for name in FIELDS)


def _counted(s):
    calls = {"eval": 0, "partials": 0, "domain": 0}

    def count(name, fn):
        def wrapped(x, t):
            calls[name] += 1
            return fn(x, t)
        return wrapped

    counted = SolutionSampler(
        eval=count("eval", s.eval), domain=count("domain", s.domain),
        partials=count("partials", s.partials) if s.partials is not None else None)
    return counted, calls


def test_fd_partials_evaluates_each_stencil_node_once():
    s, calls = _counted(make_entry("T1", p1=1, p2=2, b=1).sampler(MP1))
    fd_partials(s, 0.3, 1.2, order=4)
    assert calls["eval"] == 9        # x offsets -2..2 and t offsets -2, -1, 1, 2
    x, t = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(1, 2, 5))
    fd_partials(s, x, t, order=2)
    assert calls["eval"] == 9 + 5


@pytest.mark.parametrize("analytic", [True, False])
def test_verify_sampler_calls_do_not_grow_with_the_grid(analytic):
    base = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    if not analytic:
        base = SolutionSampler(eval=base.eval, domain=base.domain)
    counts = []
    for n in (11, 41, 81):
        s, calls = _counted(base)
        rep = verify_sampler(MP1, s, GridRegion(-5.0, 5.0, n, 0.5, 3.0, n), tol=1e-8)
        assert rep.status == (catalog.VERIFIED if analytic else catalog.PAPER_CLAIMED)
        counts.append(calls)
    assert counts[0] == counts[1] == counts[2]
    assert counts[1]["eval"] == (19 if analytic else 28)


def test_grid_consumers_make_one_call_per_stencil_node():
    mp = ModelParams(A=1.0, D=0.3)      # D > 0: the S1, S2 rows difference u_x in t
    base = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    c = conservation.MultiplierConstants(1.0, 0.5, 0.2)
    per_size = []
    for n in (5, 40):
        s, calls = _counted(base)
        x, t = np.meshgrid(np.linspace(-1, 1, n), np.linspace(1, 2, n))
        for which in ("S1", "S2", "S3", "S4"):
            conservation.symmetry_conserved_vector(which, c, mp, s, x, t, 1e-3)
            conservation.divergence_residual(which, c, mp, s, x, t, 1e-3)
        conservation.adjoint_identity_residual(c, mp, s, x, t, 1e-3)
        grid = solver.Grid.over(0.0, 2.0, 8 * n)
        f = solver._initial_field(s, grid, 1.0)
        solver.error_norms(f, s, grid)
        grids = dict(calls)
        # The pass along the path is sequential, but its steps do not depend on the number
        # of output nodes, and Psi on those nodes is one call.
        prob = wavefront.AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=0.1)
        wavefront.amplitude_quadrature(prob, 2.0, n=10 * n)
        per_size.append((grids, calls["partials"] - grids["partials"]))
    assert per_size[0] == per_size[1]


def test_adjoint_identity_on_a_grid_matches_point_calls():
    mp = ModelParams(A=1.0, D=0.3)
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    c = conservation.MultiplierConstants(1.0, 0.5, 0.2)
    x, t = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(1, 2, 5))
    for sampler in (s, SolutionSampler(eval=s.eval, domain=s.domain)):    # analytic, fd2
        d1, d2 = conservation.adjoint_identity_residual(c, mp, sampler, x, t, 1e-3)
        points = [conservation.adjoint_identity_residual(c, mp, sampler, a, b, 1e-3)
                  for a, b in zip(x.ravel().tolist(), t.ravel().tolist())]
        assert _same(d1, [p[0] for p in points]) and _same(d2, [p[1] for p in points])


def test_cli_grids_make_one_sampler_call(monkeypatch, tmp_path, capsys):
    made = []
    sampler = catalog.CatalogEntry.sampler

    def counted_sampler(entry, mp):
        s, calls = _counted(sampler(entry, mp))
        made.append(calls)
        return s

    monkeypatch.setattr(catalog.CatalogEntry, "sampler", counted_sampler)
    spec = "T1?p1=1&p2=2&b=1"
    for n in ("5", "41"):
        assert cli.main(["conserve", "--entry", spec, "--which", "S2", "--c", "1,0,0",
                         "--nx", n, "--nt", n, "--out", str(tmp_path / "c.csv")]) == 0
        assert cli.main(["simulate", "--ic", spec, "--surface", f"x:-5:5:{n}",
                         f"t:0.5:3:{n}", "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert made[0] == made[2] and made[1] == made[3]
    assert made[1]["eval"] == 1 and made[1]["domain"] == 1


def test_conserve_names_the_first_failing_point_in_grid_order(tmp_path, capsys):
    # x = 0.36 comes first: inside sin's domain (0, pi), but x - h is not;
    # x = 3.24 comes later and lies outside.
    code = cli.main(["conserve", "--entry", "KINK?mshape=sin&c1=1", "--which", "S4",
                     "--c", "1,0,0", "--x0", "0", "--x1", "3.6", "--nx", "3", "--t0", "0",
                     "--t1", "1", "--nt", "2", "--h-step", "0.5",
                     "--out", str(tmp_path / "c.csv")])
    assert code == cli.EXIT_DOMAIN
    assert capsys.readouterr().err == \
        "error: divergence stencil at (x=0.36000000000000004, t=0.1) leaves domain\n"


def test_fd_probe_skips_points_with_a_non_finite_residual():
    # u jumps by 2e308 across x = 0.5, a probe point between the grid nodes:
    # the order-2 difference there overflows and that point alone is skipped.
    def u_of(x):
        return np.where(np.abs(x - 0.5) < 0.05, 1e308 * np.sign(x - 0.5), 0.0)

    s = SolutionSampler(
        eval=lambda x, t: StatePoint(rho=1.0 + 0.0 * (x + t), u=u_of(x) + 0.0 * t),
        partials=lambda x, t: Partials(rho_t=np.zeros(np.broadcast(x, t).shape),
                                       rho_x=0.0, u_t=0.0, u_x=0.0, u_xx=0.0))
    with np.errstate(over="ignore"):
        rep = verify_sampler(MP1, s, GridRegion(0.0, 1.0, 2, 0.0, 1.0, 2), tol=1e-8)
    assert rep.status == catalog.VERIFIED
    assert rep.fd_floors == [0.0, 0.0, 0.0]


def test_custom_kink_reports_its_continuity_floor():
    entry = make_entry("KINK", mshape="custom", c1=1.0,
                       M=lambda x: 2.0 + math.sin(x), Mp=math.cos)
    rep = verify_entry(entry, MP1, region=GridRegion(-1, 1, 11, 0, 2, 11))
    note = [n for n in rep.notes if n.startswith("measured continuity residual floor")]
    assert len(note) == 1 and float(note[0].rsplit(":", 1)[1]) > 1e-3


def test_builtin_kink_floor_is_max_continuity_residual_on_probe_points():
    entry = make_entry("KINK", mshape="gauss", c1=1.0)
    region = entry.default_region(MP1)
    rep = verify_entry(entry, MP1)
    s = entry.sampler(MP1)
    floor = 0.0
    for x in region.interior(5, 5)[0]:
        for t in region.interior(5, 5)[1]:
            st, d = s.eval(float(x), float(t)), s.partials(float(x), float(t))
            floor = max(floor, abs(st.rho * d.u_x + d.rho_x * st.u + d.rho_t))
    assert f"measured continuity residual floor on probe points: {floor:.6e}" in rep.notes


def test_direct_amplitude_leaving_the_domain_is_not_a_blowup():
    s4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    limited = SolutionSampler(eval=s4.eval, partials=s4.partials,
                              domain=lambda x, t: x < 2.0)
    prob = wavefront.AmplitudeProblem(background=limited, A=1.0, x0=0.0, t0=0.0, pi0=0.1)
    with pytest.raises(DomainError):
        wavefront.amplitude_direct(prob, 5.0, 0.01)    # x(t) = 2t crosses x = 2 at t = 1


def test_convergence_order_keeps_every_config_field(monkeypatch):
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    cfg = solver.SolverConfig(grid=solver.Grid.over(0.0, 2.0, 16), params=MP1,
                              scheme="lax_friedrichs", cfl=0.3, bc="dirichlet",
                              dirichlet_sampler=s)
    seen = []
    run = solver.run

    def spy(c, *args, **kwargs):
        seen.append(c)
        return run(c, *args, **kwargs)

    monkeypatch.setattr(solver, "run", spy)
    solver.convergence_order(cfg, s, [16, 32, 64], 1.0, 1.05)
    assert [c.grid.nx for c in seen] == [16, 32, 64]
    for c in seen:
        assert (c.params, c.scheme, c.cfl, c.bc, c.dirichlet_sampler) == \
            (cfg.params, cfg.scheme, cfg.cfl, cfg.bc, cfg.dirichlet_sampler)
