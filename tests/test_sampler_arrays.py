"""The broadcast sampler contract and the grid consumers built on it.

Every sampler takes floats or (x, t) arrays and returns the same shape, so
a grid costs one sampler call per stencil node instead of one per point.
"""

import math
import re

import numpy as np
import pytest

from trafficflow import catalog, cli, conservation, solver, wavefront
from trafficflow.catalog import GridRegion, make_entry, verify_entry, verify_sampler
from trafficflow.lie import group_transform
from trafficflow.model import (FD_NODES, DomainError, ModelParams, Partials, SolutionSampler,
                               StatePoint, fd_partials, pde_residual, require_stencil)

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


def test_fd_consumers_evaluate_each_stencil_node_once():
    # The centre state comes from the same stencil read as the FD partials.
    base = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    c = conservation.MultiplierConstants(1.0, 0.5, 0.2)
    for call, evals in (
            (lambda s: pde_residual(MP1, s, 0.3, 1.2, "fd2"), 5),
            (lambda s: pde_residual(MP1, s, 0.3, 1.2, "fd4"), 9),
            (lambda s: conservation.adjoint_identity_residual(c, MP1, s, 0.3, 1.2, 1e-3), 5),
            (lambda s: conservation.symmetry_conserved_vector("S4", c, MP1, s, 0.3, 1.2, 1e-3), 5)):
        s, calls = _counted(SolutionSampler(eval=base.eval, domain=base.domain))
        call(s)
        assert calls["eval"] == evals
    # The FD partials carry the centre state that their read gave.
    x, t = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(1, 2, 3))
    centre, st = fd_partials(base, x, t, order=2).centre, base.eval(x, t)
    assert np.array_equal(centre.rho, st.rho) and np.array_equal(centre.u, st.u)


@pytest.mark.parametrize("order, nodes", [(2, 5), (4, 9)])
def test_fd_partials_checks_each_stencil_node_once(order, nodes):
    # The u_xx row in x, its centre included, and the first-derivative row in t.
    s, calls = _counted(make_entry("T1", p1=1, p2=2, b=1).sampler(MP1))
    fd_partials(s, 1.0, 1.5, order=order, h=1e-3)
    assert calls["domain"] == calls["eval"] == nodes


def _recording(s):
    """s, and a log of the points each call of domain, eval and partials receives."""
    log = []

    def record(name, fn):
        def wrapped(x, t):
            xs, ts = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
            log.append((name, set(zip(xs.ravel().tolist(), ts.ravel().tolist()))))
            return fn(x, t)
        return wrapped

    recorded = SolutionSampler(
        eval=record("eval", s.eval), domain=record("domain", s.domain),
        partials=record("partials", s.partials) if s.partials is not None else None)
    return recorded, log


def _evaluated_unchecked(log):
    """Points passed to eval or partials before any domain call received them."""
    checked, unchecked = set(), set()
    for name, points in log:
        if name == "domain":
            checked |= points
        else:
            unchecked |= points - checked
    return unchecked


def _checked_calls():
    """(name, call) pairs; make each call before drawing the next, since the lambdas
    read the loop variables."""
    c = conservation.MultiplierConstants(1.0, 0.5, 0.2)
    x, t = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(1, 2, 3))
    for D in (0.0, 0.4):
        mp = ModelParams(A=1.0, D=D)
        yield f"pde_residual:analytic:D={D}", lambda s: pde_residual(mp, s, x, t, "analytic")
        for which in ("S1", "S2", "S3", "S4"):
            yield (f"symmetry_conserved_vector:{which}:D={D}",
                   lambda s: conservation.symmetry_conserved_vector(which, c, mp, s, x, t, 1e-3))
            yield (f"divergence_residual:{which}:D={D}",
                   lambda s: conservation.divergence_residual(which, c, mp, s, x, t, 1e-3))
    yield "adjoint_identity_residual", \
        lambda s: conservation.adjoint_identity_residual(c, MP1, s, x, t, 1e-3)
    for order in (2, 4):
        yield f"fd_partials:{order}", lambda s: fd_partials(s, x, t, order=order)
        yield f"pde_residual:fd{order}", lambda s: pde_residual(MP1, s, x, t, f"fd{order}")
    yield "verify_sampler", \
        lambda s: verify_sampler(MP1, s, GridRegion(-1.0, 1.0, 6, 1.0, 2.0, 6), tol=1e-8)


@pytest.mark.parametrize("analytic", [True, False])
def test_nothing_is_evaluated_before_its_domain_check(analytic):
    # Within each call, every point that eval or partials receives has been
    # passed to domain first.
    base = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    if not analytic:
        base = SolutionSampler(eval=base.eval, domain=base.domain)
    for name, call in _checked_calls():
        if name.startswith("pde_residual:analytic") and not analytic:
            continue
        s, log = _recording(base)
        call(s)
        assert any(kind == "eval" for kind, _ in log), name
        assert not _evaluated_unchecked(log), name


def _point_reads():
    """(name, call) pairs of the consumers that read a sampler at points, not on stencils."""
    grid = solver.Grid.over(0.0, 2.0, 16)
    field = solver.Field(1.0, np.ones(16), np.zeros(16))
    yield "_initial_field", lambda s: solver._initial_field(s, grid, 1.0)
    yield "error_norms", lambda s: solver.error_norms(field, s, grid)
    for D in (0.0, 0.5):    # D > 0 also reads the ghosts at t + dt
        yield f"dirichlet step:D={D}", lambda s: solver.step(field, solver.SolverConfig(
            grid=grid, params=ModelParams(A=1.0, D=D), bc="dirichlet", dirichlet_sampler=s))

    def problem(s):
        return wavefront.AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=0.1)

    yield "characteristic_path", lambda s: wavefront.characteristic_path(problem(s), 2.0, 0.1)
    yield "amplitude_quadrature", lambda s: wavefront.amplitude_quadrature(problem(s), 2.0, 20)


def test_point_reads_are_checked_before_anything_is_evaluated():
    base = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    for name, call in _point_reads():
        s, log = _recording(base)
        call(s)
        assert any(kind == "eval" for kind, _ in log), name
        assert not _evaluated_unchecked(log), name


_NON_FINITE = [(math.nan, 1.5), (math.inf, 1.5), (1.0, math.inf)]


@pytest.mark.parametrize("x,t", _NON_FINITE)
@pytest.mark.parametrize("kind,params", [("T1", dict(p1=1, p2=2, b=1)),
                                         ("T3", dict(p1=1.2, b=0.5))])
def test_a_non_finite_point_is_outside_every_domain(kind, params, x, t):
    s = make_entry(kind, **params).sampler(MP1)
    c = conservation.MultiplierConstants(1.0, 0.5, 0.2)
    calls = [lambda: pde_residual(MP1, s, x, t, "analytic"),
             lambda: pde_residual(MP1, s, x, t, "fd2", h=1e-3),
             lambda: pde_residual(MP1, s, x, t, "fd4"),      # default step: inf at x = inf
             lambda: conservation.symmetry_conserved_vector("S2", c, MP1, s, x, t, 1e-3),
             lambda: conservation.divergence_residual("S2", c, MP1, s, x, t, 1e-3)]
    for call in calls:
        with pytest.raises(DomainError, match=re.escape(f"(x={x}, t={t}) ")
                           + "(is outside the sampler domain|with step .* leaves the domain)$"):
            call()


def test_a_non_finite_point_never_reaches_domain():
    # domain's own math may raise on such a float (math.exp(inf) overflows, say).
    s, log = _recording(make_entry("T1", p1=1, p2=2, b=1).sampler(MP1))
    for x, t in _NON_FINITE:
        with pytest.raises(DomainError, match=re.escape(f"wall point (x={x}, t={t}) is outside")):
            s.require_in_domain(x, t, "wall point")
    assert log == []
    x = np.array([0.0, math.nan, math.inf])
    with pytest.raises(DomainError, match=r"^point \(x=nan, t=1\.5\) is outside") as e:
        s.require_in_domain(x, 1.5)
    assert e.value.index == 1



_BAD_FLOAT_STENCILS = [
    # (x, t, h, exception, message): a non-finite centre, a bad step, a step whose square
    # underflows, a node outside the domain (x < 10 below), a node that rounds onto t
    (math.nan, 1.5, 1e-3, DomainError,
     "{what} stencil at (x=nan, t=1.5) with step 0.001 leaves the domain"),
    (1.0, math.inf, 1e-3, DomainError,
     "{what} stencil at (x=1.0, t=inf) with step 0.001 leaves the domain"),
    (1.0, 1.5, 0.0, ValueError, "h_step must be > 0 and finite with a nonzero square, got 0.0"),
    (1.0, 1.5, -1e-3, ValueError,
     "h_step must be > 0 and finite with a nonzero square, got -0.001"),
    (1.0, 1.5, math.inf, ValueError,
     "h_step must be > 0 and finite with a nonzero square, got inf"),
    (1.0, 1.5, math.nan, ValueError,
     "h_step must be > 0 and finite with a nonzero square, got nan"),
    (1.0, 1.5, 1e-200, ValueError,
     "h_step must be > 0 and finite with a nonzero square, got 1e-200"),
    (9.9995, 1.5, 1e-3, DomainError,
     "{what} stencil at (x=9.9995, t=1.5) with step 0.001 leaves the domain"),
    (1.0, 1e17, 1e-3, DomainError,
     "{what} stencil at (x=1.0, t=1e+17) with step 0.001 rounds onto its centre"),
]


@pytest.mark.parametrize("x,t,h,exc,message", _BAD_FLOAT_STENCILS)
def test_a_failing_float_stencil_raises_before_anything_is_evaluated(x, t, h, exc, message):
    base = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    cut = SolutionSampler(eval=base.eval, partials=base.partials,
                          domain=lambda x, t: base.domain(x, t) and x < 10.0)
    for what, call in (("order-2 FD", lambda s: fd_partials(s, x, t, order=2, h=h)),
                       ("order-4 FD", lambda s: pde_residual(MP1, s, x, t, "fd4", h=h)),
                       ("mixed-derivative",
                        lambda s: require_stencil(s, x, t, h, ((1, 1), (-1, -1)),
                                                  "mixed-derivative"))):
        s, log = _recording(cut)
        with pytest.raises(exc) as e:
            call(s)
        assert type(e.value) is exc and str(e.value) == message.format(what=what)
        assert all(name == "domain" for name, _ in log)
        if exc is ValueError or not (math.isfinite(x) and math.isfinite(t)):
            assert log == []


@pytest.mark.parametrize("order", [2, 4])
def test_a_valid_float_stencil_calls_domain_once_per_node(order):
    s, log = _recording(make_entry("T1", p1=1, p2=2, b=1).sampler(MP1))
    x, t, h = 1.0, 1.5, 1e-3
    require_stencil(s, x, t, h, FD_NODES[order], f"order-{order} FD")
    assert log == [("domain", {(x + i * h, t + j * h)}) for i, j in FD_NODES[order]]

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
    # One primary pass (1 call analytic, 9 FD4) and one five-node FD2 pass for all three steps.
    assert counts[1]["eval"] == (6 if analytic else 14)


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


@pytest.mark.parametrize("kind,params,mp", [
    ("T1", dict(p1=1, p2=2, b=1), MP1),
    ("T1", dict(p1=1, p2=2, b=1), ModelParams(A=1.0, D=0.4)),
    ("T2", dict(p1=1, b=0.3), MP1),
])
def test_conserved_vectors_on_a_grid_match_point_calls(kind, params, mp):
    # One evaluation path for floats and arrays: a grid call of each row, its vector and
    # its divergence, gives the bits of the float calls at its points.
    entry = make_entry(kind, **params)
    s, r = entry.sampler(mp), entry.default_region(mp)
    dx, dt = 0.2 * (r.x1 - r.x0), 0.2 * (r.t1 - r.t0)
    x, t = np.meshgrid(np.linspace(r.x0 + dx, r.x1 - dx, 5), np.linspace(r.t0 + dt, r.t1 - dt, 4))
    pts = list(zip(x.ravel().tolist(), t.ravel().tolist()))
    c = conservation.MultiplierConstants(1.3, 0.5, 0.2)    # c1 != 1: regrouping changes bits
    for sampler in (s, SolutionSampler(eval=s.eval, domain=s.domain)):    # analytic, fd2
        for which in ("S1", "S2", "S3", "S4"):
            ux, ut = conservation.symmetry_conserved_vector(which, c, mp, sampler, x, t, 1e-3)
            points = [conservation.symmetry_conserved_vector(which, c, mp, sampler, a, b, 1e-3)
                      for a, b in pts]
            assert _same(ux, [p[0] for p in points]) and _same(ut, [p[1] for p in points]), which
            div = conservation.divergence_residual(which, c, mp, sampler, x, t, 1e-3)
            assert _same(div, [conservation.divergence_residual(which, c, mp, sampler, a, b, 1e-3)
                               for a, b in pts]), which


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
        ("error: divergence stencil at (x=0.36000000000000004, t=0.1) with step 0.5"
         " leaves the domain\n")


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
