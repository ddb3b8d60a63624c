import math
import re

import numpy as np
import pytest

from trafficflow import conservation
from trafficflow.catalog import kink_ode_oracle, make_entry
from trafficflow.conservation import (MultiplierConstants, adjoint_identity_residual,
                                      basic_conserved, divergence_residual,
                                      self_adjoint_substitution, symmetry_conserved_vector)
from trafficflow.lie import InfinitesimalParams, basis, infinitesimals
from trafficflow.model import (DomainError, ModelParams, Partials, SolutionSampler, StatePoint,
                               fd_partials)

MP1 = ModelParams(A=1.0)


def test_basic_conserved_examples():
    mass, mom = basic_conserved(MP1, StatePoint(2.0, 3.0))
    assert (mass.T, mass.C) == (2.0, 6.0)
    assert (mom.T, mom.C) == (6.0, 20.0)
    mass, mom = basic_conserved(MP1, StatePoint(2.0, 0.0))
    assert mom.C == 2.0           # pressure-only flux A*rho
    mass, mom = basic_conserved(ModelParams(A=4.0), StatePoint(1.0, -1.0))
    assert (mom.T, mom.C) == (-1.0, 5.0)


def test_basic_conserved_flux_consistency():
    # C_mass = rho*u and dC_momentum/drho at fixed u equals u^2 + A
    rho, u, A = 1.7, -0.8, 2.5
    p = ModelParams(A=A)
    mass, mom1 = basic_conserved(p, StatePoint(rho, u))
    assert mass.C == pytest.approx(rho * u)
    _, mom2 = basic_conserved(p, StatePoint(rho + 1e-6, u))
    assert (mom2.C - mom1.C) / 1e-6 == pytest.approx(u * u + A, rel=1e-6)


def test_basic_conserved_requires_inviscid():
    with pytest.raises(ValueError):
        basic_conserved(ModelParams(A=1.0, D=0.1), StatePoint(1.0, 0.0))


def test_self_adjoint_substitution_examples():
    h, g, l1, l2, l3, l4 = self_adjoint_substitution(
        MultiplierConstants(1, 0, 0), MP1, StatePoint(1.0, 2.0))
    assert (h, g) == (1.0, 3.0)
    assert (l1, l2, l3, l4) == (-1.0, -1.0, -1.0, -1.0)

    h, g, l1, l2, l3, l4 = self_adjoint_substitution(
        MultiplierConstants(0, 5, -2), MP1, StatePoint(3.0, 1.0))
    assert (h, g) == (-2.0, 5.0)
    assert (l1, l2, l3, l4) == (0.0, 0.0, 0.0, 0.0)

    h, g, _, _, l3, _ = self_adjoint_substitution(
        MultiplierConstants(2, 1, -1), ModelParams(A=4.0), StatePoint(2.0, 0.0))
    assert h == -5.0 and g == 5.0 and l3 == -2.0


def _t1_sampler(mp=MP1):
    return make_entry("T1", p1=1, p2=2, b=1).sampler(mp)


def test_adjoint_identity_constant_multipliers_on_solution():
    # c1 = 0 makes h, g constant and all multipliers zero; on a solution with
    # D = 0 both adjoint expressions collapse to zero exactly
    d1, d2 = adjoint_identity_residual(MultiplierConstants(0, 1, 1), MP1,
                                       _t1_sampler(), 1.0, 1.5, 1e-3)
    assert d1 == 0.0 and d2 == 0.0


def test_adjoint_identity_converges_on_solution():
    c = MultiplierConstants(1, 0, 0)
    vals = []
    for h in (1e-2, 5e-3, 2.5e-3):
        d1, d2 = adjoint_identity_residual(c, MP1, _t1_sampler(), 1.0, 1.5, h)
        vals.append(max(abs(d1), abs(d2)))
    assert vals[0] / vals[1] >= 2 ** 1.8
    assert vals[1] / vals[2] >= 2 ** 1.8
    assert vals[-1] <= 1e-5


def _smooth_field():
    def ev(x, t):
        return StatePoint(rho=2.0 + 0.3 * math.sin(x), u=0.5 * math.cos(x))

    def pt(x, t):
        return Partials(rho_t=0.0, rho_x=0.3 * math.cos(x), u_t=0.0,
                        u_x=-0.5 * math.sin(x), u_xx=-0.5 * math.cos(x))

    return SolutionSampler(eval=ev, partials=pt)


def test_adjoint_identity_reports_viscous_defect_ratios():
    # with D != 0 the printed substitution does not satisfy the identity; the
    # FD values converge at order ~2 to the intrinsic defect, so Richardson
    # differences shrink by ~4 per halving
    c = MultiplierConstants(1, 1, 1)
    p = ModelParams(A=1.0, D=0.1)
    s = _smooth_field()
    d = [adjoint_identity_residual(c, p, s, 0.4, 1.0, h)[0] for h in (4e-3, 2e-3, 1e-3)]
    r = (d[0] - d[1]) / (d[1] - d[2])
    assert r == pytest.approx(4.0, rel=0.15)
    assert abs(d[-1]) > 1e-3      # the defect itself is O(1), not an FD artefact


def test_symmetry_vector_examples():
    c010 = MultiplierConstants(0, 1, 0)
    _, ut = symmetry_conserved_vector("S4", c010, MP1, _t1_sampler(), 1.0, 1.0, 1e-3)
    assert ut == pytest.approx(-0.5)

    t4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    ux, ut = symmetry_conserved_vector("S2", MultiplierConstants(1, 1, 1), MP1, t4, 0.3, 0.7,
                                       1e-3)
    assert ux == 0.0 and ut == 0.0

    _, ut = symmetry_conserved_vector("S3", c010, MP1, t4, 0.3, 0.7, 1e-3)
    assert ut == 1.0


def _travelling_field():
    # Not a solution: the rows are algebraic in the fields and their partials,
    # so a smooth field with all five partials nonzero checks them term by term.
    def ev(x, t):
        return StatePoint(rho=2.0 + 0.3 * math.sin(x - 0.5 * t), u=0.5 * math.cos(x + 0.2 * t))

    def pt(x, t):
        return Partials(rho_t=-0.15 * math.cos(x - 0.5 * t), rho_x=0.3 * math.cos(x - 0.5 * t),
                        u_t=-0.1 * math.sin(x + 0.2 * t), u_x=-0.5 * math.sin(x + 0.2 * t),
                        u_xx=-0.5 * math.cos(x + 0.2 * t))

    return SolutionSampler(eval=ev, partials=pt)


def _published_row(which, c, p, s, x, t, u_tx):
    """The four published (Ux, Ut) rows, copied term by term, as a reference."""
    st, d = s.eval(x, t), s.partials(x, t)
    rho, u, A, D, c1, c2, c3 = st.rho, st.u, p.A, p.D, c.c1, c.c2, c.c3
    h, g = c1 * u - c1 * A / rho + c3, (rho + u) * c1 + c2
    visc = -c1 * D * d.u_x / rho + D * (c1 * u + c2) * d.rho_x / (rho * rho)
    Q = (c1 * u + c3) * u + (c1 * rho + c2) * A / rho
    if which == "S1":
        return ((D * (c1 * rho + c1 * u + c2) / rho) * (d.u_x + x * d.u_xx + t * u_tx)
                + (x * d.u_x + t * d.u_t) * (visc + h * rho + g * u)
                - (rho + x * d.rho_x + t * d.rho_t) * Q,
                -g * (x * d.u_x + t * d.u_t) - h * (rho + x * d.rho_x + t * d.rho_t))
    if which == "S2":
        return (D * g * u_tx / rho + (visc - h * rho - g * u) * d.u_t - d.rho_t * Q,
                -g * d.u_t - h * d.rho_t)
    if which == "S3":
        return (D * g * t * d.u_xx / rho - (visc + h * rho + g * u) * (1.0 - t * d.u_x)
                - t * d.rho_x * Q, g * (1.0 - t * d.u_x) - h * t * d.rho_x)
    return (D * g * d.u_xx / rho + (visc - h * rho - g * u) * d.u_x - d.rho_x * Q,
            -g * d.u_x - h * d.rho_x)


@pytest.mark.parametrize("which", ["S1", "S2", "S3", "S4"])
@pytest.mark.parametrize("D", [0.0, 0.4])
def test_one_flux_gives_the_published_rows(which, D):
    p, s = ModelParams(A=1.3, D=D), _travelling_field()
    for cs in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1.3, 0.7, -0.4)):
        c = MultiplierConstants(*cs)
        for x, t in ((0.4, 1.0), (-1.1, 2.5), (2.0, 0.3)):
            u_tx = conservation._mixed_u_tx(s, x, t, 1e-3) if D else 0.0
            ref = _published_row(which, c, p, s, x, t, u_tx)
            got = symmetry_conserved_vector(which, c, p, s, x, t, 1e-3)
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-14), (c, x, t)


@pytest.mark.parametrize("which", ["S1", "S2", "S3", "S4"])
@pytest.mark.parametrize("kind,params,mp", [
    ("T1", dict(p1=1, p2=2, b=1), MP1),
    ("T1", dict(p1=1, p2=2, b=1), ModelParams(A=1.0, D=0.4)),
    ("T2", dict(p1=1, b=0), MP1),
    ("T3", dict(p1=1, b=1), MP1),
    ("KINK", dict(mshape="gauss", c1=1.0), MP1),
], ids=["T1", "T1-viscous", "T2", "T3", "KINK-gauss"])
def test_rows_carry_the_characteristics_of_the_lie_generators(which, kind, params, mp):
    # Ut = -g V^u - h V^rho: c = (0, 1, 0) gives (h, g) = (0, 1) and c = (0, 0, 1)
    # gives (1, 0), so -Ut reads off each row's V = -eta + xi D_x + tau D_t, which
    # lie.infinitesimals states for the generator independently of the rows.
    entry = make_entry(kind, **params)
    s = entry.sampler(mp)
    e = InfinitesimalParams(*basis(int(which[1])).as_tuple())
    xs, ts = entry.default_region(mp).interior(5, 5)
    for x in xs.tolist():
        for t in ts.tolist():
            st, d = s.eval(x, t), s.partials(x, t)
            xi, tau, eta_rho, eta_u = infinitesimals(e, x, t, st.rho, st.u)
            _, Ut_u = symmetry_conserved_vector(which, MultiplierConstants(0, 1, 0), mp, s,
                                                x, t, 1e-3)
            _, Ut_rho = symmetry_conserved_vector(which, MultiplierConstants(0, 0, 1), mp, s,
                                                  x, t, 1e-3)
            assert -Ut_u == -eta_u + xi * d.u_x + tau * d.u_t, (x, t)
            assert -Ut_rho == -eta_rho + xi * d.rho_x + tau * d.rho_t, (x, t)


def test_symmetry_vector_rejects_unknown_row():
    with pytest.raises(ValueError):
        symmetry_conserved_vector("S5", MultiplierConstants(1, 0, 0), MP1,
                                  _t1_sampler(), 1.0, 1.0, 1e-3)
    # Both public calls check the row before the sampler, also at T1's pole t = -1.
    s, calls = _counted(_t1_sampler())
    for call in (symmetry_conserved_vector, divergence_residual):
        for t in (1.0, -1.0):
            with pytest.raises(ValueError, match=r"^which must be one of \('S1', 'S2', 'S3', "
                                                 r"'S4'\)$"):
                call("S5", MultiplierConstants(1, 0, 0), MP1, s, 1.0, t, 1e-3)
    assert calls == {"eval": 0, "partials": 0, "domain": 0}


def _counted(s):
    calls = {"eval": 0, "partials": 0, "domain": 0}

    def count(name, fn):
        def wrapped(x, t):
            calls[name] += 1
            return fn(x, t)
        return wrapped

    return SolutionSampler(
        eval=count("eval", s.eval), domain=count("domain", s.domain),
        partials=count("partials", s.partials) if s.partials is not None else None), calls


@pytest.mark.parametrize("h_step", [0.0, -1e-3, math.nan, math.inf, 1e-170, 1e-320])
def test_symmetry_vector_requires_a_positive_step(h_step):
    # No step is picked on the caller's behalf: the FD paths difference at h_step.
    # Every differencing entry point rejects it the same way, before any evaluation.
    c = MultiplierConstants(1, 1, 1)
    s, calls = _counted(_t1_sampler())
    grid = np.array([1.0, 2.0])
    for call in (lambda: symmetry_conserved_vector("S2", c, MP1, s, 1.0, 1.0, h_step),
                 lambda: divergence_residual("S2", c, MP1, s, 1.0, 1.0, h_step),
                 lambda: adjoint_identity_residual(c, MP1, s, 1.0, 1.0, h_step),
                 lambda: fd_partials(s, 1.0, 1.0, order=2, h=h_step),
                 lambda: fd_partials(s, grid, 1.0, order=4, h=np.full(2, h_step))):
        with pytest.raises(ValueError, match="h_step must be > 0"):
            call()
    assert calls["eval"] == 0


def test_a_step_whose_square_underflows_is_rejected_at_the_origin():
    # At (0, 0) the nodes +-1e-170 resolve, but 1e-170 ** 2 is 0: a second
    # difference would divide by zero.
    s, c = _t1_sampler(), MultiplierConstants(1, 0, 0)
    zeros = np.zeros(2)
    for call in (lambda: fd_partials(s, 0.0, 0.0, order=2, h=1e-170),
                 lambda: fd_partials(s, zeros, zeros, order=2, h=np.full(2, 1e-170)),
                 lambda: adjoint_identity_residual(c, MP1, s, 0.0, 0.0, 1e-170),
                 lambda: adjoint_identity_residual(c, MP1, s, zeros, zeros, 1e-170)):
        with pytest.raises(ValueError, match="h_step must be > 0 and finite with a nonzero "
                                             "square, got"):
            call()


def test_a_step_that_rounds_away_is_rejected_at_points_and_on_grids():
    # At (1.0, 1.5) a step of 1e-17 rounds away (x + h == x): the
    # difference would read an exact 0 and show the S1 defect as conserved.
    s, c = _t1_sampler(), MultiplierConstants(1, 0, 0)
    calls = (lambda x, t, h: divergence_residual("S1", c, MP1, s, x, t, h),
             lambda x, t, h: adjoint_identity_residual(c, MP1, s, x, t, h),
             lambda x, t, h: fd_partials(s, x, t, order=2, h=h))
    x, t = np.array([0.0, 1.0]), np.array([0.0, 1.5])
    for call in calls:
        with pytest.raises(DomainError,
                           match=r"stencil .*\(x=1\.0, t=1\.5\).* rounds onto its centre$"):
            call(1.0, 1.5, 1e-17)
        with pytest.raises(DomainError, match=r"\(x=1\.0, t=1\.5\)") as e:
            call(x, t, 1e-17)     # (0, 0) resolves 1e-17, the second point does not
        assert e.value.index == 1
        call(x, t, 1e-3)
    assert abs(divergence_residual("S1", c, MP1, s, 1.0, 1.5, 1e-3)) > 0.05


def test_a_per_point_step_is_named_by_the_failing_point():
    # At t = 1e17 a step of 1e-3 rounds away; with a step per point, the message
    # names the failing point's own step, not the whole array.
    s, c = _t1_sampler(), MultiplierConstants(1, 0, 0)
    x = np.array([0.0, 1.0, 2.0])
    for call, what in ((lambda x, t, h: divergence_residual("S1", c, MP1, s, x, t, h),
                        "divergence"),
                       (lambda x, t, h: adjoint_identity_residual(c, MP1, s, x, t, h),
                        "adjoint-identity")):
        with pytest.raises(DomainError, match=rf"^{what} stencil at \(x=0\.0, t=1e\+17\) with "
                                              r"step 0\.001 rounds onto its centre$"):
            call(x, 1e17, np.full(3, 1e-3))
        with pytest.raises(DomainError, match=r"\(x=1\.0, t=1e\+17\) with step 0\.002 ") as e:
            call(1.0, np.array([1.5, 1e17]), np.array([1e-3, 2e-3]))
        assert e.value.index == 1


@pytest.mark.parametrize("which", ["S1", "S2", "S3", "S4"])
def test_scalar_divergence_checks_its_stencil_once(which):
    # Four stencil nodes, each evaluated once; at D != 0 the S1 and S2 rows
    # also check and evaluate the two t-nodes of the mixed derivative at each
    # x-node, the only nodes whose Ux needs u_tx.  The vector at a point reads
    # it once, plus those two t-nodes.
    mp = ModelParams(A=1.0, D=0.4)
    c = MultiplierConstants(1.0, 0.5, 0.2)
    s, calls = _counted(_t1_sampler(mp))
    divergence_residual(which, c, mp, s, 1.0, 1.5, 1e-3)
    viscous = which in ("S1", "S2")
    assert calls == {"eval": 4, "partials": 8 if viscous else 4, "domain": 8 if viscous else 4}
    s, calls = _counted(_t1_sampler(mp))
    symmetry_conserved_vector(which, c, mp, s, 1.0, 1.5, 1e-3)
    assert calls == {"eval": 1, "partials": 3 if viscous else 1, "domain": 3 if viscous else 1}


@pytest.mark.parametrize("which", ["S1", "S2", "S3", "S4"])
def test_divergence_without_analytic_partials_checks_each_fd_stencil_once(which):
    # Four stencil nodes, then each node's order-2 FD stencil of 5 nodes: 24
    # domain calls, and 20 evaluations, since each FD stencil read gives its centre state.
    base = _t1_sampler()
    s, calls = _counted(SolutionSampler(eval=base.eval, domain=base.domain))
    divergence_residual(which, MultiplierConstants(1.0, 0.5, 0.2), MP1, s, 1.0, 1.5, 1e-3)
    assert calls == {"eval": 20, "partials": 0, "domain": 24}


@pytest.mark.parametrize("analytic", [True, False])
def test_mixed_derivative_nodes_outside_the_domain_are_rejected(analytic):
    # The centre and its order-2 stencil lie inside; a mixed-derivative node
    # does not: analytic u_x differenced at t - 1e-4 across T1's pole at
    # t = -1, or the corner (x - h, t - h) of the FD difference.
    mp = ModelParams(A=1.0, D=0.5)
    s = base = _t1_sampler(mp)
    h = 1e-3
    if analytic:
        x, t, step = 0.1, -0.99996, "0.0001"     # 1e-4 * max(1, |x|, |t|)
    else:
        s = SolutionSampler(eval=base.eval, domain=lambda x, t: base.domain(x, t) & (x + t > 0.0))
        x, t, step = 0.5, -0.5 + 1.5 * h, "0.001"
    c = MultiplierConstants(1.0, 0.0, 0.0)
    for which in ("S1", "S2"):
        with pytest.raises(DomainError, match=rf"^mixed-derivative stencil at \(x={x}, t={t}\)"
                                              rf" with step {step} leaves the domain$"):
            symmetry_conserved_vector(which, c, mp, s, x, t, h)
        with pytest.raises(DomainError, match="mixed-derivative stencil") as e:
            symmetry_conserved_vector(which, c, mp, s, np.array([1.0, x]), np.array([1.5, t]), h)
        assert e.value.index == 1


@pytest.mark.parametrize("analytic", [True, False])
def test_adjoint_identity_checks_its_stencil_once(analytic):
    # The order-2 stencil's 5 nodes, its centre among them, each checked once:
    # 5 domain calls, with or without analytic partials.
    s = _t1_sampler()
    if not analytic:
        s = SolutionSampler(eval=s.eval, domain=s.domain)
    s, calls = _counted(s)
    adjoint_identity_residual(MultiplierConstants(1, 0, 0), MP1, s, 1.0, 1.5, 1e-3)
    assert calls["domain"] == 5


def _public_divergence(which, c, p, s, x, t, h):
    Uxp, _ = symmetry_conserved_vector(which, c, p, s, x + h, t, h)
    Uxm, _ = symmetry_conserved_vector(which, c, p, s, x - h, t, h)
    _, Utp = symmetry_conserved_vector(which, c, p, s, x, t + h, h)
    _, Utm = symmetry_conserved_vector(which, c, p, s, x, t - h, h)
    return (Uxp - Uxm) / (2.0 * h) + (Utp - Utm) / (2.0 * h)


@pytest.mark.parametrize("which", ["S1", "S2", "S3", "S4"])
@pytest.mark.parametrize("kind,params,mp,box", [
    ("T1", dict(p1=1, p2=2, b=1), MP1, (0.3, 1.7, 0.5, 2.0)),
    ("T1", dict(p1=1, p2=2, b=1), ModelParams(A=1.0, D=0.4), (0.3, 1.7, 0.5, 2.0)),
    ("T2", dict(p1=1, b=0), MP1, (-8.0, -6.0, 0.3, 0.8)),
])
@pytest.mark.parametrize("analytic", [True, False])
def test_divergence_is_the_central_difference_of_public_vectors(which, kind, params, mp, box,
                                                                analytic):
    s = make_entry(kind, **params).sampler(mp)
    if not analytic:
        s = SolutionSampler(eval=s.eval, domain=s.domain)
    c = MultiplierConstants(1.3, 0.7, -0.4)
    x, t = np.meshgrid(np.linspace(box[0], box[1], 4), np.linspace(box[2], box[3], 3))
    for h in (2e-3, 1e-3):
        assert np.array_equal(divergence_residual(which, c, mp, s, x, t, h),
                              _public_divergence(which, c, mp, s, x, t, h))
        for a, b in zip(x.ravel().tolist(), t.ravel().tolist()):
            assert divergence_residual(which, c, mp, s, a, b, h) == \
                _public_divergence(which, c, mp, s, a, b, h)


def test_divergence_zero_on_constants():
    t4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    for which in ("S1", "S2", "S3", "S4"):
        for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            div = divergence_residual(which, MultiplierConstants(*c), MP1, t4,
                                      0.3, 0.7, 1e-3)
            assert div == 0.0


@pytest.mark.parametrize("which", ["S2", "S4"])
@pytest.mark.parametrize("c", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_divergence_converges_on_t1(which, c):
    s = _t1_sampler()
    vals = [abs(divergence_residual(which, MultiplierConstants(*c), MP1, s,
                                    1.0, 1.5, h)) for h in (4e-3, 2e-3, 1e-3)]
    if max(vals) <= 1e-12:
        return  # identically conserved for this multiplier choice
    assert math.log2(vals[0] / vals[1]) >= 1.9
    assert math.log2(vals[1] / vals[2]) >= 1.9


# The VERIFIED entries at D = 0 other than T1, with a point inside each domain.
_VERIFIED_AT_D0 = [
    ("T3", dict(p1=1, b=1), MP1, (0.5, 1.5)),
    ("T2", dict(p1=1, b=0), MP1, (-7.0, 0.5)),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), ModelParams(A=0.0), (0.0, 2.0)),
    ("E3ZERO", dict(p1=1, e1=1, e2=0.5, e4=1), MP1, (-8.0, 0.5)),
]


@pytest.mark.parametrize("kind,params,mp,pt", _VERIFIED_AT_D0)
def test_divergence_converges_on_all_verified_entries(kind, params, mp, pt):
    s = make_entry(kind, **params).sampler(mp)
    x, t = pt
    for which in ("S2", "S4"):
        for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            vals = [abs(divergence_residual(which, MultiplierConstants(*c), mp, s,
                                            x, t, h)) for h in (2e-3, 1e-3, 5e-4)]
            if max(vals) <= 1e-11:
                continue
            assert math.log2(vals[0] / vals[1]) >= 1.9, (kind, which, c, vals)
            assert math.log2(vals[1] / vals[2]) >= 1.9, (kind, which, c, vals)


@pytest.mark.parametrize("which", ["S1", "S3"])
def test_printed_s1_s3_rows_do_not_conserve(which):
    # the published S1/S3 closed forms carry a sign defect: their divergence
    # sits on an O(1) floor on a genuine solution; report, don't repair
    s = _t1_sampler()
    vals = [abs(divergence_residual(which, MultiplierConstants(1, 1, 1), MP1, s,
                                    1.0, 1.5, h)) for h in (4e-3, 2e-3, 1e-3)]
    assert min(vals) > 1e-3
    assert vals[0] / vals[2] < 1.5


@pytest.mark.parametrize("kind,params,mp,pt", [
    ("T1", dict(p1=1, p2=2, b=1), MP1, (1.0, 1.5)),
    ("T1", dict(p1=1, p2=2, b=1), ModelParams(A=1.0, D=0.4), (1.0, 1.5)),
] + _VERIFIED_AT_D0)
def test_derived_s1_s3_rows_conserve_on_all_verified_entries(monkeypatch, kind, params, mp,
                                                            pt):
    # The README finding: with the sign of (h*rho + g*u) set back to that of
    # Ibragimov's flux, the S1 and S3 rows converge at order 2, so the printed
    # rows' floor comes from their defect term -2 W^u (h*rho + g*u).  Viscous
    # T1 has u_x != 0, so it also pins the D_x(W^u) term of S1.
    monkeypatch.setitem(conservation._PRINTED_SIGN, "S1", 1.0)
    monkeypatch.setitem(conservation._PRINTED_SIGN, "S3", 1.0)
    s = make_entry(kind, **params).sampler(mp)
    x, t = pt
    for which in ("S1", "S3"):
        for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            vals = [abs(divergence_residual(which, MultiplierConstants(*c), mp, s,
                                            x, t, h)) for h in (2e-3, 1e-3, 5e-4)]
            if max(vals) <= 1e-11:
                continue  # at rounding level, e.g. S1 on T2 (b = 0)
            assert math.log2(vals[0] / vals[1]) >= 1.9, (kind, which, c, vals)
            assert math.log2(vals[1] / vals[2]) >= 1.9, (kind, which, c, vals)


def test_divergence_nonzero_on_negative_control():
    neg = make_entry("NEGCTRL").sampler(MP1)
    vals = [abs(divergence_residual("S4", MultiplierConstants(0, 1, 0), MP1, neg,
                                    1.0, 1.0, h)) for h in (4e-3, 2e-3, 1e-3)]
    # A/(x+2)^2 = 1/9 at x = 1, stable under refinement
    for v in vals:
        assert v == pytest.approx(1.0 / 9.0, rel=1e-4)


def test_divergence_on_viscous_t1():
    # T1 solves the viscous system as well; the S4 row stays conserved
    mp = ModelParams(A=1.0, D=0.4)
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    vals = [abs(divergence_residual("S4", MultiplierConstants(1, 0, 0), mp, s,
                                    1.0, 1.5, h)) for h in (4e-3, 2e-3)]
    assert vals[0] <= 1e-4 and math.log2(vals[0] / vals[1]) >= 1.8


def test_kink_ode_oracle():
    assert abs(kink_ode_oracle("gauss", 1.0, 1.0, 0.5, 2.0)) <= 1e-10
    assert kink_ode_oracle("gauss", 1.0, 1.0, 0.0, 2.0) == 0.0   # M'(0) = 0
    assert abs(kink_ode_oracle("sin", 2.0, 0.0, 1.0, 1.0)) <= 1e-10
    rng = np.random.default_rng(2)
    for _ in range(50):
        shape = ("sin", "sec", "cos", "gauss")[int(rng.integers(4))]
        x = float(rng.uniform(0.2, 1.2))
        t = float(rng.uniform(0.0, 4.0))
        A = float(rng.uniform(0.3, 5.0))
        c1 = float(rng.uniform(-2.0, 2.0))
        assert abs(kink_ode_oracle(shape, A, c1, x, t)) <= 1e-10


def test_kink_ode_oracle_takes_the_sech_limit_where_cosh_overflows():
    # Where cosh(z) overflows (t = 1e300, A = 1e308), sech^2 takes its limit 0.
    assert kink_ode_oracle("gauss", 1.0, 1.0, 0.5, 1e300) == 0.0
    assert abs(kink_ode_oracle("gauss", 1e308, 1.0, 0.5, 2.0)) <= 1e-14 * 1e308
    assert abs(kink_ode_oracle("sin", 1e308, 0.0, 1.0, 1.0)) <= 1e-14 * 1e308


@pytest.mark.parametrize("args,match", [
    (("gauss", -1.0, 1.0, 0.5, 1.0), "A must be >= 0, got A=-1.0"),
    (("gauss", math.nan, 1.0, 0.5, 1.0), "A must be finite, got A=nan"),
    (("gauss", math.inf, 1.0, 0.5, 1.0), "A must be finite, got A=inf"),
    (("gauss", 1.0, -math.inf, 0.5, 1.0), "c1 must be finite, got c1=-inf"),
    (("gauss", 1.0, 1.0, math.nan, 1.0), "x_fixed must be finite, got x_fixed=nan"),
    (("gauss", 1.0, 1.0, 0.5, math.nan), "t must be finite, got t=nan"),
    (("sec", 1e308, 0.0, 1.5, 1.0), "kink ODE residual is not finite for shape 'sec', "
                                    "A=1e+308, c1=0.0, x_fixed=1.5, t=1.0"),
])
def test_kink_ode_oracle_rejects_bad_inputs(args, match):
    with pytest.raises(ValueError, match="^" + re.escape(match) + "$"):
        kink_ode_oracle(*args)


@pytest.mark.parametrize("maxima,status,note", [
    ([4e-4, 1e-4, 2.5e-5], "CONSERVED", None),             # order 2
    ([0.0, 0.0, 0.0], "CONSERVED", "rounding"),            # ratios inf; also within the floor
    ([3e-12, 5e-12, 7e-12], "CONSERVED", "rounding"),      # noise below 64 eps * 1 / 2.5e-4
    ([2.0, 1.9, 1.9], "FLOOR", "floor"),
    ([4e-4, 1e-4, 5e-5], "INCONCLUSIVE", "inconclusive"),  # ratio 2 at the second halving
    ([8e-11, 6e-11, 5e-11], "INCONCLUSIVE", "inconclusive"),  # flat, finest within the floor
    ([4e-4, 1e-4, None], "INCONCLUSIVE", "no interior point admitted the divergence stencil "
                                         "at step 0.00025"),
    ([4e-4, math.nan, 2.5e-5], "INCONCLUSIVE", "the divergence is not finite at step 0.0005"),
])
def test_divergence_verdict_rule(maxima, status, note):
    steps = [1e-3, 5e-4, 2.5e-4]
    rep = conservation.divergence_verdict(steps, maxima, 1.0)
    floor = 64.0 * np.finfo(float).eps / 2.5e-4
    assert (rep["status"], rep["steps"], rep["floor"]) == (status, steps, floor)
    assert rep["maxima"] == maxima
    if note is None:
        assert rep["notes"] == []
    elif note == "rounding":
        assert rep["notes"] == [f"every maximum is within the rounding floor {floor:.3e}"]
    elif note == "floor":
        assert rep["notes"] == ["divergence floor 1.900e+00 survives step refinement "
                                "(ratios ['1.05', '1.00'])"]
    elif note == "inconclusive":
        assert rep["notes"][0].startswith("inconclusive")
    else:
        assert rep["notes"] == [note] and rep["ratios"] == []
