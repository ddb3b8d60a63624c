import math

import numpy as np
import pytest

from trafficflow.catalog import make_entry
from trafficflow.conservation import (MultiplierConstants, adjoint_identity_residual,
                                      basic_conserved, divergence_residual,
                                      kink_ode_oracle, self_adjoint_substitution,
                                      symmetry_conserved_vector)
from trafficflow.model import ModelParams, Partials, SolutionSampler, StatePoint

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


def test_symmetry_vector_rejects_unknown_row():
    with pytest.raises(ValueError):
        symmetry_conserved_vector("S5", MultiplierConstants(1, 0, 0), MP1,
                                  _t1_sampler(), 1.0, 1.0, 1e-3)


@pytest.mark.parametrize("h_step", [0.0, -1e-3, math.nan])
def test_symmetry_vector_requires_a_positive_step(h_step):
    # No step is picked on the caller's behalf: the FD paths difference at h_step.
    with pytest.raises(ValueError, match="h_step must be > 0"):
        symmetry_conserved_vector("S2", MultiplierConstants(1, 1, 1), MP1, _t1_sampler(),
                                  1.0, 1.0, h_step)


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


@pytest.mark.parametrize("kind,params,mp,pt", [
    ("T3", dict(p1=1, b=1), MP1, (0.5, 1.5)),
    ("T2", dict(p1=1, b=0), MP1, (-7.0, 0.5)),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), ModelParams(A=0.0), (0.0, 2.0)),
    ("E3ZERO", dict(p1=1, e1=1, e2=0.5, e4=1), MP1, (-8.0, 0.5)),
])
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
