import math

import numpy as np
import pytest

from trafficflow.catalog import (GridRegion, PAPER_CLAIMED, REFUTED, VERIFIED,
                                 make_entry, reduced_ode_residual_T3, verify_entry,
                                 verify_sampler)
from trafficflow.lie import group_transform
from trafficflow.model import DomainError, ModelParams, fd_partials

MP1 = ModelParams(A=1.0)
MP0 = ModelParams(A=0.0)

# (kind, params, model) for every closed form the catalog claims solves the system
SOLUTION_CASES = [
    ("T1", dict(p1=1, p2=2, b=1), MP1),
    ("T2", dict(p1=1, b=0), MP1),
    ("T3", dict(p1=1, b=1), MP1),
    ("T4", dict(p1=1, b=0), MP1),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), MP0),
    ("E3ZERO", dict(p1=1, e1=1, e2=0.5, e4=1), MP1),
]


def test_eval_t1_example():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    st = s.eval(3.0, 1.0)
    assert st.rho == 1.0 and st.u == 2.0


def test_eval_t4_example():
    s = make_entry("T4", p1=1, b=0).sampler(MP1)
    for (x, t) in ((0, 0), (5, 2), (-3, 7)):
        st = s.eval(x, t)
        assert st.rho == 1.0 and st.u == 1.0


def test_eval_kink_gauss_center():
    s = make_entry("KINK", mshape="gauss", c1=1).sampler(MP1)
    st = s.eval(0.0, 5.0)
    assert st.rho == 1.0 and st.u == 0.0


def test_eval_t2_branch_positive_density():
    s = make_entry("T2", p1=1, b=0).sampler(MP1)
    st = s.eval(-5.0, 1.0)     # (x+b)^2 - 4At^2 = 21 > 0
    S = math.sqrt(21.0)
    assert st.rho == pytest.approx(2.0 / (S + 5.0))
    assert st.u == pytest.approx((-5.0 + S) / 2.0)


@pytest.mark.parametrize("kind,params,mp", SOLUTION_CASES + [
    ("KINK", dict(mshape="gauss", c1=1), MP1),
    ("KINK", dict(mshape="sin", c1=1), MP1),
    ("KINK", dict(mshape="sec", c1=-1), ModelParams(A=5.0)),
    ("KINK", dict(mshape="cos", c1=-6), ModelParams(A=5.0)),
])
def test_analytic_partials_match_fd4(kind, params, mp):
    entry = make_entry(kind, **params)
    sampler = entry.sampler(mp)
    region = entry.default_region(mp)
    rng = np.random.default_rng(hash(kind) % 2 ** 32)
    pts = []
    while len(pts) < 100:
        x = rng.uniform(region.x0 + 0.15 * (region.x1 - region.x0),
                        region.x1 - 0.15 * (region.x1 - region.x0))
        t = rng.uniform(region.t0 + 0.15 * (region.t1 - region.t0),
                        region.t1 - 0.15 * (region.t1 - region.t0))
        if sampler.domain(x, t):
            pts.append((x, t))

    def max_err(h):
        worst = 0.0
        for (x, t) in pts:
            a = sampler.partials(x, t)
            f = fd_partials(sampler, x, t, order=4, h=h)
            for name in ("rho_t", "rho_x", "u_t", "u_x", "u_xx"):
                worst = max(worst, abs(getattr(a, name) - getattr(f, name)))
        return worst

    e1, e2 = max_err(2e-2), max_err(1e-2)
    if e1 < 1e-9:
        # derivative content too flat for an order estimate; exact agreement
        assert e2 < 1e-9
    else:
        assert math.log2(e1 / e2) >= 3.8


@pytest.mark.parametrize("kind,params,mp", SOLUTION_CASES)
def test_closed_forms_verify(kind, params, mp):
    rep = verify_entry(make_entry(kind, **params), mp, tol=1e-10)
    assert rep.status == VERIFIED
    assert max(rep.max_r1, rep.max_r2) <= 1e-10


@pytest.mark.parametrize("kind,params,mp", SOLUTION_CASES)
def test_fd_cross_check_converges_at_order_two(kind, params, mp):
    # on a genuine solution the order-2 FD residual is pure truncation error:
    # each step halving must shrink the floor by at least 2^1.9
    rep = verify_entry(make_entry(kind, **params), mp, tol=1e-10)
    for ratio in rep.conv_ratios:
        assert ratio >= 2 ** 1.9 or ratio == math.inf


def test_t1_verifies_for_viscous_model():
    # u_xx vanishes identically, so the family solves the viscous system too
    rep = verify_entry(make_entry("T1", p1=1, p2=2, b=1), ModelParams(A=1.0, D=0.5),
                       region=GridRegion(-5, 5, 41, 0.5, 3, 41), tol=1e-10)
    assert rep.status == VERIFIED


def test_negative_control_refuted():
    rep = verify_entry(make_entry("NEGCTRL"), MP1, tol=1e-8)
    assert rep.status == REFUTED
    assert rep.residual_floor > 1e-3


def test_kink_refuted_with_convergence_evidence():
    rep = verify_entry(make_entry("KINK", mshape="gauss", c1=1), MP1, tol=1e-8)
    assert rep.status == REFUTED
    assert len(rep.fd_floors) == 3
    # the FD floors sit on the same O(1) level: no convergence
    assert rep.conv_ratios[-1] < 1.5
    assert any("continuity residual floor" in n for n in rep.notes)


def test_kink_ode_is_satisfied_but_pde_is_not():
    # the separated flux ODE holds at fixed x even though the full system fails;
    # the defect lives in the continuity equation
    entry = make_entry("KINK", mshape="gauss", c1=1)
    s = entry.sampler(MP1)
    st = s.eval(0.5, 2.0)
    d = s.partials(0.5, 2.0)
    r1 = st.rho * d.u_x + d.rho_x * st.u + d.rho_t
    assert abs(r1) > 0.01


def test_t2_e3zero_cross_reference_note():
    rep = verify_entry(make_entry("T2", p1=1, b=0), MP1, tol=1e-8)
    assert any("E3ZERO" in n for n in rep.notes)
    rep = verify_entry(make_entry("E3ZERO", p1=1, e1=1, e2=0.5, e4=1), MP1, tol=1e-8)
    assert any("T2" in n for n in rep.notes)


def test_e3zero_specialises_to_t2():
    # e1=1, e2=0, e4=b reproduces T2 exactly
    t2 = make_entry("T2", p1=1, b=2).sampler(MP1)
    e3 = make_entry("E3ZERO", p1=1, e1=1, e2=0, e4=2).sampler(MP1)
    for (x, t) in ((-9.0, 0.5), (-7.5, 0.8)):
        a, b = t2.eval(x, t), e3.eval(x, t)
        assert a.rho == pytest.approx(b.rho, rel=1e-14)
        assert a.u == pytest.approx(b.u, rel=1e-14)


def test_constraint_enforcement():
    with pytest.raises(ValueError):
        make_entry("T2", p1=1, b=0).sampler(ModelParams(A=1.0, D=0.1))
    with pytest.raises(ValueError):
        make_entry("P522", p1=2, p2=1, e2=2, e3=1, e4=3).sampler(MP1)  # needs A=0
    with pytest.raises(ValueError):
        make_entry("T3", p1=1, b=0).sampler(MP0)  # needs A>0
    with pytest.raises(ValueError):
        make_entry("T4", p1=1, b=0).sampler(ModelParams(A=1.0, D=1.0))


def test_domain_exclusions():
    t1 = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    assert not t1.domain(0.0, -1.0)          # t + b = 0
    assert not t1.domain(0.0, -2.0)          # rho < 0
    t2 = make_entry("T2", p1=1, b=0).sampler(MP1)
    assert not t2.domain(0.0, 1.0)           # discriminant < 0
    assert not t2.domain(5.0, 1.0)           # wrong branch side for p1 > 0
    kink = make_entry("KINK", mshape="sin", c1=0).sampler(MP1)
    assert not kink.domain(0.0, 1.0)         # M(0) = 0
    assert not kink.domain(4.0, 1.0)         # sin < 0
    t3 = make_entry("T3", p1=1, b=1).sampler(MP1)
    assert not t3.domain(0.0, -0.5)          # t <= 0


def test_region_outside_domain_raises():
    entry = make_entry("T1", p1=1, p2=2, b=1)
    with pytest.raises(DomainError):
        verify_entry(entry, MP1, region=GridRegion(-5, 5, 11, -2, 1, 11))


def test_region_validation():
    with pytest.raises(ValueError):
        GridRegion(0, 1, 1, 0, 1, 11)
    with pytest.raises(ValueError):
        GridRegion(1, 0, 11, 0, 1, 11)


def test_unknown_entry_rejected():
    with pytest.raises(ValueError):
        make_entry("T9")
    with pytest.raises(ValueError):
        make_entry("KINK", mshape="sinh", c1=1)


def test_custom_kink_without_higher_derivatives_is_fd_only():
    entry = make_entry("KINK", mshape="custom", c1=1.0,
                       M=lambda x: 2.0 + math.sin(x), Mp=math.cos)
    s = entry.sampler(MP1)
    assert s.partials is None
    assert s.eval(0.3, 1.0).rho == pytest.approx(2.0 + math.sin(0.3))


def test_paper_claimed_when_tolerance_unreachable():
    # a genuine solution checked at a tolerance below the FD floor is
    # inconclusive, not refuted
    entry = make_entry("KINK", mshape="custom", c1=1.0,
                       M=lambda x: math.exp(-x * x),
                       Mp=lambda x: -2.0 * x * math.exp(-x * x))
    # no analytic partials and O(1) residual floor -> still refuted
    rep = verify_entry(entry, MP1, region=GridRegion(-1, 1, 11, 0, 2, 11), tol=1e-8)
    assert rep.status == REFUTED
    # a true solution without analytic partials at an unreachable tolerance
    t1 = make_entry("T1", p1=1, p2=2, b=1)
    s = t1.sampler(MP1)
    bare = type(s)(eval=s.eval, domain=s.domain, partials=None)
    rep = verify_sampler(MP1, bare, GridRegion(-2, 2, 11, 0.5, 2, 11), tol=1e-14)
    assert rep.status == PAPER_CLAIMED
    assert rep.partials_method == "fd4"


def test_t1_translation_closure():
    # the family is closed under space translation: shifting by eps lands on
    # the entry with p1 -> p1 -+ eps (sign per translation direction), exactly
    eps = 0.37
    base = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    for sign, p1_new in ((1.0, 1 - eps), (-1.0, 1 + eps)):
        shifted = group_transform(4, sign * eps, base)
        ref = make_entry("T1", p1=p1_new, p2=2, b=1).sampler(MP1)
        for x in np.linspace(-3, 3, 7):
            for t in (0.5, 1.0, 2.5):
                a, b = shifted.eval(float(x), t), ref.eval(float(x), t)
                assert a.rho == b.rho
                assert a.u == pytest.approx(b.u, abs=1e-15)


def test_t1_partials_closed_form_values():
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    for (x, t) in ((0.0, 1.0), (2.0, 0.5), (-1.0, 2.0)):
        d = s.partials(x, t)
        assert d.u_x == 1.0 / (t + 1.0)
        assert d.u_xx == 0.0
        assert d.rho_x == 0.0
        assert d.u_t == pytest.approx(-(x + 1.0) / (t + 1.0) ** 2)


def test_kink_gauss_velocity_gradient_at_center():
    # at the stationary point of M'/M the chain rule gives u_x = 2A(c1+t),
    # matching the printed tanh profile; cross-checked against order-4 FD
    A, c1 = 1.0, 1.0
    s = make_entry("KINK", mshape="gauss", c1=c1).sampler(ModelParams(A=A))
    for t in (0.5, 2.0, 5.0):
        analytic = s.partials(0.0, t).u_x
        assert analytic == pytest.approx(2.0 * A * (c1 + t), rel=1e-12)
        fd = fd_partials(s, 0.0, t, order=4, h=1e-3).u_x
        assert analytic == pytest.approx(fd, rel=1e-6)


def test_kink_density_static_and_velocity_odd_in_shifted_time():
    entry = make_entry("KINK", mshape="gauss", c1=1.0)
    s = entry.sampler(MP1)
    for t in (0.0, 1.0, 4.0):
        assert s.partials(0.7, t).rho_t == 0.0
        assert s.eval(0.7, t).rho == s.eval(0.7, 0.0).rho
    # u is odd in (c1 + t): u(x, s - c1) = -u(x, -s - c1)
    for sshift in (0.3, 1.2):
        up = s.eval(0.7, sshift - 1.0).u
        um = s.eval(0.7, -sshift - 1.0).u
        assert up == pytest.approx(-um, abs=1e-15)


def test_reduced_ode_residuals():
    g1, g2 = reduced_ode_residual_T3(1.0, 1.0, 0.0)
    assert g1 == 0.0 and g2 == 0.0
    g1, g2 = reduced_ode_residual_T3(2.0, 0.5, 1.3)
    assert abs(g1) <= 1e-12 and abs(g2) <= 1e-12
    for tau in np.linspace(-2, 2, 9):
        g1, _ = reduced_ode_residual_T3(3.0, 2.0, float(tau))
        assert g1 == 0.0


def test_entry_id_stable():
    e = make_entry("T1", p1=1, p2=2, b=1)
    assert e.id() == "T1?b=1&p1=1&p2=2"
    assert make_entry("NEGCTRL").id() == "NEGCTRL"


_T2_NOTE = "same two-branch family as E3ZERO (cross-reference)"
_E3ZERO_NOTE = ("same two-branch family as T2 (cross-reference); "
                "claimed for D=A=0 but satisfies the system for any A>0 with D=0")
_KINK_NOTE = "status adjudicated by the harness, never presumed"


@pytest.mark.parametrize("kind,params,entry_id,keys,note", [
    ("T1", dict(b=-1, p2=2.5, p1=1), "T1?b=-1&p1=1&p2=2.5", ["p1", "p2", "b"], ""),
    ("T2", dict(p1=1, b=0), "T2?b=0&p1=1", ["p1", "b"], _T2_NOTE),
    ("T3", dict(p1=1, b=1), "T3?b=1&p1=1", ["p1", "b"], ""),
    ("T4", dict(p1=1, b=0), "T4?b=0&p1=1", ["p1", "b"], ""),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), "P522?e2=2&e3=1&e4=3&p1=2&p2=1",
     ["p1", "p2", "e2", "e3", "e4"], ""),
    ("E3ZERO", dict(p1=1, e1=1, e2=0.5, e4=1), "E3ZERO?e1=1&e2=0.5&e4=1&p1=1",
     ["p1", "e1", "e2", "e4"], _E3ZERO_NOTE),
    ("KINK", dict(c1=0.5, mshape="sin"), "KINK?c1=0.5&mshape=sin", ["mshape", "c1"], _KINK_NOTE),
    ("NEGCTRL", {}, "NEGCTRL", [], "deliberate non-solution used as a negative control"),
])
def test_entry_records_id_keys_and_note(kind, params, entry_id, keys, note):
    # params keeps the family's key order whatever the keyword order
    e = make_entry(kind, **params)
    assert (e.id(), list(e.params), e.note) == (entry_id, keys, note)


def test_custom_kink_records_only_its_shape_and_c1():
    e = make_entry("KINK", mshape="custom", c1=1.0, M=math.cos, Mp=math.sin)
    assert e.params == {"mshape": "custom", "c1": 1.0}
    assert e.id() == "KINK?c1=1.0&mshape=custom"


@pytest.mark.parametrize("kind,params,mp,message", [
    ("T2", dict(p1=1, b=0), ModelParams(A=1.0, D=0.1),
     "T2 is claimed for the inviscid model only (D=0), got D=0.1"),
    ("T3", dict(p1=1, b=1), ModelParams(A=1.0, D=0.2),
     "T3 is claimed for the inviscid model only (D=0), got D=0.2"),
    ("T3", dict(p1=1, b=1), MP0, "T3 requires A > 0 (A divides the exponent)"),
    ("T4", dict(p1=1, b=0), ModelParams(A=1.0, D=1.0),
     "T4 is claimed for the inviscid model only (D=0), got D=1.0"),
    ("T4", dict(p1=1, b=0), MP0, "T4 requires A > 0 (rho = p1/sqrt(A))"),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), ModelParams(A=0.0, D=0.5),
     "P522 is claimed for the inviscid model only (D=0), got D=0.5"),
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), MP1,
     "P522 is the pressureless similarity solution (A=0), got A=1.0"),
    ("E3ZERO", dict(p1=1, e1=1, e2=0.5, e4=1), ModelParams(A=1.0, D=0.5),
     "E3ZERO is claimed for the inviscid model only (D=0), got D=0.5"),
    ("KINK", dict(mshape="gauss", c1=1), ModelParams(A=1.0, D=0.5),
     "KINK is claimed for the inviscid model only (D=0), got D=0.5"),
])
def test_model_constraint_messages(kind, params, mp, message):
    e = make_entry(kind, **params)
    for bound in (e.sampler, e.default_region):
        with pytest.raises(ValueError) as info:
            bound(mp)
        assert str(info.value) == message


def test_p522_region_is_built_only_on_request():
    # e3 = e4 = 0 passes every check, but W = 0 leaves no region to build
    e = make_entry("P522", p1=1, p2=1, e2=1, e3=0, e4=0)
    assert not e.sampler(MP0).domain(0.0, 2.0)
    with pytest.raises(DomainError, match="admit no valid region"):
        e.default_region(MP0)
