import math
import re

import numpy as np
import pytest

from trafficflow import CATALOG_ROWS, catalog
from trafficflow.catalog import (KINK_SHAPES, GridRegion, PAPER_CLAIMED, REFUTED, VERIFIED,
                                 make_entry, reduced_ode_residual_T3, verify_entry,
                                 verify_sampler)
from trafficflow.lie import group_transform
from trafficflow.model import (FD_NODES, DomainError, ModelParams, SolutionSampler, StatePoint,
                               fd_partials, pde_residual, require_stencil)

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
            f = fd_partials(sampler, x, t, order=4, h=h)[0]
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
    assert len(rep.fd_floors) == 3 and len(rep.conv_ratios) == 2
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
        make_entry("T3", p1=1, b=0).sampler(MP0)  # needs A>0
    with pytest.raises(ValueError):
        make_entry("T4", p1=1, b=0).sampler(ModelParams(A=0.0, D=1.0))  # needs A>0


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


@pytest.mark.parametrize("bounds", [(0.0, math.inf, 1.0, 2.0), (-math.inf, 1.0, 1.0, 2.0),
                                    (0.0, 1.0, math.nan, 2.0), (0.0, 1.0, 1.0, math.inf),
                                    (-1e308, 1e308, 1.0, 2.0)])
def test_region_bounds_must_be_finite(bounds):
    # A span that overflows is no finite region either: linspace would fill it with inf.
    x0, x1, t0, t1 = bounds
    with pytest.raises(ValueError, match="^" + re.escape(
            "region bounds must be finite and increasing, got "
            f"GridRegion(x0={x0}, x1={x1}, nx=11, t0={t0}, t1={t1}, nt=11)") + "$"):
        GridRegion(x0, x1, 11, t0, t1, 11)


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
        fd = fd_partials(s, 0.0, t, order=4, h=1e-3)[0].u_x
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


def test_catalog_has_a_factory_for_each_root_row():
    assert list(catalog._FACTORIES) == list(CATALOG_ROWS)
    # `catalog list` names the KINK shapes of KINK_SHAPES, in table order.
    shapes = CATALOG_ROWS["KINK"][1].partition("mshape in {")[2].partition("}")[0]
    assert tuple(shapes.split(", ")) == tuple(KINK_SHAPES)


def test_custom_kink_records_only_its_shape_and_c1():
    e = make_entry("KINK", mshape="custom", c1=1.0, M=math.cos, Mp=math.sin)
    assert e.params == {"mshape": "custom", "c1": 1.0}
    assert e.id() == "KINK?c1=1.0&mshape=custom"


@pytest.mark.parametrize("kind,params,message", [
    ("T1", dict(p1=1.0, p2=2.0), "entry T1 requires keys (p1, p2, b); missing keys: b"),
    ("T1", dict(p1=1.0, p2=2.0, b=1.0, zz=3.0),
     "entry T1 requires keys (p1, p2, b); unknown keys: zz"),
    ("T4", dict(b=0.0, q=1.0),
     "entry T4 requires keys (p1, b); missing keys: p1; unknown keys: q"),
    ("NEGCTRL", dict(p1=1.0), "entry NEGCTRL requires keys (none); unknown keys: p1"),
    ("T1", dict(p1=1.0, p2=2.0, b=1.0, M=math.cos),
     "entry T1 requires keys (p1, p2, b); unknown keys: M"),
    ("KINK", dict(mshape="custom", M=math.cos, Mp=math.sin),
     "entry KINK requires keys (mshape, c1); missing keys: c1"),
], ids=["missing", "unknown", "both", "no-keys", "callable-key", "kink-callables"])
def test_make_entry_names_missing_and_unknown_keys_as_the_cli_does(kind, params, message):
    # The CLI's entry-spec text, as a ValueError; a KINK's shape callables are not keys.
    with pytest.raises(ValueError) as e:
        make_entry(kind, **params)
    assert type(e.value) is ValueError and str(e.value) == message


@pytest.mark.parametrize("kind,params,mp,message", [
    ("T3", dict(p1=1, b=1), MP0, "T3 requires A > 0 (A divides the exponent)"),
    ("T4", dict(p1=1, b=0), MP0, "T4 requires A > 0 (rho = p1/sqrt(A))"),
])
def test_model_constraint_messages(kind, params, mp, message):
    e = make_entry(kind, **params)
    for bound in (e.sampler, e.default_region):
        with pytest.raises(ValueError) as info:
            bound(mp)
        assert str(info.value) == message


# Where each family holds, as the harness measures it: (A, D) columns, one status per
# family row.  A family binds wherever its formula is defined, whatever (A, D) the
# paper claims it under; T3 and T4 need A > 0 (None: bind refuses).
_WHERE_AD = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.0, 0.5), (7 / 3, 0.1))
_V, _R = VERIFIED, REFUTED
_WHERE_ROWS = [
    ("T2", dict(p1=1, b=0), (_V, _V, _R, _V, _R)),
    ("T3", dict(p1=2, b=1), (None, _V, _V, None, _V)),      # u_xx = 0: any D
    ("T4", dict(p1=1, b=0.5), (None, _V, _V, None, _V)),    # constants: any D
    ("P522", dict(p1=2, p2=1, e2=2, e3=1, e4=3), (_V, _R, _R, _R, _R)),
    ("E3ZERO", dict(p1=1, e1=1, e2=0.5, e4=1), (_V, _V, _R, _V, _R)),
    ("KINK", dict(mshape="gauss", c1=1), (_V, _R, _R, _V, _R)),
    ("KINK", dict(mshape="sin", c1=1), (_V, _R, _R, _V, _R)),
]


@pytest.mark.parametrize("kind,params,A,D,status", [
    (kind, params, A, D, status)
    for kind, params, statuses in _WHERE_ROWS for (A, D), status in zip(_WHERE_AD, statuses)
])
def test_where_each_family_holds_is_measured_not_claimed(kind, params, A, D, status):
    e, mp = make_entry(kind, **params), ModelParams(A=A, D=D)
    if status is None:
        with pytest.raises(ValueError, match=f"^{kind} requires A > 0 "):
            verify_entry(e, mp)
        return
    rep = verify_entry(e, mp)
    assert rep.status == status, rep
    if status == REFUTED:
        # an O(1) floor that step refinement does not move
        assert rep.residual_floor >= 1e-2 and len(rep.conv_ratios) == 2, rep
        assert all(0.85 <= r <= 1.15 for r in rep.conv_ratios), rep


def test_p522_region_is_built_only_on_request():
    # e3 = e4 = 0 passes every check, but W = 0 leaves no region to build
    e = make_entry("P522", p1=1, p2=1, e2=1, e3=0, e4=0)
    assert not e.sampler(MP0).domain(0.0, 2.0)
    with pytest.raises(DomainError, match="admit no valid region"):
        e.default_region(MP0)


def test_no_interior_fd_stencil_falls_back_to_the_analytic_floor():
    # T1 cut to |x| < 1e-3: every order-2 stencil of step h0 = 1e-2 leaves the domain.
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    narrow = type(s)(eval=s.eval, partials=s.partials,
                     domain=lambda x, t: s.domain(x, t) & (np.abs(x) < 1e-3))
    rep = verify_sampler(MP1, narrow, GridRegion(-5e-4, 5e-4, 5, 1.0, 1.5, 5), tol=1e-8)
    assert rep.status == VERIFIED
    assert rep.notes == ["no interior point admitted the FD stencil"]
    assert rep.fd_steps == [] and rep.fd_floors == [] and rep.conv_ratios == []
    assert rep.residual_floor == max(rep.max_r1, rep.max_r2)


def _t1_cut(half: float, where: str) -> SolutionSampler:
    """T1 (p1=3, p2=2, b=1) with nothing past |x| = half: its domain ends there, or its domain
    stays whole and eval returns a NaN velocity there, which pde_residual rejects by index.

    With p1 > p2 the FD2 error of r2 exceeds that of r1, so the floors read both."""
    s = make_entry("T1", p1=3, p2=2, b=1).sampler(MP1)
    if where == "domain":
        return SolutionSampler(eval=s.eval, partials=s.partials,
                               domain=lambda x, t: s.domain(x, t) & (np.abs(x) < half))

    def ev(x, t):
        st = s.eval(x, t)
        return StatePoint(st.rho, np.where(np.abs(x) < half, st.u, np.nan))

    return SolutionSampler(eval=ev, partials=s.partials, domain=s.domain)


@pytest.mark.parametrize("where", ["domain", "eval"])
def test_fd_floors_skip_per_step_the_points_whose_stencil_leaves(where, monkeypatch):
    # Probe x in {0, +-0.0072, +-0.0144} and h0 = 0.015: the h0 stencil fits only at x = 0,
    # the h0/2 stencil at |x| <= 0.0072, the h0/4 stencil everywhere.
    half = 2e-2
    cut = _t1_cut(half, where)
    region = GridRegion(-0.018, 0.018, 5, 1.0, 1.5, 5)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return pde_residual(*args, **kwargs)

    monkeypatch.setattr(catalog, "pde_residual", counted)
    rep = verify_sampler(MP1, cut, region, tol=1e-8)
    monkeypatch.undo()
    # The primary pass, then one FD2 call that fails, and the retry without every pair
    # that failed that one check: the domain check fails once for all 30 leaving pairs.
    # A NaN read fails in the node's own eval, x - h for x < 0 before x + h for x > 0:
    # two checks, two retries.
    assert calls == ["analytic"] + ["fd2"] * (2 if where == "domain" else 3)
    px, pt = (a.ravel() for a in np.meshgrid(*region.interior(5, 5)))
    steps, floors, admitted = [0.015, 0.0075, 0.00375], [], []
    for h in steps:
        m = (np.abs(px + h) < half) & (np.abs(px - h) < half)
        r1, r2 = pde_residual(MP1, cut, px[m], pt[m], method="fd2", h=h)
        floors.append(float(max(np.max(np.abs(r1)), np.max(np.abs(r2)))))
        admitted.append(int(m.sum()))
    assert admitted == [5, 15, 25]
    assert rep.status == VERIFIED and rep.notes == []
    assert rep.fd_steps == steps
    assert rep.fd_floors == floors
    assert rep.conv_ratios == [floors[0] / floors[1], floors[1] / floors[2]]
    assert rep.residual_floor == floors[2]


@pytest.mark.parametrize("analytic", [True, False])
def test_verify_sampler_names_the_first_region_point_outside_the_domain(analytic):
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    if not analytic:
        s = SolutionSampler(eval=s.eval, domain=s.domain)
    with pytest.raises(DomainError) as e:
        verify_sampler(MP1, s, GridRegion(-1, 1, 5, -2, 1, 5), tol=1e-8)
    assert type(e.value) is DomainError
    assert str(e.value) == "region point (x=-1.0, t=-2.0) is outside the sampler domain"


@pytest.mark.parametrize("nx,nt", [(2, 3), (1, 5), (41, 41)])
def test_mesh_is_meshgrid_bit_for_bit(nx, nt):
    rng = np.random.default_rng(nx * nt)
    xs, ts = rng.normal(size=nx), rng.normal(size=nt)
    xs[0] = -0.0
    for got, want in zip(catalog.mesh(xs, ts), np.meshgrid(xs, ts)):
        assert got.shape == want.shape == (nt, nx) and got.dtype == np.float64
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == want.tobytes()


def test_fd_floors_stop_at_the_first_step_that_admits_no_point():
    # |x| < 1.1e-2 with h0 = 0.015: no h0 stencil fits, though the h0/4 stencils do.
    cut = _t1_cut(1.1e-2, "domain")
    region = GridRegion(-1.1e-3, 1.1e-3, 5, 1.0, 1.5, 5)
    px, pt = (a.ravel() for a in np.meshgrid(*region.interior(5, 5)))
    with pytest.raises(DomainError) as e:
        require_stencil(cut, px, pt, 0.015, FD_NODES[2], "order-2 FD")
    assert e.value.failing.all()
    require_stencil(cut, px, pt, 0.015 / 4, FD_NODES[2], "order-2 FD")
    rep = verify_sampler(MP1, cut, region, tol=1e-8)
    assert rep.status == VERIFIED
    assert rep.notes == ["no interior point admitted the FD stencil"]
    assert rep.fd_steps == [] and rep.fd_floors == [] and rep.conv_ratios == []
    assert rep.residual_floor == max(rep.max_r1, rep.max_r2)


@pytest.mark.parametrize("kind,params", [("NEGCTRL", {}), ("KINK", dict(mshape="gauss", c1=1))])
def test_verify_reports_where_its_maximum_residuals_sit(kind, params):
    # NEGCTRL's r1 = 1 ties at every grid point, so its location is the first one.
    entry = make_entry(kind, **params)
    s, region = entry.sampler(MP1), entry.default_region(MP1)
    rep = verify_entry(entry, MP1)
    x, t = np.meshgrid(region.xs(), region.ts())
    grid = pde_residual(MP1, s, x, t)
    for k, (peak, at) in enumerate(((rep.max_r1, rep.max_r1_at), (rep.max_r2, rep.max_r2_at))):
        assert abs(pde_residual(MP1, s, *at)[k]) == peak
        first = np.flatnonzero(np.abs(grid[k]).ravel() == peak)[0]
        assert at == [x.flat[first], t.flat[first]]


def test_fd_only_solution_verifies_on_its_finest_floor():
    entry = make_entry("T4", p1=1, b=0)
    s = entry.sampler(MP1)
    bare = type(s)(eval=s.eval, domain=s.domain, partials=None)
    rep = verify_sampler(MP1, bare, entry.default_region(MP1), tol=1e-8)
    assert rep.status == VERIFIED and rep.partials_method == "fd4"
    assert len(rep.fd_floors) == 3 and rep.fd_floors[-1] <= 1e-8


@pytest.mark.parametrize("e2,e3,e4,x0,x1", [
    (-2, 1, 3, -5.2625, 2.7375),    # k = 2 e2 e3 < 0: the region opens to the right
    (2, 0, 3, -5.0, 5.0),           # k = 0: W does not depend on x
    (2, 1, -2, -7.8, 0.2),          # the vertex t = -e4/e3 = 2 lies inside [1.5, 4]
])
def test_p522_default_region_branches(e2, e3, e4, x0, x1):
    entry = make_entry("P522", p1=2, p2=1, e2=e2, e3=e3, e4=e4)
    region = entry.default_region(MP0)
    assert (region.x0, region.x1) == pytest.approx((x0, x1), abs=1e-12)
    assert (region.nx, region.t0, region.t1, region.nt) == (41, 1.5, 4.0, 41)
    assert verify_entry(entry, MP0).status == VERIFIED
