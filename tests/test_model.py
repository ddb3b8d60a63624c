import dataclasses
import math

import numpy as np
import pytest

from trafficflow.model import (DomainError, ModelParams, Partials, SolutionSampler,
                               StatePoint, characteristic_eigenvectors,
                               characteristic_speeds, fd_partials, pde_residual,
                               pressure, residual_from_partials)


def test_pressure_examples():
    assert pressure(ModelParams(A=1, D=0), StatePoint(2, 0), 5.0) == 2.0
    assert pressure(ModelParams(A=1, D=1), StatePoint(2, 0), 5.0) == -3.0
    assert pressure(ModelParams(A=0.5, D=0.1), StatePoint(4, 0), 0.0) == 2.0


def test_characteristic_speeds_examples():
    assert characteristic_speeds(ModelParams(A=1), StatePoint(1, 0)) == (-1.0, 1.0)
    assert characteristic_speeds(ModelParams(A=4), StatePoint(1, 3)) == (1.0, 5.0)


def test_characteristic_speed_spread_and_order():
    rng = np.random.default_rng(7)
    for _ in range(200):
        A = rng.uniform(0.1, 10.0)
        u = rng.uniform(-10.0, 10.0)
        l1, l2 = characteristic_speeds(ModelParams(A=A), StatePoint(1.0, u))
        assert l1 < l2
        assert l2 - l1 == pytest.approx(2.0 * math.sqrt(A), abs=1e-12)


def test_characteristic_speeds_reject_nonpositive_A():
    with pytest.raises(ValueError):
        characteristic_speeds(ModelParams(A=0.0), StatePoint(1, 0))


def test_eigenvectors_example():
    l1, r1, l2, r2 = characteristic_eigenvectors(ModelParams(A=1), StatePoint(1, 0))
    assert np.allclose(l2, [1, 1]) and np.allclose(r2, [1, 1])
    assert float(l1 @ r1) == pytest.approx(2.0)


def test_eigenvector_equation_oracle():
    # l_i B = lambda_i l_i and B r_i = lambda_i r_i for B = [[u, rho], [A/rho, u]]
    rng = np.random.default_rng(11)
    for _ in range(1000):
        rho = rng.uniform(0.1, 10.0)
        A = rng.uniform(0.1, 10.0)
        u = rng.uniform(-5.0, 5.0)
        p = ModelParams(A=A)
        s = StatePoint(rho, u)
        lam1, lam2 = characteristic_speeds(p, s)
        l1, r1, l2, r2 = characteristic_eigenvectors(p, s)
        B = np.array([[u, rho], [A / rho, u]])
        for lam, lvec, rvec in ((lam1, l1, r1), (lam2, l2, r2)):
            assert np.max(np.abs(lvec @ B - lam * lvec)) <= 1e-12 * max(1.0, abs(lam))
            assert np.max(np.abs(B @ rvec - lam * rvec)) <= 1e-12 * max(1.0, abs(lam) * rho)


def test_eigenvector_B_r2_numeric_case():
    p = ModelParams(A=4.0)
    s = StatePoint(2.0, 7.0)
    _, _, _, r2 = characteristic_eigenvectors(p, s)
    B = np.array([[7.0, 2.0], [2.0, 7.0]])
    assert np.allclose(B @ r2, 9.0 * r2)


def _t1_sampler(p1=1.0, p2=2.0, b=1.0, analytic=False):
    def ev(x, t):
        return StatePoint(rho=p2 / (t + b), u=(x + p1) / (t + b))

    def pt(x, t):
        w = t + b
        return Partials(rho_t=-p2 / w ** 2, rho_x=0.0, u_t=-(x + p1) / w ** 2,
                        u_x=1.0 / w, u_xx=0.0)

    return SolutionSampler(eval=ev, domain=lambda x, t: t + b > 0,
                           partials=pt if analytic else None)


def test_residual_constant_solution_exact_zero():
    zeros = Partials(rho_t=0.0, rho_x=0.0, u_t=0.0, u_x=0.0, u_xx=0.0)
    s = SolutionSampler(eval=lambda x, t: StatePoint(1.0, 2.0), partials=lambda x, t: zeros)
    r1, r2 = pde_residual(ModelParams(A=1, D=0.3), s, 0.7, 0.2)
    assert r1 == 0.0 and r2 == 0.0
    # without analytic partials, FD on constants only leaves weight rounding
    # (the u_xx stencil amplifies it by 1/h^2)
    bare = SolutionSampler(eval=lambda x, t: StatePoint(1.0, 2.0))
    r1, r2 = pde_residual(ModelParams(A=1, D=0.3), bare, 0.7, 0.2)
    assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_residual_t1_fd_near_zero_any_D():
    s = _t1_sampler()
    for D in (0.0, 0.7):
        r1, r2 = pde_residual(ModelParams(A=1, D=D), s, 1.0, 2.0, method="fd4")
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_residual_negative_control_value():
    # rho = x+2, u = 1: r1 = 1, r2 = A/(x+2); raw signed values
    s = SolutionSampler(eval=lambda x, t: StatePoint(x + 2.0, 1.0),
                        domain=lambda x, t: x > -1.9)
    r1, r2 = pde_residual(ModelParams(A=1), s, 0.0, 0.0, method="fd2")
    assert r1 == pytest.approx(1.0, abs=1e-9)
    assert r2 == pytest.approx(0.5, abs=1e-9)


def test_fd_residual_order2_convergence():
    # On an exact solution the FD residual is pure FD error: halving the step
    # must shrink it by at least 2^1.9.
    s = _t1_sampler()
    p = ModelParams(A=1)

    def worst(h):
        m = 0.0
        for x in (-1.0, 0.5, 2.0):
            for t in (1.0, 1.7):
                r1, r2 = pde_residual(p, s, x, t, method="fd2", h=h)
                m = max(m, abs(r1), abs(r2))
        return m

    e1, e2 = worst(2e-2), worst(1e-2)
    assert e1 / e2 >= 2 ** 1.9


def test_fd_stencil_domain_violation():
    s = _t1_sampler(b=0.0)  # domain t > 0
    with pytest.raises(DomainError):
        fd_partials(s, 0.0, 1e-4, order=4, h=1e-3)


def test_analytic_partials_used_when_available():
    s = _t1_sampler(analytic=True)
    r1, r2 = pde_residual(ModelParams(A=1, D=2.0), s, 1.0, 2.0)
    assert abs(r1) < 1e-14 and abs(r2) < 1e-14


def test_state_point_rejects_nonpositive_density():
    with pytest.raises(DomainError):
        StatePoint(0.0, 1.0)
    with pytest.raises(DomainError):
        StatePoint(-1.0, 1.0)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(A=-1.0)
    with pytest.raises(ValueError):
        ModelParams(A=1.0, D=-0.1)
    # A = 0 is tolerated for pressureless closed forms
    assert ModelParams(A=0.0).A == 0.0


def test_partials_validation():
    with pytest.raises(DomainError):
        Partials(rho_t=math.nan, rho_x=0, u_t=0, u_x=0, u_xx=0)


PARTIALS = ("rho_t", "rho_x", "u_t", "u_x", "u_xx")


@pytest.mark.parametrize("v", [-0.5, 2, np.float64(1.5)])
def test_partials_accept_finite_point_values(v):
    d = Partials(*(v,) * 5)
    assert all(getattr(d, name) is v for name in PARTIALS)
    # finite values whose sum overflows are still finite values
    d = Partials(rho_t=1e308, rho_x=1e308, u_t=v, u_x=v, u_xx=v)
    assert (d.rho_t, d.rho_x, d.u_xx) == (1e308, 1e308, v)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", PARTIALS)
def test_partials_reject_a_non_finite_field(name, bad):
    fields = dict.fromkeys(PARTIALS, 0.0)
    with pytest.raises(DomainError, match=rf"^non-finite derivative {name}={bad}$"):
        Partials(**{**fields, name: bad})
    with pytest.raises(DomainError,
                       match=rf"^non-finite derivative {name}={bad} at grid index \(1,\)$"):
        Partials(**{**fields, name: np.array([0.0, bad, 1.0])})


_BAD_STATES = ([("rho", v, f"density must be finite and > 0, got rho={v}")
                for v in (0.0, -1.0, math.nan, math.inf, -math.inf)]
               + [("u", v, f"velocity must be finite, got u={v}")
                  for v in (math.nan, math.inf, -math.inf)])


@pytest.mark.parametrize("name,bad,message", _BAD_STATES)
def test_state_rejects_a_bad_field(name, bad, message):
    fields = {"rho": 1.0, "u": 0.0}
    for point in (bad, np.float64(bad)):
        with pytest.raises(DomainError) as e:
            StatePoint(**{**fields, name: point})
        assert str(e.value) == message
    with pytest.raises(DomainError) as e:
        StatePoint(**{**fields, name: np.array([1.0, bad, 1.0])})
    assert str(e.value) == message + " at grid index (1,)" and e.value.index == 1


@pytest.mark.parametrize("rho,u", [(2, -3), (np.float64(0.5), np.float64(-1.5))])
def test_state_keeps_valid_point_fields_as_given(rho, u):
    st = StatePoint(rho, u)
    assert st.rho is rho and st.u is u


def test_residual_from_partials_signed():
    p = ModelParams(A=1.0, D=0.0)
    d = Partials(rho_t=0.0, rho_x=1.0, u_t=0.0, u_x=0.0, u_xx=0.0)
    r1, r2 = residual_from_partials(p, StatePoint(2.0, -3.0), d)
    assert r1 == -3.0 and r2 == 0.5


def test_out_of_domain_point_rejected():
    s = _t1_sampler()
    with pytest.raises(DomainError):
        pde_residual(ModelParams(A=1), s, 0.0, -2.0)


def test_value_types_construct_by_keyword_and_by_position():
    assert StatePoint(rho=2.0, u=-1.0) == StatePoint(2.0, -1.0)
    assert Partials(rho_t=1.0, rho_x=2.0, u_t=3.0, u_x=4.0, u_xx=5.0) == \
        Partials(1.0, 2.0, 3.0, 4.0, 5.0)
    with pytest.raises(TypeError):
        StatePoint(1.0)


def test_value_types_replace_compare_and_repr():
    st = StatePoint(2.0, -1.0)
    assert dataclasses.replace(st, u=3.0) == StatePoint(2.0, 3.0) != st
    assert repr(st) == "StatePoint(rho=2.0, u=-1.0)"
    d = Partials(1.0, 2.0, 3.0, 4.0, 5.0)
    assert dataclasses.replace(d, u_xx=-5.0) == Partials(1.0, 2.0, 3.0, 4.0, -5.0)
    assert repr(d) == "Partials(rho_t=1.0, rho_x=2.0, u_t=3.0, u_x=4.0, u_xx=5.0)"
    # replace builds through the constructor, so it checks the new value too
    with pytest.raises(DomainError, match=r"^density must be finite and > 0, got rho=-2\.0$"):
        dataclasses.replace(st, rho=-2.0)
    with pytest.raises(DomainError, match=r"^non-finite derivative u_t=nan$"):
        dataclasses.replace(d, u_t=math.nan)


def test_value_types_have_slots_and_no_dict():
    for value, slots in ((StatePoint(2.0, -1.0), ("rho", "u")),
                         (Partials(1.0, 2.0, 3.0, 4.0, 5.0), PARTIALS)):
        assert type(value).__slots__ == slots
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.other = 1.0


@pytest.mark.parametrize("v", [2, np.float64(1.5)])
def test_partials_keep_valid_fields_as_given(v):
    d = Partials(v, v, v, v, v)
    assert all(getattr(d, name) is v for name in PARTIALS)


def test_fd_partials_returns_plain_partials_and_the_centre_state():
    s = _t1_sampler()
    grid = np.meshgrid(np.linspace(0.5, 1.5, 4), np.linspace(1.0, 2.0, 3))
    for x, t in ((1.0, 1.5), grid):
        d, state = fd_partials(s, x, t, order=4, h=1e-3)
        assert type(d) is Partials and type(state) is StatePoint
        assert d == Partials(*(getattr(d, f) for f in PARTIALS))
        want = s.eval(x, t)
        assert np.array_equal(state.rho, want.rho) and np.array_equal(state.u, want.u)
    assert fd_partials(s, 1.0, 1.5, order=2, h=1e-3)[1] == s.eval(1.0, 1.5)


def test_mixed_float_and_array_fields_broadcast_like_numpy():
    row, col = np.linspace(0.5, 2.0, 4), np.linspace(-1.0, 1.0, 3)[:, None]
    st = StatePoint(row, -0.0)
    d = Partials(-0.0, col, 1.5, row, 2)
    for got, fields in (((st.rho, st.u), (row, -0.0)),
                        ((d.rho_t, d.rho_x, d.u_t, d.u_x, d.u_xx), (-0.0, col, 1.5, row, 2))):
        for value, want in zip(got, np.broadcast_arrays(*fields)):
            assert value.shape == want.shape and value.dtype == want.dtype
            assert value.tobytes() == want.tobytes()       # bit for bit: -0.0 keeps its sign
    assert np.signbit(st.u).all() and np.signbit(d.rho_t).all()


def test_a_nan_float_field_on_a_grid_names_the_field_at_index_0_0():
    grid = np.linspace(0.5, 2.0, 6).reshape(2, 3)
    with pytest.raises(DomainError) as e:
        StatePoint(grid, math.nan)
    assert str(e.value) == "velocity must be finite, got u=nan at grid index (0, 0)"
    assert e.value.index == 0 and e.value.failing.all()
    with pytest.raises(DomainError) as e:
        Partials(grid, grid, math.nan, 0.0, grid)
    assert str(e.value) == "non-finite derivative u_t=nan at grid index (0, 0)"


def test_stencil_sums_start_from_positive_zero():
    # u = -0.0 * x is +0.0 at x - h and -0.0 at x + h: both weighted terms of u_x are -0.0,
    # and the sum's leading 0.0 rounds it to +0.0, at a point and on a grid.
    s = SolutionSampler(eval=lambda x, t: StatePoint(1.0 + 0.0 * x, -0.0 * x))
    for x in (0.0, np.zeros(3)):
        d = fd_partials(s, x, 1.0, order=2, h=1e-3)[0]
        assert not np.signbit(d.u_x).any() and np.all(d.u_x == 0.0)
