"""The finite-volume solver against the exact solution of the inviscid Riemann problem.

At D = 0 the model is isothermal gas dynamics with sound speed c = sqrt(A), so a
jump between two constant states has an exact self-similar solution: a 1-wave and
a 2-wave, each a shock or a rarefaction fan, around one middle state (rho*, u*).
The exact solver lives here, in the tests only (LeVeque, *Finite Volume Methods
for Hyperbolic Problems* (2002) ch. 13-14; Toro, *Riemann Solvers and Numerical
Methods for Fluid Dynamics* (2009) ch. 4).
"""

import math

import numpy as np
import pytest

from trafficflow.model import ModelParams
from trafficflow.solver import Field, Grid, SolverConfig, run


def _jump(rho, rho_k, c):
    """The velocity change f(rho, rho_K) from state K to density rho along a wave.

    A rarefaction for rho <= rho_K, c ln(rho/rho_K); a shock above it,
    c (rho - rho_K)/sqrt(rho rho_K).  Both branches increase in rho and meet, with their
    first derivatives, at rho_K.
    """
    if rho <= rho_k:
        return c * math.log(rho / rho_k)
    return c * (rho - rho_k) / math.sqrt(rho * rho_k)


def riemann_star(rho_l, rho_r, u_l, u_r, c):
    """The middle state (rho*, u*): the root of f(rho*, rho_L) + f(rho*, rho_R) + u_R - u_L.

    The left side increases in rho*, so it is bisected in ln rho* until the bracket stops
    shrinking; u* = u_R + f(rho*, rho_R).
    """
    def g(log_rho):
        rho = math.exp(log_rho)
        return _jump(rho, rho_l, c) + _jump(rho, rho_r, c) + u_r - u_l

    lo, hi = math.log(min(rho_l, rho_r)), math.log(max(rho_l, rho_r))
    while g(lo) > 0.0:
        lo -= 1.0
    while g(hi) < 0.0:
        hi += 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    rho = math.exp(mid)
    return rho, u_r + _jump(rho, rho_r, c)


def _edges(sign, rho_k, u_k, rho_s, u_s, c):
    """(outer, inner) speeds of the 1-wave (sign -1) or 2-wave (sign +1) from state K to the
    middle state: a shock's speed twice, or a fan's head and tail."""
    if rho_s > rho_k:
        speed = u_k + sign * c * math.sqrt(rho_s / rho_k)
        return speed, speed
    return u_k + sign * c, u_s + sign * c


def exact_riemann(rho_l, rho_r, u_l, u_r, c, xi):
    """The exact (rho, u) at xi = x/t of the jump from (rho_L, u_L) to (rho_R, u_R) at x = 0.

    Beyond a wave's outer edge the data state holds, between the inner edges the middle
    state.  Inside a fan the wave's characteristic speed u -+ c is xi, and its Riemann
    invariant u +- c ln rho keeps its data value.
    """
    rho_s, u_s = riemann_star(rho_l, rho_r, u_l, u_r, c)
    rho, u = np.full(xi.shape, rho_s), np.full(xi.shape, u_s)
    for sign, rho_k, u_k in ((-1.0, rho_l, u_l), (1.0, rho_r, u_r)):
        outer, inner = _edges(sign, rho_k, u_k, rho_s, u_s, c)
        beyond = sign * (xi - outer) > 0.0
        fan = (sign * (xi - inner) > 0.0) & ~beyond
        rho[beyond], u[beyond] = rho_k, u_k
        u[fan] = xi[fan] - sign * c
        rho[fan] = rho_k * np.exp(sign * (u[fan] - u_k) / c)
    return rho, u


# Riemann data (rho_L, rho_R, u_L, u_R) at A = 1.
SHOCK_AND_FAN = (1.0, 0.25, 0.0, 0.0)
TWO_SHOCKS = (1.0, 1.0, 1.0, -1.0)
TWO_FANS = (1.0, 1.0, -2.5, 2.5)
# Vehicles behind a stopped queue: a 1-shock and a 2-fan, with u* < 0.
QUEUE = (0.05, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("data", [SHOCK_AND_FAN, TWO_SHOCKS, TWO_FANS, QUEUE],
                         ids=["shock-and-fan", "two-shocks", "two-fans", "queue"])
def test_exact_solver_middle_state_shocks_and_fans(data):
    rho_l, rho_r, u_l, u_r = data
    c = 1.0
    rho_s, u_s = riemann_star(*data, c)
    # Both waves reach the same middle state.
    assert u_s == pytest.approx(u_l - _jump(rho_s, rho_l, c), rel=1e-14, abs=1e-14)
    for sign, rho_k, u_k in ((-1.0, rho_l, u_l), (1.0, rho_r, u_r)):
        outer, inner = _edges(sign, rho_k, u_k, rho_s, u_s, c)
        if outer == inner:
            # Rankine-Hugoniot for mass and momentum (flux rho u^2 + A rho) across the shock.
            s = outer
            assert s * (rho_s - rho_k) == pytest.approx(rho_s * u_s - rho_k * u_k, abs=1e-14)
            assert s * (rho_s * u_s - rho_k * u_k) == pytest.approx(
                rho_s * u_s ** 2 + c * c * rho_s - rho_k * u_k ** 2 - c * c * rho_k, abs=1e-14)
        else:
            # The fan joins the data state at its head and the middle state at its tail.
            tiny = 1e-9
            xi = np.array([outer - sign * tiny, outer + sign * tiny,
                           inner - sign * tiny, inner + sign * tiny])
            rho, u = exact_riemann(*data, c, xi)
            assert rho[:2] == pytest.approx([rho_k, rho_k], rel=1e-8)
            assert u[:2] == pytest.approx([u_k, u_k], abs=1e-8)
            assert rho[2:] == pytest.approx([rho_s, rho_s], rel=1e-8)
            assert u[2:] == pytest.approx([u_s, u_s], abs=1e-8)
            inside = np.linspace(min(outer, inner), max(outer, inner), 9)[1:-1]
            rho, u = exact_riemann(*data, c, inside)
            assert u + sign * c == pytest.approx(inside, abs=1e-14)
            assert u - sign * c * np.log(rho) == pytest.approx(
                np.full(7, u_k - sign * c * math.log(rho_k)), abs=1e-14)


def test_exact_solver_known_middle_states():
    # Two fans: 2 ln rho* = -5.  Two shocks: (rho* - 1)/sqrt(rho*) = 1, so sqrt(rho*) is
    # the golden ratio.  The queue: u* = -1.5610, vehicles pushed backwards.
    assert riemann_star(*TWO_FANS, 1.0) == pytest.approx((math.exp(-2.5), 0.0), abs=1e-15)
    assert round(riemann_star(*TWO_FANS, 1.0)[0], 4) == 0.0821
    assert riemann_star(*TWO_SHOCKS, 1.0) == pytest.approx(
        (((1.0 + math.sqrt(5.0)) / 2.0) ** 2, 0.0), abs=1e-14)
    rho_s, u_s = riemann_star(*QUEUE, 1.0)
    assert (round(rho_s, 4), round(u_s, 4)) == (0.2099, -1.561)


def _final_field(data, nx, scheme="rusanov", D=0.0):
    """The field at t = 0.4 of the jump at x = 0, A = 1, outflow on [-1, 1], cfl 0.9."""
    rho_l, rho_r, u_l, u_r = data
    g = Grid.over(-1.0, 1.0, nx)
    left = g.centers() < 0.0
    cfg = SolverConfig(grid=g, params=ModelParams(A=1.0, D=D), scheme=scheme, cfl=0.9,
                       bc="outflow")
    ic = Field(t=0.0, rho=np.where(left, rho_l, rho_r), u=np.where(left, u_l, u_r))
    return g, run(cfg, ic, 0.0, 0.4).fields[-1]


# data -> (band of the rho and u L1 orders per doubling, nx 200 -> 1600, both schemes;
# {scheme: the rho L1 error measured at nx 1600}).
_L1_ORDERS = {
    "shock-and-fan": (SHOCK_AND_FAN, (0.62, 0.85),
                      {"rusanov": 4.3052e-3, "lax_friedrichs": 5.5676e-3}),
    "two-shocks": (TWO_SHOCKS, (0.82, 1.16),
                   {"rusanov": 7.8476e-3, "lax_friedrichs": 1.1063e-2}),
    "two-fans": (TWO_FANS, (0.62, 0.88),
                 {"rusanov": 3.1163e-3, "lax_friedrichs": 5.3085e-3}),
}


@pytest.mark.parametrize("scheme", ["lax_friedrichs", "rusanov"])
@pytest.mark.parametrize("case", list(_L1_ORDERS))
def test_fv_l1_error_against_the_exact_riemann_solution_falls_at_its_measured_order(case,
                                                                                    scheme):
    # First-order schemes on discontinuous data: a shock's smeared width is O(dx), so two
    # shocks converge at order 1; a fan's corners cost accuracy, below order 1.
    data, (lo, hi), finest = _L1_ORDERS[case]
    errors = []
    for nx in (200, 400, 800, 1600):
        g, f = _final_field(data, nx, scheme)
        rho, u = exact_riemann(*data, 1.0, g.centers() / 0.4)
        errors.append((float(np.abs(f.rho - rho).sum() * g.dx),
                       float(np.abs(f.u - u).sum() * g.dx)))
    orders = [math.log2(a / b) for coarse, fine in zip(errors, errors[1:])
              for a, b in zip(coarse, fine)]
    assert all(lo <= q <= hi for q in orders), (orders, errors)
    assert errors[-1][0] <= 1.05 * finest[scheme], errors


def test_vehicles_behind_a_queue_reverse_and_the_fv_minimum_velocity_converges_to_u_star():
    # D = 0: the exact 1-shock sends the vehicles behind the queue backwards at u* < 0,
    # and Rusanov's smallest u approaches it from above, at about order 1 (README finding).
    u_star = riemann_star(*QUEUE, 1.0)[1]
    lowest = [float(_final_field(QUEUE, nx)[1].u.min()) for nx in (400, 800, 1600)]
    assert lowest == pytest.approx([-1.5512, -1.5556, -1.5581], abs=1e-4)
    gaps = [u - u_star for u in lowest]
    assert all(g > 0.0 for g in gaps) and all(1.6 <= a / b <= 2.1
                                             for a, b in zip(gaps, gaps[1:])), gaps


# Denser traffic behind the queue, (rho_L, rho_R, u_L, u_R) at A = 1 -> (u*, Rusanov's
# smallest u at nx 400 / 800 / 1600, the side of u* it sits on: +1 above, -1 below).
_DENSER_QUEUES = {
    "rho-0.5": ((0.5, 1.0, 0.0, 0.0), -0.347436, (-0.347245, -0.347315, -0.347357), 1.0),
    "rho-0.9": ((0.9, 1.0, 0.0, 0.0), -0.0526833, (-0.0526877, -0.0526875, -0.0526871), -1.0),
}


@pytest.mark.parametrize("case", list(_DENSER_QUEUES))
def test_denser_queues_reverse_less_and_the_weakest_shock_undershoots_u_star(case):
    # D = 0.  At rho 0.5 | 1 the smallest u converges to u* from above, as behind QUEUE.
    # At rho 0.9 | 1 it sits about 4e-6 below u* at every nx (README finding).
    data, u_want, lowest_want, side = _DENSER_QUEUES[case]
    u_star = riemann_star(*data, 1.0)[1]
    lowest = [float(_final_field(data, nx)[1].u.min()) for nx in (400, 800, 1600)]
    assert u_star == pytest.approx(u_want, abs=1e-6)
    assert lowest == pytest.approx(list(lowest_want), abs=1e-6)
    assert all(side * (u - u_star) > 0.0 for u in lowest), (u_star, lowest)


# (data, D) -> Rusanov's smallest u at nx 400 / 1600.
_VISCOUS_QUEUES = {
    "rho-0.05-D0.1": (QUEUE, 0.1, (-1.311037, -1.338037)),
    "rho-0.05-D0.5": (QUEUE, 0.5, (-0.812786, -0.819724)),
    "rho-0.5-D0.1": (_DENSER_QUEUES["rho-0.5"][0], 0.1, (-0.334299, -0.338036)),
    "rho-0.5-D0.5": (_DENSER_QUEUES["rho-0.5"][0], 0.5, (-0.241844, -0.246716)),
    "rho-0.9-D0.1": (_DENSER_QUEUES["rho-0.9"][0], 0.1, (-0.051834, -0.052136)),
    "rho-0.9-D0.5": (_DENSER_QUEUES["rho-0.9"][0], 0.5, (-0.039727, -0.040508)),
}


@pytest.mark.parametrize("case", list(_VISCOUS_QUEUES))
def test_viscosity_shrinks_the_reversal_but_does_not_remove_it(case):
    data, D, want = _VISCOUS_QUEUES[case]
    u_star = riemann_star(*data, 1.0)[1]
    lowest = [float(_final_field(data, nx, D=D)[1].u.min()) for nx in (400, 1600)]
    assert lowest == pytest.approx(list(want), abs=1e-4)
    assert all(u_star < u < 0.0 for u in lowest), (u_star, lowest)
