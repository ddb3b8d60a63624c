import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from trafficflow.catalog import make_entry
from trafficflow.model import DomainError, ModelParams, Partials, SolutionSampler, StatePoint
from trafficflow.wavefront import (AmplitudeProblem, _cumulative_simpson, _integrate_along,
                                   amplitude_direct, amplitude_quadrature,
                                   characteristic_path, psi_along)

MP1 = ModelParams(A=1.0)


def _t1_problem(pi0, p1=0.0, p2=1.0, b=1.0, x0=1.0, t0=1.0, closed_form=True):
    s = make_entry("T1", p1=p1, p2=p2, b=b).sampler(MP1)
    return AmplitudeProblem(background=s, A=1.0, x0=x0, t0=t0, pi0=pi0,
                            psi_shift_b=b if closed_form else None)


def _t1_F_exact(ts, b=1.0, t0=1.0):
    # E = ((t+b)/(t0+b))^{-5/2}; F = (2/3)(t0+b)(1 - ((t+b)/(t0+b))^{-3/2})
    s = (ts + b) / (t0 + b)
    return (2.0 / 3.0) * (t0 + b) * (1.0 - s ** -1.5)


def test_path_constant_background_exact():
    s = make_entry("T4", p1=1, b=0).sampler(MP1)   # u = 1, speed u + sqrt(A) = 2
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.5, t0=1.0, pi0=0.1)
    ts, xs = characteristic_path(prob, 3.0, 0.05)
    assert np.max(np.abs(xs - (0.5 + 2.0 * (ts - 1.0)))) <= 1e-13


def test_path_t1_linear_ode_oracle():
    # dx/dt = x/(t+1) + 1 with x(1) = 1 has x(t) = (t+1)ln(t+1) + C(t+1),
    # C = 1/2 - ln 2 by the integrating factor
    prob = _t1_problem(0.5)
    ts, xs = characteristic_path(prob, 3.0, 1e-3)
    C = 0.5 - math.log(2.0)
    exact = (ts + 1.0) * np.log(ts + 1.0) + C * (ts + 1.0)
    assert np.max(np.abs(xs - exact)) <= 1e-8


def test_path_rk4_order():
    prob = _t1_problem(0.5)
    C = 0.5 - math.log(2.0)

    def err(dt):
        ts, xs = characteristic_path(prob, 3.0, dt)
        exact = (ts + 1.0) * np.log(ts + 1.0) + C * (ts + 1.0)
        return float(np.max(np.abs(xs - exact)))

    e1, e2 = err(0.1), err(0.05)
    assert e1 / e2 == pytest.approx(16.0, rel=0.3)


def test_path_exits_domain():
    def ev(x, t):
        return make_entry("T4", p1=1, b=0).sampler(MP1).eval(x, t)

    s4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    limited = SolutionSampler(eval=s4.eval, partials=s4.partials,
                              domain=lambda x, t: x < 2.0)
    prob = AmplitudeProblem(background=limited, A=1.0, x0=0.0, t0=0.0, pi0=0.1)
    with pytest.raises(DomainError):
        characteristic_path(prob, 5.0, 0.01)   # x(t) = 2t crosses x = 2


def test_psi_values():
    assert psi_along(_t1_problem(0.5), 3.3, 1.0) == pytest.approx(1.25)

    t4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    p4 = AmplitudeProblem(background=t4, A=1.0, x0=0.0, t0=1.0, pi0=0.1)
    assert psi_along(p4, 2.0, 5.0) == 0.0

    t3 = make_entry("T3", p1=2, b=1).sampler(MP1)
    p3 = AmplitudeProblem(background=t3, A=1.0, x0=0.5, t0=1.0, pi0=0.1)
    for t in (1.0, 2.0, 3.5):
        assert psi_along(p3, 0.5, t) == pytest.approx(2.0 / t)


def test_quadrature_normalisation():
    sol = amplitude_quadrature(_t1_problem(0.5), 5.0, n=500)
    assert sol.E[0] == 1.0
    assert sol.F[0] == 0.0
    assert sol.pi[0] == 0.5
    assert np.all(np.diff(sol.F) >= 0.0)


def test_quadrature_flat_background_closed_form():
    # Psi = 0: pi(t) = pi0/(1 + pi0 (t - t0)), shock at t0 - 1/pi0 for pi0 < 0
    t4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    prob = AmplitudeProblem(background=t4, A=1.0, x0=0.0, t0=1.0, pi0=-0.5)
    sol = amplitude_quadrature(prob, 10.0, n=1000)
    assert sol.shock_time == pytest.approx(3.0, abs=1e-9)
    mask = sol.times < 2.9
    expect = -0.5 / (1.0 - 0.5 * (sol.times[mask] - 1.0))
    assert np.max(np.abs(sol.pi[mask] - expect)) <= 1e-9
    assert sol.pi_c == 0.0     # F grows without bound


def test_t1_F_matches_closed_form():
    sol = amplitude_quadrature(_t1_problem(0.5), 20.0, n=4000)
    assert np.max(np.abs(sol.F - _t1_F_exact(sol.times))) <= 1e-9


def test_critical_amplitude_closed_form():
    sol = amplitude_quadrature(_t1_problem(0.5), 10.0, n=500)
    assert abs(sol.pi_c - 0.75) <= 1e-6 and sol.pi_c_err == 0.0


def test_critical_amplitude_numeric_limit():
    sol = amplitude_quadrature(_t1_problem(0.5, closed_form=False), 10.0, n=1000)
    assert abs(sol.pi_c - 0.75) <= 1e-6

    t3 = make_entry("T3", p1=2, b=1).sampler(MP1)
    p3 = AmplitudeProblem(background=t3, A=1.0, x0=0.5, t0=1.0, pi0=0.2)
    sol3 = amplitude_quadrature(p3, 15.0, n=1000)
    # Psi = 2/t gives E = t^-2, F(inf) = t0 = 1
    assert abs(sol3.pi_c - 1.0) <= 1e-6


def _t3_problem():
    t3 = make_entry("T3", p1=2, b=1).sampler(MP1)
    return AmplitudeProblem(background=t3, A=1.0, x0=0.5, t0=1.0, pi0=0.2)


@pytest.mark.parametrize("t_end", [3.0, 15.0, 1e6, 1e20])
@pytest.mark.parametrize("case", ["T1", "T3"])
def test_tail_pi_c_is_within_its_error_of_exact_for_any_t_end(case, t_end):
    prob, exact = ((_t1_problem(0.5, closed_form=False), 0.75) if case == "T1"
                   else (_t3_problem(), 1.0))
    sol = amplitude_quadrature(prob, t_end, n=10)
    assert abs(sol.pi_c - exact) <= sol.pi_c_err <= 1e-6


def test_tail_pi_c_of_a_slow_background():
    # b = 1000 keeps F nearly linear well past t0 + 16 L0; the tail runs on until it settles.
    sol = amplitude_quadrature(_t1_problem(0.5, b=1000.0, closed_form=False), 3.0, n=10)
    assert abs(sol.pi_c - 3.0 / 2002.0) <= min(1e-6, sol.pi_c_err)


def _counted_t1(closed_form):
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    calls = {"eval": 0, "partials": 0}

    def count(name, fn):
        def wrapped(x, t):
            calls[name] += 1
            return fn(x, t)
        return wrapped

    counted = SolutionSampler(eval=count("eval", s.eval), domain=s.domain,
                              partials=count("partials", s.partials))
    return lambda pi0: AmplitudeProblem(background=counted, A=1.0, x0=0.0, t0=1.0, pi0=pi0,
                                        psi_shift_b=1.0 if closed_form else None), calls


def test_tail_limit_integrates_one_path():
    # The tail extends its path doubling by doubling and never restarts it: 4 RK4 stages on
    # 1000 main steps, 538 tail steps (to t0 + 2^9 L0) and 269 at half density, plus one
    # Psi call on the main path and one per stretch of each tail (10 + 10).
    prob, calls = _counted_t1(closed_form=False)
    sol = amplitude_quadrature(prob(-2.0), 3.0, n=1000)
    assert calls["eval"] <= 7249
    assert abs(sol.pi_c - 0.75) <= 1e-6


def test_shock_on_a_node_divides_by_nothing():
    # T4 has Psi = 0, so F = t - t0 and 1 + pi0 F vanishes on the last node.
    s = make_entry("T4", p1=1, b=0.5).sampler(MP1)
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = amplitude_quadrature(prob, 3.0, n=400)
    assert sol.shock_time == 3.0
    assert np.isnan(sol.pi[-1]) and np.all(np.isfinite(sol.pi[:-1]))


def test_shock_time_reads_the_node_data():
    # One RK4 path of 1000 steps (4 evals each) plus Psi along it (1 eval, 1 partials):
    # the shock bisection evaluates no background of its own.
    prob, calls = _counted_t1(closed_form=True)
    sol = amplitude_quadrature(prob(-2.0), 3.0, n=1000)
    assert calls["eval"] <= 4001 and calls["partials"] == 1
    expect = 2.0 * (1.0 - 3.0 / (4.0 * 2.0)) ** (-2.0 / 3.0) - 1.0
    assert abs(sol.shock_time - expect) <= 1e-9


@pytest.mark.parametrize("k", [57, 71, 85])
def test_shock_on_an_interior_node_is_found(k):
    # pi0 = -1/F[k] puts the root of 1 + pi0 F on node k exactly; the bracket
    # [t_k-1, t_k] must see the same sign change as the node values.
    prob, _ = _counted_t1(closed_form=True)
    base = amplitude_quadrature(prob(-2.0), 3.0, n=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = amplitude_quadrature(prob(-1.0 / float(base.F[k])), 3.0, n=400)
    assert sol.shock_time == sol.times[k]
    assert np.all(np.isfinite(sol.pi[:k])) and np.all(np.isnan(sol.pi[k:]))


def _hermite_denom(sol, pi0, t):
    # 1 + pi0 F at t on the cubic Hermite interpolant of (F, F' = E) over the panel holding t
    k = int(np.searchsorted(sol.times, t, side="right"))
    ta, tb = float(sol.times[k - 1]), float(sol.times[k])
    h = tb - ta
    r = (t - ta) / h
    w = r * r * (3.0 - 2.0 * r)
    F = ((1.0 - w) * float(sol.F[k - 1]) + w * float(sol.F[k])
         + r * (r - 1.0) * ((r - 1.0) * h * float(sol.E[k - 1]) + r * h * float(sol.E[k])))
    return 1.0 + pi0 * F


@pytest.mark.parametrize("pi0,n", [(-0.9, 400), (-1.2, 1000), (-1.5, 2000), (-2.0, 600)])
def test_shock_time_and_its_next_double_bracket_the_root(pi0, n):
    # The panel is halved down to adjacent doubles: 1 + pi0 F > 0 at the shock time
    # and <= 0 one double later, on the same interpolant.
    sol = amplitude_quadrature(_t1_problem(pi0), 12.0, n=n)
    t = sol.shock_time
    assert sol.times[0] < t < sol.times[-1]
    assert _hermite_denom(sol, pi0, t) > 0.0 >= _hermite_denom(sol, pi0, math.nextafter(t, math.inf))
    expect = 2.0 * (1.0 - 3.0 / (4.0 * abs(pi0))) ** (-2.0 / 3.0) - 1.0
    assert abs(t - expect) <= 1e-4
    assert np.all(np.isfinite(sol.pi[sol.times < t])) and np.all(np.isnan(sol.pi[sol.times > t]))


def test_shock_time_on_a_panel_of_1e19():
    # Panels of 1e19: the search needs ~115 halvings to reach adjacent doubles.
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=-1.0, psi_shift_b=1.0)
    sol = amplitude_quadrature(prob, 1e20, n=10)
    assert 1.0 <= sol.shock_time <= 1e20
    assert _hermite_denom(sol, -1.0, sol.shock_time) > 0.0


def test_shock_search_rejects_a_nan_in_the_interpolant():
    # Psi = 0 until Psi = -532 at t = 8: Simpson on the nodes 0, 4, 8 gives E = (1, e^-177,
    # e^709), so F and h E overflow at t = 8 and the cubic meets inf - inf inside the panel.
    flat = SolutionSampler(
        eval=lambda x, t: StatePoint(rho=1.0 + 0.0 * x, u=0.0 * x),
        partials=lambda x, t: Partials(rho_t=0.0 * t, rho_x=0.0, u_t=0.0,
                                       u_x=np.where(t > 6.0, -212.8, 0.0), u_xx=0.0))
    prob = AmplitudeProblem(background=flat, A=1.0, x0=0.0, t0=0.0, pi0=-1.0, psi_shift_b=1.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match=r"shock search met a NaN at t=6\.0"):
        amplitude_quadrature(prob, 8.0, n=2)


def test_direct_rejects_a_non_positive_step():
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            amplitude_direct(_t1_problem(0.1), 3.0, dt)


def test_shock_time_supercritical():
    sol = amplitude_quadrature(_t1_problem(-1.5), 3.0, n=2000)
    assert abs(sol.shock_time - (2.0 ** (5.0 / 3.0) - 1.0)) <= 1e-4
    # amplitudes past the shock are flagged, not extrapolated
    assert np.isnan(sol.pi[-1])
    assert math.isfinite(sol.shock_time)


def test_shock_time_closed_form_family():
    # 1 + pi0 F(t) = 0 with the exact F: t = 2 (1 - 3/(4 |pi0|))^{-2/3} - 1
    for pi0 in (-0.9, -1.2, -2.0):
        sol = amplitude_quadrature(_t1_problem(pi0), 12.0, n=4000)
        expect = 2.0 * (1.0 - 3.0 / (4.0 * abs(pi0))) ** (-2.0 / 3.0) - 1.0
        assert abs(sol.shock_time - expect) <= 1e-6


def test_no_shock_for_positive_amplitude():
    sol = amplitude_quadrature(_t1_problem(0.5), 20.0, n=500)
    assert sol.shock_time == math.inf
    assert np.all(np.isfinite(sol.pi))


def test_direct_matches_quadrature_on_aligned_grid():
    prob = _t1_problem(0.5)
    n = 9500
    sol = amplitude_quadrature(prob, 20.0, n=n)
    tr = amplitude_direct(prob, 20.0, dt=19.0 / n)
    assert np.allclose(sol.times, tr.times)
    assert np.max(np.abs(sol.pi - tr.pi)) <= 1e-6


def test_direct_zero_amplitude_is_equilibrium():
    tr = amplitude_direct(_t1_problem(0.0), 5.0, dt=0.01)
    assert np.all(tr.pi == 0.0)


def test_direct_blowup_bracket():
    tr = amplitude_direct(_t1_problem(-1.5), 3.0, dt=1e-3)
    assert tr.blowup_bracket is not None
    lo, hi = tr.blowup_bracket
    t_star = 2.0 ** (5.0 / 3.0) - 1.0
    assert lo <= t_star <= hi + 2e-3


def test_regime_expansive_decay():
    sol = amplitude_quadrature(_t1_problem(0.8), 40.0, n=4000)
    assert np.all(sol.pi > 0.0)
    tail = sol.pi[sol.times > 5.0]
    assert np.all(np.diff(tail) < 0.0)
    assert sol.pi[-1] < 1e-2 * sol.pi[0]


def test_regime_subcritical_decay():
    sol = amplitude_quadrature(_t1_problem(-0.5), 60.0, n=6000)
    assert sol.shock_time == math.inf
    assert np.all(np.isfinite(sol.pi))
    assert abs(sol.pi[-1]) < 0.02


def test_regime_supercritical_shock():
    for pi0 in (-0.76, -0.9):
        t_end = 60.0 if pi0 == -0.76 else 10.0
        sol = amplitude_quadrature(_t1_problem(pi0), t_end, n=6000)
        assert math.isfinite(sol.shock_time)


def test_quadrature_vs_direct_random_sweep():
    rng = np.random.default_rng(13)
    for _ in range(20):
        b = float(rng.uniform(0.2, 2.0))
        pi_c = 3.0 / (2.0 * (1.0 + b))
        pi0 = float(rng.uniform(-0.9 * pi_c, 1.5))
        prob = _t1_problem(pi0, b=b)
        n = 3000
        sol = amplitude_quadrature(prob, 7.0, n=n)
        tr = amplitude_direct(prob, 7.0, dt=6.0 / n)
        assert np.max(np.abs(sol.pi - tr.pi)) <= 1e-6, (b, pi0)


def test_problem_validation():
    s = make_entry("T1", p1=0, p2=1, b=1).sampler(MP1)
    bare = SolutionSampler(eval=s.eval, domain=s.domain, partials=None)
    with pytest.raises(ValueError):
        AmplitudeProblem(background=bare, A=1.0, x0=0.0, t0=1.0, pi0=0.1)
    with pytest.raises(ValueError):
        AmplitudeProblem(background=s, A=0.0, x0=0.0, t0=1.0, pi0=0.1)
    for pi0 in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=pi0)
    # A = NaN used to pass the A <= 0 check, and the quadrature then blamed the background.
    for name in ("A", "x0", "t0"):
        for v in (math.nan, math.inf, -math.inf):
            start = {"A": 1.0, "x0": 0.0, "t0": 1.0, name: v}
            why = "A must be > 0" if (name, v) == ("A", -math.inf) else f"{name} must be finite"
            with pytest.raises(ValueError, match=why):
                AmplitudeProblem(background=s, pi0=0.1, **start)
    prob = _t1_problem(0.1)
    with pytest.raises(ValueError):
        amplitude_quadrature(prob, 0.5, n=100)   # t_end <= t0
    with pytest.raises(ValueError):
        characteristic_path(prob, 3.0, -0.1)
    for t_end in (math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be finite"):
            amplitude_quadrature(prob, t_end, n=100)
        with pytest.raises(ValueError, match="t_end must be finite"):
            characteristic_path(prob, t_end, 0.1)
        with pytest.raises(ValueError, match="t_end must be finite"):
            amplitude_direct(prob, t_end, 0.1)


def test_tail_pi_c_is_nan_when_the_domain_ends_early():
    # The tail path always runs to t0 + 16 L0 = 161 with L0 = 10; this background ends at t = 50.
    s = make_entry("T1", p1=0, p2=1, b=1).sampler(MP1)
    short = SolutionSampler(eval=s.eval, partials=s.partials,
                            domain=lambda x, t: np.logical_and(s.domain(x, t), t < 50.0))
    prob = AmplitudeProblem(background=short, A=1.0, x0=1.0, t0=1.0, pi0=0.5)
    sol = amplitude_quadrature(prob, 3.0, n=100)
    assert math.isnan(sol.pi_c) and np.all(np.isfinite(sol.pi))


def test_tail_limit_of_a_saturated_F_is_its_last_mark():
    # rho = e^{10x}, u = -0.99 gives Psi = 5: F = (1 - e^{-5 (t - t0)}) / 5 reaches its
    # float limit before t0 + 4 L0, so the tail sees no growth and takes F at t0 + 16 L0.
    flat = SolutionSampler(
        eval=lambda x, t: StatePoint(rho=np.exp(10.0 * x), u=-0.99 + 0.0 * x),
        partials=lambda x, t: Partials(rho_t=0.0 * t, rho_x=10.0 * np.exp(10.0 * x),
                                       u_t=0.0, u_x=0.0, u_xx=0.0))
    prob = AmplitudeProblem(background=flat, A=1.0, x0=0.0, t0=1.0, pi0=0.5)
    sol = amplitude_quadrature(prob, 3.0, n=100)
    # The tail's nodes to t0 + 16 L0: 250 panels on [1, 11], then 32 on each doubling.
    ts = np.concatenate([np.linspace(1.0, 11.0, 251)] + [
        np.linspace(1.0 + 10.0 * 2 ** (k - 1), 1.0 + 10.0 * 2 ** k, 33)[1:] for k in range(1, 5)])
    F = _integrate_along(prob, ts)[-1]
    assert ts[-1] == 161.0 and F[314] == F[-1]             # F at t0 + 4 L0 and t0 + 16 L0
    assert sol.pi_c == 1.0 / float(F[-1])
    assert abs(sol.pi_c - 5.0) <= min(1e-4, sol.pi_c_err)


@pytest.mark.parametrize("c", [0.9, 1.0, 1.001, 1.01, 1.05])
def test_tail_pi_c_of_a_slowly_converging_F(c):
    # rho = 1, u = 2c x/(5t) gives Psi = c/t: from t0 = 1, E = t^-c and F -> 1/(c - 1)
    # for c > 1, so pi_c = c - 1, while F grows without bound for c <= 1.  Near c = 1
    # F's increments over the doublings shrink by only 2^(1-c) each: slowly, but F
    # converges.
    s = SolutionSampler(
        eval=lambda x, t: StatePoint(1.0 + 0.0 * x, 0.4 * c * x / t),
        domain=lambda x, t: t > 0.0,
        partials=lambda x, t: Partials(0.0 * x, 0.0, -0.4 * c * x / (t * t),
                                       0.4 * c / t + 0.0 * x, 0.0))
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=0.5)
    sol = amplitude_quadrature(prob, 3.0, n=10)
    assert abs(sol.pi_c - max(c - 1.0, 0.0)) <= sol.pi_c_err + 1e-9


def test_direct_truncates_where_the_background_overflows():
    # rho = e^x along x = 700 + 2t: the last RK4 stage of the step from t = 4.5 reaches
    # x = 710, where math.exp overflows, so the trace ends at t = 4.5.
    def ev(x, t):
        return StatePoint(rho=math.exp(x), u=1.0)

    def pt(x, t):
        return Partials(rho_t=0.0, rho_x=math.exp(x), u_t=0.0, u_x=0.0, u_xx=0.0)

    prob = AmplitudeProblem(background=SolutionSampler(eval=ev, partials=pt),
                            A=1.0, x0=700.0, t0=0.0, pi0=0.1)
    tr = amplitude_direct(prob, 10.0, dt=0.5)
    assert tr.times[-1] == 4.5 and len(tr.xs) == len(tr.pi) == 10
    assert tr.blowup_bracket == (4.0, 5.0)
    assert np.all(np.isfinite(tr.pi))


def test_non_finite_psi_is_singular():
    # Finite partials whose Psi overflows from t = 2 on.
    t4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    steep = SolutionSampler(
        eval=t4.eval, domain=t4.domain,
        partials=lambda x, t: Partials(rho_t=0.0 * t, rho_x=0.0, u_t=0.0,
                                       u_x=np.where(t >= 2.0, 1e308, 0.0), u_xx=0.0))
    prob = AmplitudeProblem(background=steep, A=1.0, x0=0.0, t0=1.0, pi0=0.5, psi_shift_b=0.0)
    with np.errstate(over="ignore"), pytest.raises(
            DomainError, match="^Psi is singular on the integration interval$"):
        amplitude_quadrature(prob, 3.0, n=10)


def test_panel_count_is_at_least_two_and_even():
    prob = _t1_problem(-1.5)
    for n in (1, 0, -4):
        with pytest.raises(ValueError, match="^need at least 2 quadrature panels$"):
            amplitude_quadrature(prob, 3.0, n=n)
    odd, even = amplitude_quadrature(prob, 3.0, n=401), amplitude_quadrature(prob, 3.0, n=402)
    assert len(odd.times) == 403 and odd.shock_time == even.shock_time
    for name in ("times", "xs", "psi", "E", "F", "pi"):
        assert np.array_equal(getattr(odd, name), getattr(even, name), equal_nan=True), name


def _nodes(n, uniform):
    if uniform:
        return np.linspace(1.0, 3.5, n)
    return 1.0 + np.cumsum(np.random.default_rng(n).uniform(0.05, 1.0, n))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 16, 17, 101])
def test_cumulative_simpson_matches_scipy(n, uniform):
    integrate = pytest.importorskip("scipy.integrate")
    x = _nodes(n, uniform)
    y = np.exp(-x) * np.sin(3.0 * x) + np.random.default_rng(n + 1).normal(scale=0.1, size=n)
    assert np.array_equal(_cumulative_simpson(y, x),
                          integrate.cumulative_simpson(y, x=x, initial=0.0))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n", [3, 4, 7, 16])
def test_cumulative_simpson_exact_on_quadratics(n, uniform):
    # Every interval comes from a parabola through three nodes, so quadratics
    # integrate exactly on any node spacing.
    x = _nodes(n, uniform)
    got = _cumulative_simpson(2.0 - x + 3.0 * x * x, x)
    exact = 2.0 * (x - x[0]) - (x * x - x[0] ** 2) / 2.0 + (x ** 3 - x[0] ** 3)
    assert np.allclose(got, exact, rtol=1e-13, atol=1e-12)


def test_runtime_imports_no_scipy():
    # A fresh interpreter: the CLI plus a quadrature with tail-extrapolated
    # pi_c and a shock time must not pull scipy in.
    code = (
        "import sys\n"
        "import trafficflow.cli\n"
        "from trafficflow.catalog import make_entry\n"
        "from trafficflow.model import ModelParams\n"
        "from trafficflow.wavefront import AmplitudeProblem, amplitude_quadrature\n"
        "s = make_entry('T3', p1=1.0, b=0.5).sampler(ModelParams(A=1.0))\n"
        "prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=-2.0)\n"
        "sol = amplitude_quadrature(prob, 3.0, n=400)\n"
        "assert sol.shock_time < 3.0 and sol.pi_c > 0.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env)
    assert out.stdout.strip() == "[]"
