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
from trafficflow.solver import Field, Grid, SolverConfig, run
from trafficflow.wavefront import (RTOL, TAIL_L0, AmplitudeProblem, _march, amplitude_direct,
                                   amplitude_quadrature, characteristic_path, psi_along)

MP1 = ModelParams(A=1.0)
_LEAVES = r"^characteristic path point \(x=\S+, t=\S+\) is outside the sampler domain$"


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


@pytest.mark.parametrize("dt", [1e-3, 0.1])
def test_path_t1_linear_ode_oracle(dt):
    # dx/dt = x/(t+1) + 1 with x(1) = 1 has x(t) = (t+1)ln(t+1) + C(t+1),
    # C = 1/2 - ln 2 by the integrating factor.  The path is read off one error-controlled
    # pass, so its accuracy does not depend on the spacing dt of the nodes.
    prob = _t1_problem(0.5)
    ts, xs = characteristic_path(prob, 3.0, dt)
    C = 0.5 - math.log(2.0)
    exact = (ts + 1.0) * np.log(ts + 1.0) + C * (ts + 1.0)
    assert np.max(np.abs(xs - exact)) <= 1e-8


def test_path_exits_domain():
    def ev(x, t):
        return make_entry("T4", p1=1, b=0).sampler(MP1).eval(x, t)

    s4 = make_entry("T4", p1=1, b=0).sampler(MP1)
    limited = SolutionSampler(eval=s4.eval, partials=s4.partials,
                              domain=lambda x, t: x < 2.0)
    prob = AmplitudeProblem(background=limited, A=1.0, x0=0.0, t0=0.0, pi0=0.1)
    # x(t) = 2t stays inside up to t = 0.9: steps that overshoot the edge are retried shorter.
    ts, xs = characteristic_path(prob, 0.9, 0.01)
    assert ts[-1] == 0.9 and abs(xs[-1] - 1.8) <= 1e-12
    with pytest.raises(DomainError, match=_LEAVES):
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


@pytest.mark.parametrize("closed_form", [True, False])
def test_background_calls_do_not_depend_on_n(closed_form):
    # The passes' steps depend on the problem alone, the shock search halves a step on its
    # dense output, and Psi on the output nodes is one array call.
    prob, calls = _counted_t1(closed_form)
    counts = []
    for n in (10, 1000):
        calls.update(eval=0, partials=0)
        sol = amplitude_quadrature(prob(-2.0), 3.0, n=n)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert abs(sol.pi_c - 0.75) <= sol.pi_c_err <= 1e-6
    expect = 2.0 * (1.0 - 3.0 / (4.0 * 2.0)) ** (-2.0 / 3.0) - 1.0
    assert abs(sol.shock_time - expect) <= 1e-9 and sol.shock_time_err <= 1e-6


def test_tail_pi_c_is_bit_identical_for_any_t_end():
    prob = _t1_problem(0.5, closed_form=False)
    sols = [amplitude_quadrature(prob, t_end, n=10) for t_end in (3.0, 15.0, 1e6, 1e20)]
    assert len({(s.pi_c, s.pi_c_err) for s in sols}) == 1


def _assert_shock(sol, exact):
    # Within its error of the exact time; pi finite before it and NaN at and past it.
    t = sol.shock_time
    assert abs(t - exact) <= sol.shock_time_err <= 1e-6
    assert np.all(np.isfinite(sol.pi[sol.times < t])) and np.all(np.isnan(sol.pi[sol.times >= t]))


@pytest.mark.parametrize("t_end,n", [(3.0, 400), (4.0, 300)])
def test_shock_on_a_node_divides_by_nothing(t_end, n):
    # T4 has Psi = 0, so F = t - t0 and 1 + pi0 F vanishes at t = 3: the last node of 400
    # when t_end = 3, where a root one double past t_end is still within its error of it,
    # and node 200 of 300 when t_end = 4.
    s = make_entry("T4", p1=1, b=0.5).sampler(MP1)
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = amplitude_quadrature(prob, t_end, n=n)
    assert 3.0 in sol.times
    _assert_shock(sol, 3.0)


@pytest.mark.parametrize("t_end", [3.0 - 1e-6, 2.5])
def test_a_shock_past_t_end_is_not_reported(t_end):
    # The root at t = 3 lies further past t_end than its error: no shock, and pi finite.
    s = make_entry("T4", p1=1, b=0.5).sampler(MP1)
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=-0.5)
    sol = amplitude_quadrature(prob, t_end, n=100)
    assert sol.shock_time == math.inf and sol.shock_time_err == 0.0
    assert np.all(np.isfinite(sol.pi))


@pytest.mark.parametrize("k", [57, 71, 85])
def test_shock_on_an_interior_node_is_found(k):
    # pi0 = -1/F(t_k) puts the root of 1 + pi0 F on node k of 400.
    prob, _ = _counted_t1(closed_form=True)
    t_k = float(np.linspace(1.0, 3.0, 401)[k])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = amplitude_quadrature(prob(-1.0 / float(_t1_F_exact(t_k))), 3.0, n=400)
    _assert_shock(sol, t_k)


@pytest.mark.parametrize("pi0,n", [(-0.9, 400), (-1.2, 1000), (-1.5, 2000), (-2.0, 600)])
def test_shock_time_is_within_its_error_of_the_root(pi0, n):
    sol = amplitude_quadrature(_t1_problem(pi0), 12.0, n=n)
    _assert_shock(sol, 2.0 * (1.0 - 3.0 / (4.0 * abs(pi0))) ** (-2.0 / 3.0) - 1.0)


def test_shock_time_on_a_panel_of_1e19():
    # Ten output panels of 1e19 say nothing about F; the pass resolves it on its own steps.
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(MP1)
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=-1.0, psi_shift_b=1.0)
    sol = amplitude_quadrature(prob, 1e20, n=10)
    _assert_shock(sol, 2.0 * 4.0 ** (2.0 / 3.0) - 1.0)


def test_an_overflowing_E_is_a_domain_error():
    # Psi = 0 until Psi = -532 past t = 6: E = e^(532 (t - 6)) overflows near t = 7.334.
    # The steps approach that point, each step past it overflows, and the pass stalls there.
    flat = SolutionSampler(
        eval=lambda x, t: StatePoint(rho=1.0 + 0.0 * x, u=0.0 * x),
        partials=lambda x, t: Partials(rho_t=0.0 * t, rho_x=0.0, u_t=0.0,
                                       u_x=np.where(t > 6.0, -212.8, 0.0), u_xx=0.0))
    prob = AmplitudeProblem(background=flat, A=1.0, x0=0.0, t0=0.0, pi0=-1.0, psi_shift_b=1.0)
    with pytest.raises(DomainError, match=r"^integration along the characteristic stalls at "
                                          r"t=7\.33[0-9]*: its steps overflow or underflow$"):
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


def test_tail_pi_c_is_nan_when_the_domain_ends_just_past_t_end():
    # The steps close in on the edge at t = 50 and still cover t_end = 49.9.
    s = make_entry("T1", p1=0, p2=1, b=1).sampler(MP1)
    short = SolutionSampler(eval=s.eval, partials=s.partials,
                            domain=lambda x, t: np.logical_and(s.domain(x, t), t < 50.0))
    prob = AmplitudeProblem(background=short, A=1.0, x0=1.0, t0=1.0, pi0=0.5)
    sol = amplitude_quadrature(prob, 49.9, n=100)
    assert math.isnan(sol.pi_c) and math.isnan(sol.pi_c_err) and np.all(np.isfinite(sol.pi))
    with pytest.raises(DomainError, match=_LEAVES):
        amplitude_quadrature(prob, 50.1, n=100)


def test_tail_limit_of_a_saturated_F_is_its_last_mark():
    # rho = e^{10x}, u = -0.99 gives Psi = 5: F = (1 - e^{-5 (t - t0)}) / 5 reaches its
    # float limit before t0 + 4 L0, so the tail sees no growth and takes F at t0 + 16 L0.
    flat = SolutionSampler(
        eval=lambda x, t: StatePoint(rho=np.exp(10.0 * x), u=-0.99 + 0.0 * x),
        partials=lambda x, t: Partials(rho_t=0.0 * t, rho_x=10.0 * np.exp(10.0 * x),
                                       u_t=0.0, u_x=0.0, u_xx=0.0))
    prob = AmplitudeProblem(background=flat, A=1.0, x0=0.0, t0=1.0, pi0=0.5)
    sol = amplitude_quadrature(prob, 3.0, n=100)
    Fm = _march(prob, RTOL, prob.t0, None)[1]        # F at t0 + 2^k L0 for k = 0 ... 4
    assert len(Fm) == 5 and Fm[2] == Fm[-1]            # F at t0 + 4 L0 and t0 + 16 L0
    assert sol.pi_c == 1.0 / Fm[-1]
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


def test_panel_count_is_at_least_two():
    prob = _t1_problem(-1.5, closed_form=False)
    for n in (1, 0, -4):
        with pytest.raises(ValueError, match="^need at least 2 quadrature panels$"):
            amplitude_quadrature(prob, 3.0, n=n)
    # n sets the output alone: an odd n gives n + 1 nodes, and the scalars do not move.
    odd, even = amplitude_quadrature(prob, 3.0, n=401), amplitude_quadrature(prob, 3.0, n=402)
    assert len(odd.times) == 402 and len(even.times) == 403
    for name in ("pi_c", "pi_c_err", "shock_time", "shock_time_err"):
        assert getattr(odd, name) == getattr(even, name), name



def _psi_5_over_t_problem():
    # rho = 1, u = 2x/t gives Psi = 5/t and, from x(1) = 0, the path x = t^2 - t.
    s = SolutionSampler(
        eval=lambda x, t: StatePoint(1.0 + 0.0 * x, 2.0 * x / t),
        domain=lambda x, t: t > 0.0,
        partials=lambda x, t: Partials(0.0 * x, 0.0, -2.0 * x / (t * t), 2.0 / t + 0.0 * x,
                                       0.0))
    return AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=1.0, pi0=0.5)


@pytest.mark.parametrize("case", ["T1 b=1", "Psi=5/t"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 16, 17, 101])
def test_dense_output_matches_closed_forms(n, case):
    # x, E and F on any n + 1 nodes, odd n and nodes far from the steps included.
    if case == "T1 b=1":
        prob = _t1_problem(0.5, closed_form=False)
        sol = amplitude_quadrature(prob, 3.0, n=n)
        ts = sol.times
        exact = ((ts + 1.0) * np.log(ts + 1.0) + (0.5 - math.log(2.0)) * (ts + 1.0),
                 ((ts + 1.0) / 2.0) ** -2.5, _t1_F_exact(ts))
    else:
        sol = amplitude_quadrature(_psi_5_over_t_problem(), 3.0, n=n)
        ts = sol.times
        exact = (ts * ts - ts, ts ** -5.0, (1.0 - ts ** -4.0) / 4.0)
    assert len(ts) == n + 1 and ts[0] == 1.0 and ts[-1] == 3.0
    for name, want in zip(("xs", "E", "F"), exact):
        assert np.max(np.abs(getattr(sol, name) - want)) <= 1e-9, name


@pytest.mark.parametrize("t0", [0.0, -1.5])
@pytest.mark.parametrize("n", [2, 3, 7, 16])
def test_dense_output_exact_on_a_quartic_path(n, t0):
    # rho = 1, u = t^3: x = x0 + (t^4 - t0^4)/4 + t - t0, Psi = 0, E = 1, F = t - t0.  The
    # error estimate vanishes, the steps grow fivefold up to 9 long, and the 4th-order dense
    # output still reproduces the quartic between them.
    s = SolutionSampler(
        eval=lambda x, t: StatePoint(1.0 + 0.0 * x, t ** 3 + 0.0 * x),
        partials=lambda x, t: Partials(0.0 * x, 0.0 * x, 3.0 * t * t + 0.0 * x, 0.0 * x,
                                       0.0 * x))
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.5, t0=t0, pi0=0.1)
    sol = amplitude_quadrature(prob, 3.0, n=n)
    ts = sol.times
    assert np.allclose(sol.xs, 0.5 + (ts ** 4 - t0 ** 4) / 4.0 + (ts - t0), rtol=1e-13,
                       atol=1e-12)
    assert np.allclose(sol.F, ts - t0, rtol=0.0, atol=1e-14) and np.all(sol.E == 1.0)


@pytest.mark.parametrize("rtol", [RTOL, 32.0 * RTOL])
@pytest.mark.parametrize("t0", [-0.5, 0.0, 1.0, 7.0, 1e3])
def test_steps_land_on_every_mark(t0, rtol):
    # Each pass ends a step exactly on t0 + 2^k L0 and flags it, and the steps tile the path.
    prob = _t1_problem(0.5, p1=1.0, p2=2.0, x0=0.0, t0=t0, closed_form=False)
    steps, Fm, shock, error = _march(prob, rtol, t0, 5)
    L0 = TAIL_L0 * max(1.0, abs(t0))
    assert error is None and shock == math.inf and len(Fm) == 5
    assert [t_new for _, t_new, _, on_mark in steps if on_mark] == [
        t0 + 2.0 ** k * L0 for k in range(5)]
    assert steps[0][0] == t0 and all(a[1] == b[0] for a, b in zip(steps, steps[1:]))
    assert Fm == [q[0][2] + q[1][2] for _, _, q, on_mark in steps if on_mark]

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


@pytest.mark.parametrize("case", ["T1 b=0.1", "Psi=5/t"])
def test_tail_pi_c_of_a_fast_background(case):
    # Psi is large at t0 in both: the steps follow it, where a fixed first step would not.
    if case == "T1 b=0.1":
        prob, exact = _t1_problem(0.5, b=0.1, x0=0.0, t0=0.5, closed_form=False), 1.5 / 0.6
    else:
        # From t0 = 1, E = t^-5 and F -> 1/4.
        prob, exact = _psi_5_over_t_problem(), 4.0
    sol = amplitude_quadrature(prob, 3.0, n=10)
    assert abs(sol.pi_c - exact) <= sol.pi_c_err <= 1e-6


def test_a_finite_volume_front_follows_the_derived_damping_not_the_printed_one():
    # D = 0 is isothermal gas dynamics: w = u + ln rho rides the fast characteristic and a
    # jump pi = [u_x] = [w_x]/2 across it damps with Psi' = (rho_x/rho + 3 u_x)/2, not the
    # printed (rho_x/rho + 5 u_x)/2.  On T1 (p1 = 0, p2 = 1, b = 1) from t0 = 0, rho = 1 and
    # u = x, so Psi' = 3/(2 (t + 1)).  The jump goes into w alone (z = u - ln rho is left as
    # it is) and the solver, which knows nothing of Psi, carries it: the steepest -w_x
    # behind the front converges toward the derived law.  The package keeps the printed
    # Psi; this test reports the difference rather than repairing it.
    s = make_entry("T1", p1=0, p2=1, b=1).sampler(MP1)
    pi0, times = -1.0, [0.5, 1.0, 2.0]
    prob = AmplitudeProblem(background=s, A=1.0, x0=0.0, t0=0.0, pi0=pi0, psi_shift_b=1.0)
    _, front = characteristic_path(prob, 2.0, 0.5)               # x(t) = (t + 1) ln(t + 1)
    printed_pi = amplitude_quadrature(prob, 2.0, n=4).pi         # both on t = 0, 0.5, ..., 2
    w_x = {t: 1.0 / (t + 1.0) for t in times}                    # the background's w_x
    printed = {t: -(w_x[t] + 2.0 * printed_pi[int(2 * t)]) for t in times}
    E = {t: (t + 1.0) ** -1.5 for t in times}                    # exp(-int Psi')
    F = {t: 2.0 * (1.0 - (t + 1.0) ** -0.5) for t in times}      # int E
    derived = {t: -(w_x[t] + 2.0 * pi0 * E[t] / (1.0 + pi0 * F[t])) for t in times}
    steepest = {}
    for nx in (800, 1600, 3200):
        g = Grid.over(-2.0, 5.0, nx)
        xs = g.centers()
        st, ramp = s.eval(xs, 0.0), pi0 * np.clip(xs, -1.0, 0.0)
        ic = Field(0.0, st.rho * np.exp(ramp), st.u + ramp)       # w += 2 pi0 clip(x, -1, 0)
        cfg = SolverConfig(grid=g, params=MP1, scheme="rusanov", cfl=0.9, bc="outflow")
        traj = run(cfg, ic, 0.0, 2.0, snapshots=times)
        for t, f in zip(traj.times, traj.fields):
            minus_w_x = -np.diff(f.u + np.log(f.rho)) / g.dx
            i = int(np.argmax(minus_w_x))
            steepest[t, nx] = minus_w_x[i], g.x0 + (i + 1) * g.dx
    for t in times:
        got = [steepest[t, nx][0] for nx in (800, 1600, 3200)]
        assert got[0] < got[1] < got[2] < derived[t], (t, got, derived[t])
        assert got[0] > printed[t] + 0.6, (t, got, printed[t])
        # The steepest slope is the wave's: it sits just behind the front, not in the ramp.
        assert 0.05 < front[int(2 * t)] - steepest[t, 3200][1] < 0.15, (t, steepest[t, 3200])
