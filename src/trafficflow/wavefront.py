"""Weak-discontinuity (C1 wave) propagation along the fastest characteristic.

A jump in the first derivatives launched at (x0, t0) rides the fastest
characteristic dx/dt = u + sqrt(A).  Its amplitude pi obeys the Bernoulli
transport equation

    d pi/dt + pi^2 + Psi(x(t), t) * pi = 0,
    Psi = (sqrt(A) * rho_x / rho + 5 * u_x) / 2,

whose quadrature solution is pi(t) = pi0 E(t) / (1 + pi0 F(t)) with
E(t) = exp(-int_{t0}^t Psi), F(t) = int_{t0}^t E, so that E(t0) = 1 and
pi(t0) = pi0.  The critical amplitude is pi_c = 1 / lim_{t->inf} F(t):
initial amplitudes pi0 <= -pi_c blow up in finite time (shock formation),
everything else decays.  A direct RK4 integration of the transport equation
serves as the independent arbiter of the quadrature.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DomainError, SolutionSampler, require_all

__all__ = [
    "AmplitudeProblem",
    "AmplitudeSolution",
    "AmplitudeTrace",
    "characteristic_path",
    "psi_along",
    "amplitude_quadrature",
    "amplitude_direct",
]

BLOWUP_LIMIT = 1e12


@dataclass(frozen=True)
class AmplitudeProblem:
    """Background solution plus the initial data of the C1 wave.

    ``psi_shift_b`` may be set when the background's damping coefficient has
    the closed form Psi = 5 / (2 (t + b)) (the T1 family), enabling the
    exact critical amplitude pi_c = 3 / (2 (t0 + b)).
    """

    background: SolutionSampler
    A: float
    x0: float
    t0: float
    pi0: float
    psi_shift_b: Optional[float] = None

    def __post_init__(self):
        if self.A <= 0.0:
            raise ValueError("A must be > 0")
        for name in ("A", "x0", "t0", "pi0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.background.partials is None:
            raise ValueError("amplitude problems need a background with analytic partials")


def _simpson_panels(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integral over the first interval of each three-node panel.

    Panel i is (x_i, x_i+1, x_i+2) with steps h_i, h_i+1; the integrand is the
    parabola through its three values, which allows unequal steps.
    """
    h1, h2 = h[:-1], h[1:]
    r31 = h1 / (h1 + h2)
    q = r31 * (h1 / h2)
    return h1 / 6 * ((3 - r31) * y[:-2] + (3 + q + r31) * y[1:-1] - q * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of y over the nodes x (>= 3), from 0 at x[0].

    Even intervals come from the panel they open; odd intervals and the last
    one come from the panel they close, by running the rule on the reversed
    nodes.  This is the arithmetic of scipy.integrate.cumulative_simpson with
    x given and initial=0, so results agree with it bit for bit.
    """
    h = np.diff(x)
    fwd = _simpson_panels(y, h)
    bwd = _simpson_panels(y[::-1], h[::-1])[::-1]
    parts = np.empty_like(h)
    parts[:-1:2] = fwd[::2]
    parts[1::2] = bwd[::2]
    parts[-1] = bwd[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


def _lambda2(prob: AmplitudeProblem, x: float, t: float) -> float:
    if not prob.background.domain(x, t):
        raise DomainError(f"characteristic path exits the background domain at (x={x}, t={t})")
    return prob.background.eval(x, t).u + math.sqrt(prob.A)


def _rk4_path(prob: AmplitudeProblem, ts: np.ndarray) -> np.ndarray:
    xs = np.empty_like(ts)
    xs[0] = prob.x0
    for k in range(len(ts) - 1):
        t, x = float(ts[k]), float(xs[k])
        dt = float(ts[k + 1]) - t
        k1 = _lambda2(prob, x, t)
        k2 = _lambda2(prob, x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = _lambda2(prob, x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = _lambda2(prob, x + dt * k3, t + dt)
        xs[k + 1] = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return xs


def _require_t_end(prob: AmplitudeProblem, t_end: float) -> None:
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end <= prob.t0:
        raise ValueError("t_end must exceed t0")


def _time_nodes(prob: AmplitudeProblem, t_end: float, dt: float) -> np.ndarray:
    """Equal steps of at most dt from t0 to t_end, the last node exactly on t_end."""
    _require_t_end(prob, t_end)
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    nsteps = max(1, math.ceil((t_end - prob.t0) / dt - 1e-12))
    return np.linspace(prob.t0, t_end, nsteps + 1)


def characteristic_path(prob: AmplitudeProblem, t_end: float, dt: float):
    """Integrate dx/dt = u + sqrt(A) from (x0, t0) with classical RK4.

    Returns (ts, xs) on equal steps of at most dt, the last node on t_end.
    """
    ts = _time_nodes(prob, t_end, dt)
    return ts, _rk4_path(prob, ts)


def psi_along(prob: AmplitudeProblem, x, t):
    """Damping coefficient Psi = (sqrt(A) rho_x / rho + 5 u_x) / 2, at points or on arrays."""
    require_all(prob.background.domain(x, t), "(x={x}, t={t}) outside the background domain",
                x=x, t=t)
    st = prob.background.eval(x, t)
    d = prob.background.partials(x, t)
    return 0.5 * (math.sqrt(prob.A) * d.rho_x / st.rho + 5.0 * d.u_x)


def _integrate_along(prob: AmplitudeProblem, ts: np.ndarray):
    """Path from (prob.x0, ts[0]), then Psi, E = exp(-int Psi) and F = int E.

    Returns (xs, psi, E, F) on the nodes ts, integrated by cumulative Simpson.
    """
    xs = _rk4_path(prob, ts)
    psi = psi_along(prob, xs, ts)
    if not np.all(np.isfinite(psi)):
        raise DomainError("Psi is singular on the integration interval")
    E = np.exp(-_cumulative_simpson(psi, ts))
    return xs, psi, E, _cumulative_simpson(E, ts)


@dataclass
class AmplitudeSolution:
    """Quadrature solution of the amplitude equation along the wave path."""

    times: np.ndarray
    xs: np.ndarray
    psi: np.ndarray
    E: np.ndarray
    F: np.ndarray
    pi: np.ndarray
    pi_c: float
    shock_time: float           # math.inf when no shock forms


def _limit_F(prob: AmplitudeProblem, t_end: float, n: int) -> float:
    """Numeric limit of F(t) as t -> inf by Aitken extrapolation on a tail.

    F is read at t0 + 4L, 8L and 16L, L = max(t_end - t0, 10), on one path.
    Returns math.inf when F keeps growing linearly (no damping), and NaN
    when the background domain does not extend far enough to see the tail.
    """
    L = max(t_end - prob.t0, 10.0)
    m = -(-max(n, 4000) // 4) * 4      # a multiple of 4, so each mark is a node
    ts = np.linspace(prob.t0, prob.t0 + 16.0 * L, m + 1)
    try:
        F = _integrate_along(prob, ts)[-1]
    except DomainError:
        return math.nan
    f1, f2, f3 = (float(F[k]) for k in (m // 4, m // 2, m))
    d1, d2 = f2 - f1, f3 - f2
    if d2 <= 0.0:
        return f3
    if d2 >= 0.98 * d1:
        return math.inf
    # geometric-tail sum: remaining increments are d2*r + d2*r^2 + ... with r = d2/d1
    return f3 + d2 * d2 / (d1 - d2)


def amplitude_quadrature(prob: AmplitudeProblem, t_end: float, n: int = 2000) -> AmplitudeSolution:
    """Quadrature solution pi = pi0 E / (1 + pi0 F) on [t0, t_end].

    E and F are computed by composite Simpson on n panels along one RK4
    characteristic path.  pi_c uses the closed form 3/(2 (t0 + b)) when the
    problem declares the T1-type damping, else a tail-extrapolated limit on
    a second path.  The shock time is +inf unless 1 + pi0 F <= 0 at a node.
    The first such node ends a panel, which is halved on the cubic Hermite
    interpolant of F (slopes F' = E) until its ends are adjacent doubles;
    the shock time is the end where 1 + pi0 F > 0, or the node itself when
    1 + pi0 F = 0 there.  A NaN in the interpolant raises ValueError.
    """
    _require_t_end(prob, t_end)
    if n < 2:
        raise ValueError("need at least 2 quadrature panels")
    if n % 2:
        n += 1
    ts = np.linspace(prob.t0, t_end, n + 1)
    xs, psi, E, F = _integrate_along(prob, ts)

    if prob.psi_shift_b is not None:
        pi_c = 3.0 / (2.0 * (prob.t0 + prob.psi_shift_b))
    else:
        lim = _limit_F(prob, t_end, n)
        pi_c = 0.0 if lim == math.inf else (1.0 / lim if lim and not math.isnan(lim) else math.nan)

    denom = 1.0 + prob.pi0 * F
    past = np.flatnonzero(denom <= 0.0)     # never node 0, where F = 0
    shock_time = math.inf
    if prob.pi0 < 0.0 and past.size:
        k = int(past[0])
        ta, tb = float(ts[k - 1]), float(ts[k])
        h = tb - ta
        Fa, Fb, hEa, hEb = float(F[k - 1]), float(F[k]), h * float(E[k - 1]), h * float(E[k])
        # On the cubic Hermite interpolant of F with slopes E (weights exactly (1, 0, 0, 0)
        # at ta and (0, 1, 0, 0) at tb), 1 + pi0 F > 0 at lo and <= 0 at hi; a root on
        # the node tb itself is returned as it is.
        lo, hi = (ta, tb) if denom[k] < 0.0 else (tb, tb)
        while lo < (t := 0.5 * lo + 0.5 * hi) < hi:
            r = (t - ta) / h
            w = r * r * (3.0 - 2.0 * r)
            v = 1.0 + prob.pi0 * ((1.0 - w) * Fa + w * Fb
                                  + r * (r - 1.0) * ((r - 1.0) * hEa + r * hEb))
            if math.isnan(v):
                raise ValueError(f"shock search met a NaN at t={t}")
            lo, hi = (t, hi) if v > 0.0 else (lo, t)
        shock_time = lo

    # NaN at and past the shock, where 1 + pi0 F has reached 0: only earlier nodes divide.
    live = ts < shock_time
    pi = np.full_like(ts, math.nan)
    pi[live] = prob.pi0 * E[live] / denom[live]
    return AmplitudeSolution(times=ts, xs=xs, psi=psi, E=E, F=F, pi=pi,
                             pi_c=pi_c, shock_time=shock_time)


@dataclass
class AmplitudeTrace:
    """Direct RK4 integration of the amplitude transport equation."""

    times: np.ndarray
    xs: np.ndarray
    pi: np.ndarray
    blowup_bracket: Optional[tuple] = None


def amplitude_direct(prob: AmplitudeProblem, t_end: float, dt: float) -> AmplitudeTrace:
    """RK4 integration of d pi/dt = -pi^2 - Psi pi along the characteristic.

    Independent oracle for ``amplitude_quadrature``.  When |pi| exceeds 1e12
    the trace is truncated and a two-step window around the triggering step
    is reported as the blow-up bracket (the threshold crossing can lag the
    pole by up to one step).  A path that leaves the background domain is no
    blow-up: it raises DomainError.
    """
    ts = _time_nodes(prob, t_end, dt)

    def rhs(x: float, pi: float, t: float) -> tuple[float, float]:
        lam = _lambda2(prob, x, t)
        return lam, -pi * pi - psi_along(prob, x, t) * pi

    xs = [prob.x0]
    pis = [prob.pi0]
    for k in range(len(ts) - 1):
        t, h = float(ts[k]), float(ts[k + 1] - ts[k])
        x, pi = xs[-1], pis[-1]
        try:
            k1x, k1p = rhs(x, pi, t)
            k2x, k2p = rhs(x + 0.5 * h * k1x, pi + 0.5 * h * k1p, t + 0.5 * h)
            k3x, k3p = rhs(x + 0.5 * h * k2x, pi + 0.5 * h * k2p, t + 0.5 * h)
            k4x, k4p = rhs(x + h * k3x, pi + h * k3p, t + h)
        except OverflowError:
            return AmplitudeTrace(times=ts[:k + 1], xs=np.array(xs), pi=np.array(pis),
                                  blowup_bracket=(float(ts[max(k - 1, 0)]), float(ts[k + 1])))
        x_new = x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        pi_new = pi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not math.isfinite(pi_new) or abs(pi_new) > BLOWUP_LIMIT:
            return AmplitudeTrace(times=ts[:k + 1], xs=np.array(xs), pi=np.array(pis),
                                  blowup_bracket=(float(ts[max(k - 1, 0)]), float(ts[k + 1])))
        xs.append(x_new)
        pis.append(pi_new)
    return AmplitudeTrace(times=ts, xs=np.array(xs), pi=np.array(pis))
