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

import itertools
import math
from dataclasses import dataclass, replace
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


def _speed(prob: AmplitudeProblem):
    """The wave speed u + sqrt(A) at (x, t), with the background looked up once."""
    domain, ev, c = prob.background.domain, prob.background.eval, math.sqrt(prob.A)

    def speed(x: float, t: float) -> float:
        if not domain(x, t):
            raise DomainError(f"characteristic path exits the background domain at (x={x}, t={t})")
        return ev(x, t).u + c

    return speed


def _rk4_path(prob: AmplitudeProblem, ts: np.ndarray) -> np.ndarray:
    speed = _speed(prob)
    xs = np.empty_like(ts)
    xs[0] = prob.x0
    for k in range(len(ts) - 1):
        t, x = float(ts[k]), float(xs[k])
        dt = float(ts[k + 1]) - t
        k1 = speed(x, t)
        k2 = speed(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = speed(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = speed(x + dt * k3, t + dt)
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
    # Far along the path a background's partials may overflow on the way to
    # their exact limits (T1's rho_t, u_t -> -0.0), but Psi reads only rho_x, u_x.
    with np.errstate(over="ignore"):
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
    pi_c_err: float             # 0.0 for the closed form
    shock_time: float           # math.inf when no shock forms


# The tail of F behind pi_c.  Its nodes depend on t0 alone, never on t_end: TAIL_PANELS0
# equal panels on [t0, t0 + L0] (h = 0.04 for |t0| <= 1), then TAIL_PANELS on each doubling
# [t0 + 2^(k-1) L0, t0 + 2^k L0], so every geometric mark t0 + 2^k L0 is a node.
TAIL_L0 = 10.0                  # times max(1, |t0|)
TAIL_PANELS0 = 250
TAIL_PANELS = 32
TAIL_MIN_DOUBLINGS = 4          # F is always read out to t0 + 16 L0 ...
TAIL_MAX_DOUBLINGS = 60         # ... and never past t0 + 2^60 L0
TAIL_RTOL = 1e-10


def _wynn(s: list) -> float:
    """Wynn's epsilon algorithm on the sequence s: the last entry of its highest even column.

    A column whose differences vanish has converged, and the table stops there.
    """
    prev, col, best = [0.0] * (len(s) + 1), list(s), s[-1]
    for k in range(1, len(s)):
        diffs = [b - a for a, b in zip(col, col[1:])]
        if 0.0 in diffs:
            break
        prev, col = col, [p + 1.0 / d for p, d in zip(prev[1:], diffs)]
        if k % 2 == 0:
            best = col[-1]
    return best


def _tail_marks(prob: AmplitudeProblem, thin: int = 1):
    """Yield F at t0 + L0, then at the end of each doubling, along one path.

    Each stretch is integrated by ``_integrate_along`` from where the last one ended,
    on 1/thin of the tail's panels; E and F carry over as E(T) and F(T).
    """
    L0 = TAIL_L0 * max(1.0, abs(prob.t0))
    t, x, E, F = prob.t0, prob.x0, 1.0, 0.0
    panels = TAIL_PANELS0 // thin
    for k in range(TAIL_MAX_DOUBLINGS + 1):
        ts = np.linspace(t, prob.t0 + 2.0 ** k * L0, panels + 1)
        xs, _, Es, Fs = _integrate_along(replace(prob, x0=x, t0=t), ts)
        t, x = float(ts[-1]), float(xs[-1])
        F += E * float(Fs[-1])
        E *= float(Es[-1])
        yield F
        panels = TAIL_PANELS // thin


def _limit_F(Fm: list) -> float:
    """Limit of F(t) as t -> inf from its values at the geometric marks.

    F's last mark when F has stopped growing; math.inf when the last increment is at
    least the one before (increments that do not shrink sum without bound); else Wynn's
    epsilon, which also extrapolates increments that shrink slowly.
    """
    d1, d2 = Fm[-2] - Fm[-3], Fm[-1] - Fm[-2]
    if d2 <= 0.0:
        return Fm[-1]
    if d2 >= d1:
        return math.inf
    return _wynn(Fm)


def _pi_c_of(lim: float) -> float:
    return 0.0 if lim == math.inf else (1.0 / lim if lim and not math.isnan(lim) else math.nan)


def _critical_amplitude(prob: AmplitudeProblem) -> tuple[float, float]:
    """pi_c and its error estimate: the closed form, else 1/lim F from the tail.

    The tail extends one doubling at a time, from t0 + 16 L0 on, until two successive
    Wynn estimates agree to TAIL_RTOL relative to F, F stops growing, or the cap.  A
    second tail on half the nodes gives the error: the larger of pi_c's change and
    F's largest change over the marks times both pi_c (~ pi_c^2 dF), since errors of
    either sign from the first stretch and the doublings can cancel in the limit alone.
    NaN when the background domain ends before the tail does.
    """
    if prob.psi_shift_b is not None:
        return 3.0 / (2.0 * (prob.t0 + prob.psi_shift_b)), 0.0
    Fm, est = [], math.nan
    try:
        for k, F in enumerate(_tail_marks(prob)):
            Fm.append(F)
            prev, est = est, _wynn(Fm)
            if k >= TAIL_MIN_DOUBLINGS and (F <= Fm[-2] or abs(est - prev) <= TAIL_RTOL * F):
                break
    except DomainError:
        return math.nan, math.nan
    pi_c = _pi_c_of(_limit_F(Fm))
    try:
        half = list(itertools.islice(_tail_marks(prob, thin=2), len(Fm)))
    except DomainError:
        return pi_c, math.nan
    pi_c_half = _pi_c_of(_limit_F(half))
    spread = max(abs(a - b) for a, b in zip(Fm, half))
    return pi_c, max(abs(pi_c - pi_c_half), pi_c * pi_c_half * spread)


def amplitude_quadrature(prob: AmplitudeProblem, t_end: float, n: int = 2000) -> AmplitudeSolution:
    """Quadrature solution pi = pi0 E / (1 + pi0 F) on [t0, t_end].

    E and F are computed by composite Simpson on n panels along one RK4
    characteristic path.  pi_c uses the closed form 3/(2 (t0 + b)) when the
    problem declares the T1-type damping (pi_c_err = 0), else 1/lim F from
    Wynn's epsilon on a tail whose nodes do not depend on t_end, with
    pi_c_err from a second tail on half its nodes (``_critical_amplitude``).
    The shock time is +inf unless 1 + pi0 F <= 0 at a node.
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

    pi_c, pi_c_err = _critical_amplitude(prob)

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
                             pi_c=pi_c, pi_c_err=pi_c_err, shock_time=shock_time)


@dataclass
class AmplitudeTrace:
    """Direct RK4 integration of the amplitude transport equation."""

    times: np.ndarray
    xs: np.ndarray
    pi: np.ndarray
    blowup_bracket: Optional[tuple] = None


def amplitude_direct(prob: AmplitudeProblem, t_end: float, dt: float) -> AmplitudeTrace:
    """RK4 integration of d pi/dt = -pi^2 - Psi pi along the characteristic.

    Independent oracle for ``amplitude_quadrature``.  When |pi| exceeds 1e12,
    or a step's background evaluation raises OverflowError (pi is then taken as
    inf), the trace is truncated and a two-step window around the triggering step
    is reported as the blow-up bracket (the threshold crossing can lag the
    pole by up to one step).  A path that leaves the background domain is no
    blow-up: it raises DomainError.
    """
    ts = _time_nodes(prob, t_end, dt)

    speed = _speed(prob)

    def rhs(x: float, pi: float, t: float) -> tuple[float, float]:
        lam = speed(x, t)
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
            pi_new = math.inf
        else:
            pi_new = pi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not math.isfinite(pi_new) or abs(pi_new) > BLOWUP_LIMIT:
            return AmplitudeTrace(times=ts[:k + 1], xs=np.array(xs), pi=np.array(pis),
                                  blowup_bracket=(float(ts[max(k - 1, 0)]), float(ts[k + 1])))
        xs.append(x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x))
        pis.append(pi_new)
    return AmplitudeTrace(times=ts, xs=np.array(xs), pi=np.array(pis))
