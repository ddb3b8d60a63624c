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
everything else decays.

One error-controlled Dormand-Prince 5(4) pass along the path, on steps that
depend on the problem alone, gives x, E and F on any nodes, the shock time,
and F at the geometric marks t0 + 2^k L0 behind pi_c; a second pass at a
looser tolerance gives their errors.  A direct RK4 integration of the
transport equation serves as the independent arbiter of the quadrature.
"""

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .model import DomainError, SolutionSampler

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


def _rates(prob: AmplitudeProblem):
    """(u + sqrt(A), Psi) at points or on arrays, the background looked up once per call."""
    bg, c = prob.background, math.sqrt(prob.A)

    def rates(x, t):
        bg.require_in_domain(x, t, "characteristic path point")
        st, d = bg.eval(x, t), bg.partials(x, t)
        return st.u + c, 0.5 * (c * d.rho_x / st.rho + 5.0 * d.u_x)

    return rates


def psi_along(prob: AmplitudeProblem, x, t):
    """Damping coefficient Psi = (sqrt(A) rho_x / rho + 5 u_x) / 2, at points or on arrays."""
    return _rates(prob)(x, t)[1]


def _require_t_end(prob: AmplitudeProblem, t_end: float) -> None:
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end <= prob.t0:
        raise ValueError("t_end must exceed t0")


def _time_nodes(prob: AmplitudeProblem, t_end: float, dt: float) -> np.ndarray:
    """Equal steps of at most dt from t0 to t_end, the last node exactly on t_end."""
    _require_t_end(prob, t_end)
    if not dt > 0.0:      # NaN too
        raise ValueError("dt must be > 0")
    nsteps = max(1, math.ceil((t_end - prob.t0) / dt - 1e-12))
    return np.linspace(prob.t0, t_end, nsteps + 1)


RTOL = 1e-10                    # local error of each step, relative to max(1, |y|)

# The geometric marks t0 + 2^k L0: every pass lands a step on each, and F there feeds pi_c.
TAIL_L0 = 10.0                  # times max(1, |t0|)
TAIL_MIN_DOUBLINGS = 4          # F is always read out to t0 + 16 L0 ...
TAIL_MAX_DOUBLINGS = 60         # ... and never past t0 + 2^60 L0
TAIL_RTOL = 1e-10

# Dormand & Prince (1980): nodes, stages (row 6 holds the 5th-order weights, so the last
# stage is y' at the new point), 5th minus 4th-order weights, and Hairer's dense output.
_C = (0.0, 0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0)
_A = ((), (0.2,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
      701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)


def _combine(y: list, h: float, w: tuple, K: tuple) -> list:
    """y + h sum_j w_j K_j for each component; K holds one list of stage slopes per component."""
    return [v + h * sum(map(mul, w, kv)) for v, kv in zip(y, K)]


def _steps(prob: AmplitudeProblem, rtol: float):
    """Dormand-Prince 5(4) steps of y = (x, G, F), y' = (u + sqrt(A), Psi, e^-G) from (x0, 0, 0).

    Yields (t, t_new, q, on_mark) for each accepted step, q the rows of its dense output.
    A step is retried shorter when its local error exceeds rtol max(1, |y|) in any
    component, when it is not finite, and when a stage overflows, reads the background
    outside its domain or meets a singular Psi: the steps close in on such an edge and
    cover any time before it.  When the step size underflows it raises that stage's
    DomainError, or else one saying that the pass stalls.
    """
    rates = _rates(prob)

    def rhs(t: float, x: float, G: float):
        speed, psi = rates(x, t)
        if not math.isfinite(psi):
            raise DomainError("Psi is singular on the integration interval")
        return speed, psi, math.exp(-G)

    L0 = TAIL_L0 * max(1.0, abs(prob.t0))
    t, k, h, y = prob.t0, 0, 1e-3 * L0, [prob.x0, 0.0, 0.0]
    K = kx, kG, kF = [0.0] * 7, [0.0] * 7, [0.0] * 7
    kx[0], kG[0], kF[0] = rhs(t, prob.x0, 0.0)
    while True:
        mark = prob.t0 + 2.0 ** k * L0
        h = min(h, mark - t)
        edge = None
        try:
            for j in range(1, 7):             # the stages need x and G alone
                a = _A[j]
                x = y[0] + h * sum(map(mul, a, kx))
                G = y[1] + h * sum(map(mul, a, kG))
                kx[j], kG[j], kF[j] = rhs(t + _C[j] * h, x, G)
        except OverflowError:
            err = math.inf
        except DomainError as e:
            edge, err = e, math.inf
        else:
            new = _combine(y, h, _A[6], K)
            est = _combine([0.0, 0.0, 0.0], h, _E, K)
            err = math.inf
            if all(map(math.isfinite, new + est)):
                err = max(abs(e) / (rtol * max(1.0, abs(v), abs(w)))
                          for e, v, w in zip(est, y, new))
        if err <= 1.0:
            on_mark = h == mark - t
            t_new = mark if on_mark else t + h
            yield t, t_new, _dense_rows(y, new, h, K), on_mark
            t, y, k = t_new, new, k + on_mark
            kx[0], kG[0], kF[0] = kx[6], kG[6], kF[6]
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
        if t + h == t:
            raise edge or DomainError(f"integration along the characteristic stalls at t={t}: "
                                      "its steps overflow or underflow")


def _dense_rows(y: list, new: list, h: float, K: tuple) -> tuple:
    """Rows of the 4th-order dense output over a step from y to new (Hairer et al., II.6)."""
    dy = [w - v for v, w in zip(y, new)]                            # the chord
    rise = [h * kv[0] - d for kv, d in zip(K, dy)]                  # slope at t minus chord
    bend = [2.0 * d - h * (kv[0] + kv[6]) for kv, d in zip(K, dy)]  # 2 chord - both slopes
    return y, dy, rise, bend, _combine([0.0, 0.0, 0.0], h, _D, K)


def _dense(q, th):
    """The dense output at t + th (t_new - t) from the rows q of a step (or of one component)."""
    return q[0] + th * (q[1] + (1.0 - th) * (q[2] + th * (q[3] + (1.0 - th) * q[4])))


def _at(steps: list, ts: np.ndarray) -> np.ndarray:
    """y = (x, G, F) on the ascending times ts, from the dense output of the steps."""
    t, t_new, q, _ = map(np.array, zip(*steps))
    i = np.searchsorted(t, ts, side="right") - 1
    return _dense(np.moveaxis(q[i], 1, 0), ((ts - t[i]) / (t_new[i] - t[i]))[:, None])


def _shock_in(pi0: float, t: float, t_new: float, q: tuple) -> float:
    """The first double of [t, t_new] where 1 + pi0 F <= 0, halving on the dense output."""
    qF = [row[2] for row in q]
    lo, hi = t, t_new
    while lo < (m := 0.5 * lo + 0.5 * hi) < hi:
        lo, hi = (m, hi) if 1.0 + pi0 * _dense(qF, (m - t) / (t_new - t)) > 0.0 else (lo, m)
    return hi


def _march(prob: AmplitudeProblem, rtol: float, t_stop: float, n_marks: Optional[int],
           stop_at_shock: bool = False):
    """One pass of ``_steps`` until it has read F at the marks and covers t_stop.

    ``n_marks`` is how many marks to read, or None to read them until ``_marks_settled``;
    ``stop_at_shock`` also ends the pass at the first step where 1 + pi0 F <= 0.
    Returns (steps, F at the marks, the first double where 1 + pi0 F <= 0 or math.inf,
    None), or (steps, None, that double, the error) when a DomainError ends the pass.
    """
    steps, Fm, shock = [], [], math.inf
    done = n_marks == 0
    try:
        for step in _steps(prob, rtol):
            steps.append(step)
            t, t_new, q, on_mark = step
            F = q[0][2] + q[1][2]
            if shock == math.inf and 1.0 + prob.pi0 * F <= 0.0:
                shock = _shock_in(prob.pi0, t, t_new, q)
            if on_mark and not done:
                Fm.append(F)
                done = len(Fm) == n_marks if n_marks is not None else _marks_settled(Fm)
            if done and (t_new >= t_stop or stop_at_shock and shock < math.inf):
                return steps, Fm, shock, None
    except DomainError as e:
        return steps, None, shock, e


def _marks_settled(Fm: list) -> bool:
    """From t0 + 16 L0 on: F has stopped growing, or two successive Wynn estimates of its
    limit agree to TAIL_RTOL relative to F.  Always at t0 + 2^60 L0."""
    k = len(Fm) - 1
    if k < TAIL_MIN_DOUBLINGS:
        return False
    return (k == TAIL_MAX_DOUBLINGS or Fm[-1] <= Fm[-2]
            or abs(_wynn(Fm) - _wynn(Fm[:-1])) <= TAIL_RTOL * Fm[-1])


def characteristic_path(prob: AmplitudeProblem, t_end: float, dt: float):
    """x(t) on equal steps of at most dt to t_end, from the pass of ``amplitude_quadrature``."""
    ts = _time_nodes(prob, t_end, dt)
    steps, _, _, error = _march(prob, RTOL, t_end, 0)
    if error:
        raise error
    return ts, _at(steps, ts)[:, 0]


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
    shock_time_err: float       # 0.0 when no shock forms


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


def _critical_amplitude(Fm: Optional[list], Fm2: Optional[list]) -> tuple[float, float]:
    """(pi_c, pi_c_err) from F at the marks of the RTOL pass and of the 32 RTOL pass.

    pi_c = 1 / lim F is NaN when the domain ended the first pass (Fm None), its error NaN
    when it ended the second.  The error is the larger of pi_c's change and F's largest
    change over the marks times both pi_c (~ pi_c^2 dF), since errors of either sign
    can cancel in the limit alone.
    """
    if Fm is None:
        return math.nan, math.nan
    pi_c = _pi_c_of(_limit_F(Fm))
    if Fm2 is None:
        return pi_c, math.nan
    pi_c2 = _pi_c_of(_limit_F(Fm2))
    spread = max(abs(a - b) for a, b in zip(Fm, Fm2))
    return pi_c, max(abs(pi_c - pi_c2), pi_c * pi_c2 * spread)


def amplitude_quadrature(prob: AmplitudeProblem, t_end: float, n: int = 2000) -> AmplitudeSolution:
    """Quadrature solution pi = pi0 E / (1 + pi0 F) on n + 1 equal nodes of [t0, t_end].

    One pass under RTOL gives x, E and F on the nodes from its dense output, so n sets
    the output alone.  pi_c is the closed form 3/(2 (t0 + b)) when the problem declares
    the T1-type damping, else ``_critical_amplitude`` of F at the marks.  The shock time
    is the first double where 1 + pi0 F <= 0 on the dense output, and its error the
    change in a second pass at 32 RTOL plus one double (0.0 without a shock).  A shock
    past t_end by no more than its error is reported at t_end, the error widened to match.
    """
    _require_t_end(prob, t_end)
    if n < 2:
        raise ValueError("need at least 2 quadrature panels")
    closed = prob.psi_shift_b is not None
    steps, Fm, shock, error = _march(prob, RTOL, t_end, 0 if closed else None)
    if error and (not steps or steps[-1][1] < t_end):
        raise error
    ts = np.linspace(prob.t0, t_end, n + 1)
    xs, G, F = _at(steps, ts).T
    # Far along the path a background's partials may overflow on the way to
    # their exact limits (T1's rho_t, u_t -> -0.0), but Psi reads only rho_x, u_x.
    with np.errstate(over="ignore"):
        psi = psi_along(prob, xs, ts)
    E = np.exp(-G)

    # The second pass reads F at as many marks, and runs on to the first pass's shock.
    t_stop = max(shock, t_end) if shock < math.inf else prob.t0
    _, Fm2, shock2, error2 = _march(prob, 32.0 * RTOL, t_stop, len(Fm) if Fm else 0,
                                    stop_at_shock=True)
    if closed:
        pi_c, pi_c_err = 3.0 / (2.0 * (prob.t0 + prob.psi_shift_b)), 0.0
    else:
        pi_c, pi_c_err = _critical_amplitude(Fm, Fm2)
    shock_time, shock_time_err = math.inf, 0.0
    if shock < math.inf:
        err = math.nan if error2 else abs(shock - shock2) + math.ulp(shock)
        # A root within its error past t_end counts; a NaN or infinite error decides nothing.
        if shock <= t_end or shock - t_end <= err < math.inf:
            shock_time = min(shock, t_end)
            shock_time_err = err + (shock - shock_time)

    # NaN at and past the shock, where 1 + pi0 F has reached 0: only earlier nodes divide.
    live = ts < shock_time
    pi = np.full_like(ts, math.nan)
    pi[live] = prob.pi0 * E[live] / (1.0 + prob.pi0 * F[live])
    return AmplitudeSolution(times=ts, xs=xs, psi=psi, E=E, F=F, pi=pi, pi_c=pi_c,
                             pi_c_err=pi_c_err, shock_time=shock_time,
                             shock_time_err=shock_time_err)


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
    rates = _rates(prob)

    def rhs(x: float, pi: float, t: float) -> tuple[float, float]:
        lam, psi = rates(x, t)
        return lam, -pi * pi - psi * pi

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
