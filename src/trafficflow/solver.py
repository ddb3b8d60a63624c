"""Conservative finite-volume integrator for the traffic model.

The update state is the conserved pair (rho, m = rho*u) with fluxes
(m, P = m^2/rho + A*rho); velocity is derived.  Two first-order numerical
fluxes are provided (Lax-Friedrichs with a global wave speed, Rusanov with
local speeds).  When D > 0 the viscous term D*u_xx of the momentum
equation is implicit (IMEX): rho and the convective momentum are explicit,
and the new velocity solves one symmetric, diagonally dominant tridiagonal
system, so the time step is the convective one for any D.

`run` and `step` share one kernel, `_March`: rows (u, rho, m, P) of one
(4, nx+2) buffer, allocated flat, with a ghost column per side, advanced in
place.  Rows (rho, m) are the conserved pair and rows (m, P) its flux, and
each pair is one contiguous span of the buffer, so one set of 7 in-place
1-D calls over the spans updates both laws (Rusanov's per-face alpha
multiplies a two-row view of the face span).  The entries where the two
rows meet land only in ghost columns rho[nx+1] and m[0], and every step
writes the ghosts before it reads them.  m = rho*u, formed once, serves
the momentum total and the next flux; one min and one max over rows
(u, rho) screen the state and give max|u| to the diagnostics and the next
dt; one sum over rows (rho, m) gives both totals.  The march binds its row
views, the ghost copy's slices and the constants (sqrt(A), A, cfl*dx) once
per run, so the periodic or outflow ghosts are one strided copy.  A D = 0 step makes 15
array calls (Lax-Friedrichs) or 18 (Rusanov) besides that copy, all under
the one np.errstate of the march.  Dirichlet reads each ghost once per time
level: at t for the fluxes, and on viscous steps at t + dt for the implicit
closure, which the next step's fluxes reuse.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from . import BCS, SCHEMES
from .model import ModelParams, SolutionSampler

__all__ = [
    "SolverError",
    "PositivityError",
    "Grid",
    "Field",
    "SolverConfig",
    "Trajectory",
    "step",
    "run",
    "error_norms",
    "convergence_order",
    "ConvergenceResult",
]


class SolverError(RuntimeError):
    pass


class PositivityError(SolverError):
    def __init__(self, cell: int, t: float, rho: float):
        super().__init__(f"positivity loss at cell {cell}, t={t}: rho={rho}")
        self.cell = cell
        self.t = t
        self.rho = rho


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid; cell centers x_i = x0 + (i + 1/2) dx."""

    x0: float
    dx: float
    nx: int

    def __post_init__(self):
        if not (0.0 < self.dx < math.inf and -math.inf < self.x0 < math.inf):
            raise ValueError(f"x0 and dx must be finite and dx > 0, got {self}")
        if self.nx < 8:
            raise ValueError("need at least 8 cells")

    @property
    def span(self) -> float:
        return self.nx * self.dx

    def centers(self) -> np.ndarray:
        return self.x0 + (np.arange(self.nx) + 0.5) * self.dx

    @classmethod
    def over(cls, x0: float, x1: float, nx: int) -> "Grid":
        return cls(x0=x0, dx=(x1 - x0) / nx, nx=nx)


@dataclass
class Field:
    """Discrete state at one time level (cell averages).

    The solver's one state check: PositivityError at the first cell whose rho
    is not > 0 (NaN included), SolverError at the first other non-finite value.
    It screens with the min and max of rho and of u (both propagate NaN) and
    searches for the first bad cell only when the screen fails.
    """

    t: float
    rho: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        rho = self.rho = np.asarray(self.rho, dtype=float)
        u = self.u = np.asarray(self.u, dtype=float)
        if rho.shape != u.shape or rho.ndim != 1:
            raise ValueError("rho and u must be 1-D arrays of equal length")
        if rho.size and 0.0 < rho.min() and rho.max() < math.inf and -math.inf < u.min() \
                and u.max() < math.inf:
            return
        if not np.all(rho > 0.0):
            bad = int(np.argmax(~(rho > 0.0)))
            raise PositivityError(bad, self.t, float(rho[bad]))
        finite = np.isfinite(rho) & np.isfinite(u)
        if not np.all(finite):
            bad = int(np.argmax(~finite))
            raise SolverError(f"non-finite state at cell {bad}, t={self.t}: "
                              f"rho={rho[bad]}, u={u[bad]}")

    @property
    def momentum(self) -> np.ndarray:
        return self.rho * self.u


@dataclass
class SolverConfig:
    grid: Grid
    params: ModelParams
    scheme: str = "rusanov"
    cfl: float = 0.45
    bc: str = "periodic"
    dirichlet_sampler: Optional[SolutionSampler] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.bc not in BCS:
            raise ValueError(f"bc must be one of {BCS}")
        if not (0.0 < self.cfl <= 0.9):
            raise ValueError("cfl must lie in (0, 0.9]")
        if self.bc == "dirichlet" and self.dirichlet_sampler is None:
            raise ValueError("dirichlet bc requires a sampler")
        if self.params.A <= 0.0:
            raise ValueError("the solver requires A > 0 (real wave speeds)")


def _thomas(diag: list, r: float, rhs: list) -> list:
    """Solve diag_i x_i - r x_{i-1} - r x_{i+1} = rhs_i (no corner terms).

    When rho > 0, diag_i >= rho_i + r, so each pivot diag_i - r w_{i-1}
    exceeds rho_i and w_i = r / pivot < 1: no pivoting.  The pivots scale
    with the system and w does not, so a system scaled by a power of two
    solves to the same bits.
    """
    n = len(diag)
    w = [0.0] * n
    x = [0.0] * n
    w_prev = x_prev = 0.0
    for i in range(n):
        piv = diag[i] - r * w_prev
        w_prev = w[i] = r / piv
        x_prev = x[i] = (rhs[i] + r * x_prev) / piv
    for i in range(n - 2, -1, -1):
        x_prev = x[i] = x[i] + w[i] * x_prev
    return x


def _cyclic(diag: list, r: float, rhs: list) -> list:
    """_thomas with the corner terms -r, by Sherman-Morrison.

    The cyclic matrix is B + c e^T with c = (-d0, 0, .., 0, -r),
    e = (1, 0, .., 0, q), d0 = diag_0 and q = r / d0; B is tridiagonal with
    end diagonals 2 d0 and diag_-1 + r q.
    """
    d0 = diag[0]
    q = r / d0
    diag = [2.0 * d0] + diag[1:-1] + [diag[-1] + r * q]
    corner = [0.0] * len(diag)
    corner[0], corner[-1] = -d0, -r
    y = _thomas(diag, r, rhs)
    z = _thomas(diag, r, corner)
    k = (y[0] + q * y[-1]) / (1.0 + z[0] + q * z[-1])
    return [a - k * b for a, b in zip(y, z)]


def _implicit_velocity(cfg: SolverConfig, rho: np.ndarray, m: np.ndarray, r: float,
                       ghost_u: Optional[tuple]) -> np.ndarray:
    """u with (rho_i + 2r) u_i - r u_{i-1} - r u_{i+1} = m_i, closed by the bc.

    Periodic wraps cyclically, outflow copies the end cell (end diagonals
    rho + r), and Dirichlet moves ghost_u, the (left, right) ghost velocities
    at the new time, to the right-hand side (other bcs ignore it).
    """
    diag = (rho + 2.0 * r).tolist()
    rhs = m.tolist()
    if cfg.bc == "outflow":
        diag[0] -= r
        diag[-1] -= r
    elif cfg.bc == "dirichlet":
        rhs[0] += r * ghost_u[0]
        rhs[-1] += r * ghost_u[1]
    try:
        u = (_cyclic if cfg.bc == "periodic" else _thomas)(diag, r, rhs)
    except ZeroDivisionError:
        # A zero pivot needs some rho <= 0, which Field reports.
        u = [math.nan] * len(diag)
    return np.array(u)


_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")  # the state screen reports


class _March:
    """Rows (u, rho, m, P) in place; W, Q = flat spans of rows (rho, m), (m, P); under _QUIET."""

    def __init__(self, cfg: SolverConfig, f: Field):
        g, p, n = cfg.grid, cfg.params, cfg.grid.nx
        if f.rho.size != n:     # numpy would broadcast a one-cell field
            raise ValueError(f"field has length {f.rho.size}, grid has nx={n}")
        N = n + 2
        flat = np.empty(4 * N)
        B = flat.reshape(4, N)    # a view: rows (rho, m) and (m, P) are flat spans of it
        u, rho, m, _ = inner = B[:, 1:-1]
        u[:], rho[:] = f.u, f.rho
        np.multiply(f.rho, f.u, out=m)
        self.cfg, self.t, self.inner = cfg, f.t, inner
        self.state, self.totals = B[:2, 1:-1], B[1:3, 1:-1]
        self.c, self.cfl_dx, self.dx, self.D = p.sqrt_A, cfg.cfl * g.dx, g.dx, p.D
        # 0-d arrays: a ufunc takes them faster than a Python float.
        self.A_arr, self.c_arr = np.array(p.A), np.array(self.c)
        self.dirichlet, self.rusanov = cfg.bc == "dirichlet", cfg.scheme == "rusanov"
        # Ghost columns 0 and n+1 copy columns (n, 1) when periodic, (1, n) for outflow.
        self.ghosts = B[:3, ::n + 1]
        self.ghost_src = B[:3, n:0:-(n - 1)] if cfg.bc == "periodic" else B[:3, 1:n + 1:n - 1]
        self.ghost_x = (g.x0 - 0.5 * g.dx, g.x0 + (n + 0.5) * g.dx)
        self.next_ghosts = None  # Dirichlet ghosts at self.t, when the implicit solve read them
        # Faces (2N - 1) and cells (2N - 2) of both laws in one span each.  The entries that
        # straddle the two rows land in ghost columns rho[n+1] and m[0], which every step
        # writes before it reads them; d_rows[:, :-1] holds the faces of each law.
        W, Q, d_rows, G = flat[N:3 * N], flat[2 * N:], np.empty((2, N)), np.empty(2 * N - 1)
        d = d_rows.reshape(-1)[:-1]
        a, a_max = np.empty(N), np.empty(n + 1)
        self.views = (*B, a, a[:-1], a[1:], a_max, d, d_rows[:, :-1], G, W[1:], W[:-1],
                      Q[:-1], Q[1:], G[1:], G[:-1], np.empty(2 * N - 2), W[1:-1], *inner[:3])
        self._screen()

    def _screen(self) -> bool:
        """True when every cell is valid; sets top = max|u| (NaN if u holds one)."""
        (u_lo, rho_lo), (u_hi, rho_hi) = (np.minimum.reduce(self.state, axis=1).tolist(),
                                          np.maximum.reduce(self.state, axis=1).tolist())
        self.top = max(u_hi, -u_lo)
        return 0.0 < rho_lo and rho_hi < math.inf and -math.inf < u_lo and u_hi < math.inf

    def _dirichlet_ghosts(self, t: float) -> list:
        """The sampler's states at the ghost centres x0 - dx/2 and x1 + dx/2 at time t."""
        s = self.cfg.dirichlet_sampler
        states = []
        for xg in self.ghost_x:
            s.require_in_domain(xg, t, "dirichlet ghost cell")
            states.append(s.eval(xg, t))
        return states

    def advance(self, dt_max: float) -> None:
        (U, R, M, P, a, a_lo, a_hi, a_max, d, d_faces, G, w_hi, w_lo, q_lo, q_hi, g_hi, g_lo,
         d_in, w_in, u, rho, m) = self.views
        top = self.top
        if self.dirichlet:
            left, right = self.next_ghosts or self._dirichlet_ghosts(self.t)
            U[0], R[0], U[-1], R[-1] = left.u, left.rho, right.u, right.rho
            M[0], M[-1] = R[0] * U[0], R[-1] * U[-1]
            top = max(top, abs(float(left.u)), abs(float(right.u)))  # StatePoint u is finite
        else:
            self.ghosts[...] = self.ghost_src
        max_speed = top + self.c
        dt = min(self.cfl_dx / max_speed, dt_max)
        if dt < 1e-12:
            raise SolverError(f"CFL underflow: dt={dt}")
        np.divide(np.multiply(M, M, out=P), R, out=P)
        P += np.multiply(R, self.A_arr, out=a)
        # 2F = (q_L + q_R) - alpha (w_R - w_L) for both laws; the 1/2 sits in dt/dx.
        np.subtract(w_hi, w_lo, out=d)
        np.add(q_lo, q_hi, out=G)
        if self.rusanov:
            np.abs(U, out=a)
            d_faces *= np.add(np.maximum(a_lo, a_hi, out=a_max), self.c_arr, out=a_max)
        else:
            d *= max_speed
        G -= d
        np.subtract(g_hi, g_lo, out=d_in)
        d_in *= 0.5 * dt / self.dx
        w_in -= d_in
        t = self.t = self.t + dt
        if self.D > 0.0:
            ghost_u = None
            if self.dirichlet:
                self.next_ghosts = self._dirichlet_ghosts(t)  # the next step's flux ghosts too
                ghost_u = self.next_ghosts[0].u, self.next_ghosts[1].u
            u[:] = _implicit_velocity(self.cfg, rho, m, dt * self.D / self.dx ** 2, ghost_u)
        else:
            np.divide(m, rho, out=u)
        np.multiply(rho, u, out=m)
        if not self._screen():
            Field(t, rho, u)  # fails the same screen and raises at the first bad cell

    def field(self) -> Field:  # with arrays of its own
        return Field(self.t, self.inner[1].copy(), self.inner[0].copy())


def step(f: Field, cfg: SolverConfig, dt_max: Optional[float] = None) -> Field:
    """One conservative update from f, by the scheme of the module docstring.

    dt = cfl * dx / max(|u| + sqrt(A)) over the physical cells and one ghost
    per side, limited by dt_max (used to land exactly on snapshot times); D
    sets no dt bound.  Raises ValueError, before any work, unless dt_max is
    None or > 0, so a NaN is refused; SolverError on CFL underflow (dt <
    1e-12, from a positive dt_max below it too), and PositivityError or
    SolverError at the first bad cell of an invalid new state.  D = 0 output equals the
    textbook update bit for bit (rounding is monotone and halving exact),
    which tests/test_solver.py keeps.
    """
    if dt_max is not None and not dt_max > 0.0:     # NaN fails dt_max > 0.0
        raise ValueError(f"dt_max must be None or > 0, got {dt_max}")
    with np.errstate(**_QUIET):
        march = _March(cfg, f)
        march.advance(math.inf if dt_max is None else dt_max)
    return march.field()


@dataclass
class Trajectory:
    """Fields captured at snapshot times, per-step diagnostics and what limited the run."""

    grid: Grid
    times: list
    fields: list
    diagnostics: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)     # written by run


def _initial_field(ic: Union[SolutionSampler, Field], grid: Grid, t0: float) -> Field:
    if isinstance(ic, Field):
        if abs(ic.t - t0) > 1e-12:
            raise ValueError(f"initial field is at t={ic.t}, run starts at t0={t0}")
        return ic    # _March copies it into its own buffer
    xs = grid.centers()
    ic.require_in_domain(xs, t0, "initial condition at cell centre")
    st = ic.eval(xs, t0)
    return Field(t=t0, rho=st.rho, u=st.u)


def run(cfg: SolverConfig, ic: Union[SolutionSampler, Field], t0: float, t_end: float,
        snapshots: Optional[list] = None) -> Trajectory:
    """March from t0 to t_end, landing exactly on each snapshot time and on t_end.

    The trajectory's times are the sorted distinct snapshots, then t_end (listed once,
    whether or not the caller lists it).

    Diagnostics are recorded per step with keys step, t, dt, mass, momentum,
    max_speed; totals use the cell-average quadrature sum(q) * dx.  The summary
    holds steps; the smallest dt with its step and t; how many steps landed on a
    snapshot time (their dt cut to reach it) against those that took the convective
    bound; and each snapshot's min rho with its cell and x.  Every time must be
    finite: a run toward t = inf would never end.
    """
    if not all(math.isfinite(s) for s in (t0, t_end, *(snapshots or ()))):
        raise ValueError(f"t0, t_end and snapshot times must be finite, got t0={t0}, "
                         f"t_end={t_end}, snapshots={snapshots}")
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    f = _initial_field(ic, cfg.grid, t0)
    if any(s < t0 or s > t_end + 1e-12 for s in snapshots or ()):
        raise ValueError("snapshots must lie within [t0, t_end]")
    # t_end is always the last snapshot; a caller's time within 1e-12 of it is that one
    snaps = sorted(s for s in set(snapshots or ()) if s < t_end - 1e-12) + [t_end]
    traj = Trajectory(grid=cfg.grid, times=[], fields=[], diagnostics=[])

    t_prev, landed = t0, 0
    with np.errstate(**_QUIET):
        march = _March(cfg, f)
        dx, c, totals, diags = march.dx, march.c, march.totals, traj.diagnostics
        for target in snaps:
            taken = len(diags)
            while march.t < target - 1e-12:
                march.advance(target - march.t)
                mass, momentum = np.add.reduce(totals, axis=1).tolist()
                diags.append({
                    "step": len(diags) + 1, "t": march.t, "dt": march.t - t_prev,
                    "mass": mass * dx, "momentum": momentum * dx, "max_speed": march.top + c})
                t_prev = march.t
            landed += len(diags) > taken    # a loop that steps ends on the step landing on target
            traj.times.append(target)
            traj.fields.append(march.field())
    least = min(diags, key=lambda d: d["dt"], default=None)
    xs, lows = cfg.grid.centers(), [int(f.rho.argmin()) for f in traj.fields]
    traj.summary = {
        "steps": len(diags),
        "dt_min": None if least is None else {k: least[k] for k in ("dt", "step", "t")},
        "dt_limit": {"snapshot": landed, "convective": len(diags) - landed},
        "rho_min": [{"t": float(ts), "rho": float(f.rho[i]), "cell": i, "x": float(xs[i])}
                    for ts, f, i in zip(traj.times, traj.fields, lows)]}
    return traj


def error_norms(f: Field, s: SolutionSampler, grid: Grid) -> dict:
    """L1 and Linf errors of a field against a sampler at the field's time.

    Cell averages are compared against point values at cell centers, which
    is second-order consistent and adequate for first-order schemes.
    """
    if f.rho.size != grid.nx:
        raise ValueError(f"field has length {f.rho.size}, grid has nx={grid.nx}")
    xs = grid.centers()
    s.require_in_domain(xs, f.t, "reference at cell centre")
    st = s.eval(xs, f.t)
    out = {}
    for name, got, ref in (("rho", f.rho, st.rho), ("u", f.u, st.u)):
        diff = np.abs(got - ref)
        out[name] = (float(np.sum(diff) * grid.dx), float(np.max(diff)))
    return out


@dataclass
class ConvergenceResult:
    nx_list: list
    dxs: list
    errors: dict            # variable -> list of L1 errors
    orders: dict            # variable -> least-squares slope (nan when exact)
    exact: dict             # variable -> True when errors sit at rounding level
    monotone: dict          # variable -> True when errors decrease throughout


def convergence_order(cfg: SolverConfig, s: SolutionSampler, nx_list: list,
                      t0: float, t_end: float) -> ConvergenceResult:
    """Observed convergence order on a manufactured solution.

    Runs the configuration on each grid (>= 3 grids, each doubling the
    previous), measures L1 errors at t_end and fits the slope of log error
    against log dx.  Exact-to-rounding runs report a NaN order with the
    exact flag set; non-monotone error sequences are reported, not masked.
    """
    if len(nx_list) < 3:
        raise ValueError("need at least 3 grids")
    for a, b in zip(nx_list, nx_list[1:]):
        if b != 2 * a:
            raise ValueError("each grid must double the previous")
    base = cfg.grid
    errors = {"rho": [], "u": []}
    dxs = []
    for nx in nx_list:
        grid = Grid.over(base.x0, base.x0 + base.span, nx)
        traj = run(replace(cfg, grid=grid), s, t0, t_end)
        norms = error_norms(traj.fields[-1], s, grid)
        for var in errors:
            errors[var].append(norms[var][0])
        dxs.append(grid.dx)
    orders, exact, monotone = {}, {}, {}
    logdx = np.log(np.array(dxs))
    for var, errs in errors.items():
        e = np.array(errs)
        exact[var] = bool(np.all(e < 1e-12))
        monotone[var] = bool(np.all(np.diff(e) < 0.0))
        if exact[var]:
            orders[var] = math.nan
        else:
            slope = np.polyfit(logdx, np.log(np.maximum(e, 1e-300)), 1)[0]
            orders[var] = float(slope)
    return ConvergenceResult(nx_list=list(nx_list), dxs=dxs, errors=errors,
                             orders=orders, exact=exact, monotone=monotone)
