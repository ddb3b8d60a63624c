"""Catalog of closed-form solutions and the residual verification harness.

Each family is declared once: a factory checks the family's parameters and
returns ``(bind, region)``.  ``bind(mp)`` checks only what the formula needs
of the model (T3 and T4 need A > 0) and returns the SolutionSampler (eval,
validity domain, analytic partials) with the model bound in.  It does not
enforce the (A, D) the paper claims a form under: a family binds wherever its
formula is defined, and ``verify_entry`` measures whether it holds there.
``region(mp)`` builds the default grid, lazily, since some valid samplers
admit none.
``make_entry`` wraps the pair in a CatalogEntry with the family's keys and
report note.  ``verify_entry`` assigns one of three statuses:

    VERIFIED       residuals below tolerance with analytic partials
    REFUTED        residuals sit on an O(1) floor that survives step
                   refinement of the finite-difference cross-check
    PAPER-CLAIMED  inconclusive either way

Families:

    T1      rho = p2/(t+b),            u = (x+p1)/(t+b)        (any D)
    T2      rho = 2 p1/(-(x+b)+S),     u = (x+b+S)/(2t),       S = sqrt((x+b)^2-4At^2)
    T3      rho = (p1/t) e^{(t ln t - x - b)/(tA)}, u = (x+b)/t + 1
    T4      rho = p1/sqrt(A),          u = b + sqrt(A)         (constants)
    P522    pressureless similarity solution in sqrt(2 e3 p2 + (e3 t + e4)^2 - 2 e2 e3 x)
    E3ZERO  the T2 family with (x+b, t) replaced by (e1 x + e4, e1 t + e2)
    KINK    rho = M(x), u = -sqrt(A) tanh(sqrt(A) M'(x)(c1+t)/M(x))
    NEGCTRL rho = x + 2, u = 1; a deliberate non-solution used as a negative control
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import CATALOG_ROWS, require_entry_keys
from .model import (DomainError, ModelParams, Partials, SolutionSampler, StatePoint,
                    pde_residual)

__all__ = [
    "VERIFIED",
    "REFUTED",
    "PAPER_CLAIMED",
    "GridRegion",
    "mesh",
    "CatalogEntry",
    "VerifyReport",
    "KINK_SHAPES",
    "ENTRY_PARAMS",
    "make_entry",
    "verify_entry",
    "verify_sampler",
    "step_maxima",
    "reduced_ode_residual_T3",
    "kink_ode_oracle",
]

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
PAPER_CLAIMED = "PAPER-CLAIMED"


@dataclass(frozen=True)
class GridRegion:
    """Uniform rectangular (x, t) evaluation grid."""

    x0: float
    x1: float
    nx: int
    t0: float
    t1: float
    nt: int

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise ValueError("region needs at least a 2x2 grid")
        if not (0.0 < self.x1 - self.x0 < math.inf and 0.0 < self.t1 - self.t0 < math.inf):
            raise ValueError(f"region bounds must be finite and increasing, got {self}")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    def ts(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.nt)

    def interior(self, nx: int, nt: int) -> tuple[np.ndarray, np.ndarray]:
        """Probe axes over the 10%..90% box, clear of the region's edges."""
        xs = np.linspace(self.x0 + 0.1 * (self.x1 - self.x0),
                         self.x1 - 0.1 * (self.x1 - self.x0), nx)
        ts = np.linspace(self.t0 + 0.1 * (self.t1 - self.t0),
                         self.t1 - 0.1 * (self.t1 - self.t0), nt)
        return xs, ts


def mesh(xs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.meshgrid(xs, ts) of 1-D float axes, filled by broadcast: C order, x runs fastest."""
    x, t = np.empty((len(ts), len(xs))), np.empty((len(ts), len(xs)))
    x[...] = xs
    t.T[...] = ts
    return x, t


def _elementwise(f: Callable) -> Callable:
    """numpy's f, returning a float for a float.

    A point and a grid get the same rounding, and point callers (the steps
    along a wavefront path) keep to float arithmetic, several times cheaper
    than numpy scalars.
    """
    return lambda v: float(f(v)) if isinstance(v, float) else f(v)


_sqrt, _exp, _log, _tanh, _cosh, _sin, _cos, _tan = map(
    _elementwise, (np.sqrt, np.exp, np.log, np.tanh, np.cosh, np.sin, np.cos, np.tan))

# mshape -> (M, M', M'', M''', default x-range), each function taking a float or
# an array.  Integer powers are written as products, which round the same for both.
KINK_SHAPES: dict[str, tuple] = {
    "sin": (_sin, _cos, lambda x: -_sin(x), lambda x: -_cos(x), (0.2, 2.9)),
    "sec": (
        lambda x: 1.0 / _cos(x),
        lambda x: _tan(x) / _cos(x),
        lambda x: (_tan(x) * _tan(x) + 1.0 / (_cos(x) * _cos(x))) / _cos(x),
        lambda x: _tan(x) * (_tan(x) * _tan(x) + 5.0 / (_cos(x) * _cos(x))) / _cos(x),
        (-1.35, 1.35),
    ),
    "cos": (_cos, lambda x: -_sin(x), lambda x: -_cos(x), _sin, (-1.35, 1.35)),
    "gauss": (
        lambda x: _exp(-x * x),
        lambda x: -2.0 * x * _exp(-x * x),
        lambda x: (4.0 * x * x - 2.0) * _exp(-x * x),
        lambda x: (12.0 * x - 8.0 * (x * x * x)) * _exp(-x * x),
        (-2.0, 2.0),
    ),
}


@dataclass(frozen=True)
class CatalogEntry:
    """A family at fixed parameters; see the module docstring for _bind and _region."""

    kind: str
    params: dict
    note: str
    _bind: Callable[[ModelParams], SolutionSampler]
    _region: Callable[[ModelParams], GridRegion]

    def id(self) -> str:
        if not self.params:
            return self.kind
        items = "&".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}?{items}"

    def sampler(self, mp: ModelParams) -> SolutionSampler:
        return self._bind(mp)

    def default_region(self, mp: ModelParams) -> GridRegion:
        self._bind(mp)              # the formula's own checks on (A, D) come first
        return self._region(mp)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _filled(value, x, t):
    """A constant in the broadcast shape of (x, t): itself at a point."""
    if isinstance(x, float) and isinstance(t, float):
        return value
    shape = np.broadcast_shapes(np.shape(x), np.shape(t))
    return np.full(shape, value) if shape else value


# The samplers build StatePoint(rho, u) and Partials(rho_t, rho_x, u_t, u_x, u_xx)
# positionally, which costs less per point than passing them by keyword.
def _t1(p1: float, p2: float, b: float):
    def ev(x, t):
        return StatePoint(p2 / (t + b), (x + p1) / (t + b))

    def pt(x, t):
        w = t + b
        return Partials(-p2 / (w * w), 0.0, -(x + p1) / (w * w), 1.0 / w, 0.0)

    def dom(x, t):
        return p2 * (t + b) > 0.0

    sampler = SolutionSampler(eval=ev, domain=dom, partials=pt)
    t0, t1 = (0.5 - b, 3.0 - b) if p2 > 0.0 else (-3.0 - b, -0.5 - b)
    return lambda mp: sampler, lambda mp: GridRegion(-5.0, 5.0, 41, t0, t1, 41)


def _t2_core(p1: float, shift_x: float, shift_t: float, scale: float):
    """Shared implementation of the T2 and E3ZERO branch family.

    With X = scale*x + shift_x and T = scale*t + shift_t:
        rho = 2 p1 / (S - X), u = (X + S)/(2T), S = sqrt(X^2 - 4 A T^2).
    """

    def XT(x, t):
        return scale * x + shift_x, scale * t + shift_t

    def bind(mp):
        A = mp.A

        def ev(x, t):
            X, T = XT(x, t)
            S = _sqrt(X * X - 4.0 * A * T * T)
            return StatePoint(2.0 * p1 / (S - X), (X + S) / (2.0 * T))

        def pt(x, t):
            X, T = XT(x, t)
            S = _sqrt(X * X - 4.0 * A * T * T)
            St = -4.0 * A * T * scale / S
            rho_x = 2.0 * p1 * scale / (S * (S - X))
            rho_t = 8.0 * p1 * A * T * scale / (S * ((S - X) * (S - X)))
            u_x = scale * (S + X) / (2.0 * T * S)
            u_t = St / (2.0 * T) - scale * (X + S) / (2.0 * T * T)
            u_xx = -2.0 * A * scale ** 2 * T / (S * S * S)
            return Partials(rho_t, rho_x, u_t, u_x, u_xx)

        def dom(x, t):
            X, T = XT(x, t)
            disc = X * X - 4.0 * A * T * T
            # |disc| keeps the root real where disc < 0; those points fail disc > 0.
            S = _sqrt(abs(disc))
            return (disc > 0.0) & (T != 0.0) & (p1 * (S - X) > 0.0)

        return SolutionSampler(eval=ev, domain=dom, partials=pt)

    def region(mp):
        c = max(mp.sqrt_A, 0.5)
        gap = 2.5 * mp.sqrt_A + 0.5
        # T in [0.2, 1.0]; |X| > 2 sqrt(A) T with margin; p1 sign picks the branch side.
        Xlo, Xhi = (-gap - 7.0 * c, -gap) if p1 > 0.0 else (gap, gap + 7.0 * c)
        xs = sorted(((Xlo - shift_x) / scale, (Xhi - shift_x) / scale))
        ts = sorted(((0.2 - shift_t) / scale, (1.0 - shift_t) / scale))
        return GridRegion(xs[0], xs[1], 41, ts[0], ts[1], 41)

    return bind, region


def _t2(p1: float, b: float):
    return _t2_core(p1, b, 0.0, 1.0)


def _e3zero(p1: float, e1: float, e2: float, e4: float):
    _require(e1 != 0.0, "E3ZERO requires e1 != 0")
    return _t2_core(p1, e4, e2, e1)


def _t3(p1: float, b: float):
    _require(p1 > 0.0, "T3 requires p1 > 0 for a positive density at t > 0")

    def bind(mp):
        _require(mp.A > 0.0, "T3 requires A > 0 (A divides the exponent)")
        A = mp.A

        def ev(x, t):
            rho = (p1 / t) * _exp((t * _log(t) - x - b) / (t * A))
            return StatePoint(rho, (x + b) / t + 1.0)

        def pt(x, t):
            rho = (p1 / t) * _exp((t * _log(t) - x - b) / (t * A))
            phi_x = -1.0 / (t * A)
            phi_t = 1.0 / (t * A) + (x + b) / (t * t * A)
            return Partials(rho * (-1.0 / t + phi_t), rho * phi_x,
                            -(x + b) / (t * t), 1.0 / t, 0.0)

        def dom(x, t):
            return (t > 0.0) & (t + b != 0.0)

        return SolutionSampler(eval=ev, domain=dom, partials=pt)

    return bind, lambda mp: GridRegion(-2.0, 2.0, 41, 0.5, 3.0, 41)


def _t4(p1: float, b: float):
    _require(p1 > 0.0, "T4 requires p1 > 0")

    def bind(mp):
        _require(mp.A > 0.0, "T4 requires A > 0 (rho = p1/sqrt(A))")
        rho, u = p1 / mp.sqrt_A, b + mp.sqrt_A
        return SolutionSampler(
            eval=lambda x, t: StatePoint(_filled(rho, x, t), u),
            domain=lambda x, t: _filled(True, x, t),
            partials=lambda x, t: Partials(_filled(0.0, x, t), 0.0, 0.0, 0.0, 0.0))

    return bind, lambda mp: GridRegion(-5.0, 5.0, 41, 0.0, 3.0, 41)


def _p522(p1: float, p2: float, e2: float, e3: float, e4: float):
    _require(p1 > 0.0, "P522 requires p1 > 0 for rho > 0")
    _require(e2 != 0.0, "P522 requires e2 != 0 (e2 divides u)")

    def W(x, t):
        q = e3 * t + e4
        return 2.0 * e3 * p2 + q * q - 2.0 * e2 * e3 * x

    def ev(x, t):
        S = _sqrt(W(x, t))
        return StatePoint(p1 / S, e3 * t / e2 + (e4 - S) / e2)

    def pt(x, t):
        S = _sqrt(W(x, t))
        Sx = -e2 * e3 / S
        St = e3 * (e3 * t + e4) / S
        return Partials(-p1 * St / (S * S), -p1 * Sx / (S * S), e3 / e2 - St / e2, -Sx / e2,
                        e2 * e3 ** 2 / (S * S * S))

    def dom(x, t):
        return W(x, t) > 0.0

    sampler = SolutionSampler(eval=ev, domain=dom, partials=pt)

    def region(mp):
        # Lazy: some parameters with a valid sampler admit no region at all.
        tlo, thi = 1.5, 4.0
        g = [2.0 * e3 * p2 + (e3 * t + e4) ** 2 for t in (tlo, thi)]
        if e3 != 0.0 and tlo < -e4 / e3 < thi:
            g.append(2.0 * e3 * p2)
        m = min(g)
        k = 2.0 * e2 * e3
        if k > 0.0:
            x1 = m / k - 0.3
            return GridRegion(x1 - 8.0, x1, 41, tlo, thi, 41)
        if k < 0.0:
            x0 = m / k + 0.3
            return GridRegion(x0, x0 + 8.0, 41, tlo, thi, 41)
        if m <= 0.0:
            raise DomainError("P522 parameters admit no valid region")
        return GridRegion(-5.0, 5.0, 41, tlo, thi, 41)

    return lambda mp: sampler, region


def _pointwise(f: Callable) -> Callable:
    """f lifted to arrays (custom shapes may use math); NaN, outside the domain, where f raises."""
    def at(v):
        try:
            return f(v)
        except (ValueError, ZeroDivisionError, OverflowError):
            return math.nan

    return lambda x: at(x) if isinstance(x, float) else np.vectorize(at, otypes=[float])(x)


def _kink(mshape: str, c1: float, M: Optional[Callable] = None,
          Mp: Optional[Callable] = None, Mpp: Optional[Callable] = None,
          Mppp: Optional[Callable] = None):
    if mshape == "custom":
        _require(M is not None and Mp is not None, "custom KINK needs M and M'")
        shape = (*(f and _pointwise(f) for f in (M, Mp, Mpp, Mppp)), (-1.0, 1.0))
    else:
        if mshape not in KINK_SHAPES:
            raise ValueError(f"unknown kink shape {mshape!r}; "
                             f"known: {sorted(KINK_SHAPES)} or 'custom'")
        shape = KINK_SHAPES[mshape]
    fM, fMp, fMpp, fMppp, (xlo, xhi) = shape

    def dom(x, t):
        m = fM(x)
        return (m > 0.0) & (m < math.inf)      # False for NaN

    def bind(mp):
        sa = mp.sqrt_A

        def ev(x, t):
            m = fM(x)
            z = sa * fMp(x) * (c1 + t) / m
            return StatePoint(m, -sa * _tanh(z))

        def pt(x, t):
            m, m1, m2, m3 = fM(x), fMp(x), fMpp(x), fMppp(x)
            z = sa * m1 * (c1 + t) / m
            with np.errstate(over="ignore"):     # sech^2 = 0 where cosh(z)^2 overflows
                sech2 = 1.0 / (_cosh(z) * _cosh(z))
            z_t = sa * m1 / m
            z_x = sa * (c1 + t) * (m2 * m - m1 * m1) / (m * m)
            z_xx = (sa * (c1 + t) * (m3 * m * m - 3.0 * m2 * m1 * m + 2.0 * (m1 * m1 * m1))
                    / (m * m * m))
            return Partials(0.0, m1, -sa * sech2 * z_t, -sa * sech2 * z_x,
                            -sa * sech2 * (z_xx - 2.0 * _tanh(z) * z_x * z_x))

        return SolutionSampler(eval=ev, domain=dom,
                               partials=pt if fMpp is not None and fMppp is not None else None)

    return bind, lambda mp: GridRegion(xlo, xhi, 41, 0.0, 3.0, 41)


def _negctrl():
    sampler = SolutionSampler(
        eval=lambda x, t: StatePoint(x + 2.0, 1.0), domain=lambda x, t: x > -2.0,
        partials=lambda x, t: Partials(_filled(0.0, x, t), 1.0, 0.0, 0.0, 0.0))
    return lambda mp: sampler, lambda mp: GridRegion(-1.0, 5.0, 41, 0.0, 2.0, 41)


# Each family's factory and report note.  Its keys and summary are its row of the
# package root's CATALOG_ROWS, which the CLI reads without importing this module.
_FACTORIES = {
    "T1": (_t1, ""),
    "T2": (_t2, "same two-branch family as E3ZERO (cross-reference)"),
    "T3": (_t3, ""),
    "T4": (_t4, ""),
    "P522": (_p522, ""),
    "E3ZERO": (_e3zero, "same two-branch family as T2 (cross-reference); "
                        "claimed for D=A=0 but satisfies the system for any A>0 with D=0"),
    "KINK": (_kink, "status adjudicated by the harness, never presumed"),
    "NEGCTRL": (_negctrl, "deliberate non-solution used as a negative control"),
}

# Required entry parameters of each family.
ENTRY_PARAMS: dict[str, tuple[str, ...]] = {kind: row[0] for kind, row in CATALOG_ROWS.items()}


def make_entry(kind: str, **params) -> CatalogEntry:
    """Build a catalog entry by family name; see ENTRY_PARAMS for required keys.

    Only those keys are recorded, so a custom KINK's callables (M, Mp, Mpp, Mppp), which
    are arguments but not keys, stay out of id().  A missing or unknown key is the CLI's
    diagnostic as a ValueError.  Every key but mshape is a number and must be finite.
    """
    if kind not in _FACTORIES:
        raise ValueError(f"unknown catalog entry {kind!r}; known: {sorted(_FACTORIES)}")
    factory, note = _FACTORIES[kind]
    keys = CATALOG_ROWS[kind][0]
    require_entry_keys(kind, [k for k in params
                              if kind != "KINK" or k not in ("M", "Mp", "Mpp", "Mppp")])
    for k in keys:
        if k != "mshape" and k in params and not math.isfinite(params[k]):
            raise ValueError(f"{kind} entry key {k} must be finite, got {k}={params[k]}")
    bind, region = factory(**params)
    return CatalogEntry(kind, {k: params[k] for k in keys}, note, bind, region)


@dataclass
class VerifyReport:
    """Outcome of verifying one entry over a grid region.

    max_r1_at and max_r2_at are the [x, t] grid points of max_r1 and max_r2,
    the first in C order (x fastest) on ties.
    """

    entry_id: str
    status: str
    tol: float
    max_r1: float
    max_r2: float
    max_r1_at: list
    max_r2_at: list
    partials_method: str
    fd_steps: list = field(default_factory=list)
    fd_floors: list = field(default_factory=list)
    conv_ratios: list = field(default_factory=list)
    residual_floor: float = math.nan
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = asdict(self)
        out["entry"] = out.pop("entry_id")
        return out


def _peak(r, x: np.ndarray, t: np.ndarray) -> tuple[float, list]:
    """max |r| over the grid (x, t) and its first [x, t] point in C order."""
    a = np.abs(r).ravel()
    i = int(np.argmax(a))
    return float(a[i]), [float(x.flat[i]), float(t.flat[i])]


def step_maxima(quantity: Callable, x: np.ndarray, t: np.ndarray, steps: list) -> list:
    """Largest |quantity(x, t, h)| over the 1-D probe arrays x, t at each step h of steps.

    One call evaluates every (step, point) pair, each stencil checked once; the pairs that
    fail a check (a stencil that leaves the domain or rounds away, a value the sampler
    rejects) are dropped together by the DomainError's ``failing`` mask, one retry per
    failing check.  A step with no pair left gets None.
    """
    xs, ts = np.tile(x, len(steps)), np.tile(t, len(steps))
    hs = np.repeat(steps, x.size)
    keep = np.ones(xs.shape, dtype=bool)
    worst = np.zeros(xs.shape)
    while keep.any():
        try:
            worst[keep] = np.abs(quantity(xs[keep], ts[keep], hs[keep]))
            break
        except DomainError as e:
            if e.failing is None:
                raise
            keep[np.flatnonzero(keep)[e.failing]] = False
    per_step = zip(worst.reshape(len(steps), -1).max(axis=1),
                   keep.reshape(len(steps), -1).any(axis=1))
    return [float(w) if admitted else None for w, admitted in per_step]


def verify_sampler(mp: ModelParams, sampler: SolutionSampler, region: GridRegion,
                   tol: float, entry_id: str = "<sampler>") -> VerifyReport:
    """Residual harness over a grid; see module docstring for the status rules.

    The primary residual pass uses analytic partials when the sampler has
    them and the order-4 FD stencil otherwise.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    x, t = mesh(region.xs(), region.ts())
    sampler.require_in_domain(x, t, "region point")

    has_analytic = sampler.partials is not None
    method = "analytic" if has_analytic else "fd4"
    # Analytic partials read only the grid just checked: no second domain call (default domain).
    primary = SolutionSampler(sampler.eval, partials=sampler.partials) if has_analytic else sampler
    r1, r2 = pde_residual(mp, primary, x, t, method=method)
    (max_r1, max_r1_at), (max_r2, max_r2_at) = _peak(r1, x, t), _peak(r2, x, t)
    rep = VerifyReport(entry_id=entry_id, status=PAPER_CLAIMED, tol=tol,
                       max_r1=max_r1, max_r2=max_r2, max_r1_at=max_r1_at, max_r2_at=max_r2_at,
                       partials_method=method)

    # Step-refinement cross-check: order-2 FD at h, h/2, h/4 on interior points.
    px, pt = (a.ravel() for a in mesh(*region.interior(5, 5)))
    h0 = 1e-2 * max(1.0, abs(region.x0), abs(region.x1), abs(region.t0), abs(region.t1))
    steps = [h0, h0 / 2, h0 / 4]

    def fd2(x, t, h):
        r1, r2 = pde_residual(mp, sampler, x, t, method="fd2", h=h)
        return np.maximum(np.abs(r1), np.abs(r2))

    floors = rep.fd_floors
    for h, worst in zip(steps, step_maxima(fd2, px, pt, steps)):
        if worst is None:
            rep.notes.append("no interior point admitted the FD stencil")
            break
        rep.fd_steps.append(h)
        floors.append(worst)
    rep.conv_ratios = [floors[k] / floors[k + 1] if floors[k + 1] > 0.0 else math.inf
                       for k in range(len(floors) - 1)]
    rep.residual_floor = min(floors) if floors else max(max_r1, max_r2)

    refute_floor = max(1e3 * tol, 1e-6)
    converging = bool(rep.conv_ratios) and rep.conv_ratios[-1] >= 2.0 ** 0.9
    if has_analytic and max(max_r1, max_r2) <= tol:
        rep.status = VERIFIED
    elif not has_analytic and floors and floors[-1] <= tol:
        rep.status = VERIFIED
    elif rep.residual_floor > refute_floor and not converging:
        rep.status = REFUTED
        rep.notes.append(
            f"residual floor {rep.residual_floor:.3e} survives step refinement "
            f"(ratios {['%.2f' % r for r in rep.conv_ratios]})")
    else:
        rep.status = PAPER_CLAIMED
        rep.notes.append("inconclusive: residuals neither below tolerance nor on a stable floor")
    return rep


def verify_entry(entry: CatalogEntry, mp: ModelParams, region: Optional[GridRegion] = None,
                 tol: float = 1e-8) -> VerifyReport:
    """Verify a catalog entry on a region (its default region if none given)."""
    sampler = entry.sampler(mp)
    if region is None:
        region = entry.default_region(mp)
    rep = verify_sampler(mp, sampler, region, tol, entry_id=entry.id())
    if entry.note:
        rep.notes.append(entry.note)
    if entry.kind == "KINK":
        # The continuity equation is where the published exactness claim is at
        # stake: report its measured floor explicitly.
        r1, _ = pde_residual(mp, sampler, *mesh(*region.interior(5, 5)))
        rep.notes.append("measured continuity residual floor on probe points: "
                         f"{float(np.max(np.abs(r1))):.6e}")
    return rep


def kink_ode_oracle(mshape: str, A: float, c1: float, x_fixed: float, t: float) -> float:
    """Residual of the separated flux ODE M^2 N' - N^2 M' + A M^2 M' at fixed x.

    N(t) = rho*u of the kink family; the tanh closed form solves this ODE at
    every fixed x regardless of whether the full system is satisfied.  A
    non-finite input, A < 0 or a residual that overflows is a ValueError.
    """
    if mshape not in KINK_SHAPES:
        raise ValueError(f"unknown kink shape {mshape!r}")
    for name, v in (("A", A), ("c1", c1), ("x_fixed", x_fixed), ("t", t)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {name}={v}")
    if A < 0.0:
        raise ValueError(f"A must be >= 0, got A={A}")
    fM, fMp = KINK_SHAPES[mshape][:2]
    M = fM(x_fixed)
    if M == 0.0:
        raise DomainError("M(x) must be nonzero")
    Mp = fMp(x_fixed)
    sa = math.sqrt(A)
    z = sa * Mp * (c1 + t) / M
    th = math.tanh(z)
    N = -sa * M * th
    # sech^2 as 1 - tanh^2 cannot overflow: it is exactly 0 where cosh(z) overflows.
    r = M * M * (-A * Mp * (1.0 - th * th)) - N * N * Mp + A * M * M * Mp
    if not math.isfinite(r):
        raise ValueError(f"kink ODE residual is not finite for shape {mshape!r}, A={A}, "
                         f"c1={c1}, x_fixed={x_fixed}, t={t}")
    return r


def reduced_ode_residual_T3(p1: float, A: float, tau: float, D: float = 0.0) -> tuple[float, float]:
    """Residuals of the T3 similarity ODE system under its closed-form solution.

    With l1 = l2 = 1:  Y(Z' - 1) + Y'(Z - 1 - tau) = 0  and
    1 + Z'(Z - 1 - tau) + (A Y' - D Z'')/Y = 0, where Z = tau + 1 and
    Y = p1 exp(-tau/A).  Both residuals are identically zero.
    """
    if A <= 0.0:
        raise ValueError("A must be > 0")
    Y = p1 * math.exp(-tau / A)
    Yp = -Y / A
    Z = tau + 1.0
    Zp = 1.0
    Zpp = 0.0
    g1 = Y * (Zp - 1.0) + Yp * (Z - 1.0 - tau)
    g2 = 1.0 + Zp * (Z - 1.0 - tau) + (A * Yp - D * Zpp) / Y
    return g1, g2
