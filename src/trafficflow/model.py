"""Governing equations of the second-order traffic flow model.

State variables are the vehicle density rho(x, t) > 0 and the average
velocity u(x, t).  The model couples a continuity equation with a momentum
balance closed by the traffic pressure P = A*rho - D*u_x, where A is the
speed variance and D the viscosity.  Everything else in the package is
checked against the residual operators defined here.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import DomainError

__all__ = [
    "DomainError",
    "ModelParams",
    "StatePoint",
    "Partials",
    "SolutionSampler",
    "pressure",
    "characteristic_speeds",
    "characteristic_eigenvectors",
    "fd_partials",
    "FD_NODES",
    "require_step",
    "require_stencil",
    "read_stencil",
    "stencil_inside",
    "step_scale",
    "default_fd_step",
    "residual_from_partials",
    "pde_residual",
]


def require_all(ok, message: str, **values) -> None:
    """Raise DomainError unless ok holds at the point, or at every point of a grid.

    ``message`` is formatted with ``values`` and the grid ``index`` of the first
    failing point in C order; on a grid the error also holds that index and the
    flat mask of every failing point (``failing``).
    """
    if ok if isinstance(ok, (bool, np.bool_)) else ok.all():
        return
    shape = np.broadcast_shapes(np.shape(ok), *(np.shape(v) for v in values.values()))
    ok = np.broadcast_to(ok, shape)
    flat = int(np.argmin(ok))
    i = np.unravel_index(flat, shape)
    err = DomainError(message.format(index=tuple(map(int, i)),
                                     **{k: np.broadcast_to(v, shape)[i]
                                        for k, v in values.items()}))
    if shape:
        err.index, err.failing = flat, ~ok.ravel()
    raise err


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model.

    A must be positive for the characteristic structure to exist; A = 0 is
    tolerated at construction so that pressureless closed forms can be fed
    through the residual operators, and the characteristic operations reject
    it themselves.  D >= 0 selects the viscous (D > 0) or inviscid model.
    """

    A: float
    D: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.A) or self.A < 0.0:
            raise ValueError(f"speed variance A must be >= 0 and finite, got {self.A}")
        if not math.isfinite(self.D) or self.D < 0.0:
            raise ValueError(f"viscosity D must be >= 0 and finite, got {self.D}")

    @property
    def sqrt_A(self) -> float:
        return math.sqrt(self.A)


def _finite(x, t):
    """Whether x and t are finite: a bool for floats, a mask on arrays."""
    if isinstance(x, float) and isinstance(t, float):
        return math.isfinite(x) and math.isfinite(t)
    return np.isfinite(x) & np.isfinite(t)


# Infinity as a module constant: the value checks and the float step tests read it as one
# global, not as math.inf's module attribute.
_INF = math.inf

_INVALID = {"rho": "density must be finite and > 0, got rho={v}",
            "u": "velocity must be finite, got u={v}"}


def _validated(ok, names, values) -> tuple:
    """The values, broadcast on a grid; a DomainError naming the first bad field unless ok holds."""
    grid = isinstance(ok, np.ndarray)
    if grid:
        values = np.broadcast_arrays(*values)
    if ok is False or not ok.all():
        where = " at grid index {index}" if grid else ""
        for name, v in zip(names, values):
            ok = np.isfinite(v) & (v > 0.0) if name == "rho" else np.isfinite(v)
            require_all(ok, _INVALID.get(name, f"non-finite derivative {name}={{v}}") + where, v=v)
    return values


@dataclass(slots=True, init=False)
class StatePoint:
    """State (rho, u) at a point or on a grid.  Density must be strictly positive.

    Fields in order rho, u; samplers pass them positionally.  The constructor
    checks a point and a grid alike with one expression; arrays are broadcast
    to one shape."""

    rho: float
    u: float

    def __init__(self, rho, u):
        ok = (rho > 0.0) & (rho < _INF) & (abs(u) < _INF)
        if ok is not True:    # a valid float point needs no _validated call
            rho, u = _validated(ok, ("rho", "u"), (rho, u))
        self.rho, self.u = rho, u


@dataclass(slots=True, init=False)
class Partials:
    """First derivatives of (rho, u) plus u_xx at a point or on a grid.

    Fields in order rho_t, rho_x, u_t, u_x, u_xx; samplers pass them
    positionally.  Like StatePoint, the constructor checks them with one
    expression, and they are floats or arrays broadcast to one shape.
    """

    rho_t: float
    rho_x: float
    u_t: float
    u_x: float
    u_xx: float

    def __init__(self, rho_t, rho_x, u_t, u_x, u_xx):
        ok = ((abs(rho_t) < _INF) & (abs(rho_x) < _INF) & (abs(u_t) < _INF)
              & (abs(u_x) < _INF) & (abs(u_xx) < _INF))
        if ok is not True:
            rho_t, rho_x, u_t, u_x, u_xx = _validated(
                ok, ("rho_t", "rho_x", "u_t", "u_x", "u_xx"), (rho_t, rho_x, u_t, u_x, u_xx))
        self.rho_t = rho_t      # one store each: no tuple built per value
        self.rho_x = rho_x
        self.u_t = u_t
        self.u_x = u_x
        self.u_xx = u_xx

    @staticmethod
    def from_stencil(at: dict, order: int, h) -> "Partials":
        """Order-2 or -4 central differences of read_stencil's states; ``centre`` is at[0, 0]."""
        (offsets, w1), (off2, w2) = _FD_STENCILS[order]
        rho_x = sum(w * at[k, 0].rho for k, w in zip(offsets, w1)) / h
        u_x = sum(w * at[k, 0].u for k, w in zip(offsets, w1)) / h
        rho_t = sum(w * at[0, k].rho for k, w in zip(offsets, w1)) / h
        u_t = sum(w * at[0, k].u for k, w in zip(offsets, w1)) / h
        u_xx = sum(w * at[k, 0].u for k, w in zip(off2, w2)) / (h * h)
        return _StencilPartials(rho_t, rho_x, u_t, u_x, u_xx, at[0, 0])


@dataclass(slots=True, init=False)
class _StencilPartials(Partials):
    centre: StatePoint      # the state at (x, t), from the stencil read that gave the partials

    def __init__(self, rho_t, rho_x, u_t, u_x, u_xx, centre):
        Partials.__init__(self, rho_t, rho_x, u_t, u_x, u_xx)
        self.centre = centre


@dataclass(frozen=True)
class SolutionSampler:
    """A field (x, t) -> (rho, u), optionally with analytic partials.

    Each callable takes floats, or arrays that broadcast together, and
    returns floats or arrays of that shape (``domain`` a bool or a mask).
    ``domain`` must be true wherever ``eval`` returns finite values with
    rho > 0.  ``partials`` may be None, in which case residuals fall back to
    finite differences.
    """

    eval: Callable[[float, float], StatePoint]
    domain: Callable[[float, float], bool] = field(default=lambda x, t: True)
    partials: Optional[Callable[[float, float], Partials]] = None

    def require_in_domain(self, x, t, what: str = "point") -> None:
        """DomainError at the first point not finite or not inside; a float one skips domain."""
        ok = _finite(x, t)
        ok = ok is not False and ok & self.domain(x, t)
        if ok is not True:    # a float point inside needs no require_all call
            require_all(ok, what + " (x={x}, t={t}) is outside the sampler domain", x=x, t=t)


def pressure(p: ModelParams, s: StatePoint, u_x: float) -> float:
    """Traffic pressure P = A*rho - D*u_x."""
    return p.A * s.rho - p.D * u_x


def characteristic_speeds(p: ModelParams, s: StatePoint) -> tuple[float, float]:
    """Characteristic speeds (u - sqrt(A), u + sqrt(A)) of the inviscid part."""
    if p.A <= 0.0:
        raise ValueError("characteristic speeds require A > 0")
    c = p.sqrt_A
    return s.u - c, s.u + c


def characteristic_eigenvectors(p: ModelParams, s: StatePoint):
    """Left/right eigenvector pairs (l1, r1, l2, r2) of B = [[u, rho], [A/rho, u]].

    Normalisation follows l1 = (-sqrt(A)/rho, 1), r1 = (-rho/sqrt(A), 1)^T and
    l2, r2 with the opposite sign in the first component, so that l_i B
    = lambda_i l_i and B r_i = lambda_i r_i.
    """
    if p.A <= 0.0:
        raise ValueError("characteristic eigenvectors require A > 0")
    c = p.sqrt_A
    rho = s.rho
    l1 = np.array([-c / rho, 1.0])
    r1 = np.array([-rho / c, 1.0])
    l2 = np.array([c / rho, 1.0])
    r2 = np.array([rho / c, 1.0])
    return l1, r1, l2, r2


def step_scale(x, t):
    """max(1, |x|, |t|): a float at a point, elementwise on arrays."""
    if isinstance(x, float) and isinstance(t, float):
        return max(1.0, abs(x), abs(t))
    return np.maximum(np.maximum(abs(x), abs(t)), 1.0)


def default_fd_step(x, t):
    """Scale-adapted central-difference step h = 1e-3 * max(1, |x|, |t|)."""
    return 1e-3 * step_scale(x, t)


# Central stencils by order: first-derivative (offsets, weights), then u_xx's.
_FD_STENCILS = {
    2: (((-1, 1), (-0.5, 0.5)), ((-1, 0, 1), (1.0, -2.0, 1.0))),
    4: (((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
        ((-2, -1, 0, 1, 2), (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0))),
}
# The nodes (i, j), at (x + i*h, t + j*h), that fd_partials reads: the u_xx
# row in x, centre included, and the first-derivative row in t.
FD_NODES = {order: tuple((k, 0) for k in second[0]) + tuple((0, k) for k in first[0])
            for order, (first, second) in _FD_STENCILS.items()}


def require_step(h) -> None:
    """ValueError unless the difference step h, a float or an array, is finite and > 0.

    h * h must not underflow to 0 either: second differences divide by it.
    """
    if not (0.0 < h < _INF and h * h != 0.0 if isinstance(h, float)
            else np.all((h > 0.0) & (h < np.inf) & (h * h != 0.0))):
        raise ValueError(f"h_step must be > 0 and finite with a nonzero square, got {h}")


def stencil_inside(s: SolutionSampler, x, t, h, nodes):
    """Where every node (i, j) of a stencil, the point (x + i*h, t + j*h), is in the domain."""
    inside = True
    for i, j in nodes:
        inside = inside & s.domain(x + i * h, t + j * h)
    return inside


def require_stencil(s: SolutionSampler, x, t, h, nodes, what: str) -> None:
    """The check every finite difference at (x, t) with step h makes before it evaluates.

    x and t must be finite and h, a float or an array, pass require_step (a ValueError).
    Every node (i, j) must lie in the domain and x +- h, t +- h must differ from x, t (a step
    that rounds away reads as 0); else a DomainError names the first bad point and its step.
    At floats one test of the centre and step, then one domain call per node, accept a
    valid stencil; a failing one, and arrays, walk the checks in that order.
    """
    if (isinstance(x, float) and isinstance(t, float) and isinstance(h, float)
            and math.isfinite(x) and math.isfinite(t) and 0.0 < h < _INF and h * h != 0.0
            and x + h != x and x - h != x and t + h != t and t - h != t):
        domain = s.domain
        for i, j in nodes:
            if not domain(x + i * h, t + j * h):
                break
        else:
            return
    where = what + " stencil at (x={x}, t={t}) with step {h}"
    require_all(_finite(x, t), where + " leaves the domain", x=x, t=t, h=h)
    require_step(h)
    require_all(stencil_inside(s, x, t, h, nodes), where + " leaves the domain", x=x, t=t, h=h)
    require_all((x + h != x) & (x - h != x) & (t + h != t) & (t - h != t),
                where + " rounds onto its centre", x=x, t=t, h=h)


def read_stencil(s: SolutionSampler, x, t, h, nodes, what: str) -> dict:
    """{(i, j): state at (x + i*h, t + j*h)}: every node passes require_stencil, then one eval."""
    require_stencil(s, x, t, h, nodes, what)
    return {(i, j): s.eval(x + i * h, t + j * h) for i, j in nodes}


def fd_partials(s: SolutionSampler, x, t, order: int = 4, h=None) -> Partials:
    """Central finite-difference partials of a sampler at (x, t).

    The stencil (width 2 or 4 each way, centre included) is read once, by read_stencil,
    at step h, by default 1e-3 * max(1, |x|, |t|); ``centre`` holds the state at (x, t).
    """
    if order not in (2, 4):
        raise ValueError("fd order must be 2 or 4")
    h = default_fd_step(x, t) if h is None else h
    at = read_stencil(s, x, t, h, FD_NODES[order], f"order-{order} FD")
    return Partials.from_stencil(at, order, h)


def residual_from_partials(p: ModelParams, s: StatePoint, d: Partials) -> tuple[float, float]:
    """Raw signed residuals of the two governing equations.

    r1 = rho*u_x + rho_x*u + rho_t
    r2 = u_t + u*u_x + A*rho_x/rho - D*u_xx/rho
    """
    r1 = s.rho * d.u_x + d.rho_x * s.u + d.rho_t
    r2 = d.u_t + s.u * d.u_x + p.A * d.rho_x / s.rho - p.D * d.u_xx / s.rho
    return r1, r2


def pde_residual(p: ModelParams, s: SolutionSampler, x, t,
                 method: str = "auto", h=None) -> tuple[float, float]:
    """Evaluate the governing-system residuals of a sampler at (x, t).

    method: "auto" (analytic partials when available, else order-4 FD),
    "analytic", "fd2" or "fd4".  Residuals are returned as raw signed values,
    floats at a point and arrays on a grid.  The centre is checked first: alone
    for analytic partials, else with the FD stencil, whose one read gives its state too.
    """
    if method == "auto":
        method = "analytic" if s.partials is not None else "fd4"
    if method == "analytic":
        if s.partials is None:
            raise ValueError("sampler has no analytic partials")
        s.require_in_domain(x, t)
        d, state = s.partials(x, t), s.eval(x, t)
    elif method in ("fd2", "fd4"):
        d = fd_partials(s, x, t, order=int(method[2]), h=h)
        state = d.centre
    else:
        raise ValueError(f"unknown derivative method {method!r}")
    r1, r2 = residual_from_partials(p, state, d)
    require_all(np.isfinite(r1) & np.isfinite(r2),
                "non-finite residual at (x={x}, t={t}): ({r1}, {r2})", x=x, t=t, r1=r1, r2=r2)
    return r1, r2
