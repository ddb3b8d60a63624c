"""Conserved densities and fluxes of the traffic model.

Covers the elementary mass/momentum pair of the inviscid conservative form,
the nonlinear self-adjointness substitution (h, g) with its multipliers, the
four symmetry-generated conserved vectors, and numerical divergence checking
of candidate solutions.

The symmetry-generated (Ux, Ut) pairs are implemented verbatim from their
published closed forms, sign conventions included.  Numerical divergence
checking shows that the S2 and S4 rows are genuinely conserved on solutions
while the S1 and S3 rows, as printed, are not (the bracket multiplying the
characteristic factor enters with the opposite sign); the harness reports
the measured divergence instead of silently correcting the formulas.
"""

import math
from dataclasses import dataclass

from .catalog import KINK_SHAPES
from .model import (DomainError, ModelParams, Partials, SolutionSampler,
                    StatePoint, fd_partials, fd_stencil_inside, require_all,
                    residual_from_partials, step_scale)

__all__ = [
    "MultiplierConstants",
    "ConservedPair",
    "basic_conserved",
    "self_adjoint_substitution",
    "adjoint_identity_residual",
    "symmetry_conserved_vector",
    "divergence_residual",
    "kink_ode_oracle",
]


@dataclass(frozen=True)
class MultiplierConstants:
    """Constants (c1, c2, c3) of the self-adjoint substitution."""

    c1: float
    c2: float = 0.0
    c3: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.c1, self.c2, self.c3)):
            raise ValueError(f"multiplier constants must be finite, got {self}")


@dataclass(frozen=True)
class ConservedPair:
    """Density T and flux C of one conservation law at a point."""

    T: float
    C: float
    which: str


def basic_conserved(p: ModelParams, s: StatePoint) -> tuple[ConservedPair, ConservedPair]:
    """Mass and momentum density/flux pairs of the inviscid conservative form.

    mass     (rho, rho*u)
    momentum (rho*u, rho*u^2 + A*rho)
    """
    if p.D != 0.0:
        raise ValueError("the conservative pair is derived for the inviscid model (D=0)")
    mass = ConservedPair(T=s.rho, C=s.rho * s.u, which="mass")
    mom = ConservedPair(T=s.rho * s.u, C=s.rho * s.u ** 2 + p.A * s.rho, which="momentum")
    return mass, mom


def _substitution(c: MultiplierConstants, p: ModelParams, s: StatePoint):
    """(h, g) = (c1*u - c1*A/rho + c3, (rho + u)*c1 + c2), at a point or on arrays."""
    return c.c1 * s.u - c.c1 * p.A / s.rho + c.c3, (s.rho + s.u) * c.c1 + c.c2


def self_adjoint_substitution(c: MultiplierConstants, p: ModelParams, s: StatePoint):
    """Substitution (h, g) certifying nonlinear self-adjointness, plus multipliers.

    h = c1*u - c1*A/rho + c3,  g = (rho + u)*c1 + c2, and the multipliers
    l1 = -g_rho, l2 = -g_u, l3 = -h_rho, l4 = -h_u.
    Returns (h, g, l1, l2, l3, l4).
    """
    h, g = _substitution(c, p, s)
    l1 = -c.c1
    l2 = -c.c1
    l3 = -c.c1 * p.A / s.rho ** 2
    l4 = -c.c1
    return h, g, l1, l2, l3, l4


def _field_partials(s: SolutionSampler, x: float, t: float,
                    h_step: float) -> tuple[StatePoint, Partials]:
    st = s.eval(x, t)
    d = s.partials(x, t) if s.partials is not None else fd_partials(s, x, t, order=2, h=h_step)
    return st, d


def adjoint_identity_residual(c: MultiplierConstants, p: ModelParams, s: SolutionSampler,
                              x, t, h_step: float) -> tuple[float, float]:
    """Defect of the adjoint-system identity under the (h, g) substitution.

    Evaluates the published adjoint expressions S1 (variation in u) and S2
    (variation in rho) with h, g substituted, their x/t derivatives taken by
    chain rule through the fields (central differences of the composites at
    step h_step), and returns

        d1 = S1 - (l1*R1 + l2*R2),   d2 = S2 - (l3*R1 + l4*R2).

    This is a reporting operation, at a point or on (x, t) arrays: the
    defects converge at O(h_step^2) to zero when the identity holds (it does
    for D = 0) and to the identity's intrinsic defect otherwise.
    """
    s.require_in_domain(x, t)
    require_all(fd_stencil_inside(s, x, t, 2, h_step),
                f"FD stencil at (x={{x}}, t={{t}}) with step {h_step} leaves domain", x=x, t=t)

    st, d = _field_partials(s, x, t, h_step)
    rho, u = st.rho, st.u
    _, g0, l1, l2, l3, l4 = self_adjoint_substitution(c, p, st)
    xp, xm, tp, tm = (s.eval(x + h_step, t), s.eval(x - h_step, t),
                      s.eval(x, t + h_step), s.eval(x, t - h_step))
    (h_xp, g_xp), (h_xm, g_xm), (h_tp, g_tp), (h_tm, g_tm) = (
        _substitution(c, p, q) for q in (xp, xm, tp, tm))
    h_x = (h_xp - h_xm) / (2.0 * h_step)
    h_t = (h_tp - h_tm) / (2.0 * h_step)
    g_x = (g_xp - g_xm) / (2.0 * h_step)
    g_t = (g_tp - g_tm) / (2.0 * h_step)
    g_xx = (g_xp - 2.0 * g0 + g_xm) / h_step ** 2
    if s.partials is not None:
        rho_xx = (s.partials(x + h_step, t).rho_x
                  - s.partials(x - h_step, t).rho_x) / (2.0 * h_step)
    else:
        rho_xx = (xp.rho - 2.0 * rho + xm.rho) / h_step ** 2

    D, A = p.D, p.A
    S1 = (D * g0 * rho * rho_xx - D * g_xx * rho ** 2 - 2.0 * D * g0 * d.rho_x ** 2
          + 2.0 * D * g_x * rho * d.rho_x
          - rho ** 3 * (h_x * rho + g_x * u + g_t)) / rho ** 3
    S2 = (-h_x * u * rho ** 2 - A * g_x * rho + D * g0 * d.u_xx - h_t * rho ** 2) / rho ** 2

    R1, R2 = residual_from_partials(p, st, d)
    return S1 - (l1 * R1 + l2 * R2), S2 - (l3 * R1 + l4 * R2)


def _mixed_u_tx(s: SolutionSampler, x, t, h: float):
    """Mixed derivative u_tx: t-difference of analytic u_x when available, else 2-D at step h."""
    if s.partials is not None:
        k = 1e-4 * step_scale(x, t)
        return (s.partials(x, t + k).u_x - s.partials(x, t - k).u_x) / (2.0 * k)
    return (s.eval(x + h, t + h).u - s.eval(x + h, t - h).u
            - s.eval(x - h, t + h).u + s.eval(x - h, t - h).u) / (4.0 * h * h)


_WHICH = ("S1", "S2", "S3", "S4")


def symmetry_conserved_vector(which: str, c: MultiplierConstants, p: ModelParams,
                              s: SolutionSampler, x, t, h_step: float) -> tuple[float, float]:
    """Conserved vector (Ux, Ut) generated by one of the four point symmetries.

    Implements the published rows verbatim, at a point or on (x, t) arrays.
    The mixed derivative u_tx (needed by the viscous parts of the S1 and S2
    rows) is obtained by differencing analytic u_x in t when available,
    else by 2-D differences at step h_step, which also serves the order-2
    FD partials of a sampler without analytic ones.
    """
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}")
    s.require_in_domain(x, t)
    if not h_step > 0.0:
        raise ValueError(f"h_step must be > 0, got {h_step}")
    st, d = _field_partials(s, x, t, h_step)
    rho, u = st.rho, st.u
    A, D = p.A, p.D
    c1, c2, c3 = c.c1, c.c2, c.c3

    h, g = _substitution(c, p, st)
    # Recurring brackets of the published rows.
    visc = -c1 * D * d.u_x / rho + D * (c1 * u + c2) * d.rho_x / (rho * rho)
    Q = (c1 * u + c3) * u + (c1 * rho + c2) * A / rho

    u_tx = _mixed_u_tx(s, x, t, h_step) if D != 0.0 and which in ("S1", "S2") else 0.0
    if which == "S1":
        Ux = (D * (c1 * rho + c1 * u + c2) / rho) * (d.u_x + x * d.u_xx + t * u_tx) \
            + (x * d.u_x + t * d.u_t) * (visc + h * rho + g * u) \
            - (rho + x * d.rho_x + t * d.rho_t) * Q
        Ut = -g * (x * d.u_x + t * d.u_t) - h * (rho + x * d.rho_x + t * d.rho_t)
    elif which == "S2":
        Ux = D * g * u_tx / rho + (visc - h * rho - g * u) * d.u_t - d.rho_t * Q
        Ut = -g * d.u_t - h * d.rho_t
    elif which == "S3":
        Ux = D * g * t * d.u_xx / rho \
            - (visc + h * rho + g * u) * (1.0 - t * d.u_x) - t * d.rho_x * Q
        Ut = g * (1.0 - t * d.u_x) - h * t * d.rho_x
    else:  # S4
        Ux = D * g * d.u_xx / rho + (visc - h * rho - g * u) * d.u_x - d.rho_x * Q
        Ut = -g * d.u_x - h * d.rho_x
    return Ux, Ut


def divergence_residual(which: str, c: MultiplierConstants, p: ModelParams,
                        s: SolutionSampler, x, t, h_step: float):
    """Central-difference approximation of D_x(Ux) + D_t(Ut) at (x, t).

    Converges to 0 at the finite-difference order on genuinely conserved
    rows evaluated on solutions, and to an O(1) value otherwise.
    """
    if not h_step > 0.0:
        raise ValueError(f"h_step must be > 0, got {h_step}")
    require_all(s.domain(x + h_step, t) & s.domain(x - h_step, t)
                & s.domain(x, t + h_step) & s.domain(x, t - h_step),
                "divergence stencil at (x={x}, t={t}) leaves domain", x=x, t=t)
    Uxp, _ = symmetry_conserved_vector(which, c, p, s, x + h_step, t, h_step)
    Uxm, _ = symmetry_conserved_vector(which, c, p, s, x - h_step, t, h_step)
    _, Utp = symmetry_conserved_vector(which, c, p, s, x, t + h_step, h_step)
    _, Utm = symmetry_conserved_vector(which, c, p, s, x, t - h_step, h_step)
    return (Uxp - Uxm) / (2.0 * h_step) + (Utp - Utm) / (2.0 * h_step)


def kink_ode_oracle(mshape: str, A: float, c1: float, x_fixed: float, t: float) -> float:
    """Residual of the separated flux ODE M^2 N' - N^2 M' + A M^2 M' at fixed x.

    N(t) = rho*u of the kink family; the tanh closed form solves this ODE at
    every fixed x regardless of whether the full system is satisfied.
    """
    if mshape not in KINK_SHAPES:
        raise ValueError(f"unknown kink shape {mshape!r}")
    fM, fMp, _, _ = KINK_SHAPES[mshape]
    M = fM(x_fixed)
    if M == 0.0:
        raise DomainError("M(x) must be nonzero")
    Mp = fMp(x_fixed)
    sa = math.sqrt(A)
    z = sa * Mp * (c1 + t) / M
    N = -sa * M * math.tanh(z)
    Nprime = -A * Mp / math.cosh(z) ** 2
    return M * M * Nprime - N * N * Mp + A * M * M * Mp
