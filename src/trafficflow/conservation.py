"""Conserved densities and fluxes of the traffic model.

Covers the elementary mass/momentum pair of the inviscid conservative form,
the nonlinear self-adjointness substitution (h, g) with its multipliers, the
four symmetry-generated conserved vectors, and numerical divergence checking
of candidate solutions, with the rule (divergence_verdict) that turns the
divergence's maxima under step halving into a status.

The four symmetry-generated (Ux, Ut) rows share one flux (Ibragimov's theorem
under (h, g)) and are returned as published: the printed S1 and S3 rows keep
their defect term -2 W^u (h*rho + g*u), which the divergence check reports.
"""

import math
from dataclasses import dataclass

from .model import (FD_NODES, ModelParams, Partials, SolutionSampler, StatePoint, fd_partials,
                    read_stencil, require_stencil, require_step, residual_from_partials,
                    step_scale)

__all__ = [
    "MultiplierConstants",
    "ConservedPair",
    "basic_conserved",
    "self_adjoint_substitution",
    "adjoint_identity_residual",
    "symmetry_conserved_vector",
    "divergence_residual",
    "CONSERVED",
    "FLOOR",
    "INCONCLUSIVE",
    "divergence_verdict",
]

CONSERVED = "CONSERVED"
FLOOR = "FLOOR"
INCONCLUSIVE = "INCONCLUSIVE"

# The step-halving ratio of an order-2 difference: 2^1.9, verify's order and the tests'.
_ORDER2 = 2.0 ** 1.9


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
    for D = 0) and to the identity's intrinsic defect otherwise.  Its five
    nodes, the centre and (x +- h_step, t), (x, t +- h_step), are the order-2
    FD stencil, read once at the points require_stencil returned, which also gives
    FD-only partials; analytic rho_x is read at its (+-1, 0) points.
    """
    points = dict(zip(FD_NODES[2], require_stencil(s, x, t, h_step, FD_NODES[2],
                                                   "adjoint-identity")))
    at = {node: s.eval(xi, tj) for node, (xi, tj) in points.items()}
    st, xp, xm, tp, tm = at[0, 0], at[1, 0], at[-1, 0], at[0, 1], at[0, -1]
    d = s.partials(x, t) if s.partials is not None else Partials.from_stencil(at, 2, h_step)
    rho, u = st.rho, st.u
    _, g0, l1, l2, l3, l4 = self_adjoint_substitution(c, p, st)
    (h_xp, g_xp), (h_xm, g_xm), (h_tp, g_tp), (h_tm, g_tm) = (
        _substitution(c, p, q) for q in (xp, xm, tp, tm))
    h_x = (h_xp - h_xm) / (2.0 * h_step)
    h_t = (h_tp - h_tm) / (2.0 * h_step)
    g_x = (g_xp - g_xm) / (2.0 * h_step)
    g_t = (g_tp - g_tm) / (2.0 * h_step)
    g_xx = (g_xp - 2.0 * g0 + g_xm) / h_step ** 2
    if s.partials is not None:
        rho_xx = (s.partials(*points[1, 0]).rho_x
                  - s.partials(*points[-1, 0]).rho_x) / (2.0 * h_step)
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
    """Mixed derivative u_tx: t-difference of analytic u_x when available, else 2-D at step h.

    A difference node outside the domain is a DomainError naming (x, t): a
    difference across a pole would read as a finite, wrong u_tx.  Nodes are read where checked.
    """
    if s.partials is not None:
        k = 1e-4 * step_scale(x, t)
        (xu, tu), (xd, td) = require_stencil(s, x, t, k, ((0, 1), (0, -1)), "mixed-derivative")
        return (s.partials(xu, tu).u_x - s.partials(xd, td).u_x) / (2.0 * k)
    at = read_stencil(s, x, t, h, ((1, 1), (1, -1), (-1, 1), (-1, -1)), "mixed-derivative")
    return (at[1, 1].u - at[1, -1].u - at[-1, 1].u + at[-1, -1].u) / (4.0 * h * h)


# One flux serves the four generators, from each one's characteristic W = -V:
# Ut = h W^rho + g W^u, Ux = W^rho Q + W^u (sign (h rho + g u) - visc) - D_x(W^u) g D/rho.
# sign = +1 is Ibragimov's flux; the printed S1 and S3 rows carry -1, which adds
# the defect term -2 W^u (h rho + g u).  The table is also the row check.
_PRINTED_SIGN = {"S1": -1.0, "S2": 1.0, "S3": -1.0, "S4": 1.0}


def _row(which: str, c: MultiplierConstants, p: ModelParams) -> tuple:
    """What a row's (Ux, Ut) takes from (which, c, p), decided once per public call.

    A ValueError unless which names a row; else (which, A, D, c1, c2, c3, c1*A,
    -c1*D, the printed sign, whether Ux needs the mixed derivative u_tx).  c1*A
    and -c1*D are the leading products of h and visc, so forming them once keeps
    every bit.
    """
    if which not in _PRINTED_SIGN:
        raise ValueError(f"which must be one of {tuple(_PRINTED_SIGN)}")
    A, D, c1 = p.A, p.D, c.c1
    return (which, A, D, c1, c.c2, c.c3, c1 * A, -c1 * D, _PRINTED_SIGN[which],
            D != 0.0 and which in ("S1", "S2"))


def symmetry_conserved_vector(which: str, c: MultiplierConstants, p: ModelParams,
                              s: SolutionSampler, x, t, h_step: float) -> tuple[float, float]:
    """Conserved vector (Ux, Ut) generated by one of the four point symmetries.

    Returns the published rows, at a point or on (x, t) arrays.  The mixed
    derivative u_tx (needed by the viscous parts of the S1 and S2 rows) is
    obtained by differencing analytic u_x in t when available, else by 2-D
    differences at step h_step, which also serves the order-2 FD partials of
    a sampler without analytic ones.  h_step must be finite and > 0.
    """
    row = _row(which, c, p)
    s.require_in_domain(x, t)
    require_step(h_step)
    return _vector(row, s, x, t, h_step)


def _vector(row: tuple, s: SolutionSampler, x, t, h_step: float, flux: bool = True):
    """The (Ux, Ut) of a _row at points the caller has checked, with a checked step.

    Per node: one read of partials and state, (h, g) by _substitution's
    expressions on the row's locals, then the row's arm.  With flux=False, Ut
    alone, which needs neither the mixed derivative u_tx nor DxV_u nor the
    flux terms: none of them is computed.
    """
    if s.partials is not None:
        d, st = s.partials(x, t), s.eval(x, t)
    else:
        d, st = fd_partials(s, x, t, order=2, h=h_step)
    which, A, D, c1, c2, c3, c1A, mc1D, sign, mixed = row
    rho, u = st.rho, st.u
    c1u = c1 * u
    h, g = c1u - c1A / rho + c3, (rho + u) * c1 + c2
    if which == "S1":    # x d/dx + t d/dt - rho d/drho
        V_rho, V_u = rho + x * d.rho_x + t * d.rho_t, x * d.u_x + t * d.u_t
    elif which == "S2":  # d/dt
        V_rho, V_u = d.rho_t, d.u_t
    elif which == "S3":  # t d/dx + d/du
        V_rho, V_u = t * d.rho_x, t * d.u_x - 1.0
    else:                # S4: d/dx
        V_rho, V_u = d.rho_x, d.u_x
    Ut = -g * V_u - h * V_rho
    if not flux:
        return Ut

    u_tx = _mixed_u_tx(s, x, t, h_step) if mixed else 0.0
    if which == "S1":
        DxV_u = d.u_x + x * d.u_xx + t * u_tx
    elif which == "S2":
        DxV_u = u_tx
    elif which == "S3":
        DxV_u = t * d.u_xx
    else:
        DxV_u = d.u_xx
    visc = mc1D * d.u_x / rho + D * (c1u + c2) * d.rho_x / (rho * rho)
    Q = (c1u + c3) * u + (c1 * rho + c2) * A / rho
    Ux = D * g * DxV_u / rho + (visc - sign * h * rho - sign * g * u) * V_u - V_rho * Q
    return Ux, Ut


def divergence_residual(which: str, c: MultiplierConstants, p: ModelParams,
                        s: SolutionSampler, x, t, h_step: float):
    """Central-difference approximation of D_x(Ux) + D_t(Ut) at (x, t).

    Converges to 0 at the finite-difference order on genuinely conserved
    rows evaluated on solutions, and to an O(1) value otherwise.  The row is
    checked, then the four stencil nodes pass require_stencil once, here (the
    mixed derivative of the viscous S1 and S2 rows checks its own nodes); a
    node that rounds onto (x, t) would read as conserved.  Ux is read at the
    x-nodes only and Ut at the t-nodes only, at the points require_stencil returned.
    """
    row = _row(which, c, p)
    # Float offsets: an int offset times the float step takes the interpreter's slower
    # mixed-type multiply at every node; the nodes themselves are the same.
    (xp, t_xp), (xm, t_xm), (x_tp, tp), (x_tm, tm) = require_stencil(
        s, x, t, h_step, ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), "divergence")
    Uxp, _ = _vector(row, s, xp, t_xp, h_step)
    Uxm, _ = _vector(row, s, xm, t_xm, h_step)
    Utp = _vector(row, s, x_tp, tp, h_step, False)
    Utm = _vector(row, s, x_tm, tm, h_step, False)
    return (Uxp - Uxm) / (2.0 * h_step) + (Utp - Utm) / (2.0 * h_step)


def divergence_verdict(steps: list, maxima: list, scale: float) -> dict:
    """The status of a divergence from its largest |value| at each step of a halving sequence.

    maxima[k] is the largest |divergence_residual| at steps[k], None where no point admitted
    the stencil; scale is the largest |Ux|, |Ut| of the row.  A central difference of values
    of that size cannot resolve less than the rounding floor 64 eps scale / min(steps).

        CONSERVED     every maximum within the rounding floor, or every halving ratio
                      >= 2^1.9: the divergence falls at order 2
        FLOOR         every ratio < 1.5 and the finest maximum above the rounding floor:
                      a divergence that step refinement does not remove
        INCONCLUSIVE  anything else, a step with no admitted point or a non-finite
                      maximum included

    Returns {status, steps, maxima, ratios, floor, notes}.  A ratio whose finer maximum
    is 0 is inf; with a step not admitted or not finite there are no ratios.
    """
    floor = 64.0 * math.ulp(1.0) * scale / min(steps)
    out = {"status": INCONCLUSIVE, "steps": list(steps), "maxima": list(maxima), "ratios": [],
           "floor": floor, "notes": []}
    for h, m in zip(steps, maxima):
        if m is None or not math.isfinite(m):
            out["notes"].append(f"no interior point admitted the divergence stencil at step {h!r}"
                                if m is None else f"the divergence is not finite at step {h!r}")
            return out
    ratios = out["ratios"] = [a / b if b > 0.0 else math.inf for a, b in zip(maxima, maxima[1:])]
    if all(m <= floor for m in maxima):
        out["status"] = CONSERVED
        out["notes"].append(f"every maximum is within the rounding floor {floor:.3e}")
    elif all(r >= _ORDER2 for r in ratios):
        out["status"] = CONSERVED
    elif all(r < 1.5 for r in ratios) and maxima[-1] > floor:
        out["status"] = FLOOR
        out["notes"].append(f"divergence floor {maxima[-1]:.3e} survives step refinement "
                            f"(ratios {['%.2f' % r for r in ratios]})")
    else:
        out["notes"].append("inconclusive: the divergence neither falls at order 2 "
                            "nor sits on a floor above rounding")
    return out
