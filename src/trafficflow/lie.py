"""Four-dimensional point-symmetry algebra of the traffic model.

Basis (generator index 1..4):

    S1 = x d/dx + t d/dt - rho d/drho   (dilation)
    S2 = d/dt                           (time translation)
    S3 = t d/dx + d/du                  (Galilean boost)
    S4 = d/dx                           (space translation)

Nonzero brackets: [S1,S2] = -S2, [S1,S4] = -S4, [S2,S3] = S4 (and their
antisymmetric partners).  The Killing form, adjoint representation,
invariant functions and the one-dimensional optimal-system classification
are all computed from these structure constants, never hard-coded, so the
closed-form values quoted in reports stay falsifiable.

Every value is a float or a tuple of floats, and a matrix is a tuple of
rows, so the module runs without numpy; the model is imported only by
group_transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import DomainError

if TYPE_CHECKING:
    from .model import SolutionSampler

__all__ = [
    "LieCoeffs",
    "AdjointParams",
    "InfinitesimalParams",
    "InvariantTuple",
    "OptimalClass",
    "STRUCTURE_CONSTANTS",
    "basis",
    "commutator",
    "ad_matrix",
    "killing_form",
    "adjoint_exp_matrix",
    "adjoint_composite_matrix",
    "adjoint_apply",
    "adjoint_series_check",
    "invariant_tuple",
    "classify_optimal",
    "infinitesimals",
    "group_transform",
    "invariant_ic",
]


def _require_finite(obj, what: str) -> None:
    for name, value in vars(obj).items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite {what} {name}")


@dataclass(frozen=True)
class LieCoeffs:
    """Coefficients (w1..w4) of an algebra element w1*S1 + ... + w4*S4."""

    w1: float
    w2: float
    w3: float
    w4: float

    def __post_init__(self):
        _require_finite(self, "coefficient")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w1, self.w2, self.w3, self.w4)

    def is_zero(self) -> bool:
        return self.w1 == 0.0 and self.w2 == 0.0 and self.w3 == 0.0 and self.w4 == 0.0


@dataclass(frozen=True)
class AdjointParams:
    """Group parameters (eps1..eps4) of the composed adjoint action."""

    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    eps4: float = 0.0

    def __post_init__(self):
        _require_finite(self, "group parameter")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.eps1, self.eps2, self.eps3, self.eps4)


@dataclass(frozen=True)
class InfinitesimalParams:
    """Constants (e1..e4) parameterising the general point symmetry."""

    e1: float = 0.0
    e2: float = 0.0
    e3: float = 0.0
    e4: float = 0.0

    def __post_init__(self):
        _require_finite(self, "symmetry constant")


def _structure_constants() -> tuple:
    # [S1,S2] = -S2, [S1,S4] = -S4, [S2,S3] = S4 (0-based (i, j, k) below),
    # and each antisymmetric partner [S_j, S_i] = -[S_i, S_j].
    C = [[[0.0] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j, k), c in {(0, 1, 1): -1.0, (0, 3, 3): -1.0, (1, 2, 3): 1.0}.items():
        C[i][j][k] = c
        C[j][i][k] = -c
    return tuple(tuple(tuple(row) for row in plane) for plane in C)


# C[i][j][k]: [S_{i+1}, S_{j+1}] = sum_k C[i][j][k] S_{k+1}, exact integers.
STRUCTURE_CONSTANTS = _structure_constants()


def _total(terms) -> float:
    """Left-to-right sum from 0.0: the order, and so the bits, of the numpy
    reference formulas (np.einsum, np.trace and @ of matrix products)."""
    acc = 0.0
    for term in terms:
        acc += term
    return acc


def basis(i: int) -> LieCoeffs:
    """The i-th basis generator (i in 1..4) as a coefficient vector."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"generator index must be 1..4, got {i}")
    w = [0.0] * 4
    w[i - 1] = 1.0
    return LieCoeffs(*w)


def commutator(a: LieCoeffs, b: LieCoeffs) -> LieCoeffs:
    """Bilinear extension of the basis brackets."""
    av, bv, C = a.as_tuple(), b.as_tuple(), STRUCTURE_CONSTANTS
    return LieCoeffs(*(_total(av[i] * bv[j] * C[i][j][k] for i in range(4) for j in range(4))
                       for k in range(4)))


def ad_matrix(w: LieCoeffs) -> tuple:
    """Rows of ad(w): entry [k][j] is the S_{k+1} coefficient of [w, S_{j+1}],
    so column j holds the coefficients of [w, S_{j+1}]."""
    v, C = w.as_tuple(), STRUCTURE_CONSTANTS
    return tuple(tuple(_total(v[i] * C[i][j][k] for i in range(4)) for j in range(4))
                 for k in range(4))


def killing_form(a: LieCoeffs, b: LieCoeffs) -> float:
    """Trace form trace(ad(a) . ad(b)); equals 2*w1^2 on the diagonal.

    A value that is not finite (the products overflow) is a ValueError.
    """
    A, B = ad_matrix(a), ad_matrix(b)
    K = _total(_total(A[k][j] * B[j][k] for j in range(4)) for k in range(4))
    if not math.isfinite(K):
        raise ValueError(f"Killing form is not finite at a={list(a.as_tuple())}, "
                         f"b={list(b.as_tuple())}")
    return K


def _exp(eps: float, name: str) -> float:
    """e^eps; ValueError naming the parameter when it overflows."""
    try:
        return math.exp(eps)
    except OverflowError:
        raise ValueError(f"{name}={eps} is too large: e^{name} overflows") from None


def _row_times(v: tuple, M: tuple) -> tuple:
    """Row vector v times the matrix M (a tuple of rows)."""
    return tuple(_total(v[k] * M[k][j] for k in range(4)) for j in range(4))


def adjoint_exp_matrix(i: int, eps: float) -> tuple:
    """Adjoint transformation matrix K_i(eps) acting on row coefficient vectors.

    Row-vector action (w1..w4) @ K_i reproduces the adjoint representation
    table: K1 scales w2, w4 by e^eps; K2 sends (w2, w4) to (w2 - eps*w1,
    w4 - eps*w3); K3 sends w4 to w4 + eps*w2; K4 sends w4 to w4 - eps*w1.
    A non-finite eps is a ValueError naming it.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError(f"generator index must be 1..4, got {i}")
    if not math.isfinite(eps):
        raise ValueError(f"eps={eps} is not finite: K_{i}(eps) would hold it")
    K = [[float(r == c) for c in range(4)] for r in range(4)]
    if i == 1:
        K[1][1] = K[3][3] = _exp(eps, "eps")
    elif i == 2:
        K[0][1] = -eps
        K[2][3] = -eps
    elif i == 3:
        K[1][3] = eps
    else:
        K[0][3] = -eps
    return tuple(map(tuple, K))


def adjoint_composite_matrix(e: AdjointParams) -> tuple:
    """Composite adjoint matrix K4(eps4) K3(eps3) K2(eps2) K1(eps1), as rows."""
    M = adjoint_exp_matrix(4, e.eps4)
    for i, eps in ((3, e.eps3), (2, e.eps2), (1, e.eps1)):
        K = adjoint_exp_matrix(i, eps)
        M = tuple(_row_times(row, K) for row in M)
    return M


def adjoint_apply(e: AdjointParams, w: LieCoeffs) -> LieCoeffs:
    """Composite adjoint action on coefficients.

    Closed form of the row-vector product through K4 K3 K2 K1:
        (w1,
         (-w1*eps2 + w2) e^{eps1},
         w3,
         (-w1*eps4 + w2*eps3 - eps2*w3 + w4) e^{eps1})
    """
    s = _exp(e.eps1, "eps1")
    q2 = (-w.w1 * e.eps2 + w.w2) * s
    q4 = (-w.w1 * e.eps4 + w.w2 * e.eps3 - e.eps2 * w.w3 + w.w4) * s
    return LieCoeffs(w.w1, q2, w.w3, q4)


def adjoint_series_check(i: int, j: int, eps: float) -> float:
    """Max-norm gap between the matrix adjoint action and its 3-term BCH series.

    Ad(exp(eps S_i)) S_j is compared against
    S_j - eps [S_i, S_j] + eps^2/2 [S_i, [S_i, S_j]]; the gap is O(eps^3),
    and exactly zero whenever the bracket chain terminates.  eps must be
    finite with a finite square, or the series term eps^2/2 overflows.
    """
    if not math.isfinite(eps * eps):
        raise ValueError(f"eps must be finite with a finite square, got eps={eps}")
    exact = _row_times(basis(j).as_tuple(), adjoint_exp_matrix(i, eps))
    term = series = basis(j).as_tuple()
    ad_T = tuple(zip(*ad_matrix(basis(i))))    # term @ ad^T is ad . term
    fact = 1.0
    for k in range(1, 3):
        term = _row_times(term, ad_T)
        fact *= k
        coef = (-eps) ** k / fact
        series = tuple(s + coef * v for s, v in zip(series, term))
    return max(abs(a - b) for a, b in zip(exact, series))


@dataclass(frozen=True)
class InvariantTuple:
    """Adjoint invariants of an algebra element.

    killing = trace form value, M = w1, N = w3; P flags whether any of
    w1, w2, w3 is nonzero; Q = sgn(w2) when w1 = 0 (else 0);
    R = sgn(w4) when w1 = w2 = w3 = 0 (else 0).
    """

    killing: float
    M: float
    N: float
    P: int
    Q: int
    R: int


def _sgn(v: float) -> int:
    return int(v > 0) - int(v < 0)


def invariant_tuple(w: LieCoeffs) -> InvariantTuple:
    K = killing_form(w, w)
    on_s4 = w.w1 == 0.0 and w.w2 == 0.0 and w.w3 == 0.0
    Q = _sgn(w.w2) if w.w1 == 0.0 else 0
    R = _sgn(w.w4) if on_s4 else 0
    return InvariantTuple(killing=K, M=w.w1, N=w.w3, P=0 if on_s4 else 1, Q=Q, R=R)


@dataclass(frozen=True)
class OptimalClass:
    """Classification of a one-dimensional subalgebra.

    family is one of "T1" (S3 + b S4), "T2" (S1 + b S4), "T3"
    (l1 S1 + l2 S3 + b S4), "T4" (S2 + b S4), "UNREDUCED" (a remainder the
    published reduction procedure does not map onto any family, e.g. a pure
    S4 line) or "ZERO".  ``residue`` carries whatever coefficient vector is
    left over after the adjoint reduction (the S2 component in the T1 case,
    where the group action can only rescale it, never remove it).
    """

    family: str
    b: Optional[int] = None
    l1: Optional[float] = None
    l2: Optional[float] = None
    residue: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def representative(self) -> tuple[float, float, float, float]:
        """Coefficients of the family representative (residue not included)."""
        if self.family == "T1":
            return (0.0, 0.0, 1.0, float(self.b))
        if self.family == "T2":
            return (1.0, 0.0, 0.0, float(self.b))
        if self.family == "T3":
            return (float(self.l1), 0.0, float(self.l2), float(self.b))
        if self.family == "T4":
            return (0.0, 1.0, 0.0, float(self.b))
        return (0.0, 0.0, 0.0, 0.0)


def _require_representable(w: LieCoeffs, why: str, *values: float) -> None:
    """ValueError naming w when a value of its classification overflowed."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"cannot classify w={list(w.as_tuple())}: {why}")


def classify_optimal(w: LieCoeffs) -> tuple[OptimalClass, AdjointParams, float]:
    """Map an algebra element onto its optimal-system family.

    Returns (cls, e, scale) with adjoint_apply(e, w) / scale equal to the
    family representative plus cls.residue.  The (w1, w3) signature selects
    the family since both coefficients are adjoint invariants; a scalar
    rescale (recorded in ``scale``) is allowed because one-dimensional
    subalgebras are unchanged by it.  In the w1 = 0, w3 != 0 family the S2
    coefficient survives every adjoint action up to positive rescaling and
    is reported as a residue rather than dropped; the S4 coefficient keeps
    its sign and is normalised to b in {-1, 0, 1}.  A finite w whose group
    parameters or residue overflow (a leading coefficient tiny against the
    others) raises ValueError naming w.
    """
    if w.is_zero():
        raise ValueError("cannot classify the zero vector")

    if w.w1 != 0.0 and w.w3 != 0.0:
        # l1, l2 invariant; eps2 clears w2, then eps4 clears w4.
        eps2 = w.w2 / w.w1
        eps4 = (w.w4 - eps2 * w.w3) / w.w1
        _require_representable(w, f"its leading coefficient w1={w.w1} is too small", eps2, eps4)
        e = AdjointParams(eps2=eps2, eps4=eps4)
        cls = OptimalClass(family="T3", b=0, l1=w.w1, l2=w.w3)
        return cls, e, 1.0

    if w.w1 != 0.0:
        eps2 = w.w2 / w.w1
        eps4 = w.w4 / w.w1
        _require_representable(w, f"its leading coefficient w1={w.w1} is too small", eps2, eps4)
        e = AdjointParams(eps2=eps2, eps4=eps4)
        return OptimalClass(family="T2", b=0), e, w.w1

    if w.w3 != 0.0:
        scale = w.w3
        w4n = w.w4 / scale
        b = _sgn(w4n)
        eps1 = -math.log(abs(w4n)) if w4n != 0.0 else 0.0
        _require_representable(w, f"its leading coefficient w3={w.w3} is too small", eps1)
        try:
            s2_residue = math.exp(eps1) * w.w2 / scale
        except OverflowError:
            s2_residue = math.inf
        _require_representable(w, f"w4={w.w4} is too small against w2={w.w2} and w3={w.w3}",
                               s2_residue)
        e = AdjointParams(eps1=eps1)
        return OptimalClass(family="T1", b=b, residue=(0.0, s2_residue, 0.0, 0.0)), e, scale

    if w.w2 != 0.0:
        scale = w.w2
        ratio = w.w4 / scale
        _require_representable(w, f"its leading coefficient w2={w.w2} is too small", ratio)
        b = _sgn(ratio)
        e = AdjointParams(eps3=float(b) - ratio)
        return OptimalClass(family="T4", b=b), e, scale

    # Pure S4 line: matches no family of the published optimal system.
    scale = abs(w.w4)
    b = _sgn(w.w4)
    cls = OptimalClass(family="UNREDUCED", b=b, residue=(0.0, 0.0, 0.0, float(b)))
    return cls, AdjointParams(), scale


def infinitesimals(e: InfinitesimalParams, x: float, t: float, rho: float,
                   u: float) -> tuple[float, float, float, float]:
    """General infinitesimals (F_x, F_t, F_rho, F_u) at a point.

    F_x = e1*x + e3*t + e4, F_t = e1*t + e2, F_rho = -e1*rho, F_u = e3.
    """
    return (e.e1 * x + e.e3 * t + e.e4, e.e1 * t + e.e2, -e.e1 * rho, e.e3)


def group_transform(i: int, eps: float, s: SolutionSampler) -> SolutionSampler:
    """One-parameter group action G_i(eps) on a solution sampler.

    G1 (dilation):     rho = e^{-eps} m(x e^{-eps}, t e^{-eps}), u = n(same)
    G2 (time shift):   rho = m(x, t - eps),        u = n(x, t - eps)
    G3 (boost):        rho = m(x - eps t, t),      u = eps + n(x - eps t, t)
    G4 (space shift):  rho = m(x - eps, t),        u = n(x - eps, t)

    The returned sampler transforms analytic partials by the chain rule when
    the input provides them, and composes additively in eps.  A non-finite
    eps, or a G1 eps whose e^{-eps} overflows or underflows to 0, is a
    ValueError.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError(f"generator index must be 1..4, got {i}")
    if not math.isfinite(eps):
        raise ValueError(f"G{i}: eps must be finite, got eps={eps}")
    from .model import Partials, SolutionSampler, StatePoint
    # Dilation a (which also scales the density), boost c, shifts sx and st:
    # the image at (x, t) is the base at (a x - c t - sx, a t - st).
    c, sx, st = {1: (0.0, 0.0, 0.0), 2: (0.0, 0.0, eps), 3: (eps, 0.0, 0.0),
                 4: (0.0, eps, 0.0)}[i]
    try:
        a = math.exp(-eps) if i == 1 else 1.0
    except OverflowError:
        raise ValueError(f"G1: e^-eps overflows at eps={eps}") from None
    if a == 0.0:
        raise ValueError(f"G1: e^-eps underflows to 0 at eps={eps}")

    def pullback(x, t):
        return x * a - (c * t + sx), t * a - st

    def ev(x, t):
        base = s.eval(*pullback(x, t))
        # Without a boost u is passed on as is: adding 0.0 would turn -0.0 into 0.0.
        return StatePoint(rho=a * base.rho, u=c + base.u if c else base.u)

    def pt(x, t):
        d = s.partials(*pullback(x, t))
        return Partials(rho_t=a * a * d.rho_t - c * d.rho_x, rho_x=a * a * d.rho_x,
                        u_t=a * d.u_t - c * d.u_x, u_x=a * d.u_x, u_xx=a * a * d.u_xx)

    def dom(x, t):
        return s.domain(*pullback(x, t))

    return SolutionSampler(eval=ev, domain=dom, partials=pt if s.partials is not None else None)


def invariant_ic(e: InfinitesimalParams, delta: float, x: float, branch: str) -> float:
    """Initial profile Theta(x) left invariant by the symmetry with e2 = 0.

    branch "reciprocal": Theta = delta / (e1*x + e4).
    branch "power":      Theta = delta * (e1*x + e4)^(e3/e1), requires e1 != 0.

    Both rho(x, 0) and u(x, 0) take the same Theta.  The published case
    labels overlap, so branch selection is caller-explicit.  A Theta that
    would not be finite (it overflows) is a DomainError naming the inputs.
    """
    if not (math.isfinite(delta) and math.isfinite(x)):
        raise ValueError(f"delta and x must be finite, got delta={delta}, x={x}")
    if e.e2 != 0.0:
        raise ValueError("invariant initial conditions require e2 = 0")
    base = e.e1 * x + e.e4
    if branch == "reciprocal":
        if base == 0.0:
            raise DomainError("reciprocal branch: e1*x + e4 must be nonzero")
        theta = delta / base
    elif branch == "power":
        if e.e1 == 0.0:
            raise ValueError("power branch requires e1 != 0")
        q = e.e3 / e.e1
        if base == 0.0:
            raise DomainError("power branch: zero base")
        if base < 0.0 and not float(q).is_integer():
            raise DomainError("power branch: negative base with fractional exponent")
        try:
            theta = delta * base ** q
        except OverflowError:
            theta = math.inf
    else:
        raise ValueError(f"unknown branch {branch!r} (expected 'reciprocal' or 'power')")
    if not math.isfinite(theta):
        raise DomainError(f"{branch} branch: Theta is not finite at "
                          f"e=({e.e1}, {e.e2}, {e.e3}, {e.e4}), delta={delta}, x={x}")
    return theta
