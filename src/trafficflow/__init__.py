"""Verification-grade numerics for a viscous second-order traffic flow model.

Importing the package loads none of its submodules and no numpy: each name
in ``_SUBMODULE`` is imported from its submodule on first access (PEP 562),
so a CLI command pays only for the modules it runs.  The few names the CLI
needs before it knows which command runs, or before it has checked an entry
spec, live here, and their submodules re-export or extend them.
"""

__version__ = "0.1.0"

# Numerical schemes and boundary conditions of the finite-volume solver.
SCHEMES = ("lax_friedrichs", "rusanov")
BCS = ("periodic", "dirichlet", "outflow")

# Catalog families: kind -> (required entry keys, one-line `catalog list` summary).
# ``catalog.make_entry`` reads each family's keys here.
CATALOG_ROWS = {
    "T1": (("p1", "p2", "b"), "rho=p2/(t+b), u=(x+p1)/(t+b); solves the system for any D"),
    "T2": (("p1", "b"), "branch family in sqrt((x+b)^2-4At^2); D=0"),
    "T3": (("p1", "b"), "rho=(p1/t)exp((t ln t - x - b)/(tA)), u=(x+b)/t+1; "
           "solves the system for any D with A>0"),
    "T4": (("p1", "b"), "constants rho=p1/sqrt(A), u=b+sqrt(A); "
           "solves the system for any D with A>0"),
    "P522": (("p1", "p2", "e2", "e3", "e4"),
             "pressureless similarity solution; claimed for A=0, D=0"),
    "E3ZERO": (("p1", "e1", "e2", "e4"), "T2 family in (e1 x + e4, e1 t + e2); D=0"),
    "KINK": (("mshape", "c1"), "rho=M(x), u=-sqrt(A) tanh(sqrt(A) M'(c1+t)/M); mshape in "
             "{sin, sec, cos, gauss}; D=0; status adjudicated by the harness"),
    "NEGCTRL": ((), "rho=x+2, u=1; deliberate non-solution (negative control)"),
}


def require_entry_keys(kind: str, keys, error=ValueError) -> None:
    """Raise error unless keys are exactly the required keys of catalog family kind.

    Its text names every missing and every unknown key.  The CLI raises it as a usage
    error, before numpy loads; make_entry raises it as a ValueError.
    """
    required = CATALOG_ROWS[kind][0]
    missing = [k for k in required if k not in keys]
    unknown = [k for k in keys if k not in required]
    problems = []
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    if problems:
        raise error(f"entry {kind} requires keys ({', '.join(required) or 'none'}); "
                    + "; ".join(problems))


class DomainError(ValueError):
    """Raised when a point read or an FD stencil leaves a sampler's domain or is not finite."""

    index = None    # on a grid: flat (C-order) index of the first failing point
    failing = None  # on a grid: flat (C-order) mask of every point that failed the same check


# Public name -> the submodule that defines it.
_SUBMODULE = {name: module for module, names in {
    "model": ("ModelParams", "Partials", "SolutionSampler", "StatePoint",
              "characteristic_eigenvectors", "characteristic_speeds", "fd_partials",
              "pde_residual", "pressure", "residual_from_partials"),
    "lie": ("AdjointParams", "InfinitesimalParams", "InvariantTuple", "LieCoeffs",
            "OptimalClass", "adjoint_apply", "adjoint_exp_matrix", "adjoint_series_check",
            "classify_optimal", "commutator", "group_transform", "infinitesimals",
            "invariant_ic", "invariant_tuple", "killing_form"),
    "catalog": ("CatalogEntry", "GridRegion", "VerifyReport", "kink_ode_oracle", "make_entry",
                "reduced_ode_residual_T3", "verify_entry", "verify_sampler",
                "PAPER_CLAIMED", "REFUTED", "VERIFIED"),
    "conservation": ("ConservedPair", "MultiplierConstants", "adjoint_identity_residual",
                     "basic_conserved", "divergence_residual", "self_adjoint_substitution",
                     "symmetry_conserved_vector"),
    "solver": ("ConvergenceResult", "Field", "Grid", "PositivityError", "SolverConfig",
               "SolverError", "Trajectory", "convergence_order", "error_norms", "run", "step"),
    "wavefront": ("AmplitudeProblem", "AmplitudeSolution", "AmplitudeTrace",
                  "amplitude_direct", "amplitude_quadrature", "characteristic_path",
                  "psi_along"),
}.items() for name in names}

__all__ = ["DomainError", *_SUBMODULE]


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
