"""Verification-grade numerics for a viscous second-order traffic flow model.

Importing the package loads none of its submodules and no numpy: each name
in ``_SUBMODULE`` is imported from its submodule on first access (PEP 562),
so a CLI command pays only for the modules it runs.  The few names the CLI
parser needs before it knows which command runs live here, and their
submodules re-export them.
"""

__version__ = "0.1.0"

# Numerical schemes and boundary conditions of the finite-volume solver.
SCHEMES = ("lax_friedrichs", "rusanov")
BCS = ("periodic", "dirichlet", "outflow")


class DomainError(ValueError):
    """Raised when an evaluation point (or FD stencil) leaves a sampler's domain."""

    index = None    # on a grid: flat (C-order) index of the first failing point


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
