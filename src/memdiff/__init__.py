"""memdiff: semigroups of one-dimensional diffusions pasted at a moving membrane.

The library builds the two-parameter family of transition operators of a
diffusion whose generator differs on either side of a moving interface and
whose behavior at the interface mixes partial reflection with jumps.  The
construction goes through fundamental solutions of the two backward
equations, parabolic potentials on the interface, and a system of Volterra
integral equations of the second kind solved by successive approximations.
Independent oracles (closed-form heat and skew Brownian kernels, Monte
Carlo simulation) validate the result.
"""

from .boundary_system import (
    KernelAssembler,
    RightHandSide,
    SolverConfig,
    first_kind_residual,
    holmgren_transform,
    solve_densities,
)
from .mc_oracle import SimConfig, SkewParams, compare, simulate, skew_density
from .parametrix import (
    CorrectionQuadrature,
    FundamentalSolution,
    PrincipalKernel,
    moment_residuals,
)
from .potentials import DensityPair, PotentialEvaluator, graded_mesh
from .problem import (
    Atom,
    CoefficientField,
    InitialFunction,
    JumpMeasure,
    MembranePath,
    Problem,
    SideSpec,
    TimeFunction,
    ValidationReport,
    WentzellData,
    validate,
)
from .semigroup import SemigroupField, SemigroupOperator

__all__ = [
    "Atom",
    "CoefficientField",
    "CorrectionQuadrature",
    "DensityPair",
    "FundamentalSolution",
    "InitialFunction",
    "JumpMeasure",
    "KernelAssembler",
    "MembranePath",
    "PotentialEvaluator",
    "PrincipalKernel",
    "Problem",
    "RightHandSide",
    "SemigroupField",
    "SemigroupOperator",
    "SideSpec",
    "SimConfig",
    "SkewParams",
    "SolverConfig",
    "TimeFunction",
    "ValidationReport",
    "WentzellData",
    "compare",
    "first_kind_residual",
    "graded_mesh",
    "holmgren_transform",
    "moment_residuals",
    "simulate",
    "skew_density",
    "solve_densities",
    "validate",
]

__version__ = "0.1.0"
