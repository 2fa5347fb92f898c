"""Solvers for non-diffusive variational problems with gradient constraints.

The package discretizes the flux-side (pre-dual) formulation with lowest
order Raviart-Thomas / piecewise-constant mixed finite elements, smooths the
nonsmooth norm term with a Huber kernel, and drives a damped Newton method
through a continuation schedule in the smoothing radius.
"""

from .mesh import (ALL_DIRICHLET, ALL_NEUMANN, BoundaryPartition, Mesh, Rect,
                   UNIT_SQUARE, build_rect_mesh)
from .problems import (SCENARIOS, ConstantAlpha, ConstantSource, HalfPlane,
                       HalfPlaneSource, MeasureLineAlpha, PiecewiseAlpha,
                       PresetSource, ProblemSpec, exact_solution_ex1, scenario)
from .solver import (Diagnostics, DiscreteProblem, DiscreteSolution,
                     LineSearchStalled, MaxIterationsExceeded, NewtonRun, SolverConfig,
                     SolverError, StudyResult, continuation_solve, convergence_study,
                     diagnostics, newton_solve, recover_u, recovered_gradient, residual,
                     tau_schedule)
from .evolution import EvolutionSpec, Trajectory, conservation_report, run as run_evolution

__version__ = "0.1.0"

__all__ = [
    "ALL_DIRICHLET", "ALL_NEUMANN", "BoundaryPartition", "Mesh", "Rect",
    "UNIT_SQUARE", "build_rect_mesh",
    "SCENARIOS", "ConstantAlpha", "ConstantSource", "HalfPlane",
    "HalfPlaneSource", "MeasureLineAlpha", "PiecewiseAlpha", "PresetSource",
    "ProblemSpec", "exact_solution_ex1", "scenario",
    "Diagnostics", "DiscreteProblem", "DiscreteSolution", "LineSearchStalled",
    "MaxIterationsExceeded", "NewtonRun", "SolverConfig", "SolverError", "StudyResult",
    "continuation_solve", "convergence_study", "diagnostics", "newton_solve",
    "recover_u", "recovered_gradient", "residual", "tau_schedule",
    "EvolutionSpec", "Trajectory", "conservation_report", "run_evolution",
]
