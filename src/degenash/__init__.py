"""Degenerate elliptic Dirichlet solver, weighted-Sobolev diagnostics, and
a constructive Stackelberg-Nash game solver on the unit square."""

from .analysis import (
    StudyResult,
    Verdict,
    coercivity_check,
    convergence_study,
    embedding_study,
    energy_estimate_study,
    muckenhoupt_study,
    strict_inclusion_demo,
)
from .game import (
    GameConfig,
    NashResult,
    best_response,
    certify,
    cost,
    gradient,
    nash_solve,
    project_ball,
    state_solve,
)
from .grid import (
    DegenerateWeightWarning,
    Grid,
    GridFunction,
    RegionMask,
    build_grid,
    rect_mask,
    weighted_inner,
)
from .norms import (
    ApEstimate,
    NormReport,
    embedding_ratio,
    l2_weighted_norm,
    lq_norm,
    muckenhoupt_panel,
    norms_of,
)
from .operators import (
    DirichletSolver,
    SolveReport,
    SolverError,
    solve_dirichlet,
    weak_form_residual,
)

__version__ = "0.1.0"
