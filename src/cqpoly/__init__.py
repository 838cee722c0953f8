"""Optimization of polynomials and multilinear forms over commutative quaternions."""

from .core import CQuat, I, J, K, ONE, ZERO
from .experiment import (
    ExperimentConfig,
    ExperimentRow,
    all_ones_instance,
    render_csv,
    render_markdown,
    run_experiment,
    summarize,
)
from .forms import (
    MultilinearForm,
    PolyProblem,
    symmetrize,
)
from .io import (
    ParseError,
    dumps_poly,
    dumps_tensor,
    loads_poly,
    loads_tensor,
    read_poly,
    read_tensor,
    write_poly,
    write_tensor,
)
from .linalg import (
    CQMatrix,
    CQTensor,
    CQVector,
    cc_join,
    cc_split,
    outer_product,
)
from .problab import (
    ProbeResult,
    estimate_tail_prob,
)
from .sampling import RandomSource
from .solvers import (
    BilinearSolution,
    RankOneResult,
    SolveReport,
    best_rank_one,
    estimate_ball_min,
    form_ratio_bound,
    form_trial_values,
    maximize_form,
    maximize_poly,
    poly_ratio_bound,
    solve_bilinear,
)

__version__ = "0.1.0"

__all__ = [
    "CQuat",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "CQVector",
    "CQMatrix",
    "CQTensor",
    "cc_split",
    "cc_join",
    "outer_product",
    "MultilinearForm",
    "PolyProblem",
    "symmetrize",
    "RandomSource",
    "BilinearSolution",
    "SolveReport",
    "RankOneResult",
    "solve_bilinear",
    "maximize_form",
    "maximize_poly",
    "best_rank_one",
    "estimate_ball_min",
    "form_ratio_bound",
    "poly_ratio_bound",
    "form_trial_values",
    "ProbeResult",
    "estimate_tail_prob",
    "ExperimentConfig",
    "ExperimentRow",
    "all_ones_instance",
    "run_experiment",
    "summarize",
    "render_csv",
    "render_markdown",
    "ParseError",
    "loads_tensor",
    "dumps_tensor",
    "read_tensor",
    "write_tensor",
    "loads_poly",
    "dumps_poly",
    "read_poly",
    "write_poly",
    "__version__",
]
