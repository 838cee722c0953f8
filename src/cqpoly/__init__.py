"""Optimization of polynomials and multilinear forms over commutative quaternions."""

from .core import CQuat
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
    RankOneResult,
    SolveReport,
    best_rank_one,
    estimate_ball_min,
    form_ratio_bound,
    maximize_form,
    maximize_poly,
    poly_ratio_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CQuat",
    "CQVector",
    "CQTensor",
    "cc_split",
    "cc_join",
    "outer_product",
    "MultilinearForm",
    "PolyProblem",
    "symmetrize",
    "RandomSource",
    "SolveReport",
    "RankOneResult",
    "maximize_form",
    "maximize_poly",
    "best_rank_one",
    "estimate_ball_min",
    "form_ratio_bound",
    "poly_ratio_bound",
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
