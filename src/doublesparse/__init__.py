"""Recovery of signals sparse at two scales: few active groups and few
nonzeros within each active group.

Modules:
    core         grouped matrices, sparsity budgets, support sets, RNG streams
    threshold    the two-stage hard-thresholding operator and a literal oracle
    estimators   iterative thresholding solvers, projection, brute-force LS
    simulate     signal, noise, and design generators plus CSV round trips
    diagnostics  restricted-isometry reports and the correlated-noise statistic
    bounds       rate formulas, greedy packing codes, counting bounds
    harness      Monte-Carlo sweeps, record serialization, the CLI
"""

import importlib

from . import bounds, core, diagnostics, estimators, simulate, threshold
from .core import (
    GroupedMatrix,
    NoiseModel,
    SparsityBudget,
    SupportSet,
    excess_support,
    matrix_to_vec,
    stream,
    support_of,
    vec_to_matrix,
)
from .estimators import (
    HARD_CONTRACTION_CONSTANT,
    HETEROGENEOUS_CONTRACTION_CONSTANT,
    IterationTrace,
    ThresholdSchedule,
    constrained_ls_bruteforce,
    default_lambda0,
    default_lambda_inf,
    dsiht,
    dsiht_heterogeneous,
    iht_baseline,
    project_double_sparse,
)
from .bounds import (
    PackingSet,
    RateValue,
    build_khatri_rao_packing,
    covering_bound_hard,
    covering_bound_soft,
    gv_qary_code,
    gv_sphere_packing,
    qary_code_bound,
    rate_hard,
    rate_soft,
    sphere_packing_bound,
)
from .diagnostics import (
    NOISE_EVENT_CONSTANT,
    DsripReport,
    dsrip,
    noise_event_bound,
    noise_event_stat,
    rec_slack,
    sparse_eigen_constants,
)
from .simulate import (
    Constant,
    LeastFavorable,
    SignalSpec,
    UniformRange,
    gen_design,
    gen_glm,
    gen_regression,
    gen_signal,
)

__version__ = "0.1.0"

# harness is imported on first use, so that ``python -m doublesparse.harness``
# runs it as __main__ without finding it already imported
_HARNESS_NAMES = {"Cell", "ExperimentRecord", "SweepSummary", "emit", "run_cell", "run_sweep"}


def __getattr__(name):
    if name == "harness" or name in _HARNESS_NAMES:
        harness = importlib.import_module(f"{__name__}.harness")
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
