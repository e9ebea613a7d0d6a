"""Statistics of renewal event streams in continuous time.

The package evaluates the laws of the running sum and running maximum
of i.i.d. positive jumps observed at the events of a renewal stream,
with exponential (memoryless) or Mittag-Leffler (heavy-tailed) waiting
times.  Supporting layers: the one-parameter Mittag-Leffler function,
count distributions of the stream, Laplace-domain symbols with numeric
inversion, a relaxation solver whose kernel is the renewal density of a
waiting law, and a Monte Carlo harness that checks
the analytic results path by path.
"""

from .errors import (
    AccuracyError,
    CapabilityError,
    CtstatError,
    DomainError,
    InversionError,
    NumericError,
)
from .laplace import (
    LaplaceSymbol,
    counting_symbol,
    density_symbol,
    invert,
    marginal_symbol,
    memory_kernel_symbol,
    stehfest_weights,
    survival_symbol,
)
from .mc import (
    Ecdf,
    KsReport,
    SimulationPlan,
    build_ecdf,
    ks_distance,
    simulate_chain,
    simulate_statistic,
)
from .relax import (
    RelaxationProblem,
    RelaxationSolution,
    caputo_l1,
    solve_relaxation,
)
from .renewal import (
    CountingPmfTable,
    EpochSequence,
    Exponential,
    MittagLeffler,
    count_at,
    counting_pmf,
    generate_epochs,
    sample_waiting_time,
)
from .special import (
    MlEvaluation,
    ml_one_param,
    ml_survival,
    ml_values,
)
from .stats import (
    DegenerateJumps,
    ExponentialJumps,
    ParetoJumps,
    StatisticKind,
    TransitionMatrix,
    UniformJumps,
    max_cdf,
    mixture_cdf,
    semi_markov_marginal,
    statistic_transform,
    sum_cdf_series,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "CapabilityError",
    "CtstatError",
    "DomainError",
    "InversionError",
    "NumericError",
    "LaplaceSymbol",
    "counting_symbol",
    "density_symbol",
    "invert",
    "marginal_symbol",
    "memory_kernel_symbol",
    "stehfest_weights",
    "survival_symbol",
    "Ecdf",
    "KsReport",
    "SimulationPlan",
    "build_ecdf",
    "ks_distance",
    "simulate_chain",
    "simulate_statistic",
    "RelaxationProblem",
    "RelaxationSolution",
    "caputo_l1",
    "solve_relaxation",
    "CountingPmfTable",
    "EpochSequence",
    "Exponential",
    "MittagLeffler",
    "count_at",
    "counting_pmf",
    "generate_epochs",
    "sample_waiting_time",
    "MlEvaluation",
    "ml_one_param",
    "ml_survival",
    "ml_values",
    "DegenerateJumps",
    "ExponentialJumps",
    "ParetoJumps",
    "StatisticKind",
    "TransitionMatrix",
    "UniformJumps",
    "max_cdf",
    "mixture_cdf",
    "semi_markov_marginal",
    "statistic_transform",
    "sum_cdf_series",
    "__version__",
]
