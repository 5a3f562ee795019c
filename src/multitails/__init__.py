"""Tail approximations for statistics of multinomial allocations.

Moment summaries and corrected normal tail approximations for
power-divergence statistics, cell-count statistics, collision totals
and unfilled-cell counts, together with exact and Monte Carlo oracles
to verify them.
"""

from .errors import (
    DegenerateVarianceError,
    EvaluationError,
    InputExhaustedError,
    ModelValidationError,
    UnsupportedCombinationError,
)
from .kernels import (
    FRAMES,
    FrameMap,
    Kernel,
    LevelDistribution,
    MomentSummary,
    frame_map,
    g_second_moment_aggregates,
    level_tau,
    moment_summary,
    parse_kernel_spec,
    resolve_frame,
    statistic_value,
)
from .model import (
    MultinomialModel,
    Regime,
    RegimeTag,
    classify_regime,
    explicit_model,
    perturbed_uniform_model,
    power_law_model,
    probs_from_csv,
    uniform_model,
)
from .oracle import (
    ExactDistribution,
    McEstimate,
    conditioned_poisson_log_pmf,
    conditioned_poisson_pmf,
    enumerate_distribution,
    exact_count_moments,
    mc_tail_estimate,
    multinomial_log_pmf,
    multinomial_pmf,
    nu_n_constant,
)
from .poisson import (
    CentralMomentTable,
    central_moment,
    central_moment_coeffs,
    expect_fn,
    log_poisson_pmf,
    poisson_pmf,
)
from .tails import (
    CorrectionCoeffs,
    TailResult,
    ZoneInfo,
    correction_coeffs,
    tail_probability,
    zone_bound,
)

__version__ = "0.1.0"
