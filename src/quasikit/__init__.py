"""quasikit: computable machinery around quasianalytic weight sequences.

Submodules
----------
sequences    log-domain weight sequences and convex regularization
qa           quasianalyticity criterion series and inequalities
bang         the sequence-space norm and its translation estimate
jets         truncated Taylor arithmetic over a closed-form catalog
gontcharoff  Abel-Gontcharoff polynomial engine
weights      continuous weight functions and their transforms
cli          the ``quasikit`` command-line front end
"""

__version__ = "0.1.0"

from .errors import ConditioningError, DomainError, QuasikitError, ValidationError
from .sequences import (
    LogSequence,
    RegularizedSequence,
    SequenceSpec,
    convex_regularize,
    is_log_convex,
    make_sequence,
    ratio_sequence,
    root_sequence,
)
from .series import SeriesReport, diagnose_series
from .qa import (
    QAReport,
    analyze,
    beta_sequence,
    carleman_inequality_check,
    carleman_series,
    liminf_check,
    ratio_series,
    root_series,
)
from .bang import (
    BangNormResult,
    BangVector,
    bang_distance,
    bang_norm,
    bang_norm_bruteforce,
    function_sequence,
    growth_estimate_check,
)
from .jets import (
    EnvelopeReport,
    FunctionSpec,
    Jet,
    derivative_envelope,
    derivative_tail_sup,
    jet_derivatives,
    jet_eval,
    monotonicity_check,
    translation_estimate_check,
    zero_spacing_experiment,
)
from .gontcharoff import (
    GontcharoffPoly,
    abel_expand,
    build,
    cn_membership_bound,
    decomposition_residual,
    gontcharoff_bound,
    identity_sweep,
    integral_oracle,
    null_test_bound,
    swap_identity_residual,
)
from .weights import (
    WeightFunction,
    algebra_check,
    analytic_criterion,
    integral_test,
    invariant_battery,
    loglog_asymptotics_check,
    m_eval,
    make_weight,
    omega,
    ratio_series_weight,
    shift_bound_check,
    transform_grid,
    transforms,
    weight_inf,
    weight_inf_integer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
