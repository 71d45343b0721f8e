"""Three-setting Bell test for N-party GHZ correlations.

Exact quantum correlation tensors, the classical bound 2^(N-1) sqrt(3)
certified by two independent maximizers, critical visibility and detection
efficiency thresholds, and a reproducible Monte Carlo model of the experiment
with imperfect visibility and detectors.
"""

from .checks import CheckResult, run_checks
from .experiment import (
    BLOCK_TRIALS,
    ExperimentConfig,
    ExperimentSummary,
    ROUND_ROBIN,
    SETTING_POLICIES,
    SweepPoint,
    TrialBatch,
    UNIFORM_RANDOM,
    auxiliary_tensor,
    generate_trials,
    run_experiment,
    summarize_batch,
    visibility_sweep,
)
from .lhv import (
    DeterministicStrategy,
    PartyPhasor,
    SIGN_TRIPLES,
    bound_attaining_strategy,
    lhv_bound,
    max_score_brute,
    max_score_factorized,
    party_phasor,
    strategy_score,
    violation_factor,
)
from .quantum import (
    CorrelationTensor,
    SettingsGrid,
    build_settings,
    entry_sum_closed_form,
    quantum_tensor,
    setting_phase_classes,
    tensor_entry_sum,
    tensor_norm_sq,
)
from .thresholds import (
    CSV_HEADER,
    ThresholdResult,
    ThresholdRow,
    critical_efficiency,
    critical_visibility,
    efficiency_closed_form,
    percent_string,
    render_table_csv,
    threshold_table,
    two_setting_visibility_threshold,
)

__version__ = "0.3.0"

__all__ = [
    "BLOCK_TRIALS",
    "CSV_HEADER",
    "CheckResult",
    "CorrelationTensor",
    "DeterministicStrategy",
    "ExperimentConfig",
    "ExperimentSummary",
    "PartyPhasor",
    "ROUND_ROBIN",
    "SETTING_POLICIES",
    "SIGN_TRIPLES",
    "SettingsGrid",
    "SweepPoint",
    "ThresholdResult",
    "ThresholdRow",
    "TrialBatch",
    "UNIFORM_RANDOM",
    "auxiliary_tensor",
    "bound_attaining_strategy",
    "build_settings",
    "critical_efficiency",
    "critical_visibility",
    "efficiency_closed_form",
    "entry_sum_closed_form",
    "generate_trials",
    "lhv_bound",
    "max_score_brute",
    "max_score_factorized",
    "party_phasor",
    "percent_string",
    "quantum_tensor",
    "render_table_csv",
    "run_checks",
    "run_experiment",
    "setting_phase_classes",
    "strategy_score",
    "summarize_batch",
    "tensor_entry_sum",
    "tensor_norm_sq",
    "threshold_table",
    "two_setting_visibility_threshold",
    "violation_factor",
    "visibility_sweep",
]
