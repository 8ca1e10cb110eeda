"""DS-CDMA link-level simulation and minimum-BER reduced-rank detection."""

from ._version import __version__
from .baselines import FullRankState, init_full_rank, lms_update, mber_full_rank_update
from .complexity import Algorithm, OpCountReport, op_count
from .config import ExperimentConfig, parse_config
from .detector_core import (
    error_probability,
    gradient_S,
    gradient_w,
    q_function,
)
from .errors import ConfigParseError, ConfigurationError, NumericalError
from .harness import run_monte_carlo, run_trial, sweep
from .jio_mber import (
    JioState,
    auto_step,
    init_state,
    jio_step,
    scale_filter,
    update_filter,
)
from .results import ExperimentResult, SweepResult, emit_csv
from .signal_model import (
    JakesChannel,
    SpreadingCode,
    UserConfig,
    build_convolution_matrix,
    generate_gold_family,
    synthesize_arrays,
)

__all__ = [
    "__version__",
    "Algorithm",
    "ConfigParseError",
    "ConfigurationError",
    "ExperimentConfig",
    "ExperimentResult",
    "FullRankState",
    "JakesChannel",
    "JioState",
    "NumericalError",
    "OpCountReport",
    "SpreadingCode",
    "SweepResult",
    "UserConfig",
    "auto_step",
    "build_convolution_matrix",
    "emit_csv",
    "error_probability",
    "generate_gold_family",
    "gradient_S",
    "gradient_w",
    "init_full_rank",
    "init_state",
    "jio_step",
    "lms_update",
    "mber_full_rank_update",
    "op_count",
    "parse_config",
    "q_function",
    "run_monte_carlo",
    "run_trial",
    "scale_filter",
    "sweep",
    "synthesize_arrays",
    "update_filter",
]
