"""Import-path guard: a default run loads numpy and mberlink only.

``q_function`` binds ``scipy.special.erfc`` on first use (``select_rank``
never calls it) and the harness imports its process pool only for
``jobs > 1``; these tests pin both, and
that the lazily bound Q-function is the very same scipy evaluation.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

import mberlink
from mberlink.detector_core import q_function
from mberlink.harness import ExperimentConfig, run_trial

_GUARD = """
import dataclasses, sys
import numpy as np
import mberlink.cli
from mberlink.harness import ExperimentConfig, run_monte_carlo, run_trial
from mberlink.jio_mber import RankSelectionConfig, init_state, select_rank
cfg = dataclasses.replace(ExperimentConfig(), tr_symbols=20, dd_symbols=30, num_trials=2)
run_trial(cfg, cfg.base_seed)
run_monte_carlo(cfg, jobs=1)
select_rank(init_state(4, 3, 0.1, 0.1, 1, 1.0), RankSelectionConfig(1, 3), np.ones(4, complex))
print(",".join(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules))
"""


def test_default_run_loads_neither_scipy_nor_process_pool():
    src = str(Path(mberlink.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + _GUARD],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# the acceptance grid of the Q-function criterion: -8 .. 8 in steps of 0.25
GRID = np.arange(-32, 33) * 0.25


def _scipy_q(x):
    return 0.5 * scipy.special.erfc(x / np.sqrt(2.0))


def test_q_function_bit_equal_to_scipy():
    assert np.array_equal(q_function(GRID), _scipy_q(GRID))
    for x in GRID:
        assert q_function(float(x)) == _scipy_q(float(x)), x


def test_rank_averaging_trial_still_runs():
    cfg = dataclasses.replace(
        ExperimentConfig(),
        rank_averaging=0.5,
        tr_symbols=30,
        dd_symbols=60,
        detectors=("jio_mber_auto",),
    )
    result = run_trial(cfg, cfg.base_seed)
    ranks = result.selected_ranks["jio_mber_auto"]
    assert ranks.shape == (cfg.num_symbols,)
    assert ranks.min() >= cfg.D_min and ranks.max() <= cfg.D_max
