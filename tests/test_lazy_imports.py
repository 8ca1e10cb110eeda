"""Import-path guard: a default run loads numpy and mberlink only.

mberlink needs no scipy: ``q_function`` is the standard library's
``math.erfc``, and the harness imports its process pool only for
``jobs > 1``.  These tests pin the run path's imports, and pin the
Q-function bit for bit to ``0.5 * math.erfc(x / math.sqrt(2))``.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import mberlink
from mberlink.detector_core import q_function

_GUARD = """
import dataclasses, sys
import numpy as np
import mberlink.cli
from mberlink.harness import ExperimentConfig, run_monte_carlo, run_trial
from mberlink.jio_mber import auto_step, init_state
cfg = dataclasses.replace(ExperimentConfig(), tr_symbols=20, dd_symbols=30, num_trials=2)
run_trial(cfg, cfg.base_seed)
run_monte_carlo(cfg, jobs=1)
auto_step(init_state(4, 3, 0.1, 0.1, 1, 1.0), 1, np.ones(4, complex))
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


def _stdlib_q(x):
    return 0.5 * math.erfc(x / math.sqrt(2))


def test_q_function_bit_equal_to_stdlib():
    assert np.array_equal(q_function(GRID), [_stdlib_q(float(x)) for x in GRID])
    for x in GRID:
        q = q_function(float(x))
        assert type(q) is np.float64 and q == _stdlib_q(float(x)), x
    assert q_function(GRID.reshape(5, 13)).shape == (5, 13)
