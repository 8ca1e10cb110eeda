"""What an experiment produces, and how it is written.

A trial's record (:class:`TrialResult`), a Monte Carlo run's summary
(:class:`ExperimentResult`) and a sweep's runs (:class:`SweepResult`),
beside :func:`emit_csv`, which writes a run or a sweep as CSV plus a JSON
sidecar.
"""

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .config import _SWEEP_AXES, ExperimentConfig, _fmt


@dataclass
class TrialResult:
    """Per-symbol records of one trial (all detectors share the stream).

    ``stage_s`` holds the seconds spent on ``synthesis`` and on each
    detector, keyed by its name.  ``health`` holds counters that flag a
    silently failing detector; they never change a decision.  For
    ``full_rank_lms`` it counts the symbols whose step is unstable and
    gives the trial's mean step load (see ``harness._lms_health``).
    """

    decisions: dict
    true_bits: np.ndarray
    selected_ranks: dict
    stage_s: dict
    health: dict = field(default_factory=dict)

    @property
    def errors(self) -> dict:
        """Per detector, uint8 1 where its decision is not the true bit;
        derived on each read, so it always agrees with ``decisions``."""
        truth = self.true_bits
        return {name: (dec != truth).astype(np.uint8) for name, dec in self.decisions.items()}


@dataclass
class ExperimentResult:
    """Trial-averaged BER traces plus steady-state summaries."""

    config: ExperimentConfig
    ber_trace: dict
    final_ber: dict
    final_stderr: dict
    final_ber_trials: dict
    rank_counts: dict
    final_window: int
    wall_time_s: float
    # seconds summed over trials; CPU-seconds across workers when jobs > 1
    stage_s: dict = field(default_factory=dict)
    # health counters summed over trials (see harness._sum_health)
    health: dict = field(default_factory=dict)
    # per detector, the seeds of the trials whose final-window BER is above harness.FAILED_TRIAL_BER
    failed_trials: dict = field(default_factory=dict)
    # per detector, trial seed (as text) -> first 16 hex digits of the sha256 of its int8 decisions
    decision_digests: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    """Each grid point's run along ``axis``, in grid order."""

    axis: str
    points: list
    config: ExperimentConfig
    wall_time_s: float


# what a sidecar writes of each run: a trace's at top level, a sweep's per point
_RUN_BLOCKS = ("rank_counts", "failed_trials", "decision_digests", "health")


def _sum_stages(stage_dicts) -> dict:
    total = {}
    for stages in stage_dicts:
        for stage, seconds in stages.items():
            total[stage] = total.get(stage, 0.0) + seconds
    return total


def _json_value(value):
    """A sidecar value for JSON: an array as a list, a non-finite float as text ("inf")."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def emit_csv(result, path) -> None:
    """Write an experiment or sweep result as CSV plus a JSON sidecar.

    Trace results use ``symbol_index,detector,ber`` rows, each detector's
    trial-averaged BER per symbol: its last ``final_window`` rows average to
    its final BER.  Sweeps use ``axis_value,detector,ber,stderr`` rows, one
    per grid point and detector, from that point's run.  The sidecar holds
    each run's ``_RUN_BLOCKS``: a trace's at top level, a sweep's keyed by axis value.
    Numeric values carry 6 significant digits.  Output is deterministic for a given result.
    """
    path = str(path)
    if isinstance(result, ExperimentResult):
        header = "symbol_index,detector,ber"
        rows = [
            f"{i},{name},{_fmt(ber)}"
            for name, trace in result.ber_trace.items()
            for i, ber in enumerate(trace)
        ]
        meta = {"kind": "trace", "final_window": result.final_window, "stage_s": result.stage_s}
        blocks = {key: getattr(result, key) for key in _RUN_BLOCKS}
    elif isinstance(result, SweepResult):
        header = "axis_value,detector,ber,stderr"
        point_key = _SWEEP_AXES[result.axis][1]
        points = [(_fmt(getattr(point.config, point_key)), point) for point in result.points]
        rows = [
            f"{value},{name},{_fmt(point.final_ber[name])},{_fmt(point.final_stderr[name])}"
            for value, point in points
            for name in point.config.detectors
        ]
        stage_s = _sum_stages(point.stage_s for point in result.points)
        meta = {"kind": "sweep", "axis": result.axis, "stage_s": stage_s}
        blocks = {k: {value: getattr(point, k) for value, point in points} for k in _RUN_BLOCKS}
    else:
        raise TypeError(f"cannot emit {type(result).__name__} as CSV")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in [header, *rows])
    meta.update(
        _json_value(blocks),
        version=f"mberlink-{__version__}",
        environment={"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__},
        wall_time_s=result.wall_time_s,
        config=_json_value(dataclasses.asdict(result.config)),
    )
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
