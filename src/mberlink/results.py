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
from .config import _SWEEP_AXES, ExperimentConfig


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


@dataclass
class SweepResult:
    """Each grid point's run along ``axis``, in grid order."""

    axis: str
    points: list
    config: ExperimentConfig
    wall_time_s: float
    # stage seconds summed over every grid point's trials
    stage_s: dict = field(default_factory=dict)
    # each grid point's health counters, keyed by its CSV axis value
    health: dict = field(default_factory=dict)


def smooth_trace(trace: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average for plotting; window <= 1 is a no-op.

    Near either end the window holds fewer samples, and each output is
    the mean of the samples actually inside it.  The output has
    ``len(trace)`` values for any window, longer than the trace or not.
    """
    if window <= 1:
        return trace
    kernel = np.ones(window)
    # output i averages trace[i - window // 2 : i + (window + 1) // 2]
    centre = slice((window - 1) // 2, (window - 1) // 2 + len(trace))
    counts = np.convolve(np.ones(len(trace)), kernel)[centre]
    return np.convolve(trace, kernel)[centre] / counts


def _fmt(value: float) -> str:
    return "%.6g" % value


def _json_value(value):
    """A config or health value for JSON, a non-finite float as text ("inf" parses back)."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def emit_csv(result, path) -> None:
    """Write an experiment or sweep result as CSV plus a JSON sidecar.

    Trace results use ``symbol_index,detector,ber`` rows (optionally
    smoothed per the config); sweeps use ``axis_value,detector,ber,stderr``
    rows, one per grid point and detector, from that point's run.  Numeric
    values carry 6 significant digits.  Output is deterministic for a given result.
    """
    path = str(path)
    if isinstance(result, ExperimentResult):
        window = result.config.smoothing_window
        header = "symbol_index,detector,ber"
        rows = [
            f"{i},{name},{_fmt(ber)}"
            for name, trace in result.ber_trace.items()
            for i, ber in enumerate(smooth_trace(trace, window))
        ]
        meta = {
            "kind": "trace",
            "final_window": result.final_window,
            "rank_counts": {name: counts.tolist() for name, counts in result.rank_counts.items()},
            "failed_trials": result.failed_trials,
        }
    elif isinstance(result, SweepResult):
        header = "axis_value,detector,ber,stderr"
        point_key = _SWEEP_AXES[result.axis][1]
        rows = [
            f"{_fmt(getattr(point.config, point_key))},{name},"
            f"{_fmt(point.final_ber[name])},{_fmt(point.final_stderr[name])}"
            for point in result.points
            for name in point.config.detectors
        ]
        meta = {"kind": "sweep", "axis": result.axis}
    else:
        raise TypeError(f"cannot emit {type(result).__name__} as CSV")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in [header, *rows])
    meta.update(
        version=f"mberlink-{__version__}",
        environment={"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__},
        wall_time_s=result.wall_time_s,
        stage_s=result.stage_s,
        health=_json_value(result.health),
        config=_json_value(dataclasses.asdict(result.config)),
    )
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
