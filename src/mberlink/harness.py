"""Monte Carlo experiment orchestration.

A trial synthesizes one seeded DS-CDMA stream and runs each configured
detector over the whole of it in turn, so every detector sees the
identical sample sequence (paired comparison).  Each detector is a
per-symbol step that takes a ``(window, reference bit)`` pair and returns
what the trial records: its decision, and for the auto detector the rank
it chose beside it.  The loop stacks those returns, one row per symbol.
The desired user is user 1 (index 0); the reference bit is its true bit
for ``tr_symbols`` symbols and then None, meaning that a detector adapts
on its own decisions.  Every decision is scored against ground truth.
Trials are averaged into per-symbol bit-error-rate traces.  SNR and
user-count sweeps repeat the Monte Carlo run at each grid point; the rank
sweep runs every rank of its grid on one stream per trial, and each rank
is summarized as a run at that rank.  A sweep result keeps every point's run.

Noise level follows SNR (dB) = 10 log10(A1^2 / sigma^2) and the kernel
radius is ``rho_multiplier * sigma`` (with ``rho_multiplier`` alone as a
fallback radius in the degenerate noiseless case, where the criterion
radius would collapse to zero).
"""

import dataclasses
import functools
import json
import math
import numbers
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .baselines import init_full_rank, lms_update, mber_full_rank_update
from .errors import ConfigParseError, ConfigurationError, NumericalError
from .jio_mber import auto_step, init_stack, init_state, jio_step, stack_step
from .signal_model import JakesChannel, UserConfig, generate_gold_family, synthesize_arrays

DETECTOR_NAMES = (
    "jio_mber_fixed",
    "jio_mber_auto",
    "full_rank_lms",
    "full_rank_mber",
)

_GOLD_DEGREES = {31: 5, 127: 7}

# annotation item type -> (the values it admits, what a message calls one)
_KINDS = {int: (numbers.Integral, "integer"), float: (numbers.Real, "number"), str: (str, "name")}

# sweep axis -> (config key holding its grid, config key each grid point sets)
_SWEEP_AXES = {
    "snr": ("snr_sweep", "snr_db"),
    "users": ("users_sweep", "K"),
    "rank": ("rank_sweep", "D"),
}

# steady-state window (symbols) used for "final BER" figures and stderr
FINAL_WINDOW = 500

# a trial whose final-window BER is above this has failed: its detector lost the user
FAILED_TRIAL_BER = 0.2

# LMS is mean-square stable for mu tr R below this (Horowitz & Senne, IEEE TASSP 1981)
LMS_MEAN_SQUARE_LIMIT = 2 / 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; defaults replicate the reference setup.
    Building one, by any route, checks it (:func:`validate_config`)."""

    N: int = 31
    K: int = 5
    Lp: int = 3
    snr_db: float = 15.0
    D: int = 8
    D_min: int = 3
    D_max: int = 20
    J: int = 5
    mu_w: float = 0.005
    mu_S: float = 0.005
    mu_lms: float = 0.105
    mu_fr_mber: float = 0.05
    rho_multiplier: float = 2.0
    tr_symbols: int = 250
    dd_symbols: int = 1500
    doppler: float = 5e-5
    power_profile_db: tuple[float, ...] = (0.0, -7.0, -10.0)
    amplitudes: tuple[float, ...] | None = None
    num_trials: int = 200
    base_seed: int = 1234
    detectors: tuple[str, ...] = DETECTOR_NAMES
    # the grid each sweep axis runs (see _SWEEP_AXES)
    snr_sweep: tuple[float, ...] = (0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0)
    users_sweep: tuple[int, ...] = tuple(range(1, 17))
    rank_sweep: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 16, 20)
    smoothing_window: int = 0

    def __post_init__(self):
        validate_config(self)

    @property
    def M(self) -> int:
        return self.N + self.Lp - 1

    @property
    def num_symbols(self) -> int:
        return self.tr_symbols + self.dd_symbols


def _noise_computable(cfg: ExperimentConfig, snr_db: float) -> bool:
    """Whether :func:`noise_sigma` is finite at ``snr_db`` (0 at inf: noiseless)."""
    try:
        return math.isfinite(noise_sigma(cfg, snr_db))
    except (OverflowError, ZeroDivisionError):  # 10^(snr_db/20) beyond a float
        return False


def _annotation(kind) -> tuple[type, bool]:
    """``(item type, is a tuple)`` of an ExperimentConfig annotation."""
    if typing.get_origin(kind) not in (tuple, None):  # ``tuple[...] | None``
        kind = typing.get_args(kind)[0]
    is_tuple = typing.get_origin(kind) is tuple
    return (typing.get_args(kind)[0] if is_tuple else kind), is_tuple


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigurationError (with the offending field) on any violation,
    such as a non-integer count, a non-finite number (bar ``snr_db = inf``)
    or a negative base_seed; every grid point obeys the rule of the value
    it sets.  Every ExperimentConfig runs it when built."""

    def bad(field_name, message):
        raise ConfigurationError(message, field=field_name)

    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        item, is_tuple = _annotation(f.type)
        kind, noun = _KINDS[item]
        items = value if is_tuple and isinstance(value, tuple) else (value,)
        # True is an Integral too, but no bool is a count, a number or a name
        fits = all(isinstance(v, kind) and not isinstance(v, bool) for v in items)
        if not (is_tuple or fits):
            bad(f.name, f"{f.name} must be one {noun}, got {value!r}")
        if is_tuple and not (fits and isinstance(value, tuple) or value is None is f.default):
            bad(f.name, f"{f.name} must be a tuple of {noun}s, got {value!r}")
    if cfg.N not in _GOLD_DEGREES:
        bad("N", f"spreading gain must be one of {sorted(_GOLD_DEGREES)}, got {cfg.N}")
    family_size = len(_gold_family_cached(_GOLD_DEGREES[cfg.N]))
    if cfg.Lp < 1 or cfg.Lp - 1 > cfg.N:
        bad("Lp", f"need 1 <= Lp <= N+1, got {cfg.Lp}")
    profile = cfg.power_profile_db
    if len(profile) != cfg.Lp:
        bad("power_profile_db", f"power profile has {len(profile)} entries, expected Lp={cfg.Lp}")
    # tap 0 is the reference; a later tap of -inf dB is a path with no power
    if not (math.isfinite(profile[0]) and all(p < math.inf for p in profile)):
        bad("power_profile_db", "power_profile_db must be below inf dB, with tap 0 finite")
    if not 1 <= cfg.D_min <= cfg.D_max <= cfg.M:
        bad("D_min", f"need 1 <= D_min <= D_max <= M={cfg.M}")
    lowest = {"J": 1, "tr_symbols": 1, "dd_symbols": 0, "num_trials": 1, "base_seed": 0}
    for name, least in lowest.items():
        if getattr(cfg, name) < least:
            bad(name, f"need {name} >= {least}, got {getattr(cfg, name)}")
    for name in ("mu_w", "mu_S", "mu_lms", "mu_fr_mber", "doppler"):
        if not 0 <= getattr(cfg, name) < math.inf:
            bad(name, f"{name} must be a finite number >= 0")
    if not 0 < cfg.rho_multiplier < math.inf:
        bad("rho_multiplier", "rho_multiplier must be a finite number > 0")
    if cfg.amplitudes is not None:
        if len(cfg.amplitudes) != cfg.K:
            bad("amplitudes", f"need {cfg.K} amplitudes, got {len(cfg.amplitudes)}")
        if not all(0 < a < math.inf for a in cfg.amplitudes):
            bad("amplitudes", "amplitudes must be finite and positive")
    # one rule per swept value, for it and its grid; after amplitudes, which set the noise
    rules = {
        "snr_db": (lambda s: _noise_computable(cfg, s), "snr_db not NaN, with a noise level"),
        "K": (lambda k: 1 <= k <= family_size, f"1 <= K <= {family_size}"),
        "D": (lambda d: 1 <= d <= cfg.M, f"1 <= D <= M={cfg.M}"),
    }
    for grid_key, point_key in _SWEEP_AXES.values():
        holds, need = rules[point_key]
        if not holds(getattr(cfg, point_key)):
            bad(point_key, f"need {need}, got {getattr(cfg, point_key)}")
        if not getattr(cfg, grid_key):
            bad(grid_key, f"{grid_key} is an empty grid; list at least one point")
        if not all(map(holds, getattr(cfg, grid_key))):
            bad(grid_key, f"{grid_key} sets {point_key}: need {need} at every point")
    if not cfg.detectors:
        bad("detectors", "need at least one detector")
    for det in cfg.detectors:
        if det not in DETECTOR_NAMES:
            bad("detectors", f"unknown detector {det!r}; known: {DETECTOR_NAMES}")
    for key in ("detectors", *(grid_key for grid_key, _ in _SWEEP_AXES.values())):
        entries = getattr(cfg, key)
        if len(set(entries)) < len(entries):
            bad(key, f"{key} repeats an entry: {entries}")
    if not 0 <= cfg.smoothing_window <= cfg.num_symbols:
        bad("smoothing_window", f"smoothing_window must lie in [0, {cfg.num_symbols}]")


# ---------------------------------------------------------------------------
# configuration file parsing
# ---------------------------------------------------------------------------


def _field_parser(kind):
    """A scalar parses as its type, a tuple as a comma list of items (blanks skipped)."""
    item, is_tuple = _annotation(kind)
    if not is_tuple:
        return item
    return lambda text: tuple(item(tok.strip()) for tok in text.split(",") if tok.strip())


_FIELD_PARSERS = {f.name: _field_parser(f.type) for f in dataclasses.fields(ExperimentConfig)}


def parse_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file (UTF-8, ``#`` comments).

    A value is written as its :class:`ExperimentConfig` annotation reads:
    one number, or a comma list for a tuple key.  Unknown keys, malformed
    lines, duplicate keys and invariant violations raise
    :class:`ConfigParseError` naming the line.  Missing keys keep their
    defaults; an empty file yields the full default configuration.
    """
    path = str(path)
    values = {}
    key_lines = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigParseError(path, line_no, f"expected 'key = value', got {raw.strip()!r}")
            key, _, value_text = line.partition("=")
            key = key.strip()
            value_text = value_text.strip()
            if key not in _FIELD_PARSERS:
                raise ConfigParseError(path, line_no, f"unknown key {key!r}")
            if key in values:
                raise ConfigParseError(path, line_no, f"duplicate key {key!r}")
            if not value_text:
                raise ConfigParseError(path, line_no, f"empty value for {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](value_text)
            except ValueError as exc:
                raise ConfigParseError(path, line_no, f"invalid value for {key!r}: {exc}") from exc
            key_lines[key] = line_no
    try:
        return ExperimentConfig(**values)
    except ConfigurationError as exc:
        raise ConfigParseError(path, key_lines.get(exc.field, 0), str(exc)) from exc


# ---------------------------------------------------------------------------
# detectors: each is a step ``(r, b) -> decision`` (``(decision, rank)`` for
# the auto detector) on one symbol's window and reference bit; a reference
# bit of None means "adapt on your own decision" (decision-directed operation)
# ---------------------------------------------------------------------------


def _detector(name: str, cfg: ExperimentConfig, rho: float):
    """Detector ``name``'s step on a fresh state; the auto detector's
    returns ``(decision, rank)``.  The steps are read from this module's
    names here, so a rebinding of them (tracing) applies."""
    if name == "jio_mber_fixed":
        return functools.partial(jio_step, init_state(cfg.M, cfg.D, cfg.mu_w, cfg.mu_S, cfg.J, rho))
    if name == "jio_mber_auto":
        state = init_state(cfg.M, cfg.D_max, cfg.mu_w, cfg.mu_S, cfg.J, rho)
        return functools.partial(auto_step, state, cfg.D_min)
    if name == "full_rank_lms":
        return functools.partial(lms_update, init_full_rank(cfg.M, cfg.mu_lms))
    return functools.partial(mber_full_rank_update, init_full_rank(cfg.M, cfg.mu_fr_mber, rho))


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    """Per-symbol records of one trial (all detectors share the stream).

    ``stage_s`` holds the seconds spent on ``synthesis`` and on each
    detector, keyed by its name.  ``health`` holds counters that flag a
    silently failing detector; they never change a decision.  For
    ``full_rank_lms`` it counts the symbols whose step is unstable and
    gives the trial's mean step load (see :func:`_lms_health`).
    """

    errors: dict
    decisions: dict
    true_bits: np.ndarray
    selected_ranks: dict
    stage_s: dict
    health: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=4)
def _gold_family_cached(degree: int):
    return tuple(generate_gold_family(degree))


def noise_sigma(cfg: ExperimentConfig, snr_db: float) -> float:
    """Noise std per complex chip from the desired user's amplitude."""
    a1 = cfg.amplitudes[0] if cfg.amplitudes else 1.0
    return a1 / 10.0 ** (snr_db / 20.0)


def kernel_radius(cfg: ExperimentConfig, sigma: float) -> float:
    return cfg.rho_multiplier * sigma if sigma > 0 else cfg.rho_multiplier


def _build_users(cfg: ExperimentConfig, trial_seed: int) -> list[UserConfig]:
    family = _gold_family_cached(_GOLD_DEGREES[cfg.N])
    users = []
    for k in range(cfg.K):
        channel_seed = int(
            np.random.SeedSequence(entropy=(trial_seed, k)).generate_state(
                1, np.uint64
            )[0]
        )
        users.append(
            UserConfig(
                amplitude=cfg.amplitudes[k] if cfg.amplitudes else 1.0,
                code=family[k],
                channel=JakesChannel(
                    cfg.power_profile_db, cfg.doppler, seed=channel_seed
                ),
            )
        )
    return users


def _lms_health(windows: np.ndarray, mu: float) -> dict:
    """Symbols where one LMS step cannot shrink its error, and the trial's
    mean step load ``mu * ||r||^2``.

    A step scales the error of its own symbol by ``1 - mu * ||r||^2``, so
    from ``mu * ||r||^2 >= 2`` on it grows instead: enough such symbols
    make the filter diverge while every output stays finite.  The mean
    load estimates ``mu tr R``, set against LMS_MEAN_SQUARE_LIMIT.
    """
    # each complex row read as 2M floats: ||r||^2 in one pass, no temporary
    flat = windows.view(np.float64)
    load = mu * np.einsum("ij,ij->i", flat, flat)
    unstable = np.flatnonzero(load >= 2.0)
    return {
        "unstable_steps": int(unstable.size),
        "first_unstable_step": int(unstable[0]) if unstable.size else None,
        "mean_square_load": float(load.mean()),
    }


def _synthesize(cfg: ExperimentConfig, trial_seed: int):
    """One trial's kernel radius, windows, user 1's true bits, the
    reference bits its detectors adapt on, and the seconds synthesis took."""
    sigma = noise_sigma(cfg, cfg.snr_db)
    rho = kernel_radius(cfg, sigma)
    start = time.perf_counter()
    users = _build_users(cfg, trial_seed)
    windows, bits = synthesize_arrays(users, cfg.num_symbols, sigma, trial_seed)
    synthesized = time.perf_counter()
    truth = bits[:, 0].copy()
    # the true bit trains; None afterwards makes each detector follow itself
    refs = truth[: cfg.tr_symbols].tolist() + [None] * cfg.dd_symbols
    return rho, windows, truth, refs, synthesized - start


def _collect(name: str, step, windows, refs, trial_seed: int):
    """``step(r, b)`` for each window and reference bit, stacked as int16
    rows, one per symbol, and the seconds taken.  A NumericalError is
    re-raised naming ``name``, the symbol and the trial seed."""
    began = time.perf_counter()
    outputs = []
    try:
        # the index is the symbol in progress when the step raises
        for i, (r, b) in enumerate(zip(windows, refs)):
            outputs.append(step(r, b))
    except NumericalError as exc:
        raise NumericalError(f"{name} at symbol {i} of trial seed {trial_seed}: {exc}") from exc
    return np.array(outputs, dtype=np.int16), time.perf_counter() - began


def run_trial(cfg: ExperimentConfig, trial_seed: int) -> TrialResult:
    """One seeded trial over tr_symbols training + dd_symbols DD symbols."""
    rho, windows, truth, refs, synthesis_s = _synthesize(cfg, trial_seed)
    decisions = {}
    ranks = {}
    stage_s = {"synthesis": synthesis_s}
    for name in cfg.detectors:
        rows, stage_s[name] = _collect(name, _detector(name, cfg, rho), windows, refs, trial_seed)
        if rows.ndim == 2:  # (decision, rank) rows
            rows, ranks[name] = rows[:, 0], rows[:, 1].copy()
        decisions[name] = rows.astype(np.int8)
    errors = {name: (dec != truth).astype(np.uint8) for name, dec in decisions.items()}
    health = {}
    if "full_rank_lms" in decisions:
        health["full_rank_lms"] = _lms_health(windows, cfg.mu_lms)
    return TrialResult(
        errors=errors,
        decisions=decisions,
        true_bits=truth,
        selected_ranks=ranks,
        stage_s=stage_s,
        health=health,
    )


def _rank_trial(point_cfgs, trial_seed: int) -> list:
    """One rank-sweep trial: per config of ``point_cfgs`` (a rank each, the
    fixed-rank detector alone) the record :func:`run_trial` gives it, from
    every rank run as one stack on one stream.  The first record's
    ``stage_s`` times synthesis and the whole stack; the others are empty."""
    cfg, ranks = point_cfgs[0], tuple(c.D for c in point_cfgs)
    rho, windows, truth, refs, synthesis_s = _synthesize(cfg, trial_seed)
    stack = init_stack(cfg.M, ranks, cfg.mu_w, cfg.mu_S, cfg.J, rho)
    step = functools.partial(stack_step, stack, ranks)
    name = "jio_mber_fixed"
    decided, fixed_s = _collect(name, step, windows, refs, trial_seed)
    first = {"synthesis": synthesis_s, name: fixed_s}
    return [
        TrialResult(
            {name: (dec != truth).astype(np.uint8)}, {name: dec.astype(np.int8)}, truth, {}, stage_s
        )
        for dec, stage_s in zip(decided.T, [first] + [{}] * (len(ranks) - 1))
    ]


# ---------------------------------------------------------------------------
# Monte Carlo aggregation and sweeps
# ---------------------------------------------------------------------------


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
    # health counters summed over trials (see _sum_health)
    health: dict = field(default_factory=dict)
    # per detector, the seeds of the trials whose final-window BER is above FAILED_TRIAL_BER
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


def _map_trials(worker, cfg: ExperimentConfig, jobs: int) -> list:
    """``worker(seed)`` for the seeds base_seed + t, in trial order, in up
    to ``jobs`` processes (at most one per trial)."""
    if jobs < 1:
        raise ConfigurationError(f"need jobs >= 1, got {jobs}", field="jobs")
    seeds = [cfg.base_seed + t for t in range(cfg.num_trials)]
    if jobs > 1 and cfg.num_trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, cfg.num_trials // (4 * jobs))
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.num_trials)) as pool:
            return list(pool.map(worker, seeds, chunksize=chunk))
    return [worker(seed) for seed in seeds]


def _summarize(cfg: ExperimentConfig, trials, start: float) -> ExperimentResult:
    """``cfg``'s trials, in seed order, as an ExperimentResult: per detector
    the BER trace, each trial's final-window BER, their mean and its
    standard error; ``start`` is when the run began."""
    window = min(FINAL_WINDOW, cfg.num_symbols)
    errors = {name: np.stack([t.errors[name] for t in trials]) for name in cfg.detectors}
    final_trials = {name: e[:, -window:].mean(axis=1) for name, e in errors.items()}
    n = len(trials)
    return ExperimentResult(
        config=cfg,
        ber_trace={name: e.mean(axis=0) for name, e in errors.items()},
        final_ber={name: float(ber.mean()) for name, ber in final_trials.items()},
        final_stderr={
            name: float(ber.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            for name, ber in final_trials.items()
        },
        final_ber_trials=final_trials,
        rank_counts={
            name: sum(np.bincount(t.selected_ranks[name], minlength=cfg.D_max + 1) for t in trials)
            for name in trials[0].selected_ranks
        },
        final_window=window,
        wall_time_s=time.perf_counter() - start,
        stage_s=_sum_stages(t.stage_s for t in trials),
        health=_sum_health(trials),
        failed_trials={
            name: (cfg.base_seed + np.flatnonzero(ber > FAILED_TRIAL_BER)).tolist()
            for name, ber in final_trials.items()
        },
    )


def run_monte_carlo(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Average ``cfg.num_trials`` independent trials (seeds base_seed+t).

    Trials may run in parallel processes (``jobs`` >= 1, at most one per
    trial); aggregation is by trial index, so results are identical for
    any job count.
    """
    start = time.perf_counter()
    return _summarize(cfg, _map_trials(functools.partial(run_trial, cfg), cfg, jobs), start)


def _sum_stages(stage_dicts) -> dict:
    total = {}
    for stages in stage_dicts:
        for stage, seconds in stages.items():
            total[stage] = total.get(stage, 0.0) + seconds
    return total


def _sum_health(trials) -> dict:
    """LMS counts summed over trials, how many trials had any, and the
    earliest first unstable symbol (None if none); the mean step load over
    trials, its mean-square limit and how many trials reach that limit."""
    lms = [t.health["full_rank_lms"] for t in trials if t.health]
    if not lms:
        return {}
    firsts = [h["first_unstable_step"] for h in lms if h["unstable_steps"]]
    loads = [h["mean_square_load"] for h in lms]
    return {
        "full_rank_lms": {
            "unstable_steps": sum(h["unstable_steps"] for h in lms),
            "unstable_trials": len(firsts),
            "first_unstable_step": min(firsts, default=None),
            "mean_square_load": sum(loads) / len(loads),
            "mean_square_limit": LMS_MEAN_SQUARE_LIMIT,
            "overloaded_trials": sum(load >= LMS_MEAN_SQUARE_LIMIT for load in loads),
        }
    }


def sweep(cfg: ExperimentConfig, axis: str, jobs: int = 1) -> SweepResult:
    """Each grid point along ``snr``, ``users`` or ``rank``, run as an ExperimentResult.

    The grid is read from ``snr_sweep``, ``users_sweep`` or ``rank_sweep``
    and each point sets ``snr_db``, ``K`` or ``D`` (``_SWEEP_AXES``); the
    rank axis runs the fixed-rank detector alone (the others do not
    depend on D), and each rank point is summarized as a run at that D
    whose trials come from every rank stacked on one stream (:func:`_rank_trial`).
    Every point reuses the same trial seeds (``base_seed + t``), so points
    are paired by common random numbers: trial t sees the same fading/bit
    realizations at every grid point, which makes trends far less noisy
    than independent points would be.  Every point's config is built, and
    so checked, before the first one runs.
    """
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"axis must be one of {tuple(_SWEEP_AXES)}, got {axis!r}")
    grid_key, point_key = _SWEEP_AXES[axis]
    start = time.perf_counter()
    grid = getattr(cfg, grid_key)
    only = {"detectors": ("jio_mber_fixed",)} if axis == "rank" else {}
    point_cfgs = [dataclasses.replace(cfg, **{point_key: p}, **only) for p in grid]
    if axis == "rank":
        trials = _map_trials(functools.partial(_rank_trial, point_cfgs), cfg, jobs)
        points = [_summarize(c, [t[i] for t in trials], start) for i, c in enumerate(point_cfgs)]
    else:
        points = [run_monte_carlo(point_cfg, jobs=jobs) for point_cfg in point_cfgs]
    return SweepResult(
        axis=axis,
        points=points,
        config=cfg,
        wall_time_s=time.perf_counter() - start,
        stage_s=_sum_stages(point.stage_s for point in points),
        health={_fmt(p): point.health for p, point in zip(grid, points) if point.health},
    )


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


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
