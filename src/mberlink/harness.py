"""Monte Carlo experiment orchestration.

A trial synthesizes one seeded DS-CDMA stream and runs each configured
detector over the whole of it in turn, so every detector sees the
identical sample sequence (paired comparison).  Each detector is a
generator over the trial's ``(window, reference bit)`` pairs that yields
one decision per symbol.  The desired user is user 1 (index 0); the
reference bit is its true bit for ``tr_symbols`` symbols and then None,
meaning that a detector adapts on its own decisions.  Every decision is
scored against ground truth.  Trials are averaged into per-symbol
bit-error-rate traces; sweeps repeat the Monte Carlo run across an SNR,
user-count or rank grid.

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
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .baselines import init_full_rank, lms_update, mber_full_rank_update
from .detector_core import _decide, q_function
from .errors import ConfigParseError, ConfigurationError, NumericalError
from .jio_mber import (
    Mode,
    RankSelectionConfig,
    _adapt,
    _truncated_statistics,
    init_stack,
    init_state,
    jio_step,
    stack_step,
)
from .signal_model import JakesChannel, UserConfig, generate_gold_family, synthesize_arrays

DETECTOR_NAMES = (
    "jio_mber_fixed",
    "jio_mber_auto",
    "full_rank_lms",
    "full_rank_mber",
)

_GOLD_DEGREES = {31: 5, 127: 7}

# sweep axis -> (config key holding its grid, config key each grid point sets)
_SWEEP_AXES = {
    "snr": ("snr_sweep", "snr_db"),
    "users": ("users_sweep", "K"),
    "rank": ("rank_sweep", "D"),
}

# steady-state window (symbols) used for "final BER" figures and stderr
FINAL_WINDOW = 500


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; defaults replicate the reference setup."""

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
    rank_averaging: float = 0.0
    smoothing_window: int = 0

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


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigurationError (with the offending field) on any violation,
    such as a non-finite number (bar ``snr_db = inf``) or a negative base_seed."""

    def bad(field_name, message):
        raise ConfigurationError(message, field=field_name)

    if cfg.N not in _GOLD_DEGREES:
        bad("N", f"spreading gain must be one of {sorted(_GOLD_DEGREES)}, got {cfg.N}")
    family_size = 2 ** _GOLD_DEGREES[cfg.N] + 2
    if not 1 <= cfg.K <= family_size:
        bad("K", f"need 1 <= K <= {family_size}, got {cfg.K}")
    if cfg.Lp < 1 or cfg.Lp - 1 > cfg.N:
        bad("Lp", f"need 1 <= Lp <= N+1, got {cfg.Lp}")
    if len(cfg.power_profile_db) != cfg.Lp:
        bad(
            "power_profile_db",
            f"power profile has {len(cfg.power_profile_db)} entries, expected Lp={cfg.Lp}",
        )
    # tap 0 is the reference; a later tap of -inf dB is a path with no power
    profile = cfg.power_profile_db
    if not (math.isfinite(profile[0]) and all(p < math.inf for p in profile)):
        bad("power_profile_db", "power_profile_db must be below inf dB, with tap 0 finite")
    if not 1 <= cfg.D <= cfg.M:
        bad("D", f"need 1 <= D <= M={cfg.M}, got {cfg.D}")
    if not 1 <= cfg.D_min <= cfg.D_max <= cfg.M:
        bad("D_min", f"need 1 <= D_min <= D_max <= M={cfg.M}")
    if cfg.J < 1:
        bad("J", f"need J >= 1, got {cfg.J}")
    for name in ("mu_w", "mu_S", "mu_lms", "mu_fr_mber"):
        if not 0 <= getattr(cfg, name) < math.inf:
            bad(name, f"{name} must be a finite number >= 0")
    if not 0 < cfg.rho_multiplier < math.inf:
        bad("rho_multiplier", "rho_multiplier must be a finite number > 0")
    if cfg.tr_symbols < 1:
        bad("tr_symbols", "need at least one training symbol")
    if cfg.dd_symbols < 0:
        bad("dd_symbols", "dd_symbols must be >= 0")
    if not 0 <= cfg.doppler < math.inf:
        bad("doppler", "doppler must be a finite number >= 0")
    if cfg.amplitudes is not None:
        if len(cfg.amplitudes) != cfg.K:
            bad("amplitudes", f"need {cfg.K} amplitudes, got {len(cfg.amplitudes)}")
        if not all(0 < a < math.inf for a in cfg.amplitudes):
            bad("amplitudes", "amplitudes must be finite and positive")
    if not isinstance(cfg.snr_db, numbers.Real):
        bad("snr_db", "snr_db must be one number; an SNR grid goes in snr_sweep")
    if math.isnan(cfg.snr_db):
        bad("snr_db", "snr_db must be a number, not NaN")
    if not _noise_computable(cfg, cfg.snr_db):
        bad("snr_db", f"no noise level at snr_db = {cfg.snr_db}; inf means noiseless")
    if cfg.num_trials < 1:
        bad("num_trials", "num_trials must be >= 1")
    if cfg.base_seed < 0:
        bad("base_seed", "base_seed must be >= 0")
    if not cfg.detectors:
        bad("detectors", "need at least one detector")
    for det in cfg.detectors:
        if det not in DETECTOR_NAMES:
            bad("detectors", f"unknown detector {det!r}; known: {DETECTOR_NAMES}")
    for grid_key, _ in _SWEEP_AXES.values():
        if not getattr(cfg, grid_key):
            bad(grid_key, f"{grid_key} is an empty grid; list at least one point")
    if not all(_noise_computable(cfg, v) for v in cfg.snr_sweep):
        bad("snr_sweep", "SNRs in snr_sweep must be numbers (not NaN) with a noise level")
    if any(not 1 <= k <= family_size for k in cfg.users_sweep):
        bad("users_sweep", f"user counts must lie in [1, {family_size}]")
    if any(not 1 <= d <= cfg.M for d in cfg.rank_sweep):
        bad("rank_sweep", f"ranks must lie in [1, M={cfg.M}]")
    if not 0.0 <= cfg.rank_averaging < 1.0:
        bad("rank_averaging", "rank_averaging must be in [0, 1)")
    if not 0 <= cfg.smoothing_window <= cfg.num_symbols:
        bad("smoothing_window", f"smoothing_window must lie in [0, {cfg.num_symbols}]")


# ---------------------------------------------------------------------------
# configuration file parsing
# ---------------------------------------------------------------------------


def _field_parser(kind):
    """``int`` and ``float`` parse as themselves; ``tuple[item, ...]``, or
    that ``| None``, as a comma list of ``item`` that skips blank entries."""
    if kind in (int, float):
        return kind
    if typing.get_origin(kind) is not tuple:
        kind = typing.get_args(kind)[0]
    item = typing.get_args(kind)[0]
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
                raise ConfigParseError(
                    path, line_no, f"invalid value for {key!r}: {exc}"
                ) from exc
            key_lines[key] = line_no
    cfg = dataclasses.replace(ExperimentConfig(), **values)
    try:
        validate_config(cfg)
    except ConfigurationError as exc:
        line = key_lines.get(exc.field, 0)
        raise ConfigParseError(path, line, str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# detectors: each runs over a trial's (window, reference bit) pairs and
# yields one decision per symbol; a reference bit of None means "adapt on
# your own decision" (decision-directed operation)
# ---------------------------------------------------------------------------


def _jio_fixed(state, stream):
    for r, b in stream:
        state.mode = Mode.DECISION_DIRECTED if b is None else Mode.TRAINING
        yield jio_step(state, r, b)[1]


def _jio_auto(
    state, ranks: RankSelectionConfig, averaging: float, stream, chosen: list
):
    """Adapts at D_max; detects at the per-symbol rank chosen by the rule
    of :func:`~mberlink.jio_mber.select_rank` (referenced to the D_max
    state's own decision when ``b`` is None) and appends it to ``chosen``."""
    avg = None
    for r, b in stream:
        stat, xr, z, SH = _truncated_statistics(state, ranks, r, b)
        if averaging > 0.0:
            # extension: exponentially averaged error-probability metric
            p = q_function(stat / state.rho)
            avg = p if avg is None else averaging * avg + (1 - averaging) * p
            pick = int(np.argmin(avg))
        else:
            pick = int(np.argmax(stat))
        chosen.append(ranks.d_min + pick)
        decided = _decide(xr[pick])
        _adapt(state, r, decided if b is None else b, SH, z)
        yield decided


def _full_rank(update, state, stream):
    """Decides on ``w^H r``, then steps ``update`` (a baselines rule)."""
    for r, b in stream:
        wr = np.vdot(state.w, r)
        decided = _decide(wr.real)
        update(state, r, decided if b is None else b, wr)
        yield decided


def _detector(name: str, cfg: ExperimentConfig, rho: float, stream, chosen: list):
    """Start detector ``name`` on ``stream``.  The full-rank rules are read
    from this module's names here, so a rebinding of them (tracing) applies."""
    if name == "jio_mber_fixed":
        state = init_state(cfg.M, cfg.D, cfg.mu_w, cfg.mu_S, cfg.J, rho)
        return _jio_fixed(state, stream)
    if name == "jio_mber_auto":
        state = init_state(cfg.M, cfg.D_max, cfg.mu_w, cfg.mu_S, cfg.J, rho)
        ranks = RankSelectionConfig(cfg.D_min, cfg.D_max)
        return _jio_auto(state, ranks, cfg.rank_averaging, stream, chosen)
    if name == "full_rank_lms":
        return _full_rank(lms_update, init_full_rank(cfg.M, cfg.mu_lms), stream)
    return _full_rank(
        mber_full_rank_update, init_full_rank(cfg.M, cfg.mu_fr_mber, rho), stream
    )


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    """Per-symbol records of one trial (all detectors share the stream).

    ``stage_s`` holds the seconds spent on ``synthesis`` and on each
    detector, keyed by its name.  ``health`` holds counters that flag a
    silently failing detector; they never change a decision.  For
    ``full_rank_lms`` it counts the symbols whose step is unstable (see
    :func:`_lms_health`).
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
    """Symbols where one LMS step cannot shrink its error.

    A step scales the error of its own symbol by ``1 - mu * ||r||^2``, so
    from ``mu * ||r||^2 >= 2`` on it grows instead: enough such symbols
    make the filter diverge while every output stays finite.
    """
    # each complex row read as 2M floats: ||r||^2 in one pass, no temporary
    flat = windows.view(np.float64)
    unstable = np.flatnonzero(mu * np.einsum("ij,ij->i", flat, flat) >= 2.0)
    return {
        "unstable_steps": int(unstable.size),
        "first_unstable_step": int(unstable[0]) if unstable.size else None,
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
    truth = bits[:, 0]
    # the true bit trains; None afterwards makes each detector follow itself
    refs = truth[: cfg.tr_symbols].tolist() + [None] * cfg.dd_symbols
    return rho, windows, truth, refs, synthesized - start


def _collect(name: str, detector, decided: np.ndarray, trial_seed: int) -> float:
    """Store the detector's decisions for each symbol in ``decided``, row by
    row; returns the seconds taken.  A NumericalError is re-raised naming
    ``name``, the symbol and the trial seed."""
    began = time.perf_counter()
    try:
        # the index is the symbol in progress when the detector raises
        for i in range(len(decided)):
            decided[i] = next(detector)
    except NumericalError as exc:
        raise NumericalError(f"{name} at symbol {i} of trial seed {trial_seed}: {exc}") from exc
    return time.perf_counter() - began


def run_trial(cfg: ExperimentConfig, trial_seed: int) -> TrialResult:
    """One seeded trial over tr_symbols training + dd_symbols DD symbols."""
    validate_config(cfg)
    rho, windows, truth, refs, synthesis_s = _synthesize(cfg, trial_seed)
    decisions = {}
    ranks = {}
    stage_s = {"synthesis": synthesis_s}
    for name in cfg.detectors:
        chosen = []
        detector = _detector(name, cfg, rho, zip(windows, refs), chosen)
        decisions[name] = np.zeros(cfg.num_symbols, dtype=np.int8)
        stage_s[name] = _collect(name, detector, decisions[name], trial_seed)
        if name == "jio_mber_auto":
            ranks[name] = np.array(chosen, dtype=np.int16)
    errors = {name: (dec != truth).astype(np.uint8) for name, dec in decisions.items()}
    health = {}
    if "full_rank_lms" in decisions:
        health["full_rank_lms"] = _lms_health(windows, cfg.mu_lms)
    return TrialResult(
        errors=errors,
        decisions=decisions,
        true_bits=truth.copy(),
        selected_ranks=ranks,
        stage_s=stage_s,
        health=health,
    )


def _rank_trial(cfg: ExperimentConfig, ranks: tuple, trial_seed: int) -> TrialResult:
    """One rank-sweep trial: the fixed-rank detector at every rank of
    ``ranks`` on one stream, as one stack.  Results are keyed by grid
    index, and ``stage_s`` times the whole stack as ``jio_mber_fixed``."""
    rho, windows, truth, refs, synthesis_s = _synthesize(cfg, trial_seed)
    stack = init_stack(cfg.M, ranks, cfg.mu_w, cfg.mu_S, cfg.J, rho)
    decided = np.zeros((cfg.num_symbols, len(ranks)), dtype=np.int8)
    steps = (stack_step(stack, ranks, r, b) for r, b in zip(windows, refs))
    fixed_s = _collect("jio_mber_fixed", steps, decided, trial_seed)
    errors = (decided != truth[:, None]).astype(np.uint8)
    stage_s = {"synthesis": synthesis_s, "jio_mber_fixed": fixed_s}
    return TrialResult(dict(enumerate(errors.T)), dict(enumerate(decided.T)), truth, {}, stage_s)


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


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    detector: str
    ber: float
    stderr: float


@dataclass
class SweepResult:
    axis: str
    rows: list
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


def _aggregate(trials, keys, num_symbols: int):
    """Per key of the trials' ``errors``: the BER trace, each trial's
    final-window BER, their mean and its standard error, as four dicts."""
    window = min(FINAL_WINDOW, num_symbols)
    traces, per_trials, means, stderrs = {}, {}, {}, {}
    for key in keys:
        stacked = np.stack([t.errors[key] for t in trials])
        traces[key] = stacked.mean(axis=0)
        per_trial = stacked[:, num_symbols - window :].mean(axis=1)
        per_trials[key] = per_trial
        means[key] = float(per_trial.mean())
        stderrs[key] = (
            float(per_trial.std(ddof=1) / np.sqrt(len(per_trial))) if len(per_trial) > 1 else 0.0
        )
    return traces, per_trials, means, stderrs


def run_monte_carlo(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Average ``cfg.num_trials`` independent trials (seeds base_seed+t).

    Trials may run in parallel processes (``jobs`` >= 1, at most one per
    trial); aggregation is by trial index, so results are identical for
    any job count.
    """
    validate_config(cfg)
    start = time.perf_counter()
    trials = _map_trials(functools.partial(run_trial, cfg), cfg, jobs)
    ber_trace, final_trials, final_ber, final_stderr = _aggregate(
        trials, cfg.detectors, cfg.num_symbols
    )
    rank_counts = {}
    if "jio_mber_auto" in cfg.detectors:
        counts = np.zeros(cfg.D_max + 1, dtype=np.int64)
        for t in trials:
            counts += np.bincount(t.selected_ranks["jio_mber_auto"], minlength=cfg.D_max + 1)
        rank_counts["jio_mber_auto"] = counts
    return ExperimentResult(
        config=cfg,
        ber_trace=ber_trace,
        final_ber=final_ber,
        final_stderr=final_stderr,
        final_ber_trials=final_trials,
        rank_counts=rank_counts,
        final_window=min(FINAL_WINDOW, cfg.num_symbols),
        wall_time_s=time.perf_counter() - start,
        stage_s=_sum_stages(t.stage_s for t in trials),
        health=_sum_health(trials),
    )


def _sum_stages(stage_dicts) -> dict:
    total = {}
    for stages in stage_dicts:
        for stage, seconds in stages.items():
            total[stage] = total.get(stage, 0.0) + seconds
    return total


def _sum_health(trials) -> dict:
    """LMS counts summed over trials, how many trials had any, and the
    earliest first unstable symbol (None if none)."""
    lms = [t.health["full_rank_lms"] for t in trials if t.health]
    if not lms:
        return {}
    firsts = [h["first_unstable_step"] for h in lms if h["unstable_steps"]]
    return {
        "full_rank_lms": {
            "unstable_steps": sum(h["unstable_steps"] for h in lms),
            "unstable_trials": len(firsts),
            "first_unstable_step": min(firsts, default=None),
        }
    }


def sweep(cfg: ExperimentConfig, axis: str, jobs: int = 1) -> SweepResult:
    """One Monte Carlo run per grid point along ``snr``, ``users`` or ``rank``.

    The grid is read from ``snr_sweep``, ``users_sweep`` or ``rank_sweep``
    and each point sets ``snr_db``, ``K`` or ``D`` (``_SWEEP_AXES``); the
    rank axis runs the fixed-rank detector alone (the others do not
    depend on D), every rank on one stream per trial (:func:`_rank_trial`).
    Every point reuses the same trial seeds (``base_seed + t``), so points
    are paired by common random numbers: trial t sees the same fading/bit
    realizations at every grid point, which makes trends far less noisy
    than independent points would be.  Every point's config is built and
    validated before the first one runs.
    """
    validate_config(cfg)
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"axis must be one of {tuple(_SWEEP_AXES)}, got {axis!r}")
    grid_key, point_key = _SWEEP_AXES[axis]
    start = time.perf_counter()
    points = getattr(cfg, grid_key)
    point_cfgs = [dataclasses.replace(cfg, **{point_key: p}) for p in points]
    for point_cfg in point_cfgs:
        validate_config(point_cfg)
    rows, stages, health = [], [], {}
    if axis == "rank":
        trials = _map_trials(functools.partial(_rank_trial, cfg, points), cfg, jobs)
        stages = [t.stage_s for t in trials]
        _, _, ber, se = _aggregate(trials, range(len(points)), cfg.num_symbols)
        rows = [SweepRow(float(d), "jio_mber_fixed", ber[i], se[i]) for i, d in enumerate(points)]
    else:
        for point, point_cfg in zip(points, point_cfgs):
            result = run_monte_carlo(point_cfg, jobs=jobs)
            stages.append(result.stage_s)
            if result.health:
                health[_fmt(float(point))] = result.health
            for name in point_cfg.detectors:
                rows.append(
                    SweepRow(float(point), name, result.final_ber[name], result.final_stderr[name])
                )
    return SweepResult(
        axis=axis,
        rows=rows,
        config=cfg,
        wall_time_s=time.perf_counter() - start,
        stage_s=_sum_stages(stages),
        health=health,
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


def _write_sidecar(path: str, kind: str, result) -> None:
    meta = {
        "kind": kind,
        "version": f"mberlink-{__version__}",
        "wall_time_s": result.wall_time_s,
        "stage_s": result.stage_s,
        "health": result.health,
        "config": dataclasses.asdict(result.config),
    }
    if kind == "trace":
        meta["final_window"] = result.final_window
        meta["rank_counts"] = {
            name: counts.tolist() for name, counts in result.rank_counts.items()
        }
    else:
        meta["axis"] = result.axis
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_csv(result, path) -> None:
    """Write an experiment or sweep result as CSV plus a JSON sidecar.

    Trace results use ``symbol_index,detector,ber`` rows (optionally
    smoothed per the config); sweeps use
    ``axis_value,detector,ber,stderr``.  Numeric values carry 6
    significant digits.  Output is deterministic for a given result.
    """
    path = str(path)
    if isinstance(result, ExperimentResult):
        window = result.config.smoothing_window
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("symbol_index,detector,ber\n")
            for name, trace in result.ber_trace.items():
                values = smooth_trace(trace, window)
                for i, ber in enumerate(values):
                    fh.write(f"{i},{name},{_fmt(ber)}\n")
        _write_sidecar(path, "trace", result)
    elif isinstance(result, SweepResult):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("axis_value,detector,ber,stderr\n")
            for row in result.rows:
                fh.write(
                    f"{_fmt(row.axis_value)},{row.detector},"
                    f"{_fmt(row.ber)},{_fmt(row.stderr)}\n"
                )
        _write_sidecar(path, "sweep", result)
    else:
        raise TypeError(f"cannot emit {type(result).__name__} as CSV")
