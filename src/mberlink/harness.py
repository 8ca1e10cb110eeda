"""Monte Carlo experiment orchestration.

A trial synthesizes one seeded DS-CDMA stream and feeds the identical
sample sequence to every configured detector (paired comparison).  The
desired user is user 1 (index 0); detectors adapt on its true bits for
``tr_symbols`` symbols, then on their own decisions, and every decision
is scored against ground truth.  Trials are averaged into per-symbol
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
import time
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
    init_state,
    jio_step,
)
from .signal_model import JakesChannel, UserConfig, generate_gold_family, synthesize_arrays

DETECTOR_NAMES = (
    "jio_mber_fixed",
    "jio_mber_auto",
    "full_rank_lms",
    "full_rank_mber",
)

_GOLD_DEGREES = {31: 5, 127: 7}

# steady-state window (symbols) used for "final BER" figures and stderr
FINAL_WINDOW = 500


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; defaults replicate the reference setup."""

    N: int = 31
    K: int = 5
    Lp: int = 3
    snr_db: float | tuple[float, ...] = 15.0
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
    users_sweep: tuple[int, ...] | None = None
    rank_sweep: tuple[int, ...] | None = None
    rank_averaging: float = 0.0
    smoothing_window: int = 0

    @property
    def M(self) -> int:
        return self.N + self.Lp - 1

    @property
    def num_symbols(self) -> int:
        return self.tr_symbols + self.dd_symbols


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigurationError (with the offending field) on any violation."""

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
    if not 1 <= cfg.D <= cfg.M:
        bad("D", f"need 1 <= D <= M={cfg.M}, got {cfg.D}")
    if not 1 <= cfg.D_min <= cfg.D_max <= cfg.M:
        bad("D_min", f"need 1 <= D_min <= D_max <= M={cfg.M}")
    if cfg.J < 1:
        bad("J", f"need J >= 1, got {cfg.J}")
    for name in ("mu_w", "mu_S", "mu_lms", "mu_fr_mber"):
        if getattr(cfg, name) < 0:
            bad(name, f"{name} must be >= 0")
    if not cfg.rho_multiplier > 0:
        bad("rho_multiplier", "rho_multiplier must be > 0")
    if cfg.tr_symbols < 1:
        bad("tr_symbols", "need at least one training symbol")
    if cfg.dd_symbols < 0:
        bad("dd_symbols", "dd_symbols must be >= 0")
    if cfg.doppler < 0:
        bad("doppler", "doppler must be >= 0")
    snr_values = cfg.snr_db if isinstance(cfg.snr_db, tuple) else (cfg.snr_db,)
    if len(snr_values) == 0 or any(np.isnan(v) for v in snr_values):
        bad("snr_db", "snr_db must be a number or non-empty list")
    if cfg.amplitudes is not None:
        if len(cfg.amplitudes) != cfg.K:
            bad("amplitudes", f"need {cfg.K} amplitudes, got {len(cfg.amplitudes)}")
        if any(a <= 0 for a in cfg.amplitudes):
            bad("amplitudes", "amplitudes must be positive")
    if cfg.num_trials < 1:
        bad("num_trials", "num_trials must be >= 1")
    if not cfg.detectors:
        bad("detectors", "need at least one detector")
    for det in cfg.detectors:
        if det not in DETECTOR_NAMES:
            bad("detectors", f"unknown detector {det!r}; known: {DETECTOR_NAMES}")
    if cfg.users_sweep is not None and any(
        not 1 <= k <= family_size for k in cfg.users_sweep
    ):
        bad("users_sweep", f"user counts must lie in [1, {family_size}]")
    if cfg.rank_sweep is not None and any(
        not 1 <= d <= cfg.M for d in cfg.rank_sweep
    ):
        bad("rank_sweep", f"ranks must lie in [1, M={cfg.M}]")
    if not 0.0 <= cfg.rank_averaging < 1.0:
        bad("rank_averaging", "rank_averaging must be in [0, 1)")
    if not 0 <= cfg.smoothing_window <= cfg.num_symbols:
        bad("smoothing_window", f"smoothing_window must lie in [0, {cfg.num_symbols}]")


# ---------------------------------------------------------------------------
# configuration file parsing / emission
# ---------------------------------------------------------------------------


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_snr(text: str):
    if "," in text:
        return _parse_float_tuple(text)
    return float(text)


def _parse_detectors(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_FIELD_PARSERS = {
    "N": int,
    "K": int,
    "Lp": int,
    "snr_db": _parse_snr,
    "D": int,
    "D_min": int,
    "D_max": int,
    "J": int,
    "mu_w": float,
    "mu_S": float,
    "mu_lms": float,
    "mu_fr_mber": float,
    "rho_multiplier": float,
    "tr_symbols": int,
    "dd_symbols": int,
    "doppler": float,
    "power_profile_db": _parse_float_tuple,
    "amplitudes": _parse_float_tuple,
    "num_trials": int,
    "base_seed": int,
    "detectors": _parse_detectors,
    "users_sweep": _parse_int_tuple,
    "rank_sweep": _parse_int_tuple,
    "rank_averaging": float,
    "smoothing_window": int,
}


def parse_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file (UTF-8, ``#`` comments).

    Unknown keys, malformed lines, duplicate keys and invariant
    violations raise :class:`ConfigParseError` naming the line.
    Missing keys keep their defaults; an empty file yields the full
    default configuration.
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


def format_config(cfg: ExperimentConfig) -> str:
    """Serialize a config in the flat file format (parse round-trips)."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# detector adapters
# ---------------------------------------------------------------------------


class _JioFixedAdapter:
    def __init__(self, cfg: ExperimentConfig, rho: float):
        self.state = init_state(cfg.M, cfg.D, cfg.mu_w, cfg.mu_S, cfg.J, rho)

    def step(self, r, true_bit, training):
        self.state.mode = Mode.TRAINING if training else Mode.DECISION_DIRECTED
        _, decided = jio_step(self.state, r, true_bit if training else None)
        return decided


class _JioAutoAdapter:
    """Adapts at D_max; detects at the per-symbol rank chosen by the rule
    of :func:`~mberlink.jio_mber.select_rank`, referenced to the true bit
    in training and to the D_max state's own decision afterwards."""

    def __init__(self, cfg: ExperimentConfig, rho: float):
        self.state = init_state(cfg.M, cfg.D_max, cfg.mu_w, cfg.mu_S, cfg.J, rho)
        self.ranks = RankSelectionConfig(cfg.D_min, cfg.D_max)
        self.averaging = cfg.rank_averaging
        self._avg = None
        self.last_rank = cfg.D_min

    def step(self, r, true_bit, training):
        state = self.state
        stat, xr, z, SH = _truncated_statistics(
            state, self.ranks, r, true_bit if training else None
        )
        if self.averaging > 0.0:
            # extension: exponentially averaged error-probability metric
            p = q_function(stat / state.rho)
            lam = self.averaging
            self._avg = p if self._avg is None else lam * self._avg + (1 - lam) * p
            pick = int(np.argmin(self._avg))
        else:
            pick = int(np.argmax(stat))
        self.last_rank = self.ranks.d_min + pick
        decided = _decide(xr[pick])
        _adapt(state, r, true_bit if training else decided, SH, z)
        return decided


class _FullRankAdapter:
    """Decides on ``w^H r``, then steps ``update`` (a baselines rule)."""

    def __init__(self, update, M: int, mu: float, rho: float | None = None):
        self.update = update
        self.state = init_full_rank(M, mu, rho)

    def step(self, r, true_bit, training):
        wr = np.vdot(self.state.w, r)
        decided = _decide(wr.real)
        self.update(self.state, r, true_bit if training else decided, wr)
        return decided


# the full-rank entries read this module's update names when a trial
# builds its detectors, so a rebinding of those names (tracing) applies
_ADAPTERS = {
    "jio_mber_fixed": _JioFixedAdapter,
    "jio_mber_auto": _JioAutoAdapter,
    "full_rank_lms": lambda cfg, rho: _FullRankAdapter(lms_update, cfg.M, cfg.mu_lms),
    "full_rank_mber": lambda cfg, rho: _FullRankAdapter(
        mber_full_rank_update, cfg.M, cfg.mu_fr_mber, rho
    ),
}


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    """Per-symbol records of one trial (all detectors share the stream).

    ``health`` holds counters that flag a silently failing detector; they
    never change a decision.  For ``full_rank_lms`` it counts the symbols
    whose step is unstable (see :func:`_lms_health`).
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


def run_trial(cfg: ExperimentConfig, trial_seed: int) -> TrialResult:
    """One seeded trial over tr_symbols training + dd_symbols DD symbols."""
    validate_config(cfg)
    if isinstance(cfg.snr_db, tuple):
        raise ConfigurationError(
            "run_trial needs a scalar snr_db; use sweep() for lists", field="snr_db"
        )
    sigma = noise_sigma(cfg, cfg.snr_db)
    rho = kernel_radius(cfg, sigma)
    start = time.perf_counter()
    users = _build_users(cfg, trial_seed)
    num_symbols = cfg.num_symbols
    windows, bits = synthesize_arrays(users, num_symbols, sigma, trial_seed)
    synthesized = time.perf_counter()

    detectors = {name: _ADAPTERS[name](cfg, rho) for name in cfg.detectors}
    decisions = {name: np.zeros(num_symbols, dtype=np.int8) for name in cfg.detectors}
    ranks = {
        name: np.zeros(num_symbols, dtype=np.int16)
        for name in cfg.detectors
        if name == "jio_mber_auto"
    }

    tr = cfg.tr_symbols
    truth = bits[:, 0]
    for i, true_bit in enumerate(truth.tolist()):
        training = i < tr
        r = windows[i]
        for name, det in detectors.items():
            try:
                decided = det.step(r, true_bit, training)
            except NumericalError as exc:
                raise NumericalError(
                    f"{name} at symbol {i} of trial seed {trial_seed}: {exc}"
                ) from exc
            decisions[name][i] = decided
            if name in ranks:
                ranks[name][i] = det.last_rank
    errors = {name: (dec != truth).astype(np.uint8) for name, dec in decisions.items()}
    health = {}
    if "full_rank_lms" in detectors:
        health["full_rank_lms"] = _lms_health(windows, cfg.mu_lms)
    return TrialResult(
        errors=errors,
        decisions=decisions,
        true_bits=truth.copy(),
        selected_ranks=ranks,
        stage_s={
            "synthesis": synthesized - start,
            "detection": time.perf_counter() - synthesized,
        },
        health=health,
    )


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


def run_monte_carlo(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Average ``cfg.num_trials`` independent trials (seeds base_seed+t).

    Trials may run in parallel processes (``jobs`` >= 1, at most one per
    trial); aggregation is by trial index, so results are identical for
    any job count.
    """
    validate_config(cfg)
    if isinstance(cfg.snr_db, tuple):
        raise ConfigurationError(
            "a list of snr_db values needs sweep --axis snr", field="snr_db"
        )
    if jobs < 1:
        raise ConfigurationError(f"need jobs >= 1, got {jobs}", field="jobs")
    start = time.perf_counter()
    seeds = [cfg.base_seed + t for t in range(cfg.num_trials)]
    worker = functools.partial(run_trial, cfg)
    if jobs > 1 and cfg.num_trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, cfg.num_trials // (4 * jobs))
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.num_trials)) as pool:
            trials = list(pool.map(worker, seeds, chunksize=chunk))
    else:
        trials = [worker(seed) for seed in seeds]

    num_symbols = cfg.num_symbols
    window = min(FINAL_WINDOW, num_symbols)
    ber_trace = {}
    final_ber = {}
    final_stderr = {}
    final_trials = {}
    rank_counts = {}
    for name in cfg.detectors:
        stacked = np.stack([t.errors[name] for t in trials])
        ber_trace[name] = stacked.mean(axis=0)
        per_trial = stacked[:, num_symbols - window :].mean(axis=1)
        final_trials[name] = per_trial
        final_ber[name] = float(per_trial.mean())
        final_stderr[name] = (
            float(per_trial.std(ddof=1) / np.sqrt(len(per_trial)))
            if len(per_trial) > 1
            else 0.0
        )
        if name == "jio_mber_auto":
            counts = np.zeros(cfg.D_max + 1, dtype=np.int64)
            for t in trials:
                counts += np.bincount(
                    t.selected_ranks[name], minlength=cfg.D_max + 1
                )
            rank_counts[name] = counts
    return ExperimentResult(
        config=cfg,
        ber_trace=ber_trace,
        final_ber=final_ber,
        final_stderr=final_stderr,
        final_ber_trials=final_trials,
        rank_counts=rank_counts,
        final_window=window,
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


_SWEEP_AXES = ("snr", "users", "rank")


def sweep(cfg: ExperimentConfig, axis: str, jobs: int = 1) -> SweepResult:
    """One Monte Carlo run per grid point along ``snr``, ``users`` or ``rank``.

    Every point reuses the same trial seeds (``base_seed + t``), so sweep
    points are paired by common random numbers: trial t sees the same
    fading/bit realizations at every grid point, which makes trends far
    less noisy than independent points would be.  The rank axis only
    involves the fixed-rank detector (the others do not depend on D).
    """
    validate_config(cfg)
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if axis != "snr" and isinstance(cfg.snr_db, tuple):
        raise ConfigurationError(
            f"a list of snr_db values needs axis 'snr', not {axis!r}", field="snr_db"
        )
    start = time.perf_counter()
    if axis == "snr":
        points = (
            cfg.snr_db
            if isinstance(cfg.snr_db, tuple)
            else tuple(float(v) for v in np.arange(0.0, 20.0 + 1e-9, 2.5))
        )
        make = lambda p: {"snr_db": float(p)}
    elif axis == "users":
        points = cfg.users_sweep or tuple(range(1, 17))
        make = lambda p: {"K": int(p)}
    else:
        base = cfg.rank_sweep or (2, 4, 6, 8, 10, 12, 16, 20)
        points = tuple(d for d in base if 1 <= d <= cfg.M)
        make = lambda p: {"D": int(p), "detectors": ("jio_mber_fixed",)}
    if not points:
        raise ConfigurationError(f"empty sweep grid for axis {axis!r}")

    # every point is built and validated before the first one runs
    point_cfgs = [dataclasses.replace(cfg, **make(p)) for p in points]
    for point_cfg in point_cfgs:
        validate_config(point_cfg)
    rows = []
    stages = []
    health = {}
    for point, point_cfg in zip(points, point_cfgs):
        result = run_monte_carlo(point_cfg, jobs=jobs)
        stages.append(result.stage_s)
        if result.health:
            health[_fmt(float(point))] = result.health
        for name in point_cfg.detectors:
            rows.append(
                SweepRow(
                    axis_value=float(point),
                    detector=name,
                    ber=result.final_ber[name],
                    stderr=result.final_stderr[name],
                )
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
    the mean of the samples actually inside it.
    """
    if window <= 1:
        return trace
    kernel = np.ones(window)
    counts = np.convolve(np.ones(len(trace)), kernel, mode="same")
    return np.convolve(trace, kernel, mode="same") / counts


def _fmt(value: float) -> str:
    return "%.6g" % value


def _config_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _write_sidecar(path: str, kind: str, result) -> None:
    meta = {
        "kind": kind,
        "version": f"mberlink-{__version__}",
        "wall_time_s": result.wall_time_s,
        "stage_s": result.stage_s,
        "health": result.health,
        "config": _config_dict(result.config),
    }
    if kind == "trace":
        meta["base_seed"] = result.config.base_seed
        meta["num_trials"] = result.config.num_trials
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
