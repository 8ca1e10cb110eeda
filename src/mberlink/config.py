"""What an experiment is told: its configuration, checked when built.

:class:`ExperimentConfig` is the flat description of one Monte Carlo
experiment or sweep; :func:`parse_config` reads it from a ``key = value``
file and :func:`validate_config` checks every field.

Noise level follows SNR (dB) = 10 log10(A1^2 / sigma^2) and the kernel
radius is ``rho_multiplier * sigma`` (with ``rho_multiplier`` alone as a
fallback radius in the degenerate noiseless case, where the criterion
radius would collapse to zero).
"""

import dataclasses
import functools
import math
import numbers
import typing
from dataclasses import dataclass

from .errors import ConfigParseError, ConfigurationError
from .signal_model import generate_gold_family

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
                message = f"expected 'key = value', got {raw.strip()!r}"
                raise ConfigParseError(path, line_no, message)
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


@functools.lru_cache(maxsize=4)
def _gold_family_cached(degree: int):
    return tuple(generate_gold_family(degree))


def noise_sigma(cfg: ExperimentConfig, snr_db: float) -> float:
    """Noise std per complex chip from the desired user's amplitude."""
    a1 = cfg.amplitudes[0] if cfg.amplitudes else 1.0
    return a1 / 10.0 ** (snr_db / 20.0)


def kernel_radius(cfg: ExperimentConfig, sigma: float) -> float:
    return cfg.rho_multiplier * sigma if sigma > 0 else cfg.rho_multiplier
