"""Monte Carlo execution: trials, their aggregation into runs, and sweeps.

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
"""

import dataclasses
import functools
import time

import numpy as np

from .baselines import init_full_rank, lms_update, mber_full_rank_update
from .config import (
    _GOLD_DEGREES,
    _SWEEP_AXES,
    ExperimentConfig,
    _gold_family_cached,
    kernel_radius,
    noise_sigma,
)
from .errors import ConfigurationError, NumericalError
from .jio_mber import auto_step, init_stack, init_state, jio_step, stack_step
from .results import ExperimentResult, SweepResult, TrialResult, _fmt
from .signal_model import JakesChannel, UserConfig, synthesize_arrays

# not used here: the benchmark worker calls harness.parse_config and traces harness.emit_csv
from .config import parse_config  # noqa: F401
from .results import emit_csv  # noqa: F401

# steady-state window (symbols) used for "final BER" figures and stderr
FINAL_WINDOW = 500

# a trial whose final-window BER is above this has failed: its detector lost the user
FAILED_TRIAL_BER = 0.2

# LMS is mean-square stable for mu tr R below this (Horowitz & Senne, IEEE TASSP 1981)
LMS_MEAN_SQUARE_LIMIT = 2 / 3


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


def _build_users(cfg: ExperimentConfig, trial_seed: int) -> list[UserConfig]:
    family = _gold_family_cached(_GOLD_DEGREES[cfg.N])
    users = []
    for k in range(cfg.K):
        seeds = np.random.SeedSequence(entropy=(trial_seed, k))
        channel_seed = int(seeds.generate_state(1, np.uint64)[0])
        channel = JakesChannel(cfg.power_profile_db, cfg.doppler, seed=channel_seed)
        amplitude = cfg.amplitudes[k] if cfg.amplitudes else 1.0
        users.append(UserConfig(amplitude=amplitude, code=family[k], channel=channel))
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
    health = {}
    if "full_rank_lms" in decisions:
        health["full_rank_lms"] = _lms_health(windows, cfg.mu_lms)
    return TrialResult(decisions, truth, ranks, stage_s, health)


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
        TrialResult({name: dec.astype(np.int8)}, truth, {}, stage_s)
        for dec, stage_s in zip(decided.T, [first] + [{}] * (len(ranks) - 1))
    ]


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
    per_trial = [t.errors for t in trials]  # derived on each read: read once per trial
    errors = {name: np.stack([e[name] for e in per_trial]) for name in cfg.detectors}
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
