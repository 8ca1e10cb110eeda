"""mberlink benchmark: Monte Carlo throughput, set-up time and output check.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record      # re-record perfbench/reference.json
    python3 perfbench/run.py --self-test   # an altered decision must be caught

Each workload is a closed loop: one command at a time, each in a fresh
``python3`` process that calls ``mberlink.cli.main`` (``run`` or ``sweep``,
``--jobs 1``), until ``--seconds`` are used up.  The seed picks which
trials of the workload's recorded pool the commands run; every trial's
decisions are compared with the digests in ``reference.json``.

``--trace 0`` prints the end-to-end metrics (medians over the commands);
``--trace 1`` alternates untraced and traced commands and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when the output check fails and 2 when the benchmark cannot run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# first trial seed of every pool: the default ExperimentConfig.base_seed
POOL_BASE = 1234
# a workload's mean final-window BER at or above this means a detector failed
BER_LIMIT = 0.4
# CSV values carry 6 significant digits
BER_TOLERANCE = 1e-5
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
DETECTORS = ("jio_mber_fixed", "jio_mber_auto", "full_rank_lms", "full_rank_mber")
MIN_COMMANDS = 3
# calibration loop lengths, and their durations on the box the bounds were set on
LOOP_STEPS = 8000
LOOP_REF_S = 0.2
ARRAY_REPS = 170
ARRAY_REF_S = 0.11
COMMAND_TIMEOUT_S = 150
RECORD_TIMEOUT_S = 900


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI command, its config and its size.

    ``trials`` is the trial count per command and ``grid`` the number of
    grid points each trial runs at, so a command attempts
    ``trials * grid`` trial-runs.  ``pool`` trials from ``POOL_BASE`` on
    are recorded in ``reference.json``; the seed picks windows inside it.
    ``array_share`` is the share of the workload's time spent in array-bound
    numpy work (signal synthesis), read off its trace at the commit that
    defined the benchmark; it weights the calibration loops.
    """

    command: tuple
    config: dict
    trials: int
    grid: int
    pool: int
    detectors: tuple
    array_share: float


WORKLOADS = {
    "reference": Workload(
        command=("run",),
        config={},
        trials=1,
        grid=1,
        pool=32,
        detectors=DETECTORS,
        array_share=0.0,  # synthesis is ~2 % of a trial
    ),
    "longcode_fullrank": Workload(
        command=("run",),
        config={
            "N": "127",
            "K": "16",
            "mu_lms": "0.02",
            "detectors": "full_rank_lms,full_rank_mber",
        },
        trials=6,
        grid=1,
        pool=64,
        detectors=("full_rank_lms", "full_rank_mber"),
        array_share=0.65,
    ),
    "rank_sweep": Workload(
        command=("sweep", "--axis", "rank"),
        config={"detectors": "jio_mber_fixed"},
        trials=1,
        grid=8,
        pool=16,
        detectors=("jio_mber_fixed",),
        array_share=0.0,  # synthesis is ~5 % of a trial-run
    ),
}


# ---------------------------------------------------------------------------
# one command in a fresh process
# ---------------------------------------------------------------------------


def _config_text(wl: Workload, trials: int, base_seed: int) -> str:
    items = dict(wl.config, num_trials=trials, base_seed=base_seed)
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def run_command(name, base_seed, *, trials=None, traced=False, environment=False,
                flip_decision=False, timeout=COMMAND_TIMEOUT_S):
    """Run one workload command in a fresh worker; returns its record.

    The record holds the parent's launch and exit stamps, the worker's
    result (``None`` if it wrote none) and the worker's stderr.
    """
    wl = WORKLOADS[name]
    trials = wl.trials if trials is None else trials
    WORK.mkdir(exist_ok=True)
    stem = WORK / name
    config = stem.with_suffix(".cfg")
    config.write_text(_config_text(wl, trials, base_seed), encoding="utf-8")
    csv_path = stem.with_suffix(".csv")
    result_path = stem.with_suffix(".result.json")
    spec_path = stem.with_suffix(".spec.json")
    spec = {
        "argv": [*wl.command, "--config", str(config), "--jobs", "1", "--out", str(csv_path)],
        "config": str(config),
        "csv": str(csv_path),
        "trace": traced,
        "spans": str(stem.with_suffix(".spans.json")) if traced else None,
        "environment": environment,
        "flip_decision": flip_decision,
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    for stale in (result_path, csv_path, Path(str(csv_path) + ".meta.json")):
        stale.unlink(missing_ok=True)

    t_launch = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
        stderr, ok = proc.stderr, proc.returncode == 0
    except subprocess.TimeoutExpired as exc:
        stderr, ok = f"timed out after {exc.timeout}s", False
    t_exit = perf_counter()
    result = None
    if ok and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    return {
        "base_seed": base_seed,
        "trials": trials,
        "expected_runs": trials * wl.grid,
        "traced": traced,
        "t_launch": t_launch,
        "t_exit": t_exit,
        "result": result,
        "stderr": stderr[-2000:],
    }


def _loop_kernel() -> float:
    """Seconds for an interpreter-bound loop of tiny complex products."""
    import numpy as np

    rng = np.random.default_rng(0)
    S = rng.standard_normal((33, 8)) + 1j * rng.standard_normal((33, 8))
    w = rng.standard_normal(8) + 0j
    r = rng.standard_normal((LOOP_STEPS, 33)) * (1 + 1j)
    start = perf_counter()
    for i in range(LOOP_STEPS):
        z = S.conj().T @ r[i]
        x = np.vdot(w, z).real
        S = S + 1e-9 * (np.outer(r[i], w.conj()) - x * np.outer(S @ w, w.conj()))
        w = w + 1e-9 * z
    return perf_counter() - start


def _array_kernel() -> float:
    """Seconds for array-bound work shaped like fading-tap synthesis."""
    import numpy as np

    rng = np.random.default_rng(0)
    t = np.arange(1750.0)[:, None]
    freq = rng.uniform(size=16) * 1e-3
    phase = rng.uniform(-np.pi, np.pi, size=16)
    start = perf_counter()
    for _ in range(ARRAY_REPS):
        np.cos(t * freq + phase).sum(axis=1)
    return perf_counter() - start


def calibrate(wl: Workload) -> dict:
    """How slow the shared machine runs right now; 1.0 is reference speed.

    The two loops mirror the detectors' inner loop (interpreter dispatch
    around tiny products) and signal synthesis (large array operations).
    ``loop`` is the interpreter-bound reading alone, the yardstick for
    set-up (imports and config parsing); ``mixed`` weights both loops by
    the workload's own mix, the yardstick for its trials, because the
    machine's drift does not slow both kinds of work equally.  They are the
    benchmark's own code, run in this process, which never imports mberlink.
    """
    loop = _loop_kernel() / LOOP_REF_S
    if wl.array_share == 0.0:
        return {"loop": loop, "mixed": loop}
    array = _array_kernel() / ARRAY_REF_S
    return {"loop": loop, "mixed": (1.0 - wl.array_share) * loop + wl.array_share * array}


def command_timings(cmd, scaled=True) -> dict:
    """End-to-end figures of one command.

    Times are scaled to the reference machine speed: divided by the mean
    of the calibrations just before and just after the command, set-up by
    the interpreter-bound reading and the rest by the workload's mix.  The
    machine is shared, and its speed drifts by up to ~1.6x over tens of
    seconds; the scaling takes most of that drift out (see README.md).
    """
    r = cmd["result"]
    setup_scale = 1.0 / cmd["slowness"]["loop"] if scaled else 1.0
    main_scale = 1.0 / cmd["slowness"]["mixed"] if scaled else 1.0
    setup_s = (r["t_setup"] - cmd["t_launch"]) * setup_scale
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + (r["t_main1"] - r["t_setup"]) * main_scale,
        "trials_per_s": cmd["expected_runs"] / ((r["t_main1"] - r["t_main0"]) * main_scale),
        "peak_rss_mb": r["maxrss_kb"] / 1024.0,
    }


# ---------------------------------------------------------------------------
# output check against the recorded reference
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_commands(name, commands, reference) -> dict:
    """Compare every command's outputs with the recorded reference.

    A trial-run fails when its command did not complete, its outputs are
    missing or not finite, or its decisions are malformed.  A decision
    vector has changed when its digest differs from the recorded one.
    The CSV's final-window BER must equal the mean of the recorded
    per-trial values.  When no trial passes through ``harness.run_trial``
    the per-trial digests cannot be read, and a command whose CSV BER
    differs counts all its decision vectors as changed.
    """
    wl = WORKLOADS[name]
    ref = reference["workloads"][name]
    recorded = ref["trials"]
    window = ref["window"]
    attempted = failed = vectors = changed = 0
    csv_mismatch = []
    errors_sum = dict.fromkeys(wl.detectors, 0)
    symbols_sum = dict.fromkeys(wl.detectors, 0)
    notes = []
    for cmd in commands:
        expected = cmd["expected_runs"]
        attempted += expected
        vectors += expected * len(wl.detectors)
        r = cmd["result"]
        out = r["outputs"] if r else None
        if (
            r is None
            or r["exit_code"] != 0
            or not (out["csv"] and out["meta"] and out["finite"])
        ):
            failed += expected
            reason = r["error"] if r and r["error"] else cmd["stderr"].strip()[-300:]
            notes.append(f"command at base_seed {cmd['base_seed']} failed: {reason or 'bad outputs'}")
            continue
        seeds = range(cmd["base_seed"], cmd["base_seed"] + cmd["trials"])
        want = {}
        for rank in ref["grid"]:
            for det in wl.detectors:
                counts = [recorded[f"{rank}/{s}"][det][1] for s in seeds]
                want[f"{rank}/{det}"] = sum(counts) / (len(counts) * window)
        got = out["final_ber"]
        csv_ok = set(got) == set(want) and all(
            abs(got[k] - want[k]) <= BER_TOLERANCE for k in want
        )
        records = r["trials"]
        if not records:
            notes.append("no trial reached harness.run_trial: per-trial digests unavailable")
            if not csv_ok:
                changed += expected * len(wl.detectors)
            for key, ber in got.items():
                det = key.split("/", 1)[1]
                if det in errors_sum:
                    errors_sum[det] += ber * window * cmd["trials"]
                    symbols_sum[det] += window * cmd["trials"]
            continue
        if not csv_ok:
            csv_mismatch.append(cmd["base_seed"])
        failed += max(0, expected - len(records))
        for rec in records:
            if not rec["valid"]:
                failed += 1
            ref_dets = recorded.get(rec["key"], {})
            for det in wl.detectors:
                digest = rec["detectors"].get(det)
                if digest is None:
                    continue
                if ref_dets.get(det, [None])[0] != digest[0]:
                    changed += 1
                errors_sum[det] += digest[1]
                symbols_sum[det] += window
    final_ber = {
        det: errors_sum[det] / symbols_sum[det] for det in wl.detectors if symbols_sum[det]
    }
    high = {det: ber for det, ber in final_ber.items() if ber >= BER_LIMIT}
    if csv_mismatch:
        notes.append(f"CSV final BER differs from the recorded trials at base_seed {csv_mismatch}")
    if high:
        notes.append(f"final BER at or above {BER_LIMIT}: {high}")
    return {
        "attempted": attempted,
        "failed": failed,
        "decisions_changed_frac": changed / vectors if vectors else 0.0,
        "failed_frac": failed / attempted if attempted else 0.0,
        "final_ber": final_ber,
        "correct": failed == 0 and changed == 0 and not csv_mismatch and not high,
        "notes": sorted(set(notes)),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(commands, scaled=True) -> dict:
    """Medians over the untraced commands of one run."""
    timings = [
        command_timings(c, scaled) for c in commands if c["result"] and not c["traced"]
    ]
    if not timings:
        return {}
    return {
        key: statistics.median(t[key] for t in timings)
        for key in ("setup_s", "trials_per_s", "wall_s", "peak_rss_mb")
    }


def per_layer(commands) -> dict:
    """Per-layer metrics pooled over the traced commands of one run."""
    traced = [c for c in commands if c["traced"] and c["result"]]
    plain = [c for c in commands if not c["traced"] and c["result"]]
    n_cmd = len(traced)
    funcs, layers = {}, {}
    spans = 0
    records = []
    accounting = []
    for cmd in traced:
        summary = cmd["result"]["trace"]
        spans += summary["spans"]
        records += cmd["result"]["trials"]
        for key, f in summary["functions"].items():
            acc = funcs.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            for field_name in acc:
                acc[field_name] += f.get(field_name, 0)
        for layer, own in summary["layer_self_s"].items():
            layers[layer] = layers.get(layer, 0.0) + own
        startup = cmd["result"]["t_start"] - cmd["t_launch"]
        wall = command_timings(cmd, scaled=False)["wall_s"]
        accounting.append((startup, wall - startup - sum(summary["layer_self_s"].values())))
    n_trials = len(records)

    def get(key, field_name):
        return funcs.get(key, {}).get(field_name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    symbols = dict.fromkeys(DETECTORS, 0)
    mults = dict.fromkeys(DETECTORS + ("jio_mber_auto_as_run",), 0)
    paper = dict.fromkeys(mults, 0)
    for rec in records:
        for key in paper:
            paper[key] += rec["mults"][key]
        for det in rec["detectors"]:
            symbols[det] += rec["symbols"]
            mults[det] += rec["mults"][det] * rec["symbols"]
            if det == "jio_mber_auto":
                mults["jio_mber_auto_as_run"] += rec["mults"]["jio_mber_auto_as_run"] * rec["symbols"]
    symbols["jio_mber_auto_as_run"] = symbols["jio_mber_auto"]

    fixed_s = get("jio_mber.jio_step", "total_s")
    detector_s = {
        "jio_mber_fixed": fixed_s,
        # the auto detector's kernels are every jio_mber span outside jio_step
        "jio_mber_auto": max(0.0, layers.get("jio_mber", 0.0) - fixed_s),
        "full_rank_lms": get("baselines.lms_update", "total_s"),
        "full_rank_mber": get("baselines.mber_full_rank_update", "total_s"),
    }
    detector_s["jio_mber_auto_as_run"] = detector_s["jio_mber_auto"]
    jio_symbols = symbols["jio_mber_fixed"] + symbols["jio_mber_auto"]
    us, ms = 1e6, 1e3

    m = {
        "signal_model.generate_gold_family.ms": ratio(get("signal_model.generate_gold_family", "total_s"), n_cmd) * ms,
        "signal_model.synthesize_arrays.self_ms_per_trial": ratio(get("signal_model.synthesize_arrays", "self_s"), n_trials) * ms,
        "signal_model.taps_for.us_per_user_symbol": ratio(get("signal_model.taps_for", "total_s"), get("signal_model.taps_for", "work")) * us,
        "signal_model.window_bytes_per_trial": ratio(get("signal_model.synthesize_arrays", "work"), get("signal_model.synthesize_arrays", "calls")),
        "jio_mber.jio_step.us_per_symbol": ratio(fixed_s, get("jio_mber.jio_step", "calls")) * us,
    }
    for fn in ("update_filter", "update_projection"):
        m[f"jio_mber.{fn}.calls_per_symbol"] = ratio(get(f"jio_mber.{fn}", "calls"), jio_symbols)
        m[f"jio_mber.{fn}.us_per_call"] = ratio(get(f"jio_mber.{fn}", "total_s"), get(f"jio_mber.{fn}", "calls")) * us
    for key in ("jio_mber.scale_filter", "jio_mber.truncated_statistics",
                "baselines.lms_update", "baselines.mber_full_rank_update"):
        m[f"{key}.us_per_call"] = ratio(get(key, "total_s"), get(key, "calls")) * us
    m["jio_mber.mults_per_us"] = ratio(
        mults["jio_mber_fixed"] + mults["jio_mber_auto"], layers.get("jio_mber", 0.0) * us
    )
    m["baselines.mults_per_us"] = ratio(
        mults["full_rank_lms"] + mults["full_rank_mber"], layers.get("baselines", 0.0) * us
    )
    m["detector_core.calls"] = ratio(
        sum(f["calls"] for k, f in funcs.items() if k.startswith("detector_core.")), n_cmd
    )
    m["harness.run_trial.self_ms_per_trial"] = ratio(get("harness.run_trial", "self_s"), n_trials) * ms
    m["harness.aggregate.ms"] = ratio(
        get("harness.run_monte_carlo", "self_s") + get("harness.sweep", "self_s"), n_cmd
    ) * ms
    m["harness.emit_csv.ms"] = ratio(get("harness.emit_csv", "total_s"), n_cmd) * ms
    m["harness.emit_csv.bytes"] = ratio(get("harness.emit_csv", "work"), n_cmd)
    m["cli.import.ms"] = ratio(get("cli.import", "total_s"), n_cmd) * ms
    m["cli.parse_config.ms"] = ratio(get("harness.parse_config", "total_s"), n_cmd) * ms
    for layer in ("signal_model", "jio_mber", "baselines", "harness", "detector_core"):
        m[f"{layer}.self_ms_per_trial"] = ratio(layers.get(layer, 0.0), n_trials) * ms
    m["cli.self_ms"] = ratio(layers.get("cli", 0.0), n_cmd) * ms
    for key in paper:
        m[f"complexity.{key}.mults_per_symbol"] = ratio(paper[key], n_trials)
    for key in detector_s:
        us_per_symbol = ratio(detector_s[key], symbols[key]) * us
        if key != "jio_mber_auto_as_run":
            m[f"detector.{key}.us_per_symbol"] = us_per_symbol
        m[f"detector.{key}.mults_per_us"] = ratio(mults[key], detector_s[key] * us)
    # overhead compares scaled walls, so machine drift between the two
    # kinds of command does not read as tracing cost
    def median_wall(cmds):
        return statistics.median(command_timings(c)["wall_s"] for c in cmds)

    m["trace.overhead_s"] = median_wall(traced) - median_wall(plain) if traced and plain else 0.0
    m["trace.unattributed_ms"] = statistics.median(a[1] for a in accounting) * ms if accounting else 0.0
    m["trace.spans_per_trial"] = ratio(spans, n_trials)
    m["process.startup.ms"] = statistics.median(a[0] for a in accounting) * ms if accounting else 0.0
    return m


def layer_table(metrics) -> list:
    """Layer self times per trial, largest first."""
    rows = [
        (key.split(".")[0], value)
        for key, value in metrics.items()
        if key.endswith(".self_ms_per_trial") and key.count(".") == 1
    ]
    return sorted(rows, key=lambda row: -row[1])


def trace_accounting_ok(metrics) -> bool:
    """Self times plus interpreter start-up add up to the traced wall time.

    The remainder, time between consecutive top-level spans, must be
    non-negative and within the tracing overhead.  That overhead is a
    difference of two medians and reads at or below zero when tracing
    costs less than the run-to-run spread, so it counts as at least 1 ms.
    """
    gap_s = metrics["trace.unattributed_ms"] / 1e3
    return 0.0 <= gap_s <= max(metrics["trace.overhead_s"], 1e-3)


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------


def provenance() -> dict:
    env = {"cpu_model": None, "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=10,
        )
        env["git_revision"] = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        env["git_revision"] = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    env["source_sha256"] = digest.hexdigest()[:16]
    env["thread_env"] = {k: os.environ.get(k) for k in THREAD_VARIABLES}
    return env


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def command_bases(wl: Workload, seed: int):
    """Base seeds of successive commands: windows inside the recorded pool."""
    span = wl.pool - wl.trials + 1
    start = (seed * 7919) % span
    i = 0
    while True:
        yield POOL_BASE + (start + i * wl.trials) % span
        i += 1


def benchmark(name, seed, seconds, trace) -> int:
    wl = WORKLOADS[name]
    reference = load_reference()
    commands = []
    bases = command_bases(wl, seed)
    minimum = 2 * MIN_COMMANDS if trace else MIN_COMMANDS
    t0 = perf_counter()
    calibration = [calibrate(wl)]
    while True:
        traced = bool(trace) and len(commands) % 2 == 1
        cmd = run_command(name, next(bases), traced=traced, environment=not commands)
        calibration.append(calibrate(wl))
        before, after = calibration[-2:]
        cmd["slowness"] = {k: (before[k] + after[k]) / 2 for k in before}
        commands.append(cmd)
        elapsed = perf_counter() - t0
        if len(commands) >= minimum and elapsed * (1 + 1 / len(commands)) > seconds:
            break
    check = check_commands(name, commands, reference)
    env = provenance()
    first = commands[0]["result"]
    if first and "environment" in first:
        env.update(first["environment"])

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in declared["workloads"] if w["name"] == name)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if trace:
        measured = per_layer(commands)
        accounting_ok = trace_accounting_ok(measured)
    else:
        measured = end_to_end(commands)
        accounting_ok = True
    metrics = {key: measured[key] for key in units if key in measured}
    missing = sorted(set(units) - set(metrics))

    print(f"workload {name} seed {seed} trace {trace}: {len(commands)} commands, "
          f"{check['attempted']} trial-runs, {perf_counter() - t0:.1f}s")
    print(f"  why: {why}")
    for key, value in metrics.items():
        print(f"  {key:52s} {value:14.6g} {units[key]}")
    if not trace and metrics:
        unscaled = end_to_end(commands, scaled=False)
        print(f"  unscaled: trials_per_s {unscaled['trials_per_s']:.4g} 1/s, wall_s "
              f"{unscaled['wall_s']:.4g} s, setup_s {unscaled['setup_s']:.4g} s; median "
              f"machine slowness {statistics.median(c['slowness']['mixed'] for c in commands):.4g} "
              f"(1 = reference speed)")
    print(f"  {'decisions_changed_frac':52s} {check['decisions_changed_frac']:14.6g} fraction")
    print(f"  {'failed_frac':52s} {check['failed_frac']:14.6g} fraction")
    if trace:
        print("  layer self time per trial: "
              + ", ".join(f"{k} {v:.1f} ms" for k, v in layer_table(measured)))
        print(f"  self times + start-up vs traced wall: unattributed "
              f"{measured['trace.unattributed_ms']:.2f} ms, tracing overhead "
              f"{measured['trace.overhead_s'] * 1e3:.1f} ms: "
              f"{'ok' if accounting_ok else 'MISMATCH'}")
    print("  final BER over the run: "
          + ", ".join(f"{k} {v:.4g}" for k, v in check["final_ber"].items()))
    for note in check["notes"]:
        print(f"  check: {note}")
    if missing:
        print(f"  missing metrics: {missing}")
    print("env " + json.dumps(env, sort_keys=True))

    correct = check["correct"] and accounting_ok and not missing
    (WORK / f"last-{name}-trace{trace}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "trace": trace, "env": env,
                    "check": check, "metrics": measured, "commands": commands}),
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def record() -> int:
    """Run every workload's whole pool once and store per-trial digests."""
    out = {"pool_base": POOL_BASE, "provenance": provenance(), "workloads": {}}
    ok = True
    for name, wl in WORKLOADS.items():
        cmd = run_command(name, POOL_BASE, trials=wl.pool, timeout=RECORD_TIMEOUT_S)
        r = cmd["result"]
        if r is None or r["exit_code"] != 0 or len(r["trials"]) != cmd["expected_runs"] \
                or not all(rec["valid"] for rec in r["trials"]):
            print(f"{name}: recording failed: {(r or {}).get('error') or cmd['stderr'][-500:]}")
            return 2
        trials = {rec["key"]: rec["detectors"] for rec in r["trials"]}
        grid = sorted({rec["D"] for rec in r["trials"]})
        out["workloads"][name] = {"window": r["window"], "grid": grid, "trials": trials}
        for det in wl.detectors:
            ber = sum(t[det][1] for t in trials.values()) / (len(trials) * r["window"])
            print(f"{name}: {det} pool-mean final BER {ber:.4g} over {len(trials)} trial-runs")
            ok &= ber < BER_LIMIT
    if not ok:
        print(f"not recorded: a detector's pool-mean final BER is at or above {BER_LIMIT}")
        return 1
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def self_test() -> int:
    """The check passes an unaltered command and catches one altered decision."""
    reference = load_reference()
    name = "longcode_fullrank"
    base = POOL_BASE
    clean = check_commands(name, [run_command(name, base, trials=2)], reference)
    altered = check_commands(name, [run_command(name, base, trials=2, flip_decision=True)], reference)
    vectors = 2 * len(WORKLOADS[name].detectors)
    ok = (
        clean["correct"]
        and clean["decisions_changed_frac"] == 0.0
        and not altered["correct"]
        and altered["decisions_changed_frac"] == 1 / vectors
    )
    print(f"unaltered: decisions_changed_frac {clean['decisions_changed_frac']}, correct {clean['correct']}")
    print(f"one decision altered: decisions_changed_frac {altered['decisions_changed_frac']}, "
          f"correct {altered['correct']}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"],
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record reference.json")
    parser.add_argument("--self-test", action="store_true", help="test the output check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mberlink" / "cli.py").is_file():
        print(f"mberlink sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    if args.record:
        return record()
    if not REFERENCE.is_file():
        print(f"missing {REFERENCE.relative_to(ROOT)}; run with --record", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(benchmark(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
