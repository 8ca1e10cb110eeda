"""Run one mberlink command in this fresh process and report what it did.

Usage: ``worker.py SPEC.json RESULT.json``, started by ``run.py`` with
``src`` on ``PYTHONPATH``.  The spec names the command line for
``mberlink.cli.main``, its config file and CSV path, and whether to trace.

The worker times its own set-up (importing ``mberlink.cli``, which loads
numpy and scipy, then ``parse_config`` with validation and the Gold family
build), runs the command, and records for every trial that reaches
``harness.run_trial`` a digest of each detector's decision vector and its
final-window error count.  It then reads back the CSV and its
``.meta.json`` sidecar.  Timestamps are ``time.perf_counter`` values,
which share one monotonic clock with the parent process.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, rebind  # noqa: E402


def _describe_trial(cfg, trial_seed, result, window, flip):
    """Digest and final-window error count per detector, plus validity."""
    import numpy as np

    truth = np.asarray(result.true_bits)
    n = cfg.num_symbols
    detectors = {}
    valid = truth.shape == (n,)
    for name in cfg.detectors:
        decisions = result.decisions.get(name)
        errors = result.errors.get(name)
        if decisions is None or errors is None:
            valid = False
            continue
        dec = np.asarray(decisions, dtype=np.int8)
        if dec.shape != (n,) or not np.all(np.abs(dec) == 1):
            valid = False
            continue
        if not np.array_equal(np.asarray(errors) != 0, dec != truth):
            valid = False
        if flip:
            # self-test of the output check: alter one decision on purpose
            dec = dec.copy()
            dec[0] = -dec[0]
            flip = False
        detectors[name] = [
            hashlib.sha256(dec.tobytes()).hexdigest()[:16],
            int(np.count_nonzero(dec[n - window :] != truth[n - window :])),
        ]
    return {
        "key": f"{cfg.D}/{trial_seed}",
        "valid": valid,
        "detectors": detectors,
        "M": cfg.M,
        "D": cfg.D,
        "J": cfg.J,
        "D_max": cfg.D_max,
        "symbols": n,
    }


def _hook_run_trial(harness, records, window, flip):
    original = harness.run_trial

    def run_trial(cfg, trial_seed, *args, **kwargs):
        result = original(cfg, trial_seed, *args, **kwargs)
        records.append(
            _describe_trial(cfg, trial_seed, result, window, flip and not records)
        )
        return result

    rebind(original, lambda binding: run_trial)


def _install_tracer(tracer, modules):
    """Span every public function on the simulation path, by defining module."""
    baselines, detector_core, harness, jio_mber, signal_model = modules

    def csv_bytes(args, kwargs, result):
        path = str(args[1] if len(args) > 1 else kwargs["path"])
        return sum(os.path.getsize(p) for p in (path, path + ".meta.json") if os.path.exists(p))

    targets = [
        (signal_model, "generate_gold_family", None),
        (signal_model, "synthesize_arrays", lambda a, k, r: r[0].nbytes),
        (jio_mber, "jio_step", None),
        (jio_mber, "update_filter", None),
        (jio_mber, "update_projection", None),
        (jio_mber, "scale_filter", None),
        (jio_mber, "truncated_statistics", None),
        (baselines, "lms_update", None),
        (baselines, "mber_full_rank_update", None),
        (harness, "parse_config", None),
        (harness, "run_monte_carlo", None),
        (harness, "sweep", None),
        (harness, "emit_csv", csv_bytes),
    ]
    targets += [
        (detector_core, name, None)
        for name, fn in vars(detector_core).items()
        if not name.startswith("_")
        and callable(fn)
        and not isinstance(fn, type)
        and getattr(fn, "__module__", None) == detector_core.__name__
    ]
    for module, name, work in targets:
        fn = getattr(module, name, None)
        if fn is not None:
            layer = module.__name__.rsplit(".", 1)[-1]
            tracer.trace_function(fn, f"{layer}.{name}", layer, work)
    tracer.trace_function(
        harness.run_trial, "harness.run_trial", "harness", new_trial=True
    )
    channel = getattr(signal_model, "JakesChannel", None)
    if channel is not None and hasattr(channel, "taps_for"):
        tracer.trace_method(
            channel,
            "taps_for",
            "signal_model.taps_for",
            "signal_model",
            work=lambda a, k, r: r.shape[0],
        )


def _read_outputs(csv_path, window, rank):
    """Row count, finiteness and final-window BER per ``D/detector`` key.

    A trace CSV gives the mean over its last ``window`` symbols at the
    config's ``rank``; a sweep CSV gives each row's BER keyed by its
    axis value.
    """
    out = {"csv": False, "meta": False, "rows": 0, "finite": True, "final_ber": {}}
    try:
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
        with open(csv_path + ".meta.json", encoding="utf-8") as fh:
            out["meta"] = "kind" in json.load(fh)
    except (OSError, ValueError):
        return out
    out["rows"] = len(rows)
    traces = {}
    try:
        if header == ["symbol_index", "detector", "ber"]:
            for index, det, ber in rows:
                traces.setdefault(det, []).append((int(index), float(ber)))
            for det, values in traces.items():
                last = [b for i, b in values if i >= len(values) - window]
                out["final_ber"][f"{rank}/{det}"] = sum(last) / max(len(last), 1)
                out["finite"] &= all(math.isfinite(b) for _, b in values)
        elif header == ["axis_value", "detector", "ber", "stderr"]:
            for axis, det, ber, stderr in rows:
                out["final_ber"][f"{int(float(axis))}/{det}"] = float(ber)
                out["finite"] &= math.isfinite(float(ber)) and math.isfinite(float(stderr))
        else:
            return out
    except ValueError:
        return out
    out["csv"] = True
    return out


def _blas_threads():
    """Thread count reported by every loaded OpenBLAS library."""
    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[os.path.basename(path)] = fn()
                break
    return counts


def _environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _mults_per_symbol(complexity, rec):
    """Paper counts for each detector at this trial's configuration."""
    alg = complexity.Algorithm
    op = complexity.op_count
    m, d, j, d_max = rec["M"], rec["D"], rec["J"], rec["D_max"]
    return {
        "jio_mber_fixed": op(alg.JIO_MBER, M=m, D=d, J=j).multiplications,
        "jio_mber_auto": op(alg.JIO_MBER_AUTO, M=m, D_max=d_max).multiplications,
        # what the harness runs for the auto detector: J cycles at D_max
        "jio_mber_auto_as_run": op(alg.JIO_MBER, M=m, D=d_max, J=j).multiplications,
        "full_rank_lms": op(alg.FULL_RANK_LMS, M=m).multiplications,
        "full_rank_mber": op(alg.FULL_RANK_MBER, M=m).multiplications,
    }


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec["trace"] else None
    span = tracer.span if tracer else (lambda name, layer: contextlib.nullcontext())
    if tracer:
        # this script's own imports and spec reading, so that spans tile
        # the whole process after interpreter start-up
        tracer.add_span("bench.prelude", "bench", T_START, time.perf_counter())

    with span("cli.import", "cli"):
        import mberlink.cli as cli
        from mberlink import baselines, complexity, detector_core, harness, jio_mber
        from mberlink import signal_model

    with span("bench.setup", "bench"):
        cfg = harness.parse_config(spec["config"])
        signal_model.generate_gold_family((cfg.N + 1).bit_length() - 1)
    t_setup = time.perf_counter()

    window = min(getattr(harness, "FINAL_WINDOW", 500), cfg.num_symbols)
    records = []
    with span("bench.hooks", "bench"):
        _hook_run_trial(harness, records, window, spec["flip_decision"])
        if tracer:
            _install_tracer(
                tracer, (baselines, detector_core, harness, jio_mber, signal_model)
            )

    error = None
    t_main0 = time.perf_counter()
    with span("cli.main", "cli"):
        try:
            code = cli.main(spec["argv"])
        except Exception as exc:  # reported to the parent as a failed command
            code, error = None, f"{type(exc).__name__}: {exc}"
    t_main1 = time.perf_counter()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = _read_outputs(spec["csv"], window, cfg.D)
    for rec in records:
        rec["mults"] = _mults_per_symbol(complexity, rec)
    result = {
        "t_start": T_START,
        "t_setup": t_setup,
        "t_main0": t_main0,
        "t_main1": t_main1,
        "exit_code": code,
        "error": error,
        "maxrss_kb": maxrss_kb,
        "window": window,
        "trials": records,
        "outputs": outputs,
    }
    if spec["environment"]:
        result["environment"] = _environment()
    if tracer:
        result["trace"] = tracer.summary()
        tracer.dump(spec["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
