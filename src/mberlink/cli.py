"""Command line interface.

Subcommands: ``run`` (single Monte Carlo experiment, BER trace CSV),
``sweep`` (BER vs SNR / user count / rank), ``complexity`` (per-symbol
operation-count table).  Exit codes: 0 success, 2 configuration error,
3 runtime error.
"""

import argparse
import dataclasses
import errno
import os
import sys

from . import harness
from ._version import __version__
from .complexity import Algorithm, op_count, write_complexity_csv
from .config import _FIELD_PARSERS, _SWEEP_AXES, DETECTOR_NAMES, ExperimentConfig, parse_config
from .errors import ConfigurationError
from .results import emit_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mberlink",
        description="DS-CDMA link-level simulator for minimum-BER reduced-rank detection",
    )
    parser.add_argument("--version", action="version", version=f"mberlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--seed", type=int, metavar="INT", help="override base_seed")
        p.add_argument("--trials", type=int, metavar="INT", help="override num_trials")
        p.add_argument(
            "--detectors",
            metavar="LIST",
            help="comma list from: " + ",".join(DETECTOR_NAMES),
        )
        p.add_argument("--out", metavar="PATH", default="out.csv", help="CSV output path")
        p.add_argument("--jobs", type=int, default=1, help="parallel trial processes")

    run_p = sub.add_parser("run", help="single experiment, per-symbol BER trace")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="BER versus a swept parameter")
    add_common(sweep_p)
    sweep_p.add_argument("--axis", choices=tuple(_SWEEP_AXES), required=True, help="sweep axis")

    cx_p = sub.add_parser("complexity", help="per-symbol operation-count table")
    cx_p.add_argument("--out", metavar="PATH", default="complexity.csv")
    cx_p.add_argument("--M", type=int, default=33)
    cx_p.add_argument("--D", metavar="D|LO:HI[:STEP]", default="6", help="a rank or a rank grid")
    cx_p.add_argument("--J", type=int, default=1)
    cx_p.add_argument("--Lp", type=int, default=3)
    cx_p.add_argument("--Dmax", type=int, default=20)
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["num_trials"] = args.trials
    if args.detectors is not None:
        overrides["detectors"] = _FIELD_PARSERS["detectors"](args.detectors)
    return dataclasses.replace(cfg, **overrides)


def _check_out_dir(path: str) -> None:
    """Fail before any trial runs when ``path`` is empty or a directory, or
    when its directory is missing."""
    if not path or os.path.isdir(path):
        raise OSError(errno.EINVAL, "not a file path", path)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, "no such directory", directory)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    _check_out_dir(args.out)
    result = harness.run_monte_carlo(cfg, jobs=args.jobs)
    emit_csv(result, args.out)
    print(f"wrote {args.out} ({result.config.num_trials} trials, {result.wall_time_s:.1f}s)")
    for name in cfg.detectors:
        print(
            f"  {name}: final BER {result.final_ber[name]:.4g} "
            f"(last {result.final_window} symbols, stderr {result.final_stderr[name]:.2g})"
        )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    _check_out_dir(args.out)
    result = harness.sweep(cfg, axis=args.axis, jobs=args.jobs)
    emit_csv(result, args.out)
    print(f"wrote {args.out} ({len(result.points)} points, {result.wall_time_s:.1f}s)")
    return 0


def _parse_range(text: str) -> range:
    """The ranks that ``D`` or ``LO:HI[:STEP]`` (HI included) names."""
    parts = text.split(":")
    if len(parts) == 1:  # the single rank D is the grid D:D
        parts *= 2
    if len(parts) == 2:
        parts.append("1")
    try:
        lo, hi, step = map(int, parts)
    except ValueError:  # not an integer, or more than three parts
        raise ConfigurationError(f"bad range {text!r}, expected D or LO:HI[:STEP]") from None
    if lo < 1 or hi < lo or step < 1:
        raise ConfigurationError(f"bad range {text!r}")
    return range(lo, hi + 1, step)


def _cmd_complexity(args) -> int:
    reports = [
        op_count(a, M=args.M, D=d, J=args.J, Lp=args.Lp, D_max=args.Dmax)
        for d in _parse_range(args.D)
        for a in Algorithm
    ]
    write_complexity_csv(reports, args.out)
    print(f"wrote {args.out} ({len(reports)} rows)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "complexity": _cmd_complexity}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
