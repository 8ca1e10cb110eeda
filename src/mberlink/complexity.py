"""Per-symbol operation counts for the detector family.

Pure integer arithmetic; each algorithm row is a closed-form count of
multiplications and additions per processed symbol in terms of the
observation dimension M, rank D, inner cycles J, path count Lp and the
maximum rank D_max of the automatic rank-selection variant.  Each row is
one function whose arguments are exactly the parameters that algorithm
requires; ``op_count`` validates those and no others, and refuses a
rank (D or D_max) or a tap count Lp above M.  The
eigendecomposition row only has an order-of-magnitude cost, reported as
M**3 with the ``asymptotic`` flag set.
"""

import csv
import enum
import inspect
import operator
from dataclasses import dataclass, field

from .errors import ConfigurationError


class Algorithm(enum.Enum):
    FULL_RANK_LMS = "full_rank_lms"
    FULL_RANK_MBER = "full_rank_mber"
    MWF_LMS = "mwf_lms"
    EIG = "eig"
    JIO_LMS = "jio_lms"
    MWF_MBER = "mwf_mber"
    JIO_MBER = "jio_mber"
    JIO_MBER_AUTO = "jio_mber_auto"


@dataclass(frozen=True)
class OpCountReport:
    algorithm: Algorithm
    multiplications: int
    additions: int
    params: dict = field(default_factory=dict)
    asymptotic: bool = False


# (multiplications, additions) per algorithm
_FORMULAS = {
    Algorithm.FULL_RANK_LMS: lambda M: (2 * M + 1, 2 * M),
    Algorithm.FULL_RANK_MBER: lambda M: (4 * M + 1, 4 * M - 1),
    Algorithm.MWF_LMS: lambda M, D: (
        D * M**2 - M**2 + 2 * D * M + 4 * D + 1,
        D * M**2 - M**2 + 3 * D - 2,
    ),
    Algorithm.EIG: lambda M: (M**3, M**3),
    Algorithm.JIO_LMS: lambda M, D: (
        3 * D * M + M + 3 * D + 6,
        2 * D * M + M + 4 * D - 2,
    ),
    Algorithm.MWF_MBER: lambda M, D, Lp: (
        (D + 1) * M**2 + (3 * D + 1) * M + 3 * D + M * Lp + 10,
        (D - 1) * M**2 + (2 * D - 1) * M + 2 * D + M * Lp + 1,
    ),
    Algorithm.JIO_MBER: lambda M, D, J: (
        6 * M * D * J + 5 * D * J + M * J + 11 * J,
        5 * M * D * J + D * J - M * J - J,
    ),
    Algorithm.JIO_MBER_AUTO: lambda M, D_max: (
        (6 * M + 5) * D_max + M + 11,
        (5 * M + 1) * D_max - M - 1,
    ),
}
_PARAMS = ("M", "D", "J", "Lp", "D_max")


def op_count(
    algorithm: Algorithm,
    *,
    M: int,
    D: int | None = None,
    J: int | None = None,
    Lp: int | None = None,
    D_max: int | None = None,
) -> OpCountReport:
    """Evaluate one algorithm's per-symbol multiplication/addition counts."""
    algorithm = Algorithm(algorithm)
    formula = _FORMULAS[algorithm]
    supplied = {"M": M, "D": D, "J": J, "Lp": Lp, "D_max": D_max}
    params = {}
    for name in inspect.signature(formula).parameters:
        value = supplied[name]
        if value is None:
            raise ConfigurationError(
                f"{algorithm.value} requires parameter {name}", field=name
            )
        try:
            count = operator.index(value)
        except TypeError:  # 3.7 is not a count; int() would truncate it
            count = 0
        if count < 1 or isinstance(value, bool):  # True is an index, but no bool is a count
            raise ConfigurationError(
                f"{algorithm.value}: {name} must be a positive integer, got {value}",
                field=name,
            )
        if name in ("D", "D_max", "Lp") and count > params["M"]:  # every formula takes M first
            raise ConfigurationError(
                f"{algorithm.value}: {name} must not exceed M={params['M']}, got {count}",
                field=name,
            )
        params[name] = count
    mults, adds = formula(**params)
    return OpCountReport(
        algorithm=algorithm,
        multiplications=int(mults),
        additions=int(adds),
        params=params,
        asymptotic=algorithm is Algorithm.EIG,
    )


def write_complexity_csv(reports: list[OpCountReport], path) -> None:
    """CSV export: algorithm,M,D,J,Lp,Dmax,mults,adds (blank = unused)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "M", "D", "J", "Lp", "Dmax", "mults", "adds"])
        for rep in reports:
            cells = [rep.params.get(name, "") for name in _PARAMS]
            writer.writerow(
                [rep.algorithm.value, *cells, rep.multiplications, rep.additions]
            )
