"""Runnable full-rank reference detectors: LMS (MSE) and MBER SG."""

from dataclasses import dataclass, field

import numpy as np

from .detector_core import _mber_factor, _unit_norm
from .errors import ConfigurationError


@dataclass
class FullRankState:
    """Length-M filter with its step size; rho only used by the MBER rule."""

    w: np.ndarray
    mu: float
    rho: float | None = None
    scaling_skipped: bool = field(default=False, repr=False)

    def __post_init__(self):
        if not self.mu >= 0:
            raise ConfigurationError("step size must be non-negative")


def init_full_rank(M: int, mu: float, rho: float | None = None) -> FullRankState:
    return FullRankState(w=np.zeros(M, dtype=np.complex128), mu=mu, rho=rho)


def lms_update(
    state: FullRankState, r: np.ndarray, b: int, wr: complex | None = None
) -> FullRankState:
    """Standard complex LMS step toward the reference bit b.

    ``wr`` is the output ``w^H r`` when the caller already formed it for
    the decision; it is computed here otherwise.
    """
    if wr is None:
        wr = np.vdot(state.w, r)
    e = float(b) - wr
    state.w = state.w + state.mu * np.conj(e) * r
    return state


def mber_full_rank_update(
    state: FullRankState, r: np.ndarray, b: int, wr: complex | None = None
) -> FullRankState:
    """Minimum-BER stochastic-gradient step with unit-norm rescaling.

    This is the reduced-rank filter recursion specialized to an identity
    projection at full rank, followed by scaling to ||w|| = 1 (skipped,
    and flagged, while the filter is still the all-zero init); a
    non-finite norm raises :class:`~mberlink.errors.NumericalError`.
    ``wr`` is the output ``w^H r`` if the caller already formed it, as in
    :func:`lms_update`.
    """
    if state.rho is None or not state.rho > 0:
        raise ConfigurationError("MBER update requires a positive rho")
    w = state.w
    if wr is None:
        wr = np.vdot(w, r)
    xr = wr.real
    c = _mber_factor(xr, b, state.rho)
    w_next = w + (state.mu * c) * (r - xr * w)
    state.w, state.scaling_skipped = _unit_norm(w_next, w_next)
    return state
