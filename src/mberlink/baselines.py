"""Runnable full-rank reference detectors: LMS (MSE) and MBER SG."""

from dataclasses import dataclass

import numpy as np

from .detector_core import _decide, _mber_factor, _unit_norm
from .errors import ConfigurationError


@dataclass
class FullRankState:
    """Length-M filter with its step size; rho only used by the MBER rule."""

    w: np.ndarray
    mu: float
    rho: float | None = None

    def __post_init__(self):
        if not self.mu >= 0:
            raise ConfigurationError("step size must be non-negative")


def init_full_rank(M: int, mu: float, rho: float | None = None) -> FullRankState:
    return FullRankState(w=np.zeros(M, dtype=np.complex128), mu=mu, rho=rho)


def lms_update(state: FullRankState, r: np.ndarray, b_known: int | None = None) -> int:
    """Standard complex LMS step: decide on ``w^H r``, step toward
    ``b_known`` (training) or, when it is None, toward that decision, and
    return the decision, as :func:`~mberlink.jio_mber.jio_step` does.  A
    non-finite output raises :class:`~mberlink.errors.NumericalError`.
    """
    wr = np.vdot(state.w, r)
    decided = _decide(wr.real)
    e = float(decided if b_known is None else b_known) - wr
    state.w = state.w + state.mu * e.conjugate() * r
    return decided


def mber_full_rank_update(
    state: FullRankState, r: np.ndarray, b_known: int | None = None
) -> int:
    """Minimum-BER stochastic-gradient step with unit-norm rescaling; it
    decides and returns the decision as :func:`lms_update` does.

    This is the reduced-rank filter recursion specialized to an identity
    projection at full rank, followed by scaling to ||w|| = 1 (skipped
    while the filter is still the all-zero init); a non-finite output or
    norm raises :class:`~mberlink.errors.NumericalError`.
    """
    if state.rho is None or not state.rho > 0:
        raise ConfigurationError("MBER update requires a positive rho")
    w = state.w
    xr = np.vdot(w, r).real
    decided = _decide(xr)
    c = _mber_factor(xr, decided if b_known is None else b_known, state.rho)
    w_next = w + (state.mu * c) * (r - xr * w)
    state.w = _unit_norm(w_next, w_next)[0]
    return decided
