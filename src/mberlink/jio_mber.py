"""Jointly adapted subspace projection and reduced-rank filter, BER criterion.

Per received symbol the detector runs J inner cycles; each cycle updates
the filter and the projection matrix from the same pre-cycle state and
then rescales the filter so that ``w^H S^H S w = 1``.  The update
equations assume that unit norm holds on entry to the cycle, which the
scaling of the previous cycle guarantees (the very first cycle starts
from the all-zero filter, where the update reduces to the pure
excitation term and the scaling then establishes the constraint).

Each cycle forms ``z = S^H r``, ``Re x = Re(w^H z)``, ``S w`` and the
update factor ``c`` once.  The projection gradient is the rank-one
``(r - Re x S w) w^H``, so the cycle first forms the M-vector
``u = (mu_S c)(r - Re x S w)`` and then adds the one outer product
``u w^H`` to S; the filter moves by ``(mu_w c)(z - Re x S^H S w)``.
Only the scaling computes ``S w`` again, on the updated state.  The
first cycle of a symbol reuses the ``S^H``, ``z`` and ``Re x`` that the
decision formed (the auto-rank detector, which decides on a prefix sum,
hands over ``S^H`` and ``z`` only).
The scalar arithmetic (``Re x``, the update factor, the norm's square
root) runs on Python floats rather than numpy scalars.
A non-finite filter norm raises :class:`~mberlink.errors.NumericalError`
instead of passing as near zero.

:func:`stack_step` runs the same cycles for several fixed-rank states on
one stream at once, zero-padded to the largest rank (the rank sweep);
one state alone is faster through :func:`jio_step`.

Rank selection truncates the leading columns/entries of a state adapted
at the maximum allowed rank, renormalizes, and picks the rank whose
single-sample error-probability estimate is smallest.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .detector_core import _NORM_EPS, _SQRT_2PI, _decide, _mber_factor, _unit_norm
from .errors import ConfigurationError, NumericalError


class Mode(enum.Enum):
    TRAINING = "training"
    DECISION_DIRECTED = "decision_directed"


@dataclass
class JioState:
    """Mutable adaptation state: projection S (M x D) and filter w (D), or
    P of them stacked along a leading axis (:func:`init_stack`)."""

    S: np.ndarray
    w: np.ndarray
    mu_w: float
    mu_S: float
    J: int
    rho: float
    mode: Mode = Mode.TRAINING
    scaling_skipped: bool = field(default=False, repr=False)


@dataclass(frozen=True)
class RankSelectionConfig:
    """Allowed rank range ``[d_min, d_max]`` for automatic selection."""

    d_min: int
    d_max: int

    def __post_init__(self):
        if not 1 <= self.d_min <= self.d_max:
            raise ConfigurationError(
                f"need 1 <= d_min <= d_max, got [{self.d_min}, {self.d_max}]"
            )


def init_state(
    M: int, D: int, mu_w: float, mu_S: float, J: int, rho: float
) -> JioState:
    """Fresh state: S = [I_D; 0], w = 0, training mode."""
    if not 1 <= D <= M:
        raise ConfigurationError(f"need 1 <= D <= M, got D={D}, M={M}")
    if J < 1:
        raise ConfigurationError(f"need J >= 1, got {J}")
    if not (mu_w >= 0 and mu_S >= 0):
        raise ConfigurationError("step sizes must be non-negative")
    if not (rho > 0 and 2.0 * rho * rho > 0):
        # the update factor divides by 2 rho^2, which must not underflow to 0
        raise ConfigurationError(f"rho must be positive with 2 rho^2 > 0, got {rho}")
    S = np.zeros((M, D), dtype=np.complex128)
    S[:D, :D] = np.eye(D)
    return JioState(
        S=S,
        w=np.zeros(D, dtype=np.complex128),
        mu_w=float(mu_w),
        mu_S=float(mu_S),
        J=int(J),
        rho=float(rho),
        mode=Mode.TRAINING,
    )


def _cycle(S, w, r, b, rho, mu_w, mu_S, SH=None, z=None, xr=None):
    """One joint update ``(S_next, w_next)`` from the pre-cycle terms.

    With the update factor ``c`` (which assumes a unit-norm state), the
    projection moves by the rank-one ``u w^H``, ``u = (mu_S c)(r - Re x S w)``,
    and the filter by ``(mu_w c)(z - Re x S^H S w)``.  A caller that
    already holds ``SH``, ``z = S^H r`` or ``xr = Re x`` of this state
    passes it instead.
    """
    if SH is None:
        SH = S.conj().T
    if z is None:
        z = SH @ r
    if xr is None:
        xr = float(np.vdot(w, z).real)
    sw = S @ w
    c = _mber_factor(xr, b, rho)
    u = (mu_S * c) * (r - xr * sw)
    S_next = S + u[:, None] * w.conj()
    w_next = w + (mu_w * c) * (z - xr * (SH @ sw))
    return S_next, w_next


def update_filter(state: JioState, r: np.ndarray, b: int) -> np.ndarray:
    """One filter recursion; returns the new w, state untouched."""
    return _cycle(state.S, state.w, r, b, state.rho, state.mu_w, state.mu_S)[1]


def scale_filter(state: JioState) -> JioState:
    """Rescale w so that w^H S^H S w = 1; skipped (and flagged) near zero.

    A non-finite norm raises :class:`~mberlink.errors.NumericalError`.
    """
    state.w, state.scaling_skipped = _unit_norm(state.w, state.S @ state.w)
    return state


def _adapt(state: JioState, r: np.ndarray, b: int, SH=None, z=None, xr=None) -> None:
    """Run the J inner cycles in place.

    ``SH``, ``z`` and ``xr`` are the pre-update state's ``S^H``, ``S^H r``
    and ``Re w^H S^H r`` when the caller already formed them; only the
    first cycle can use them.  Each cycle is :func:`_cycle` (whose filter
    half is :func:`update_filter`) followed by :func:`scale_filter`.
    """
    S, w, rho = state.S, state.w, state.rho
    mu_w, mu_S = state.mu_w, state.mu_S
    for _ in range(state.J):
        S, w_next = _cycle(S, w, r, b, rho, mu_w, mu_S, SH, z, xr)
        w, skipped = _unit_norm(w_next, S @ w_next)
        SH = z = xr = None
    state.S, state.w, state.scaling_skipped = S, w, skipped


def jio_step(
    state: JioState, r: np.ndarray, b_known: int | None = None
) -> tuple[JioState, int]:
    """Detect the current symbol, then run the J adaptation cycles.

    The returned decision comes from the state as it stood before any
    update.  In training mode ``b_known`` drives the updates; in
    decision-directed mode the detector's own decision does and
    ``b_known`` must be omitted.  A non-finite output raises
    :class:`~mberlink.errors.NumericalError`.
    """
    SH = state.S.conj().T
    z = SH @ r
    xr = float(np.vdot(state.w, z).real)
    decided = _decide(xr)
    if state.mode is Mode.TRAINING:
        if b_known is None:
            raise ValueError("training mode requires the true bit")
        b = b_known
    else:
        if b_known is not None:
            raise ValueError("decision-directed mode must not receive a bit")
        b = decided
    _adapt(state, r, b, SH, z, xr)
    return state, decided


def init_stack(M: int, ranks, mu_w: float, mu_S: float, J: int, rho: float) -> JioState:
    """The :func:`init_state` of each rank, zero-padded into one state with
    ``S``: P x M x max(ranks) and ``w``: P x max(ranks)."""
    S = np.zeros((len(ranks), M, max(ranks)), dtype=np.complex128)
    for p, D in enumerate(ranks):
        S[p, :, :D] = init_state(M, D, mu_w, mu_S, J, rho).S
    w = np.zeros(S.shape[::2], dtype=np.complex128)
    return JioState(S, w, float(mu_w), float(mu_S), int(J), float(rho))


def _check_finite(ranks, values, what: str) -> None:
    """Raise NumericalError naming the first state whose value is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        p = int(np.argmin(finite))
        raise NumericalError(f"rank D = {ranks[p]}: {what} is {values[p]}")


def stack_step(stack: JioState, ranks, r: np.ndarray, b_known: int | None = None) -> np.ndarray:
    """:func:`jio_step` of each state of an :func:`init_stack` stack on one ``r``.

    ``b_known`` trains every state; None makes each follow its own
    decision.  Each cycle is :func:`_cycle` and :func:`_unit_norm` term by
    term over the states, but D-long sums run over the padded length, so a
    state below the largest rank can differ from its own in the last bits.
    A non-finite output or filter norm raises NumericalError naming the rank.
    """
    S, w, rho = stack.S, stack.w, stack.rho
    for j in range(stack.J):
        SH = S.conj().transpose(0, 2, 1)
        z = SH @ r
        wc = w.conj()[:, None, :]
        xr = (wc @ z[:, :, None])[:, 0, 0].real
        if j == 0:
            _check_finite(ranks, xr, "detector output")
            decided = np.where(xr >= 0.0, 1, -1)
            b = decided if b_known is None else b_known
        sw = S @ w[:, :, None]
        # _mber_factor at n = 1, one per state
        c = np.exp(-(xr * xr) / (2.0 * rho * rho)) * b / (2.0 * _SQRT_2PI * rho)
        u = (stack.mu_S * c)[:, None] * (r - xr[:, None] * sw[:, :, 0])
        w_next = w + (stack.mu_w * c)[:, None] * (z - xr[:, None] * (SH @ sw)[:, :, 0])
        S += u[:, :, None] * wc
        sw = S @ w_next[:, :, None]
        norm_sq = (sw.conj().transpose(0, 2, 1) @ sw)[:, 0, 0].real
        _check_finite(ranks, norm_sq, "filter norm")
        # dividing by 1 keeps a filter whose norm is ~0, as _unit_norm does
        w = w_next / np.where(norm_sq < _NORM_EPS, 1.0, np.sqrt(norm_sq))[:, None]
    stack.w = w
    return decided


def _truncated_statistics(
    state: JioState, cfg: RankSelectionConfig, r: np.ndarray, b: int | None = None
):
    """Rank-selection statistics of the truncations ``d_min .. d_max``.

    Keeping the first ``d`` filter taps and projection columns gives
    ``x_d = w_d^H S_d^H r`` and ``n_d = ||S_d w_d||^2`` (prefix sums, no
    renormalization).  Returns ``(stat, xr, z, SH)``: entry ``i`` of
    ``stat`` is ``b Re[x_d] / sqrt(n_d)`` for ``d = d_min + i``, or 0 where
    ``n_d`` vanishes; ``xr`` holds the same ``Re[x_d]``; ``z = S^H r`` and
    ``SH = S^H``.  ``b=None`` takes the full state's own decision as the
    reference bit.
    """
    D = state.w.shape[0]
    if cfg.d_max > D:
        raise ConfigurationError(f"d_max={cfg.d_max} exceeds the adapted rank {D}")
    SH = state.S.conj().T
    z = SH @ r
    x = np.cumsum(state.w.conj() * z)
    sw = np.cumsum(state.S * state.w[None, :], axis=1)
    n = (sw.real**2 + sw.imag**2).sum(axis=0)
    xr = x.real[cfg.d_min - 1 : cfg.d_max]
    nn = n[cfg.d_min - 1 : cfg.d_max]
    valid = nn >= _NORM_EPS
    if b is None:
        b = 1 if x.real[D - 1] >= 0.0 else -1
    stat = np.where(valid, b * xr / np.sqrt(np.where(valid, nn, 1.0)), 0.0)
    return stat, xr, z, SH


def select_rank(
    state: JioState,
    cfg: RankSelectionConfig,
    r: np.ndarray,
    b: int | None = None,
) -> int:
    """Rank in [d_min, d_max] minimizing the truncated error estimate.

    Each truncation is rescaled to unit norm and scored by
    ``Q(b Re[x_d] / rho)``; one with vanishing norm is uninformative and
    scores 0.5.  ``b`` is the training bit.  ``None`` references the full
    state's own decision: scoring every candidate against its own sign
    (pure confidence) proved unstable in decision-directed operation, as
    it lets an interference-dominated truncation hijack the decision
    feedback.  Ties break toward the smallest rank.
    """
    stat = _truncated_statistics(state, cfg, r, b)[0]
    return cfg.d_min + int(np.argmax(stat))
