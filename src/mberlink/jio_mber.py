"""Jointly adapted subspace projection and reduced-rank filter, BER criterion.

Per received symbol the detector runs J inner cycles; each cycle updates
the filter and the projection matrix from the same pre-cycle state and
then rescales the filter so that ``w^H S^H S w = 1``.  The update
equations assume that unit norm holds on entry to the cycle, which the
scaling of the previous cycle guarantees (the very first cycle starts
from the all-zero filter, where the update reduces to the pure
excitation term and the scaling then establishes the constraint).

Both gradient steps of a cycle share one M-vector, ``v = r - Re x S w``:
the projection moves by the rank-one ``(mu_S c) v w^H`` and the filter
by ``(mu_w c) S^H v`` (``S^H r - Re x S^H S w = S^H v``), taken from
``v^H S`` so that no conjugate copy of S is formed.  A cycle takes
``S w`` and ``Re x = Re((S w)^H r)`` in and forms ``v`` and the update
factor ``c`` once; its scaling computes ``S w`` on the updated state
for the norm and hands ``S w / ||S w||`` to the next cycle.  The first
cycle of a symbol takes the ``S w`` and ``Re x`` its decision formed.
The scalar arithmetic (``Re x``, the update factor, the norm's square
root) runs on Python floats rather than numpy scalars.
A non-finite filter norm raises :class:`~mberlink.errors.NumericalError`
instead of passing as near zero.

:func:`stack_step` runs the same cycles for several fixed-rank states on
one stream at once, zero-padded to the largest rank (the rank sweep);
one state alone is faster through :func:`jio_step`.

:func:`auto_step` is a rank reading plus :func:`jio_step`: it
scores every truncation to the leading columns/entries of a state
adapted at the maximum allowed rank, steps the full state with
:func:`jio_step`, and then reads off the rank whose renormalized
single-sample error-probability estimate is smallest for the decision
that step made (or the training bit).  Its decision-directed decisions
are therefore those of the fixed detector at the maximum rank, by
construction; in training it decides at the rank the true bit picked.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .detector_core import _NORM_EPS, _SQRT_2PI, _decide, _mber_factor, _unit_norm
from .errors import ConfigurationError, NumericalError


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


def init_state(
    M: int, D: int, mu_w: float, mu_S: float, J: int, rho: float
) -> JioState:
    """Fresh state: S = [I_D; 0], w = 0."""
    if not 1 <= D <= M:
        raise ConfigurationError(f"need 1 <= D <= M, got D={D}, M={M}")
    if not (isinstance(J, numbers.Integral) and J >= 1):  # int(2.7) would run J = 2
        raise ConfigurationError(f"need an integer J >= 1, got {J}")
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
    )


def _cycle(S, w, r, b, rho, mu_w, mu_S, sw=None, xr=None):
    """One joint update ``(S_next, w_next)``: with ``v = r - Re x S w`` and
    the update factor ``c`` (which assumes a unit-norm state), S moves by
    ``(mu_S c) v w^H`` and w by ``(mu_w c) S^H v``.  A caller that already
    holds ``sw = S w`` or ``xr = Re x`` of this state passes it instead."""
    if sw is None:
        sw = S @ w
    if xr is None:
        xr = float(np.vdot(sw, r).real)
    c = _mber_factor(xr, b, rho)
    v = r - xr * sw
    w_next = w + (mu_w * c) * (v.conj() @ S).conj()
    return S + ((mu_S * c) * v)[:, None] * w.conj(), w_next


def update_filter(state: JioState, r: np.ndarray, b: int) -> np.ndarray:
    """One filter recursion; returns the new w, state untouched."""
    return _cycle(state.S, state.w, r, b, state.rho, state.mu_w, state.mu_S)[1]


def scale_filter(state: JioState) -> JioState:
    """Rescale w so that w^H S^H S w = 1; skipped near zero.

    A non-finite norm raises :class:`~mberlink.errors.NumericalError`.
    """
    state.w = _unit_norm(state.w, state.S @ state.w)[0]
    return state


def jio_step(state: JioState, r: np.ndarray, b_known: int | None = None) -> int:
    """Detect the current symbol, run the J adaptation cycles in place and
    return the decision.

    The decision comes from the state as it stood before any update.
    ``b_known`` (training) drives the updates; None makes the detector's
    own decision drive them (decision-directed operation), as in
    :func:`stack_step`.  This is the one single-state adaptation kernel,
    :func:`auto_step`'s too.  A non-finite output raises
    :class:`~mberlink.errors.NumericalError`.

    The cycles run in one loop body that calls numpy directly, as per-call
    overhead dominates at these sizes.  The composed functions are its
    bit-exact reference: :func:`_cycle` (whose filter half is
    :func:`update_filter`) with :func:`_mber_factor`, then
    :func:`scale_filter`'s scaling by :func:`_unit_norm`, whose ``S w / s``
    the next cycle takes; the first takes the ``S w`` and ``Re x`` the
    decision formed.  ``S w`` stays a matmul: ``np.dot`` rounds it
    differently at D = 1.
    """
    S, w = state.S, state.w
    sw = S @ w
    xr = float(np.vdot(sw, r).real)
    decided = _decide(xr)
    b = float(decided if b_known is None else b_known)
    rho, mu_w, mu_S = state.rho, state.mu_w, state.mu_S
    # _mber_factor's operands at n = 1, in its order: e b / (2 sqrt(2 pi) rho)
    two_rho_sq, k = 2.0 * rho * rho, 2.0 * _SQRT_2PI * rho
    for j in range(state.J):
        if j:  # _unit_norm's S w_next / s of the previous cycle
            sw = sw / s
            xr = float(np.vdot(sw, r).real)
        c = float(np.exp(-(xr * xr) / two_rho_sq)) * b / k
        v = r - xr * sw
        w_next = w + (mu_w * c) * np.dot(v.conj(), S).conj()
        S = S + ((mu_S * c) * v)[:, None] * w.conj()
        sw = S @ w_next
        norm_sq = np.vdot(sw, sw).real
        if not math.isfinite(norm_sq):
            raise NumericalError(f"filter norm is {norm_sq}")
        if norm_sq < _NORM_EPS:
            w, s = w_next, 1.0
        else:
            s = math.sqrt(norm_sq)
            w = w_next / s
    state.S, state.w = S, w
    return decided


def init_stack(M: int, ranks, mu_w: float, mu_S: float, J: int, rho: float) -> JioState:
    """The :func:`init_state` of each rank, zero-padded into one state with
    ``S``: P x M x max(ranks) and ``w``: P x max(ranks)."""
    S = np.zeros((len(ranks), M, max(ranks)), dtype=np.complex128)
    for p, D in enumerate(ranks):
        S[p, :, :D] = init_state(M, D, mu_w, mu_S, J, rho).S
    w = np.zeros(S.shape[::2], dtype=np.complex128)
    return JioState(S, w, float(mu_w), float(mu_S), int(J), float(rho))


def _check_finite(ranks, values, what: str) -> None:
    """Raise NumericalError naming the first state whose value is not finite;
    one sum tests all states, and only a non-finite sum looks at each."""
    if math.isfinite(values.sum()):
        return
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
    rc = r.conj()[:, None]  # Re(sw . conj r) rounds as np.vdot(sw, r).real
    sw = (S @ w[:, :, None])[:, :, 0]
    for j in range(stack.J):
        if j:  # the previous cycle's S w_next / s
            sw = sw / s
        xr = (sw[:, None, :] @ rc)[:, 0, 0].real
        if j == 0:
            _check_finite(ranks, xr, "detector output")
            decided = np.where(xr >= 0.0, 1, -1)
            b = decided if b_known is None else b_known
            # _mber_factor at n = 1, one per state: e b / k is e / (b k), b = +-1
            bk = b * (2.0 * _SQRT_2PI * rho)
        c = np.exp((xr * xr) / (-2.0 * rho * rho)) / bk
        v = r - xr[:, None] * sw
        w_next = w + (stack.mu_w * c)[:, None] * (v.conj()[:, None, :] @ S)[:, 0, :].conj()
        S += ((stack.mu_S * c)[:, None] * v)[:, :, None] * w.conj()[:, None, :]
        sw = (S @ w_next[:, :, None])[:, :, 0]
        norm_sq = (sw.conj()[:, None, :] @ sw[:, :, None])[:, 0, 0].real
        _check_finite(ranks, norm_sq, "filter norm")
        # dividing by 1 keeps a filter whose norm is ~0, as _unit_norm does
        s = np.where(norm_sq < _NORM_EPS, 1.0, np.sqrt(norm_sq))[:, None]
        w = w_next / s
    stack.w = w
    return decided


def _truncated_statistics(state: JioState, d_min: int, r: np.ndarray):
    """Rank-selection statistics of the truncations ``d_min .. D``, D the
    state's own rank.

    Keeping the first ``d`` filter taps and projection columns gives
    ``S_d w_d``, column ``d`` of the prefix sums of ``S w`` (no
    renormalization), and from it ``Re[x_d] = Re(r^H S_d w_d)`` and
    ``n_d = ||S_d w_d||^2``.  Returns ``(stat, xr)``: entry ``i`` of
    ``stat`` is ``Re[x_d] / sqrt(n_d)`` for ``d = d_min + i``, or 0 where
    ``n_d`` vanishes; ``xr`` holds the same ``Re[x_d]``.  No bit enters:
    ``b * stat`` scores the truncations against a bit ``b``.
    """
    D = state.w.shape[0]
    if not 1 <= d_min <= D:
        raise ConfigurationError(f"need 1 <= d_min <= D={D}, got d_min={d_min}")
    sw = np.cumsum(state.S * state.w, axis=1)
    x = np.dot(r.conj(), sw)
    n = (sw.real**2 + sw.imag**2).sum(axis=0)
    xr = x.real[d_min - 1 :]
    nn = n[d_min - 1 :]
    valid = nn >= _NORM_EPS
    stat = np.where(valid, xr / np.sqrt(np.where(valid, nn, 1.0)), 0.0)
    return stat, xr


def auto_step(
    state: JioState, d_min: int, r: np.ndarray, b_known: int | None = None
) -> tuple[int, int]:
    """Score every truncation of the state as it stands, :func:`jio_step`
    the full rank-D state, and return ``(decision, rank)``, the rank in
    ``[d_min, D]`` whose truncated error estimate for the bit is least.

    Each truncation to the leading ``d`` taps and columns is rescaled to
    unit norm and scored by ``Q(b Re[x_d] / rho)``; one with vanishing
    norm is uninformative and scores 0.5.  Ties break toward the smallest
    rank.  The bit ``b`` is ``b_known`` (training), which also drives the
    updates, or, when it is None, the decision :func:`jio_step` just made:
    scoring every candidate against its own sign (pure confidence) proved
    unstable in decision-directed operation, as it lets an
    interference-dominated truncation hijack the decision feedback.

    With ``b_known`` None the decision is :func:`jio_step`'s own, so state
    and decisions are those of the fixed detector at rank D by
    construction, and the rank is a reading that changes no decision.
    With a training bit the decision is the pick's, label-aided: right
    whenever any truncation's is.
    """
    stat, xr = _truncated_statistics(state, d_min, r)
    decided = jio_step(state, r, b_known)
    pick = int(np.argmax((decided if b_known is None else b_known) * stat))
    if b_known is not None:
        decided = _decide(xr[pick])
    return decided, d_min + pick
