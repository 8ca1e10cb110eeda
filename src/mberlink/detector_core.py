"""Reduced-rank detection pipeline and the error-probability machinery.

All operations are pure functions of their inputs.  The decision
statistic ``x = w^H S^H r`` feeds a kernel-smoothed single-sample
estimate of the bit error probability, whose analytic gradients with
respect to the conjugated filter and projection entries drive the
stochastic-gradient detectors.

Gradient convention: for a real cost f of complex variables, the
returned arrays are df/d(conj(z)), so the real/imaginary partials are
``2*Re`` and ``2*Im`` of the returned entries and a descent step is
``z - mu * gradient``.

Only numpy is imported with this module.  :func:`q_function` loads
``scipy.special.erfc`` on its first call, so scipy is paid for only by
the Q-function, :func:`error_probability` and rank averaging in the
harness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# squared filter norms below this count as zero (no scaling, no gradient)
_NORM_EPS = 1e-12


@dataclass(frozen=True)
class DecisionStatistic:
    """Filter output ``x`` and the bit-aligned real part sign{b}*Re[x]."""

    x: complex
    signed_real: float


def _check_bit(b: int) -> float:
    if b not in (-1, 1):
        raise ValueError(f"bit must be -1 or +1, got {b!r}")
    return float(b)


def decision_statistic(x: complex, bit: int) -> DecisionStatistic:
    """Statistic for a known (training or decided) bit."""
    return DecisionStatistic(x=complex(x), signed_real=_check_bit(bit) * complex(x).real)


def _decide(x_real: float) -> int:
    """Hard decision sign(x_real), +1 on ties; a non-finite output raises."""
    if not math.isfinite(x_real):
        raise NumericalError(f"detector output is {x_real}")
    return 1 if x_real >= 0.0 else -1


def q_function(x):
    """Gaussian tail probability Q(x) = P(Z > x), Z standard normal."""
    from scipy.special import erfc  # imported here: only Q needs scipy

    return 0.5 * erfc(x / _SQRT2)


def error_probability(stat: DecisionStatistic, norm_sq: float, rho: float) -> float:
    """Kernel-smoothed bit error probability Q(sign{b}Re[x] / (rho sqrt(norm_sq)))."""
    if not norm_sq > 0:
        raise ValueError(f"norm_sq must be positive, got {norm_sq}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return float(q_function(stat.signed_real / (rho * np.sqrt(norm_sq))))


def _mber_factor(xr, b, rho, n=1.0):
    """Scalar MBER update factor ``exp(-xr^2 / (2 rho^2 n)) b / (2 sqrt(2 pi) rho)``.

    ``n = w^H S^H S w`` is 1 on a unit-norm state.  The factor is the
    negated derivative of the error estimate with respect to ``Re[x]``,
    times ``sqrt(n) / 2``; every MBER update and gradient scales by it.
    It is a Python float, so the caller's scalar arithmetic stays off
    numpy scalars; ``np.exp`` is kept because ``math.exp`` rounds some
    arguments differently.
    """
    e = float(np.exp(-(xr * xr) / (2.0 * rho * rho * n)))
    return e * float(b) / (2.0 * _SQRT_2PI * rho)


def _unit_norm(w, sw):
    """``(w / ||sw||, False)``, or ``(w, True)`` when ``||sw||^2`` is ~0.

    ``sw`` is ``S w`` for a reduced-rank filter and ``w`` itself at full
    rank.  A non-finite norm raises :class:`~mberlink.errors.NumericalError`.
    """
    norm_sq = np.vdot(sw, sw).real
    if not math.isfinite(norm_sq):
        raise NumericalError(f"filter norm is {norm_sq}")
    if norm_sq < _NORM_EPS:
        return w, True
    return w / math.sqrt(norm_sq), False


def _common_terms(projection: np.ndarray, w: np.ndarray, r: np.ndarray):
    z = projection.conj().T @ r
    sw = projection @ w
    norm_sq = np.vdot(sw, sw).real
    if norm_sq <= _NORM_EPS:
        raise ValueError(
            "filter norm through the projection is ~0; scale the state first"
        )
    x_real = np.vdot(w, z).real
    return z, sw, norm_sq, x_real


def gradient_w(
    projection: np.ndarray, w: np.ndarray, r: np.ndarray, b: int, rho: float
) -> np.ndarray:
    """Gradient of the error-probability estimate w.r.t. conj(w).

    Returns
    -------
    numpy.ndarray, shape (D,)
        ``-exp(-Re[x]^2 / (2 rho^2 n)) sign{b} / (2 sqrt(2 pi) rho)
        * (S^H r / sqrt(n) - Re[x] S^H S w / n^{3/2})`` with
        ``n = w^H S^H S w``.
    """
    sign_b = _check_bit(b)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    z, sw, n, xr = _common_terms(projection, w, r)
    shsw = projection.conj().T @ sw
    return -_mber_factor(xr, sign_b, rho, n) * (
        z / np.sqrt(n) - (xr / n**1.5) * shsw
    )


def gradient_S(
    projection: np.ndarray, w: np.ndarray, r: np.ndarray, b: int, rho: float
) -> np.ndarray:
    """Gradient of the error-probability estimate w.r.t. conj(S).

    Same scalar factor as :func:`gradient_w`; the matrix part is
    ``r w^H / sqrt(n) - S w w^H Re[x] / n^{3/2}``.
    """
    sign_b = _check_bit(b)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    _, sw, n, xr = _common_terms(projection, w, r)
    wc = w.conj()
    return -_mber_factor(xr, sign_b, rho, n) * (
        np.outer(r, wc) / np.sqrt(n) - (xr / n**1.5) * np.outer(sw, wc)
    )
