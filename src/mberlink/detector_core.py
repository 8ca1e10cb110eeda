"""Reduced-rank detection pipeline and the error-probability machinery.

All operations are pure functions of their inputs.  The decision
statistic ``x = (S w)^H r`` feeds a kernel-smoothed single-sample
estimate of the bit error probability, whose analytic gradients with
respect to the conjugated filter and projection entries drive the
stochastic-gradient detectors.

Gradient convention: for a real cost f of complex variables, the
returned arrays are df/d(conj(z)), so the real/imaginary partials are
``2*Re`` and ``2*Im`` of the returned entries and a descent step is
``z - mu * gradient``.
"""

import math

import numpy as np

from .errors import NumericalError

_SQRT2 = np.sqrt(2.0)
# Q's erfc, element by element from the standard library
_erfc = np.vectorize(math.erfc, otypes=[float])
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# squared filter norms below this count as zero (no scaling, no gradient)
_NORM_EPS = 1e-12


def _check_bit(b: int) -> float:
    if b not in (-1, 1):
        raise ValueError(f"bit must be -1 or +1, got {b!r}")
    return float(b)


def _decide(x_real: float) -> int:
    """Hard decision sign(x_real), +1 on ties; a non-finite output raises."""
    if not math.isfinite(x_real):
        raise NumericalError(f"detector output is {x_real}")
    return 1 if x_real >= 0.0 else -1


def q_function(x):
    """Gaussian tail probability Q(x) = P(Z > x), Z standard normal: a
    ``numpy.float64`` for a scalar, an array of the same shape for an array."""
    return 0.5 * _erfc(x / _SQRT2)


def error_probability(x: complex, b: int, norm_sq: float, rho: float) -> float:
    """Kernel-smoothed bit error probability Q(b Re[x] / (rho sqrt(norm_sq)))
    of output ``x`` for the known (training or decided) bit ``b``."""
    sign_b = _check_bit(b)
    if not norm_sq > 0:
        raise ValueError(f"norm_sq must be positive, got {norm_sq}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return float(q_function(sign_b * complex(x).real / (rho * np.sqrt(norm_sq))))


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
    """``(w / s, s)`` with ``s = ||sw||``, or ``(w, 1.0)`` when ``s^2`` is ~0.

    ``sw`` is ``S w`` for a reduced-rank filter and ``w`` itself at full
    rank; a caller that needs ``sw / s`` as well divides by the returned
    ``s``.  A non-finite ``s^2`` raises :class:`~mberlink.errors.NumericalError`.
    """
    norm_sq = np.vdot(sw, sw).real
    if not math.isfinite(norm_sq):
        raise NumericalError(f"filter norm is {norm_sq}")
    if norm_sq < _NORM_EPS:
        return w, 1.0
    s = math.sqrt(norm_sq)
    return w / s, s


def _direction(projection: np.ndarray, w: np.ndarray, r: np.ndarray, b: int, rho: float):
    """``(k, v)`` of both gradients: ``v = r - (Re x / n) S w`` and
    ``k = -c / sqrt(n)``, with ``c`` the update factor at ``n = ||S w||^2``."""
    sign_b = _check_bit(b)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    sw = projection @ w
    n = np.vdot(sw, sw).real
    if n <= _NORM_EPS:
        raise ValueError("filter norm through the projection is ~0; scale the state first")
    xr = np.vdot(sw, r).real
    return -_mber_factor(xr, sign_b, rho, n) / np.sqrt(n), r - (xr / n) * sw


def gradient_w(
    projection: np.ndarray, w: np.ndarray, r: np.ndarray, b: int, rho: float
) -> np.ndarray:
    """Gradient of the error-probability estimate w.r.t. conj(w).

    Returns
    -------
    numpy.ndarray, shape (D,)
        ``k S^H v``, taken as ``(v^H S)^H``, with
        ``v = r - (Re[x] / n) S w``, ``n = w^H S^H S w`` and
        ``k = -exp(-Re[x]^2 / (2 rho^2 n)) sign{b} / (2 sqrt(2 pi) rho sqrt(n))``.
    """
    k, v = _direction(projection, w, r, b, rho)
    return k * (v.conj() @ projection).conj()


def gradient_S(
    projection: np.ndarray, w: np.ndarray, r: np.ndarray, b: int, rho: float
) -> np.ndarray:
    """Gradient of the error-probability estimate w.r.t. conj(S): the
    rank-one ``k v w^H``, with the ``k`` and ``v`` of :func:`gradient_w`."""
    k, v = _direction(projection, w, r, b, rho)
    return k * np.outer(v, w.conj())
