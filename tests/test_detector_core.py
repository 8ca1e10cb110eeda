"""Tests for the detection pipeline and error-probability machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mberlink.detector_core import (
    _decide,
    error_probability,
    gradient_S,
    gradient_w,
    q_function,
)
from mberlink.errors import NumericalError

# Q(1) frozen from a 50-digit complementary-error-function evaluation
# (mpmath: 0.5*erfc(1/sqrt(2))).
Q_OF_ONE = 0.15865525393145705141


def random_instance(rng, m_max=8, d_max=4, bounded=True):
    """Random (S, w, r, b, rho) with a healthy decision statistic.

    ``bounded`` keeps |x_tilde| / (rho sqrt(n)) below 2.5 so the
    exponential factor cannot underflow the gradients into the noise
    floor of a finite-difference comparison.
    """
    while True:
        m = int(rng.integers(2, m_max + 1))
        d = int(rng.integers(1, min(m, d_max) + 1))
        S = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = int(rng.choice([-1, 1]))
        rho = float(rng.uniform(0.5, 2.0))
        sw = S @ w
        n = np.vdot(sw, sw).real
        if n < 1e-3:
            continue
        xt = b * np.vdot(w, S.conj().T @ r).real
        if bounded and abs(xt) / (rho * np.sqrt(n)) > 2.5:
            continue
        return S, w, r, b, rho


def pipeline_error(S, w, r, b, rho):
    """Error probability of the full pipeline, recomputed from scratch."""
    x = complex(np.vdot(w, S.conj().T @ r))
    sw = S @ w
    return error_probability(x, b, np.vdot(sw, sw).real, rho)


class TestFilterAndDecide:
    """The hard decision ``_decide(Re w^H r)`` every detector takes."""

    def test_zero_input_ties_to_plus_one(self):
        assert _decide(np.vdot(np.array([1 + 0j]), np.array([0j])).real) == 1
        assert _decide(-0.0) == 1
        assert _decide(-1e-300) == -1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_raises(self, bad):
        x = np.vdot(np.array([1 + 0j]), np.array([complex(bad, 0.0)]))
        with pytest.raises(NumericalError):
            _decide(x.real)


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_reflection_identity(self):
        assert q_function(-1.7) == pytest.approx(1 - q_function(1.7), abs=1e-14)

    def test_q_of_one(self):
        assert q_function(1.0) == pytest.approx(Q_OF_ONE, abs=1e-14)

    def test_symmetry_on_grid(self):
        x = np.arange(-32, 33) * 0.25
        np.testing.assert_allclose(q_function(x) + q_function(-x), 1.0, atol=1e-12)


class TestErrorProbability:
    def test_zero_statistic_is_half(self):
        assert error_probability(0.0 + 3.0j, 1, 5.0, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_known_value(self):
        assert error_probability(0.7 + 0j, 1, 1.0, 0.7) == pytest.approx(Q_OF_ONE, abs=1e-13)

    def test_joint_flip_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = complex(rng.standard_normal() + 1j * rng.standard_normal())
            n, rho = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 2))
            p1 = error_probability(x, 1, n, rho)
            p2 = error_probability(-x, -1, n, rho)
            assert p1 == p2

    def test_strictly_decreasing_in_signed_statistic(self):
        values = np.linspace(-4, 4, 41)
        probs = [error_probability(complex(v), 1, 1.3, 0.6) for v in values]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize(
        "b, norm_sq, rho, message",
        [(0, 0.0, 0.0, "bit"), (1, 0.0, 0.0, "norm_sq"), (-1, 1.0, 0.0, "rho")],
    )
    def test_checks_bit_then_norm_then_rho(self, b, norm_sq, rho, message):
        with pytest.raises(ValueError, match=message):
            error_probability(1.0 + 0j, b, norm_sq, rho)

    @settings(deadline=None, max_examples=40)
    @given(
        scale=st.floats(min_value=0.01, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_positive_scaling_of_filter_is_invariant(self, scale, seed):
        """Scaling w by c > 0 scales Re[x] and sqrt(norm) alike: P_e unchanged."""
        rng = np.random.default_rng(seed)
        S, w, r, b, rho = random_instance(rng, bounded=False)
        p1 = pipeline_error(S, w, r, b, rho)
        p2 = pipeline_error(S, scale * w, r, b, rho)
        assert p2 == pytest.approx(p1, rel=1e-9, abs=1e-300)


class TestGradients:
    def test_gradient_w_zero_output_closed_form(self):
        """At Re[x]=0 and unit norm only the excitation term survives."""
        S = np.zeros((5, 2), dtype=complex)
        S[:2, :2] = np.eye(2)
        w = np.array([1.0 + 0j, 0.0])
        r = np.array([2.0j, 0.5 + 1j, 1.0, 0, 0])  # w^H S^H r = r[0] = 2j
        rho = 0.8
        for b in (-1, 1):
            g = gradient_w(S, w, r, b, rho)
            expected = -b / (2 * np.sqrt(2 * np.pi) * rho) * (S.conj().T @ r)
            np.testing.assert_allclose(g, expected, rtol=1e-13)

    def test_gradient_S_zero_output_closed_form(self):
        S = np.zeros((5, 2), dtype=complex)
        S[:2, :2] = np.eye(2)
        w = np.array([1.0 + 0j, 0.0])
        r = np.array([2.0j, 0.5 + 1j, 1.0, 0, 0])
        rho = 1.1
        g = gradient_S(S, w, r, 1, rho)
        expected = -1 / (2 * np.sqrt(2 * np.pi) * rho) * np.outer(r, w.conj())
        np.testing.assert_allclose(g, expected, rtol=1e-13)

    def test_gradients_invariant_under_joint_negation(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            S, w, r, b, rho = random_instance(rng, bounded=False)
            np.testing.assert_array_equal(
                gradient_w(S, w, r, b, rho), gradient_w(S, w, -r, -b, rho)
            )
            np.testing.assert_array_equal(
                gradient_S(S, w, r, b, rho), gradient_S(S, w, -r, -b, rho)
            )

    def test_bit_identical_to_literal_coefficient_arithmetic(self):
        """Both gradients equal, bit for bit, ``k S^H v`` and ``k v w^H``
        written out in full, on states whose norm is not 1; and, within
        1e-12 of the largest entry, the ``S^H r`` / ``S^H S w`` form."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            S, w, r, b, rho = random_instance(rng, bounded=False)
            sw = S @ w
            n = np.vdot(sw, sw).real
            assert n != 1.0

            def coeff(xr):
                return (
                    -np.exp(-(xr * xr) / (2.0 * rho * rho * n))
                    * float(b)
                    / (2.0 * np.sqrt(2.0 * np.pi) * rho)
                )

            xr = np.vdot(sw, r).real
            k = coeff(xr) / np.sqrt(n)
            v = r - (xr / n) * sw
            wc = w.conj()
            g_w, g_S = gradient_w(S, w, r, b, rho), gradient_S(S, w, r, b, rho)
            assert np.array_equal(g_w, k * np.conj(np.conj(v) @ S))
            assert np.array_equal(g_S, k * np.outer(v, wc))
            z = S.conj().T @ r
            xr = np.vdot(w, z).real
            z_form_w = coeff(xr) * (z / np.sqrt(n) - (xr / n**1.5) * (S.conj().T @ sw))
            z_form_S = coeff(xr) * (
                np.outer(r, wc) / np.sqrt(n) - (xr / n**1.5) * np.outer(sw, wc)
            )
            for g, z_form in ((g_w, z_form_w), (g_S, z_form_S)):
                assert np.abs(g - z_form).max() <= 1e-12 * np.abs(z_form).max()

    def test_zero_filter_rejected(self):
        S = np.eye(4, dtype=complex)
        w = np.zeros(4, dtype=complex)
        r = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            gradient_w(S, w, r, 1, 1.0)
        with pytest.raises(ValueError):
            gradient_S(S, w, r, 1, 1.0)

    def test_gradient_w_matches_finite_differences(self):
        """Central differences of the full pipeline, parts perturbed separately."""
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(25):
            S, w, r, b, rho = random_instance(rng)
            g = gradient_w(S, w, r, b, rho)
            d = w.shape[0]
            analytic = np.concatenate([2 * g.real, 2 * g.imag])
            fd = np.zeros(2 * d)
            for i in range(d):
                for part, off in ((1.0, 0), (1j, d)):
                    wp, wm = w.copy(), w.copy()
                    wp[i] += part * h
                    wm[i] -= part * h
                    fd[i + off] = (
                        pipeline_error(S, wp, r, b, rho)
                        - pipeline_error(S, wm, r, b, rho)
                    ) / (2 * h)
            rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
            assert rel <= 1e-6

    def test_gradient_S_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for _ in range(10):
            S, w, r, b, rho = random_instance(rng, m_max=6, d_max=3)
            g = gradient_S(S, w, r, b, rho)
            m, d = S.shape
            analytic = np.concatenate([2 * g.real.ravel(), 2 * g.imag.ravel()])
            fd = np.zeros(2 * m * d)
            for part, off in ((1.0, 0), (1j, m * d)):
                for i in range(m):
                    for j in range(d):
                        Sp, Sm = S.copy(), S.copy()
                        Sp[i, j] += part * h
                        Sm[i, j] -= part * h
                        fd[off + i * d + j] = (
                            pipeline_error(Sp, w, r, b, rho)
                            - pipeline_error(Sm, w, r, b, rho)
                        ) / (2 * h)
            rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
            assert rel <= 1e-6
