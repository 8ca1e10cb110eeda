"""Tests for the full-rank LMS and MBER reference detectors."""

import copy

import numpy as np
import pytest

from mberlink.baselines import (
    FullRankState,
    init_full_rank,
    lms_update,
    mber_full_rank_update,
)
from mberlink.detector_core import error_probability
from mberlink.jio_mber import JioState, scale_filter, update_filter
from mberlink.signal_model import SpreadingCode, UserConfig, synthesize_arrays
from static_channel import StaticChannel


def toy_stream(num_symbols, sigma, seed):
    """Stationary single-user toy: M = 4, flat unit channel."""
    chips = np.array([1.0, -1.0, 1.0, 1.0]) / 2.0
    code = SpreadingCode(chips=chips, user_id=0)
    user = UserConfig(amplitude=1.0, code=code, channel=StaticChannel([1.0]))
    return synthesize_arrays([user], num_symbols, sigma, seed)


class TestLms:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(0)
        state = init_full_rank(5, mu=0.0)
        state.w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w_before = state.w.copy()
        lms_update(state, rng.standard_normal(5) + 0j, 1)
        assert np.array_equal(state.w, w_before)

    def test_zero_error_is_identity(self):
        state = init_full_rank(3, mu=0.5)
        state.w = np.array([1.0 + 0j, 0, 0])
        r = np.array([1.0 + 0j, 0.3, -0.2])  # w^H r = 1 = b, so e = 0
        w_before = state.w.copy()
        lms_update(state, r, 1)
        assert np.array_equal(state.w, w_before)

    def test_converges_to_wiener_solution(self):
        """Final weights within 5% (2-norm) of the sample normal equations."""
        num_symbols = 10_000
        windows, bits = toy_stream(num_symbols, sigma=0.1, seed=42)
        state = init_full_rank(4, mu=0.01)
        for i in range(num_symbols):
            lms_update(state, windows[i], int(bits[i, 0]))
        cov = windows.conj().T @ windows / num_symbols
        cross = (windows.conj() * bits[:, :1]).mean(axis=0)
        wiener = np.linalg.solve(cov, cross)
        rel = np.linalg.norm(state.w - wiener) / np.linalg.norm(wiener)
        assert rel < 0.05

    def test_training_mse_decreases(self):
        num_symbols = 4000
        windows, bits = toy_stream(num_symbols, sigma=0.2, seed=7)
        state = init_full_rank(4, mu=0.02)
        sq_err = np.empty(num_symbols)
        for i in range(num_symbols):
            e = bits[i, 0] - np.vdot(state.w, windows[i])
            sq_err[i] = abs(e) ** 2
            lms_update(state, windows[i], int(bits[i, 0]))
        assert sq_err[:500].mean() > sq_err[-500:].mean()


class TestMberFullRank:
    def test_mu_zero_identity_on_normalized_filter(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w /= np.linalg.norm(w)
        state = FullRankState(w=w.copy(), mu=0.0, rho=0.8)
        mber_full_rank_update(state, rng.standard_normal(5) + 0j, 1)
        assert np.array_equal(state.w, w)

    def test_specialization_matches_reduced_rank_update_bitwise(self):
        """50 sequential samples: identity-projection reduced-rank recursion
        plus scaling reproduces the full-rank MBER state bit for bit."""
        rng = np.random.default_rng(2)
        m = 9
        w0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        fr = FullRankState(w=w0.copy(), mu=0.04, rho=0.7)
        jio = JioState(
            S=np.eye(m, dtype=np.complex128),
            w=w0.copy(),
            mu_w=0.04,
            mu_S=0.0,
            J=1,
            rho=0.7,
        )
        for _ in range(50):
            r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b = int(rng.choice([-1, 1]))
            mber_full_rank_update(fr, r, b)
            jio.w = update_filter(jio, r, b)
            scale_filter(jio)
            assert np.array_equal(fr.w, jio.w)

    def test_unit_norm_after_update(self):
        rng = np.random.default_rng(3)
        state = init_full_rank(6, mu=0.05, rho=0.5)
        for _ in range(40):
            r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            mber_full_rank_update(state, r, int(rng.choice([-1, 1])))
            assert np.linalg.norm(state.w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_init_flags_then_recovers(self):
        state = init_full_rank(4, mu=0.1, rho=1.0)
        mber_full_rank_update(state, np.ones(4, dtype=complex), 1)
        # the first update lifts w off zero, so scaling applies immediately
        assert not state.scaling_skipped
        assert np.linalg.norm(state.w) == pytest.approx(1.0, abs=1e-12)

    def test_small_step_descends_error_estimate(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            w /= np.linalg.norm(w)
            state = FullRankState(w=w, mu=1e-6, rho=0.9)
            r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = int(rng.choice([-1, 1]))

            def estimate(weights):
                x = complex(np.vdot(weights, r))
                norm_sq = float(np.vdot(weights, weights).real)
                return error_probability(x, b, norm_sq, state.rho)

            before = estimate(state.w)
            w_prev = state.w.copy()
            mber_full_rank_update(state, r, b)
            # evaluate at the unscaled update; scaling leaves the estimate invariant
            assert estimate(state.w) <= before + 1e-15

    def test_requires_rho(self):
        state = init_full_rank(4, mu=0.1)
        from mberlink.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            mber_full_rank_update(state, np.ones(4, dtype=complex), 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_raises(self):
        """One infinite chip must fail loudly, not turn w into NaN."""
        from mberlink.errors import NumericalError

        rng = np.random.default_rng(5)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = FullRankState(w=w / np.linalg.norm(w), mu=0.05, rho=0.5)
        r = np.ones(4, dtype=complex)
        r[2] = np.inf
        with pytest.raises(NumericalError):
            mber_full_rank_update(state, r, 1)


class TestStepContract:
    """Each rule is a whole step, as jio_step is: it decides on w^H r,
    steps toward b_known (or toward that decision when it is None) and
    returns the decision."""

    @staticmethod
    def _state(name, rng):
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        if name == "lms":
            return lms_update, FullRankState(w=w, mu=0.03)
        return mber_full_rank_update, FullRankState(w=w / np.linalg.norm(w), mu=0.05, rho=0.5)

    @pytest.mark.parametrize("name", ["lms", "mber"])
    def test_returns_decision_and_follows_it_without_a_reference(self, name):
        rng = np.random.default_rng(11)
        for _ in range(40):
            rule, state = self._state(name, rng)
            r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            expected = 1 if np.vdot(state.w, r).real >= 0.0 else -1
            toward_bit = copy.deepcopy(state)
            assert rule(toward_bit, r, expected) == expected
            assert rule(state, r) == expected
            assert np.array_equal(state.w, toward_bit.w)
            assert state.scaling_skipped == toward_bit.scaling_skipped

    @pytest.mark.parametrize("name", ["lms", "mber"])
    def test_reference_bit_steers_the_step_not_the_decision(self, name):
        rng = np.random.default_rng(12)
        for _ in range(40):
            rule, state = self._state(name, rng)
            r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            decided = 1 if np.vdot(state.w, r).real >= 0.0 else -1
            followed = copy.deepcopy(state)
            rule(followed, r)
            assert rule(state, r, -decided) == decided
            assert not np.array_equal(state.w, followed.w)

    def test_lms_step_toward_its_decision(self):
        state = FullRankState(w=np.array([0.5 + 0j, 0.0, 0.0]), mu=0.1)
        r = np.array([-1.0 + 0j, 0.2, 0.0])  # w^H r = -0.5: decide -1, error -0.5
        assert lms_update(state, r) == -1
        np.testing.assert_allclose(state.w, [0.55, -0.01, 0.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "rule, kwargs", [(lms_update, {}), (mber_full_rank_update, {"rho": 0.5})]
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_raises(self, rule, kwargs):
        from mberlink.errors import NumericalError

        state = FullRankState(w=np.array([1.0 + 0j, 0.0]), mu=0.1, **kwargs)
        with pytest.raises(NumericalError, match="detector output"):
            rule(state, np.array([np.nan + 0j, 1.0]))
