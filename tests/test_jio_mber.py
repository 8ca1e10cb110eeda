"""Tests for the jointly adapted projection/filter detector."""

import copy
import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mberlink.detector_core import (
    _unit_norm,
    error_probability,
    gradient_S,
    gradient_w,
    q_function,
)
from mberlink.errors import ConfigurationError, NumericalError
from mberlink.jio_mber import (
    JioState,
    _cycle,
    _truncated_statistics,
    auto_step,
    init_stack,
    init_state,
    jio_step,
    scale_filter,
    stack_step,
    update_filter,
)


def random_state(rng, m=6, d=3, mu_w=0.01, mu_S=0.02, j=1, rho=0.8, normalized=True):
    state = init_state(m, d, mu_w, mu_S, j, rho)
    state.S = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    state.w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if normalized:
        scale_filter(state)
    return state


def random_sample(rng, m):
    r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return r, int(rng.choice([-1, 1]))


def _projection_step(state, r, b):
    """The projection half of one joint cycle: the new S, state untouched."""
    return _cycle(state.S, state.w, r, b, state.rho, state.mu_w, state.mu_S)[0]


def state_error(state, r, b):
    sw = state.S @ state.w
    x = complex(np.vdot(state.w, state.S.conj().T @ r))
    return error_probability(x, b, np.vdot(sw, sw).real, state.rho)


class TestInitState:
    def test_identity_block_and_zero_filter(self):
        state = init_state(5, 2, 0.1, 0.1, 1, 1.0)
        expected = np.array([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]], dtype=complex)
        assert np.array_equal(state.S, expected)
        assert np.array_equal(state.w, np.zeros(2, dtype=complex))

    def test_full_rank_gives_identity(self):
        state = init_state(4, 4, 0.1, 0.1, 1, 1.0)
        assert np.array_equal(state.S, np.eye(4, dtype=complex))

    def test_invalid_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            init_state(4, 0, 0.1, 0.1, 1, 1.0)
        with pytest.raises(ConfigurationError):
            init_state(4, 5, 0.1, 0.1, 1, 1.0)

    @pytest.mark.parametrize("J", [0, 2.7, 1.0])
    def test_invalid_cycle_count_rejected(self, J):
        """A non-integer J is refused, not truncated: 2.7 used to run as 2."""
        with pytest.raises(ConfigurationError):
            init_state(4, 2, 0.1, 0.1, J, 1.0)
        assert init_state(4, 2, 0.1, 0.1, np.int64(2), 1.0).J == 2

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), 1e-170])
    def test_invalid_rho_rejected(self, rho):
        """The update factor divides by 2 rho^2 in Python floats, so a rho
        whose square underflows to 0 is rejected up front."""
        with pytest.raises(ConfigurationError):
            init_state(4, 2, 0.1, 0.1, 1, rho)
        init_state(4, 2, 0.1, 0.1, 1, 1e-150)


class TestUpdateFilter:
    def test_zero_step_leaves_filter(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, mu_w=0.0)
        r, b = random_sample(rng, 6)
        assert np.array_equal(update_filter(state, r, b), state.w)

    def test_equals_negated_gradient_on_unit_norm_state(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            state = random_state(rng)
            r, b = random_sample(rng, 6)
            expected = state.w - state.mu_w * gradient_w(
                state.S, state.w, r, b, state.rho
            )
            np.testing.assert_allclose(
                update_filter(state, r, b), expected, rtol=0, atol=1e-12
            )

    def test_small_step_descends_error_estimate(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            state = random_state(rng, mu_w=1e-6)
            r, b = random_sample(rng, 6)
            before = state_error(state, r, b)
            state.w = update_filter(state, r, b)
            after = state_error(state, r, b)
            assert after <= before + 1e-15


class TestCycleProjectionHalf:
    """The projection recursion, the S half of ``jio_mber._cycle``."""

    def test_zero_step_leaves_projection(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, mu_S=0.0)
        r, b = random_sample(rng, 6)
        assert np.array_equal(_projection_step(state, r, b), state.S)

    def test_equals_negated_gradient_on_unit_norm_state(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            state = random_state(rng)
            r, b = random_sample(rng, 6)
            expected = state.S - state.mu_S * gradient_S(
                state.S, state.w, r, b, state.rho
            )
            np.testing.assert_allclose(
                _projection_step(state, r, b), expected, rtol=0, atol=1e-12
            )

    def test_increment_has_rank_one(self):
        """The increment is the outer product ``u w^H``."""
        rng = np.random.default_rng(5)
        state = random_state(rng, m=8, d=4, mu_S=0.3)
        r, b = random_sample(rng, 8)
        increment = _projection_step(state, r, b) - state.S
        assert np.linalg.matrix_rank(increment, tol=1e-10) <= 1


class TestScaleFilter:
    def test_idempotent_on_normalized_state(self):
        rng = np.random.default_rng(6)
        state = random_state(rng)
        w_before = state.w.copy()
        scale_filter(state)
        np.testing.assert_allclose(state.w, w_before, rtol=0, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, normalized=False)
        doubled = copy.deepcopy(state)
        doubled.w = 2.0 * doubled.w
        scale_filter(state)
        scale_filter(doubled)
        np.testing.assert_allclose(state.w, doubled.w, rtol=1e-12)

    def test_norm_is_one_after_scaling(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = random_state(rng, normalized=False)
            scale_filter(state)
            sw = state.S @ state.w
            assert np.vdot(sw, sw).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_filter_kept_unscaled(self):
        """A filter whose ``||S w||^2`` is below 1e-12, the all-zero init or
        not, is kept as it is, bit for bit, not divided by its norm."""
        state = init_state(5, 2, 0.1, 0.1, 1, 1.0)
        scale_filter(state)
        assert np.array_equal(state.w, np.zeros(2, dtype=complex))
        tiny = np.array([1e-7, 0], dtype=complex)
        state.w = tiny.copy()
        scale_filter(state)
        assert np.array_equal(state.w, tiny)


class TestJioStep:
    def test_invariant_unit_norm_after_every_step(self):
        rng = np.random.default_rng(9)
        state = init_state(8, 3, 0.05, 0.05, 3, 0.5)
        for _ in range(300):
            r, b = random_sample(rng, 8)
            jio_step(state, r, b)
            sw = state.S @ state.w
            assert abs(np.vdot(sw, sw).real - 1.0) < 1e-10

    def test_two_inner_cycles_equal_composed_single_cycles(self):
        """A step at J = 2 is two steps at J = 1 on the same r, up to the
        rounding of the ``S w`` that the J = 2 step carries between its
        cycles; both J = 1 steps decide alike here."""
        rng = np.random.default_rng(10)
        state2 = random_state(rng, j=2, mu_w=0.04, mu_S=0.04)
        state1 = copy.deepcopy(state2)
        state1.J = 1
        r, b = random_sample(rng, 6)
        jio_step(state2, r, b)
        dec_a = jio_step(state1, r, b)
        dec_b = jio_step(state1, r, b)
        np.testing.assert_allclose(state1.w, state2.w, rtol=0, atol=1e-13)
        np.testing.assert_allclose(state1.S, state2.S, rtol=0, atol=1e-13)
        assert dec_a == dec_b

    def test_zero_steps_freeze_state_and_decision(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, mu_w=0.0, mu_S=0.0)
        frozen_w = state.w.copy()
        frozen_S = state.S.copy()
        for _ in range(10):
            r, b = random_sample(rng, 6)
            expected = 1 if np.vdot(state.w, state.S.conj().T @ r).real >= 0 else -1
            decided = jio_step(state, r, b)
            assert decided == expected
            np.testing.assert_allclose(state.w, frozen_w, rtol=0, atol=1e-12)
            assert np.array_equal(state.S, frozen_S)

    def test_first_step_lifts_zero_filter(self):
        rng = np.random.default_rng(12)
        state = init_state(6, 2, 0.05, 0.05, 1, 0.7)
        r, _ = random_sample(rng, 6)
        jio_step(state, r, 1)
        sw = state.S @ state.w
        assert np.vdot(sw, sw).real == pytest.approx(1.0, abs=1e-10)

    def test_joint_negation_invariance_in_training(self):
        rng = np.random.default_rng(13)
        a = init_state(7, 3, 0.03, 0.03, 2, 0.6)
        b_state = init_state(7, 3, 0.03, 0.03, 2, 0.6)
        for _ in range(50):
            r, b = random_sample(rng, 7)
            jio_step(a, r, b)
            jio_step(b_state, -r, -b)
            assert np.array_equal(a.w, b_state.w)
            assert np.array_equal(a.S, b_state.S)

    def test_first_order_descent_of_one_cycle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            state = random_state(rng, mu_w=1e-6, mu_S=1e-6)
            r, b = random_sample(rng, 6)
            before = state_error(state, r, b)
            jio_step(state, r, b)
            after = state_error(state, r, b)
            assert after <= before + 1e-15


def candidate_errors(state, r, b, d_min=1):
    """Error estimate Q(b stat / rho) of each truncation d_min..D."""
    return q_function(b * _truncated_statistics(state, d_min, r)[0] / state.rho)


def picked_rank(state, d_min, r, b):
    """The rank :func:`auto_step` picks, read from a copy of the state."""
    return auto_step(copy.deepcopy(state), d_min, r, b)[1]


def truncate_rescale_errors(state, r, b, d_min, d_max):
    """Oracle: truncate to the leading d taps and columns, rescale to unit
    norm, then Q of the bit-aligned output; a vanishing norm scores 0.5.
    ``b=None`` aligns every candidate with the full state's decision.  Q is
    evaluated with enough digits to resolve ``1 - Q(u) ~ exp(-u^2 / 2)``:
    in double precision it rounds to exactly 1.0 below about -8.3, which
    would tie candidates whose outputs differ."""
    if b is None:
        b = 1 if np.vdot(state.w, state.S.conj().T @ r).real >= 0.0 else -1
    errors = []
    for d in range(d_min, d_max + 1):
        w_t = state.w[:d]
        s_t = state.S[:, :d]
        sw = s_t @ w_t
        n = np.vdot(sw, sw).real
        if n < 1e-12:
            errors.append(0.5)
            continue
        x = np.vdot(w_t / np.sqrt(n), s_t.conj().T @ r).real
        u = b * x / state.rho
        with mpmath.workdps(30 + int(u * u / 4)):
            errors.append(mpmath.erfc(mpmath.mpf(u) / mpmath.sqrt(2)) / 2)
    return errors


class TestCandidateError:
    """The error estimate of each candidate truncation, as rank selection
    scores it from the prefix statistics."""

    def test_full_rank_candidate_matches_error_probability(self):
        rng = np.random.default_rng(15)
        state = random_state(rng, m=8, d=5)
        r, b = random_sample(rng, 8)
        full = state_error(state, r, b)
        assert candidate_errors(state, r, b)[-1] == pytest.approx(full, rel=1e-12)

    def test_matches_truncate_rescale_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            state = random_state(rng, m=9, d=6, normalized=bool(rng.integers(2)))
            r, b = random_sample(rng, 9)
            expected = [float(e) for e in truncate_rescale_errors(state, r, b, 1, 6)]
            np.testing.assert_allclose(
                candidate_errors(state, r, b), expected, rtol=1e-12
            )

    def test_zero_statistic_gives_half(self):
        rng = np.random.default_rng(17)
        state = random_state(rng)
        errors = candidate_errors(state, np.zeros(6, dtype=complex), 1)
        assert np.array_equal(errors, np.full(3, 0.5))

    def test_zero_norm_truncation_scores_half(self):
        state = init_state(6, 3, 0.1, 0.1, 1, 1.0)
        state.w = np.array([0.0, 0.0, 1.0], dtype=complex)
        r = np.ones(6, dtype=complex)
        errors = candidate_errors(state, r, 1)
        assert errors[0] == 0.5 and errors[1] == 0.5
        assert errors[2] < 0.5

    def test_rejects_out_of_range_rank(self):
        state = init_state(6, 3, 0.1, 0.1, 1, 1.0)
        for d_min in (0, 4):
            with pytest.raises(ConfigurationError):
                _truncated_statistics(state, d_min, np.ones(6, dtype=complex))


class TestAutoStepRankPick:
    def test_singleton_range(self):
        rng = np.random.default_rng(18)
        state = random_state(rng, m=10, d=8)
        r, b = random_sample(rng, 10)
        assert picked_rank(state, 8, r, b) == 8

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_matches_brute_force(self, seed, m, data):
        """auto_step's rank is the argmin (first on ties) of the
        truncate-rescale oracle, for a known bit and for b=None, over random
        states, leading all-zero taps and rank ranges up to the state's."""
        d = data.draw(st.integers(min_value=1, max_value=m))
        d_min = data.draw(st.integers(min_value=1, max_value=d))
        zero_lead = data.draw(st.integers(min_value=0, max_value=d))
        b = data.draw(st.sampled_from([-1, 1, None]))
        rho = data.draw(st.floats(min_value=0.05, max_value=3.0))
        rng = np.random.default_rng(seed)
        state = random_state(rng, m=m, d=d, rho=rho, normalized=False)
        state.w[:zero_lead] = 0.0
        r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        errors = truncate_rescale_errors(state, r, b, d_min, d)
        expected = d_min + min(range(len(errors)), key=errors.__getitem__)
        assert picked_rank(state, d_min, r, b) == expected

    def test_all_tied_returns_d_min(self):
        rng = np.random.default_rng(20)
        state = random_state(rng, m=10, d=8)
        assert picked_rank(state, 3, np.zeros(10, dtype=complex), 1) == 3

    def test_result_always_in_range(self):
        rng = np.random.default_rng(21)
        state = random_state(rng, m=10, d=8)
        for _ in range(20):
            r, b = random_sample(rng, 10)
            d = picked_rank(state, 2, r, b)
            assert 2 <= d <= 8

    def test_rejects_range_beyond_state(self):
        state = init_state(6, 3, 0.1, 0.1, 1, 1.0)
        with pytest.raises(ConfigurationError):
            picked_rank(state, 4, np.ones(6, dtype=complex), 1)


class TestAutoStepDecisionDirected:
    @staticmethod
    def assert_is_jio_step(state, d_min, r):
        """Decision-directed auto_step decides and adapts as jio_step does
        on a deep copy: same decision, S and w, bit for bit."""
        fixed = copy.deepcopy(state)
        decided, _ = auto_step(state, d_min, r)
        assert decided == jio_step(fixed, r)
        assert np.array_equal(state.S, fixed.S)
        assert np.array_equal(state.w, fixed.w)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("j", [1, 3])
    def test_random_states(self, seed, j):
        rng = np.random.default_rng(seed)
        state = random_state(rng, m=10, d=8, j=j, normalized=seed % 2 == 0)
        self.assert_is_jio_step(state, 2, random_sample(rng, 10)[0])

    def test_zero_window_gives_zero_output(self):
        """An output of exactly 0: every truncation ties at 0."""
        state = random_state(np.random.default_rng(30), m=10, d=8, j=2)
        self.assert_is_jio_step(state, 3, np.zeros(10, dtype=complex))

    def test_all_zero_filter(self):
        """A vanishing full-state norm: every truncation has norm 0."""
        rng = np.random.default_rng(31)
        state = init_state(10, 8, 0.01, 0.02, 2, 0.8)
        self.assert_is_jio_step(state, 3, random_sample(rng, 10)[0])


class TestTruncatedStatistics:
    def test_prefix_quantities_match_direct_computation(self):
        rng = np.random.default_rng(22)
        state = random_state(rng, m=9, d=6, normalized=False)
        r, _ = random_sample(rng, 9)
        stat, xr = _truncated_statistics(state, 2, r)
        for d in range(2, 7):
            w_t, s_t = state.w[:d], state.S[:, :d]
            x = np.vdot(w_t, s_t.conj().T @ r).real
            sw = s_t @ w_t
            assert xr[d - 2] == pytest.approx(x, rel=1e-12)
            assert stat[d - 2] == pytest.approx(x / np.sqrt(np.vdot(sw, sw).real), rel=1e-12)


class TestAutoStepRankRange:
    def test_rejects_bad_range(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, m=6, d=5)
        r, b = random_sample(rng, 6)
        for d_min in (0, 6):
            with pytest.raises(ConfigurationError):
                auto_step(state, d_min, r, b)

    @pytest.mark.parametrize("b", [1, -1, None])
    def test_non_finite_window_raises_and_keeps_state(self, b):
        """A NaN chip makes the full state's output NaN, which jio_step's
        decision refuses, trained or decision-directed, before any update;
        without a bit it used to read as a -1 reference."""
        rng = np.random.default_rng(24)
        state = random_state(rng, m=6, d=4)
        before = copy.deepcopy(state)
        r, _ = random_sample(rng, 6)
        r[2] = np.nan
        with pytest.raises(NumericalError, match=r"^detector output is nan$"):
            auto_step(state, 1, r, b)
        assert np.array_equal(state.S, before.S) and np.array_equal(state.w, before.w)


def _rank_one_projection(S, w, r, sw, xr, step):
    """``S + step (r - Re x S w) w^H``: the kernel's order of operations."""
    return S + np.outer(step * (r - xr * sw), w.conj())


def _two_outer_projection(S, w, r, sw, xr, step):
    """``S + step (r w^H - Re x (S w) w^H)``: the same update as two outer
    products, which rounds differently from the rank-one order."""
    wc = w.conj()
    return S + step * (np.outer(r, wc) - xr * np.outer(sw, wc))


def _plain_factor(state, xr, b):
    return (
        np.exp(-(xr * xr) / (2.0 * state.rho * state.rho))
        * float(b)
        / (2.0 * np.sqrt(2.0 * np.pi) * state.rho)
    )


def _plain_scaling(state, w_next):
    """Sets ``w = w_next / ||S w_next||`` (kept as it is when ~0);
    returns the ``S w`` of the result."""
    sw = state.S @ w_next
    norm_sq = np.vdot(sw, sw).real
    if norm_sq < 1e-12:
        state.w = w_next
        return sw
    state.w = w_next / np.sqrt(norm_sq)
    return sw / np.sqrt(norm_sq)


def _reference_cycles(state, r, b, projection=_rank_one_projection):
    """The J inner cycles written out with the plain per-function
    arithmetic (``np.conj`` copies, ``np.outer``) in the kernel's order,
    as the oracle: ``v = r - Re x S w``, the filter step from ``v^H S``,
    and ``S w`` carried from each scaling to the next cycle."""
    sw = state.S @ state.w
    for _ in range(state.J):
        S, w = state.S, state.w
        xr = np.vdot(sw, r).real
        c = _plain_factor(state, xr, b)
        v = r - xr * sw
        w_next = w + (state.mu_w * c) * np.conj(np.conj(v) @ S)
        state.S = projection(S, w, r, sw, xr, state.mu_S * c)
        sw = _plain_scaling(state, w_next)


def _z_form_cycles(state, r, b):
    """The cycles as written before the ``v`` form: ``z = S^H r``,
    ``Re x = Re w^H z``, the filter step ``z - Re x S^H S w`` and ``S w``
    formed afresh in every cycle."""
    for _ in range(state.J):
        S, w = state.S, state.w
        z = S.conj().T @ r
        xr = np.vdot(w, z).real
        c = _plain_factor(state, xr, b)
        w_next = w + (state.mu_w * c) * (z - xr * (S.conj().T @ (S @ w)))
        state.S = _rank_one_projection(S, w, r, S @ w, xr, state.mu_S * c)
        _plain_scaling(state, w_next)


def _composed_cycles(state, r, b):
    """The J cycles from separate calls: the first is update_filter,
    _projection_step and scale_filter; every later one is _cycle handed
    the ``S w`` that the scaling before it left, then _unit_norm.  That
    ``S w`` is the scaling's ``S w_next / s``, which scale_filter drops
    (``S (w_next / s)`` rounds differently), so it is divided by the
    ``s`` of _unit_norm once more."""
    w_next = update_filter(state, r, b)
    state.S = _projection_step(state, r, b)
    state.w = w_next
    scale_filter(state)
    sw = state.S @ w_next
    sw = sw / _unit_norm(w_next, sw)[1]
    for _ in range(state.J - 1):
        args = (state.S, state.w, r, b, state.rho, state.mu_w, state.mu_S, sw)
        state.S, w_next = _cycle(*args)
        sw = state.S @ w_next
        state.w, s = _unit_norm(w_next, sw)
        sw = sw / s


def _own_decision(state, r):
    return 1 if np.vdot(state.w, state.S.conj().T @ r).real >= 0 else -1


class TestFusedCycles:
    M = 33

    def _symbols(self, rng, states):
        """240 symbols, training for the first 80: zero windows at symbols
        0-2 and 150, where every filter is also reset to zero (so the
        scaling skip must happen again).  Yields ``(i, r, b_known)``."""
        codes = rng.choice([-1.0, 1.0], size=(3, self.M))
        zero = np.zeros(self.M, dtype=complex)
        for i in range(240):
            training = i < 80
            bits = rng.choice([-1, 1], size=3)
            noise = rng.standard_normal(self.M) + 1j * rng.standard_normal(self.M)
            r = bits @ codes + 0.3 * noise
            if i == 150:
                for s in states:
                    s.w = np.zeros_like(s.w)
            if i < 3 or i == 150:
                r = zero
            yield i, r, int(bits[0]) if training else None

    @pytest.mark.parametrize("d", [1, 8, 20, 33])
    @pytest.mark.parametrize("j", [1, 5])
    def test_bit_identical_to_composed_updates(self, d, j):
        """jio_step equals decide-then-compose, bit for bit, at every symbol:
        all-zero start, forced scaling skips (the filter stays exactly 0
        there and nowhere else), training then decision-directed."""
        rng = np.random.default_rng(100 + d + j)
        fused = init_state(self.M, d, 0.05, 0.05, j, 0.35)
        composed = copy.deepcopy(fused)
        reference = copy.deepcopy(fused)
        for i, r, b_known in self._symbols(rng, (fused, composed, reference)):
            decided = jio_step(fused, r, b_known)
            expected = _own_decision(composed, r)
            assert decided == expected
            b = expected if b_known is None else b_known
            _composed_cycles(composed, r, b)
            _reference_cycles(reference, r, b)
            for other in (composed, reference):
                assert np.array_equal(fused.S, other.S), i
                assert np.array_equal(fused.w, other.w), i
            assert (not fused.w.any()) == (i < 3 or i == 150), i

    @pytest.mark.parametrize(
        "oracle",
        [functools.partial(_reference_cycles, projection=_two_outer_projection), _z_form_cycles],
        ids=["two_outer", "z_form"],
    )
    @pytest.mark.parametrize("d", [1, 8, 20, 33])
    @pytest.mark.parametrize("j", [1, 5])
    def test_two_outer_product_form_agrees_within_rounding(self, d, j, oracle):
        """Two other orders of the same cycle round differently from the
        kernel's but decide the same at every one of the same 240 symbols,
        with S and w within 1e-13 of jio_step's.  The one exception is the
        ``z = S^H r`` form, with ``S w`` formed afresh in every cycle, at
        d = 1 and J = 5, which gets 5e-12: at d = 1 the real part of its
        filter step ``z - Re x S^H S w`` cancels exactly, and over J = 5 it
        strays up to 1.8e-12 from jio_step (1.3e-12 from a long-double run
        of the same symbols, where jio_step strays up to 4.9e-13)."""
        atol = 5e-12 if oracle is _z_form_cycles and d == 1 and j == 5 else 1e-13
        rng = np.random.default_rng(100 + d + j)
        fused = init_state(self.M, d, 0.05, 0.05, j, 0.35)
        two_outer = copy.deepcopy(fused)
        for i, r, b_known in self._symbols(rng, (fused, two_outer)):
            decided = jio_step(fused, r, b_known)
            expected = _own_decision(two_outer, r)
            assert decided == expected, i
            b = expected if b_known is None else b_known
            oracle(two_outer, r, b)
            np.testing.assert_allclose(fused.S, two_outer.S, rtol=0, atol=atol)
            np.testing.assert_allclose(fused.w, two_outer.w, rtol=0, atol=atol)


class TestStackStep:
    M = 33

    @pytest.mark.parametrize("ranks", [(4,), (2, 4, 6), (4, 4), (2, 33)])
    @pytest.mark.parametrize("j", [1, 5])
    @pytest.mark.parametrize("dd_symbols", [0, 160])
    def test_matches_jio_step_per_state(self, ranks, j, dd_symbols):
        """Each stacked state decides as its own jio_step at every symbol;
        a state at the stack's largest rank matches it bit for bit, a
        padded one within 1e-12, and its padding stays exactly 0.  The
        zero windows at symbols 0-2 force scaling skips."""
        rng = np.random.default_rng(7 * j + dd_symbols + sum(ranks))
        stack = init_stack(self.M, ranks, 0.05, 0.05, j, 0.35)
        states = [init_state(self.M, d, 0.05, 0.05, j, 0.35) for d in ranks]
        codes = rng.choice([-1.0, 1.0], size=(3, self.M))
        d_max = max(ranks)
        for i in range(80 + dd_symbols):
            training = i < 80
            bits = rng.choice([-1, 1], size=3)
            noise = rng.standard_normal(self.M) + 1j * rng.standard_normal(self.M)
            r = np.zeros(self.M, dtype=complex) if i < 3 else bits @ codes + 0.3 * noise
            b_known = int(bits[0]) if training else None
            decided = stack_step(stack, ranks, r, b_known)
            for p, (d, state) in enumerate(zip(ranks, states)):
                assert decided[p] == jio_step(state, r, b_known), (i, p)
                S, w = stack.S[p, :, :d], stack.w[p, :d]
                assert not stack.S[p, :, d:].any() and not stack.w[p, d:].any(), (i, p)
                if d == d_max:
                    assert np.array_equal(S, state.S) and np.array_equal(w, state.w), (i, p)
                else:
                    np.testing.assert_allclose(S, state.S, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(w, state.w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("j", [1, 3])
    def test_zero_norm_filter_kept_unscaled(self, j):
        """Zero windows at symbols 0-2 leave every state's filter at 0, and
        at symbol 20 the rank-4 state's, reset to zero, stays there too:
        each such filter, of norm ~0, is kept unscaled (dividing by its
        norm would make it NaN) and equals its own jio_step's, as the
        states whose filters scale do.  Ranks 2 and 4 are padded."""
        m, ranks = 12, (2, 4, 6)
        rng = np.random.default_rng(42 + j)
        stack = init_stack(m, ranks, 0.05, 0.05, j, 0.35)
        states = [init_state(m, d, 0.05, 0.05, j, 0.35) for d in ranks]
        for i in range(30):
            r, b = random_sample(rng, m)
            if i < 3 or i == 20:
                r = np.zeros(m, dtype=complex)
            if i == 20:
                stack.w[1] = 0.0
                states[1].w = np.zeros(4, dtype=complex)
            stack_step(stack, ranks, r, b)
            for p, (d, state) in enumerate(zip(ranks, states)):
                jio_step(state, r, b)
                kept = i < 3 or (i == 20 and d == 4)
                assert (not stack.w[p].any()) == kept == (not state.w.any()), (i, p)
                np.testing.assert_allclose(stack.w[p, :d], state.w, rtol=0, atol=1e-12)

    def test_non_finite_names_the_failing_rank(self):
        """A NaN output or an overflowing norm names the rank of the state
        it occurs in, wherever that state sits in the stack; finite norms
        whose sum overflows raise nothing."""
        stack = init_stack(self.M, (2, 6), 0.05, 0.05, 1, 0.35)
        stack.w[1, 0] = np.nan
        with pytest.raises(NumericalError, match=r"^rank D = 6: detector output is nan$"):
            stack_step(stack, (2, 6), np.ones(self.M, dtype=complex), 1)
        stack = init_stack(self.M, (2, 6), 0.05, 0.05, 1, 0.35)
        stack.S[0, :, :2] = 1e200
        stack.w[0, 0] = 1e-40  # output 33e160, squared norm past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^rank D = 2: filter norm is "):
                stack_step(stack, (2, 6), np.ones(self.M, dtype=complex), 1)
        # each squared norm finite (1e308), their sum past the float range:
        # the one-sum test fails, the per-state test passes, nothing raises
        stack = init_stack(self.M, (2, 6), 0.0, 0.0, 1, 0.35)
        stack.S[:, 0, 0] = 1e154
        stack.w[:, 0] = 1.0
        with np.errstate(over="ignore"):
            stack_step(stack, (2, 6), np.zeros(self.M, dtype=complex), 1)
        np.testing.assert_allclose(stack.w[:, 0], 1e-154, rtol=1e-15)


class TestNonFinite:
    def test_scale_filter_raises_on_nan_norm(self):
        state = init_state(5, 2, 0.1, 0.1, 1, 1.0)
        state.w = np.array([np.nan, 1.0], dtype=complex)
        with pytest.raises(NumericalError):
            scale_filter(state)

    def test_jio_step_raises_on_nan_output(self):
        state = init_state(5, 2, 0.1, 0.1, 1, 1.0)
        state.w = np.array([np.nan, 1.0], dtype=complex)
        with pytest.raises(NumericalError):
            jio_step(state, np.ones(5, dtype=complex), 1)

    def test_adaptation_raises_when_state_overflows(self):
        state = init_state(5, 2, 0.1, 0.1, 1, 1.0)
        state.S = np.full((5, 2), 1e200, dtype=complex)
        state.w = np.array([1e-200, 0.0], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                jio_step(state, np.ones(5, dtype=complex), 1)
