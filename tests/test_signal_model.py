"""Tests for spreading codes, fading channels and stream synthesis."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mberlink.errors import ConfigurationError
from mberlink.signal_model import (
    _BLOCK,
    _NOISE_SPAWN_KEY,
    _PREFERRED_PAIRS,
    JakesChannel,
    SpreadingCode,
    UserConfig,
    build_convolution_matrix,
    generate_gold_family,
    synthesize_arrays,
)
from static_channel import StaticChannel


def j0_series(x: float) -> float:
    """Bessel J0 by power series; independent oracle, exact for |x| < 1."""
    term, total = 1.0, 1.0
    for k in range(1, 40):
        term *= -(x * x) / (4.0 * k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def toy_code(chips) -> SpreadingCode:
    chips = np.asarray(chips, dtype=np.float64)
    return SpreadingCode(chips=chips / np.linalg.norm(chips), user_id=0)


class TestGoldFamily:
    @pytest.mark.parametrize("degree", sorted(_PREFERRED_PAIRS))
    def test_family_size_and_lengths(self, degree):
        """2**d + 1 codes of length N = 2**d - 1: the N + 2 users config allows."""
        family = generate_gold_family(degree)
        assert len(family) == 2**degree + 1
        assert all(code.length == 2**degree - 1 for code in family)

    def test_chip_values_and_energy(self):
        family = generate_gold_family(5)
        target = 1.0 / np.sqrt(31)
        for code in family:
            assert np.all(np.isin(np.abs(code.chips), [pytest.approx(target)]))
            assert np.sum(code.chips**2) == pytest.approx(1.0, abs=1e-12)

    def test_three_valued_cross_correlation(self):
        """Exhaustive pairwise periodic correlations take only {-9, -1, +7}."""
        family = generate_gold_family(5)
        signs = np.stack([np.sign(code.chips) for code in family]).astype(np.int64)
        values = set()
        for a in range(len(family)):
            rolled = np.stack([np.roll(signs[a], s) for s in range(31)])
            cross = rolled @ signs[a + 1 :].T
            values.update(np.unique(cross).tolist())
        assert values == {-9, -1, 7}

    def test_deterministic_ordering(self):
        fam1 = generate_gold_family(5)
        fam2 = generate_gold_family(5)
        for c1, c2 in zip(fam1, fam2):
            assert np.array_equal(c1.chips, c2.chips)
            assert c1.user_id == c2.user_id

    def test_unsupported_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_gold_family(6)


class TestConvolutionMatrix:
    def test_single_path_collapses_to_code(self):
        code = generate_gold_family(5)[0]
        mat = build_convolution_matrix(code, 1)
        assert mat.shape == (31, 1)
        assert np.array_equal(mat[:, 0], code.chips)

    def test_two_path_small_example(self):
        code = toy_code([1, -1, 1, 1])
        mat = build_convolution_matrix(code, 2)
        c = code.chips
        expected = np.array(
            [
                [c[0], 0],
                [c[1], c[0]],
                [c[2], c[1]],
                [c[3], c[2]],
                [0, c[3]],
            ]
        )
        assert np.array_equal(mat, expected)

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(min_value=2, max_value=16),
        paths=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_entry_formula(self, n, paths, seed):
        """Brute-force index-by-index construction agrees with the builder."""
        rng = np.random.default_rng(seed)
        code = toy_code(rng.choice([-1.0, 1.0], size=n))
        mat = build_convolution_matrix(code, paths)
        m = n + paths - 1
        for row in range(m):
            for col in range(paths):
                expected = code.chips[row - col] if 0 <= row - col < n else 0.0
                assert mat[row, col] == expected

    def test_unit_energy_columns(self):
        code = generate_gold_family(5)[3]
        mat = build_convolution_matrix(code, 4)
        np.testing.assert_allclose((mat**2).sum(axis=0), 1.0, atol=1e-12)

    def test_invalid_paths_rejected(self):
        with pytest.raises(ConfigurationError):
            build_convolution_matrix(toy_code([1, 1]), 0)


def per_tap_taps(profile_db, doppler, seed, symbols):
    """Jakes taps one tap and one quadrature at a time, from the seed's
    draws: theta, then every in-phase phase, then every quadrature phase."""
    profile = np.asarray(profile_db, dtype=np.float64)
    taps, n_osc = profile.shape[0], 16
    rng = np.random.default_rng(seed)
    omega = 2.0 * np.pi * float(doppler)
    theta = rng.uniform(-np.pi, np.pi, size=taps)
    phase_i = rng.uniform(-np.pi, np.pi, size=(taps, n_osc))
    phase_q = rng.uniform(-np.pi, np.pi, size=(taps, n_osc))
    angles = (2.0 * np.pi * np.arange(1, n_osc + 1) - np.pi + theta[:, None]) / (4.0 * n_osc)
    freq_i, freq_q = omega * np.cos(angles), omega * np.sin(angles)
    gain = np.sqrt(2.0 / n_osc) / np.sqrt(2.0)
    amplitude = np.sqrt(10.0 ** ((profile - profile[0]) / 10.0))
    t = np.asarray(symbols, dtype=np.float64)
    out = np.empty((t.shape[0], taps), dtype=np.complex128)
    for f in range(taps):
        re = np.cos(t[:, None] * freq_i[f] + phase_i[f]).sum(axis=1)
        im = np.cos(t[:, None] * freq_q[f] + phase_q[f]).sum(axis=1)
        out[:, f] = amplitude[f] * gain * (re + 1j * im)
    return out


class TestJakesChannel:
    @pytest.mark.parametrize(
        "profile, doppler, symbols",
        [
            ([0.0, -7.0, -10.0], 5e-5, np.arange(1750)),
            ([0.0, -np.inf, -10.0], 5e-5, np.arange(300)),
            ([0.0, -7.0, -10.0], 0.0, np.arange(300)),
            ([0.0, -7.0, -10.0], 1e-3, np.arange(3 * _BLOCK + 17)),
            ([0.0, -7.0, -10.0], 1e-3, np.array([5, 3, 100_000, 2])),
        ],
        ids=["default", "minus_inf_tap", "zero_doppler", "past_one_block", "unsorted"],
    )
    def test_matches_per_tap_reference(self, profile, doppler, symbols):
        """One cosine pass over the oscillator table per block gives every
        tap bit for bit as evaluating each tap and quadrature on its own."""
        got = JakesChannel(profile, doppler, seed=1234).taps_for(symbols)
        assert got.tobytes() == per_tap_taps(profile, doppler, 1234, symbols).tobytes()

    def test_zero_doppler_taps_constant(self):
        ch = JakesChannel([0.0, -7.0, -10.0], 0.0, seed=3)
        taps = ch.taps_for(np.arange(100))
        assert np.allclose(taps, taps[0], atol=0)

    def test_long_run_tap_powers(self):
        """Sample powers track the {0, -7, -10} dB profile within 3%."""
        ch = JakesChannel([0.0, -7.0, -10.0], 1e-3, seed=42)
        taps = ch.taps_for(np.arange(1_000_000))
        powers = (np.abs(taps) ** 2).mean(axis=0)
        targets = np.array([1.0, 10 ** (-0.7), 0.1])
        np.testing.assert_allclose(powers, targets, rtol=0.03)

    def test_autocorrelation_tracks_bessel(self):
        """Ensemble autocorrelation within 5% of J0(2 pi fd Ts k), lags <= 2000."""
        fd = 5e-5
        lags = [1, 100, 500, 1000, 2000]
        span, realizations = 4000, 300
        num = dict.fromkeys(lags, 0.0)
        den = 0.0
        for a in range(realizations):
            ch = JakesChannel([0.0], fd, seed=10_000 + a)
            y = ch.taps_for(np.arange(span))[:, 0]
            den += np.vdot(y, y).real / span
            for k in lags:
                num[k] += np.vdot(y[:-k], y[k:]).real / (span - k)
        den /= realizations
        for k in lags:
            estimate = num[k] / realizations / den
            reference = j0_series(2 * np.pi * fd * k)
            assert abs(estimate / reference - 1) < 0.05, (k, estimate, reference)

    def test_deterministic_given_seed(self):
        a = JakesChannel([0.0, -3.0], 1e-4, seed=11).taps_for(np.arange(50))
        b = JakesChannel([0.0, -3.0], 1e-4, seed=11).taps_for(np.arange(50))
        assert np.array_equal(a, b)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            JakesChannel([], 1e-4, seed=0)
        for doppler in (-1e-4, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                JakesChannel([0.0], doppler, seed=0)

    @pytest.mark.parametrize(
        "profile",
        [[0.0, np.nan], [np.nan], [0.0, np.inf], [np.inf], [-np.inf], [-np.inf, 0.0]],
        ids=["nan_tap", "nan_only", "inf_tap", "inf_only", "minus_inf_only", "minus_inf_first"],
    )
    def test_rejects_non_finite_profile(self, profile):
        """A NaN or +inf dB entry, or a tap 0 that is not finite, is refused
        instead of giving non-finite taps; a later -inf dB tap, a path with
        no power, stays allowed (``test_matches_per_tap_reference``)."""
        with pytest.raises(ConfigurationError, match="power profile"):
            JakesChannel(profile, 5e-5, seed=1)


class TestUserConfig:
    @pytest.mark.parametrize("amplitude", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_amplitude(self, amplitude):
        with pytest.raises(ConfigurationError):
            UserConfig(amplitude, toy_code([1, -1]), StaticChannel([1.0]))


class TestSynthesize:
    def test_single_user_noiseless_exact(self):
        """With one unit user, a flat channel and no noise, r(i) = b(i) * code."""
        code = toy_code([1, -1, 1, 1])
        user = UserConfig(amplitude=1.0, code=code, channel=StaticChannel([1.0]))
        windows, bits = synthesize_arrays([user], 20, sigma=0.0, seed=9)
        for i in range(20):
            assert np.array_equal(windows[i], bits[i, 0] * code.chips.astype(complex))

    def test_matched_filter_recovers_bit_exactly(self):
        """code^T r(i) == b(i) exactly (chips +-1/2 make the energy sum exact)."""
        code = toy_code([1, 1, -1, 1])
        user = UserConfig(amplitude=1.0, code=code, channel=StaticChannel([1.0]))
        windows, bits = synthesize_arrays([user], 50, sigma=0.0, seed=21)
        stats = windows @ code.chips
        assert np.array_equal(stats.real, bits[:, 0].astype(np.float64))

    def test_two_users_superpose_linearly(self):
        """The 2-user stream equals the sum of the single-user streams."""
        family = generate_gold_family(5)
        ch0 = dict(power_profile_db=[0.0, -7.0, -10.0], normalized_doppler=1e-4)
        users = [
            UserConfig(1.0, family[0], JakesChannel(**ch0, seed=100)),
            UserConfig(2.0, family[1], JakesChannel(**ch0, seed=200)),
        ]
        both, bits_both = synthesize_arrays(users, 40, sigma=0.0, seed=7)
        alone0, bits0 = synthesize_arrays([users[0]], 40, sigma=0.0, seed=7)
        alone1, bits1 = synthesize_arrays([users[1]], 40, sigma=0.0, seed=7)
        np.testing.assert_allclose(both, alone0 + alone1, atol=1e-15)
        assert np.array_equal(bits_both[:, 0], bits0[:, 0])
        assert np.array_equal(bits_both[:, 1], bits1[:, 0])

    def test_noise_only_covariance_near_identity(self):
        """Noise windows (noisy minus noiseless stream, same seed) have
        sample covariance within 5% of I (Frobenius)."""
        users = jakes_users(5, 1)
        noisy, _ = synthesize_arrays(users, 100_000, sigma=1.0, seed=123)
        clean, _ = synthesize_arrays(users, 100_000, sigma=0.0, seed=123)
        windows = noisy - clean
        del noisy, clean
        m = windows.shape[1]
        cov = windows.conj().T @ windows / windows.shape[0]
        deviation = np.linalg.norm(cov - np.eye(m)) / np.linalg.norm(np.eye(m))
        assert deviation < 0.05

    def test_isi_window_contains_neighbor_tails(self):
        """With Lp > 1 the window picks up the previous symbol's tail."""
        code = toy_code([1, 1, 1, 1])
        user = UserConfig(1.0, code, StaticChannel([1.0, 0.5]))
        windows, bits = synthesize_arrays([user], 5, sigma=0.0, seed=3)
        conv = build_convolution_matrix(code, 2)
        taps = np.array([1.0, 0.5], dtype=complex)
        footprint = conv @ taps
        # window 1 = own footprint + tail of symbol 0 + head of symbol 2
        expected = bits[1, 0] * footprint
        expected[0] += bits[0, 0] * footprint[-1]
        expected[-1] += bits[2, 0] * footprint[0]
        np.testing.assert_allclose(windows[1], expected, atol=1e-15)

    def test_bit_exact_reproducibility(self):
        family = generate_gold_family(5)
        users = [
            UserConfig(
                1.0, family[k], JakesChannel([0.0, -7.0, -10.0], 5e-5, seed=50 + k)
            )
            for k in range(3)
        ]
        w1, b1 = synthesize_arrays(users, 100, sigma=0.5, seed=77)
        w2, b2 = synthesize_arrays(users, 100, sigma=0.5, seed=77)
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)

    def test_dimension_mismatch_rejected(self):
        family = generate_gold_family(5)
        users = [
            UserConfig(1.0, family[0], StaticChannel([1.0])),
            UserConfig(1.0, family[1], StaticChannel([1.0, 0.1])),
        ]
        with pytest.raises(ConfigurationError):
            synthesize_arrays(users, 10, sigma=0.0, seed=1)

    def test_empty_users_need_dimensions(self):
        """Only the users give the stream its spreading gain and paths."""
        with pytest.raises(ConfigurationError):
            synthesize_arrays([], 10, sigma=1.0, seed=1)

    def test_negative_sigma_rejected(self):
        code = toy_code([1, -1])
        user = UserConfig(1.0, code, StaticChannel([1.0]))
        for sigma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                synthesize_arrays([user], 5, sigma=sigma, seed=1)


def _reference_synthesize_arrays(users, num_symbols, sigma, seed):
    """The whole-stream synthesis that block synthesis must reproduce bit for bit.

    It scales each footprint row by amplitude times bit, where block
    synthesis folds the bits into the taps and scales by the amplitude."""
    n = users[0].code.length
    lp = users[0].channel.num_taps
    m = n + lp - 1
    k = len(users)
    num_chips = num_symbols * n + lp - 1
    stream = np.zeros(num_symbols * n + n, dtype=np.complex128)
    bits = np.empty((num_symbols, k), dtype=np.int8)
    idx = np.arange(num_symbols)

    for j, user in enumerate(users):
        bit_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(user.code.user_id,))
        )
        b = 1 - 2 * bit_rng.integers(0, 2, size=num_symbols).astype(np.int8)
        bits[:, j] = b
        conv = build_convolution_matrix(user.code, lp)
        taps = user.channel.taps_for(idx)
        footprint = taps @ conv.T
        footprint *= (user.amplitude * b.astype(np.float64))[:, None]
        head = stream[: num_symbols * n].reshape(num_symbols, n)
        head += footprint[:, :n]
        if lp > 1:
            tail = stream[n : n + num_symbols * n].reshape(num_symbols, n)
            tail[:, : lp - 1] += footprint[:, n:]

    if sigma > 0:
        noise_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_NOISE_SPAWN_KEY,))
        )
        scale = sigma / np.sqrt(2.0)
        stream[:num_chips] += scale * (
            noise_rng.standard_normal(num_chips)
            + 1j * noise_rng.standard_normal(num_chips)
        )

    windows = np.lib.stride_tricks.sliding_window_view(stream[:num_chips], m)[::n]
    return windows.copy(), bits


def jakes_users(degree, k, profile=(0.0, -7.0, -10.0), amplitudes=None, seed=1234):
    family = generate_gold_family(degree)
    return [
        UserConfig(
            amplitudes[j] if amplitudes else 1.0,
            family[j],
            JakesChannel(profile, 5e-5, seed=seed * 100 + j),
        )
        for j in range(k)
    ]


SIGMA_15DB = 10.0 ** (-15.0 / 20.0)

# N31_K5 and N127_K16 have every amplitude at 1.0, where no scaling is done
BLOCK_SYNTHESIS_CASES = {
    "N31_K5": lambda: (jakes_users(5, 5), 1750, SIGMA_15DB),
    "N127_K16": lambda: (jakes_users(7, 16), 1750, SIGMA_15DB),
    "amplitude_0.5": lambda: (jakes_users(5, 5, amplitudes=(0.5,) * 5), 1750, SIGMA_15DB),
    "amplitude_2.3": lambda: (jakes_users(5, 5, amplitudes=(2.3,) * 5), 1750, SIGMA_15DB),
    "unequal_amplitudes": lambda: (
        jakes_users(5, 5, amplitudes=(1.0, 0.5, 2.0, 1.3, 0.7)),
        1750,
        SIGMA_15DB,
    ),
    "Lp1": lambda: (jakes_users(5, 5, profile=(0.0,)), 1750, 0.01),
    "sigma0": lambda: (jakes_users(5, 5), 1750, 0.0),
    "one_symbol": lambda: (jakes_users(5, 5), 1, SIGMA_15DB),
    "block_minus_1": lambda: (jakes_users(5, 5), _BLOCK - 1, SIGMA_15DB),
    "block": lambda: (jakes_users(5, 5), _BLOCK, SIGMA_15DB),
    "block_plus_1": lambda: (jakes_users(7, 16), _BLOCK + 1, SIGMA_15DB),
}


class TestBlockSynthesis:
    @pytest.mark.parametrize("case", sorted(BLOCK_SYNTHESIS_CASES))
    def test_matches_whole_stream_reference(self, case):
        users, num_symbols, sigma = BLOCK_SYNTHESIS_CASES[case]()
        windows, bits = synthesize_arrays(users, num_symbols, sigma, seed=77)
        ref_windows, ref_bits = _reference_synthesize_arrays(
            users, num_symbols, sigma, seed=77
        )
        assert windows.shape == ref_windows.shape
        assert np.array_equal(windows, ref_windows)
        assert np.array_equal(bits, ref_bits)
        assert not windows.flags.writeable
        assert all(row.flags.c_contiguous for row in windows)

    def test_working_set_is_the_stream_plus_fixed_buffers(self):
        """Peak allocation stays within 2 MiB of the chip stream at N=127, K=16."""
        users = jakes_users(7, 16)
        num_symbols = 1750
        stream_bytes = (num_symbols * 127 + 127) * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            windows, _ = synthesize_arrays(users, num_symbols, SIGMA_15DB, seed=77)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert windows.shape == (num_symbols, 129)
        assert peak <= stream_bytes + 2 * 2**20, (peak, stream_bytes)
