"""Synchronous DS-CDMA signal synthesis.

Builds Gold spreading codes, per-user multipath fading channels and the
chip-level received vector stream, including inter-symbol interference
and additive complex Gaussian noise.  All randomness is driven by
explicit seeds so that every stream is bit-exact reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Preferred m-sequence pairs, given as characteristic polynomial exponent
# tuples (constant term 0 up to the degree).  The degree-5 pair is
# x^5+x^2+1 / x^5+x^4+x^3+x^2+1; degree 7 is x^7+x^3+1 / x^7+x^3+x^2+x+1.
_PREFERRED_PAIRS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    5: ((0, 2, 5), (0, 2, 3, 4, 5)),
    7: ((0, 3, 7), (0, 1, 2, 3, 7)),
}

# spawn key reserved for the noise generator inside synthesize_arrays;
# user bit generators use the (small) code user_id as their spawn key.
_NOISE_SPAWN_KEY = 0x7FFFFFFF

# symbols per block of Jakes taps, footprints and noise; the working set of
# synthesize_arrays is the stream plus buffers of this many symbols
_BLOCK = 256

# sum-of-sinusoids arrival angles per fading tap in JakesChannel
_NUM_OSCILLATORS = 16


@dataclass(frozen=True)
class SpreadingCode:
    """Length-N spreading sequence with chips in {+1, -1}/sqrt(N)."""

    chips: np.ndarray
    user_id: int

    def __post_init__(self):
        self.chips.setflags(write=False)

    @property
    def length(self) -> int:
        return self.chips.shape[0]


def _m_sequence(poly: tuple[int, ...], degree: int) -> np.ndarray:
    """Maximal-length sequence (0/1 valued) from an all-ones register fill."""
    period = 2**degree - 1
    bits = np.empty(period, dtype=np.uint8)
    bits[:degree] = 1
    feedback = [e for e in poly if e != degree]
    for n in range(degree, period):
        acc = 0
        for e in feedback:
            acc ^= bits[n - degree + e]
        bits[n] = acc
    return bits


def generate_gold_family(degree: int) -> list[SpreadingCode]:
    """Build the full Gold code family for a supported LFSR degree.

    The family holds ``2**degree + 1`` codes: the two preferred
    m-sequences followed by every cyclic-shift XOR combination of the
    pair.  Binary chips are mapped 0 -> +1/sqrt(N), 1 -> -1/sqrt(N), so
    every code has unit energy.  Ordering is deterministic: index 0 and
    1 are the m-sequences, index 2+s is the combination at shift s.

    Parameters
    ----------
    degree : int
        LFSR degree; 5 (N=31) and 7 (N=127) are supported.

    Returns
    -------
    list of SpreadingCode
    """
    if degree not in _PREFERRED_PAIRS:
        raise ConfigurationError(
            f"unsupported Gold code degree {degree}; supported: "
            f"{sorted(_PREFERRED_PAIRS)}"
        )
    poly_u, poly_v = _PREFERRED_PAIRS[degree]
    u = _m_sequence(poly_u, degree)
    v = _m_sequence(poly_v, degree)
    n = u.shape[0]
    scale = 1.0 / np.sqrt(n)

    def to_chips(bits: np.ndarray) -> np.ndarray:
        return (1.0 - 2.0 * bits.astype(np.float64)) * scale

    family = [
        SpreadingCode(chips=to_chips(u), user_id=0),
        SpreadingCode(chips=to_chips(v), user_id=1),
    ]
    for shift in range(n):
        combined = u ^ np.roll(v, -shift)
        family.append(SpreadingCode(chips=to_chips(combined), user_id=2 + shift))
    return family


def build_convolution_matrix(code: SpreadingCode, paths: int) -> np.ndarray:
    """M x Lp matrix whose column l is the code shifted down by l chips.

    M = N + Lp - 1, so multiplying by an Lp-tap channel vector yields the
    chip-level footprint of one symbol after multipath convolution.
    """
    if paths < 1:
        raise ConfigurationError(f"paths must be >= 1, got {paths}")
    n = code.length
    m = n + paths - 1
    mat = np.zeros((m, paths))
    for col in range(paths):
        mat[col : col + n, col] = code.chips
    return mat


class JakesChannel:
    """Per-symbol Rayleigh fading process: one oscillator table for every tap.

    Sum-of-sinusoids realization with ``_NUM_OSCILLATORS`` (16) arrival
    angles per tap.  Angle n for a tap sits in sector ((2*pi*n - pi +
    theta) / (4*16)) with a per-tap random offset theta, and the
    in-phase/quadrature components carry independent random phases, so
    the lag-k tap autocorrelation approaches J0(2*pi*fd*Ts*k).  Tap
    powers follow ``power_profile_db`` relative to tap 0; the whole
    trajectory is a pure function of ``(seed, symbol index)``.
    """

    def __init__(self, power_profile_db, normalized_doppler: float, seed: int):
        profile = np.atleast_1d(np.asarray(power_profile_db, dtype=np.float64))
        if profile.ndim != 1 or profile.shape[0] < 1:
            raise ConfigurationError("power profile must be a non-empty 1-D sequence")
        # tap 0 is the reference; a later tap of -inf dB is a path with no power
        if not (np.isfinite(profile[0]) and (profile < np.inf).all()):
            raise ConfigurationError("power profile must be below inf dB, with tap 0 finite")
        if not 0 <= normalized_doppler < np.inf:
            raise ConfigurationError("normalized Doppler must be a finite number >= 0")

        self.num_taps = profile.shape[0]

        rng = np.random.default_rng(seed)
        n_osc = _NUM_OSCILLATORS
        omega = 2.0 * np.pi * float(normalized_doppler)
        theta = rng.uniform(-np.pi, np.pi, size=self.num_taps)
        # oscillator table [tap, in-phase or quadrature, oscillator]; in-phase drawn first
        phase = rng.uniform(-np.pi, np.pi, size=(2, self.num_taps, n_osc))
        self._phase = np.ascontiguousarray(phase.swapaxes(0, 1))
        angles = (2.0 * np.pi * np.arange(1, n_osc + 1) - np.pi + theta[:, None]) / (4.0 * n_osc)
        self._freq = omega * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # tap amplitude, profile normalized so tap 0 is 0 dB, times the oscillator gain
        rel_db = profile - profile[0]
        self._scale = np.sqrt(10.0 ** (rel_db / 10.0)) * (np.sqrt(2.0 / n_osc) / np.sqrt(2.0))

    def taps_for(self, symbols: np.ndarray) -> np.ndarray:
        """Tap values for the given symbol indices, shape (len, num_taps), from
        one cosine pass over the oscillator table per ``_BLOCK`` of symbols."""
        symbols = np.asarray(symbols, dtype=np.float64)
        out = np.empty((symbols.shape[0], self.num_taps), dtype=np.complex128)
        for start in range(0, symbols.shape[0], _BLOCK):
            t = symbols[start : start + _BLOCK, None, None, None]
            s = np.cos(t * self._freq + self._phase).sum(axis=-1)
            out[start : start + _BLOCK] = self._scale * (s[..., 0] + 1j * s[..., 1])
        return out


@dataclass
class UserConfig:
    """One transmitter: amplitude, spreading code and fading channel.

    ``channel`` may be any object with ``num_taps`` and ``taps_for``.
    """

    amplitude: float
    code: SpreadingCode
    channel: JakesChannel

    def __post_init__(self):
        if not 0 < self.amplitude < np.inf:
            raise ConfigurationError("user amplitude must be finite and strictly positive")


def synthesize_arrays(
    users: list[UserConfig],
    num_symbols: int,
    sigma: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of the received stream: (num_symbols x M, num_symbols x K).

    The full chip stream is synthesized by overlap-adding every symbol's
    M-chip multipath footprint, then sliced into windows of M chips at
    symbol spacing, so each window naturally contains the ISI tail of the
    previous symbol and head of the next one.  Complex Gaussian noise
    with per-chip variance ``sigma**2`` is added to the whole stream;
    per-window noise covariance is therefore ``sigma**2 * I``.

    The windows are a read-only view of that stream, not a copy: each row
    is contiguous, and neighbouring rows share their ``Lp - 1`` ISI chips.
    The working set is the stream plus fixed-size buffers: footprints and
    noise are built a fixed number of symbols at a time, so no
    stream-sized temporary is made.  Each user's bits are folded into its
    taps and its amplitude scales the footprints as one scalar.  The
    result is bit-identical to building every footprint and all the noise
    at once and scaling each footprint row by its amplitude times bit.

    Per-user bits come from generators spawned off ``seed`` with the
    user's code id, so a user's bit/channel realization is independent of
    which other users are present.  ``users`` must be non-empty, and all
    users share one spreading gain and one path count.
    """
    if not 0 <= sigma < np.inf:
        raise ConfigurationError("sigma must be a finite number >= 0")
    if num_symbols < 1:
        raise ConfigurationError("num_symbols must be >= 1")
    if not users:
        raise ConfigurationError("need at least one user")
    n = users[0].code.length
    lp = users[0].channel.num_taps
    for u in users:
        if u.code.length != n or u.channel.num_taps != lp:
            raise ConfigurationError(
                "all users must share the spreading gain and path count"
            )
    if lp - 1 > n:
        raise ConfigurationError("paths may exceed the spreading gain by at most 1")

    m = n + lp - 1
    k = len(users)
    num_chips = num_symbols * n + lp - 1
    # one symbol of slack so the per-symbol tail rows form a clean 2-D view
    stream = np.zeros(num_symbols * n + n, dtype=np.complex128)
    bits = np.empty((num_symbols, k), dtype=np.int8)
    idx = np.arange(num_symbols)
    head = stream[: num_symbols * n].reshape(num_symbols, n)
    tail = stream[n : n + num_symbols * n].reshape(num_symbols, n)[:, : lp - 1]
    block = min(_BLOCK, num_symbols)
    footprint = np.empty((block, m), dtype=np.complex128)
    isi = np.empty((num_symbols, lp - 1), dtype=np.complex128)

    for j, user in enumerate(users):
        bit_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(user.code.user_id,))
        )
        b = 1 - 2 * bit_rng.integers(0, 2, size=num_symbols).astype(np.int8)
        bits[:, j] = b
        conv_t = build_convolution_matrix(user.code, lp).T
        # a +-1 bit flips the sign of its symbol's taps, and so of that
        # footprint row, exactly; folded in here it costs no footprint pass
        taps = user.channel.taps_for(idx) * b[:, None]
        s0 = 0
        while s0 < num_symbols:
            s1 = min(s0 + block, num_symbols)
            if num_symbols - s1 == 1:
                # numpy multiplies a single row with gemv, which rounds
                # differently from the gemm of a longer block
                s1 -= 1
            fp = footprint[: s1 - s0]
            np.matmul(taps[s0:s1], conv_t, out=fp)
            if user.amplitude != 1.0:
                fp *= user.amplitude
            head[s0:s1] += fp[:, :n]
            isi[s0:s1] = fp[:, n:]
            s0 = s1
        # the tails go in after every head: symbol i's tail lands on symbol
        # i+1's head, and this keeps the order of those two additions
        tail += isi

    if sigma > 0:
        noise_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_NOISE_SPAWN_KEY,))
        )
        scale = sigma / np.sqrt(2.0)
        noise = np.empty(min(_BLOCK * n, num_chips))
        # all real parts, then all imaginary parts: the generator's order
        # is what makes a seed's stream reproducible
        for part in (stream.real, stream.imag):
            for c0 in range(0, num_chips, noise.shape[0]):
                c1 = min(c0 + noise.shape[0], num_chips)
                chunk = noise[: c1 - c0]
                noise_rng.standard_normal(out=chunk)
                chunk *= scale
                part[c0:c1] += chunk

    return np.lib.stride_tricks.sliding_window_view(stream[:num_chips], m)[::n], bits
