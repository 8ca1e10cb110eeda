"""Tests for config parsing, trial execution, Monte Carlo and CSV output."""

import copy
import dataclasses
import hashlib
import json
import math
import pathlib
import re

import numpy as np
import pytest

from mberlink import harness, results
from mberlink.cli import main as cli_main
from mberlink.config import (
    DETECTOR_NAMES,
    ExperimentConfig,
    _fmt,
    kernel_radius,
    noise_sigma,
    parse_config,
    validate_config,
)
from mberlink.errors import ConfigParseError, ConfigurationError, NumericalError
from mberlink.harness import _build_users, _detector, run_monte_carlo, run_trial, sweep
from mberlink.results import ExperimentResult, SweepResult, emit_csv
from mberlink.baselines import init_full_rank
from mberlink.detector_core import q_function
from mberlink.jio_mber import auto_step, init_state, jio_step
from mberlink.signal_model import synthesize_arrays

def _references(cfg, bits):
    """Reference bits as a trial feeds them to its detectors: the true bit
    in training, None (follow your own decision) afterwards."""
    return [int(b) if i < cfg.tr_symbols else None for i, b in enumerate(bits[:, 0])]


# small, fast configuration for plumbing tests
FAST = ExperimentConfig(
    K=2,
    snr_db=12.0,
    D=4,
    D_min=2,
    D_max=6,
    J=1,
    tr_symbols=30,
    dd_symbols=70,
    num_trials=3,
    base_seed=555,
)


def _recorded_digests(workload):
    """The benchmark's recorded pool of ``workload`` and its trial seeds.

    Each trial maps ``D/seed`` to, per detector, the sha256 of its int8
    decisions (first 16 hex digits) and its final-window error count."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"
    recorded = json.loads(path.read_text())["workloads"][workload]
    return recorded, sorted({int(key.split("/")[1]) for key in recorded["trials"]})


def _assert_same_run(got, want):
    """Two ExperimentResults agree in every figure a run measures."""
    assert got.config == want.config
    for key in ("ber_trace", "final_ber_trials"):
        got_arrays, want_arrays = getattr(got, key), getattr(want, key)
        assert got_arrays.keys() == want_arrays.keys()
        for name in want_arrays:
            np.testing.assert_array_equal(got_arrays[name], want_arrays[name])
    for key in ("final_ber", "final_stderr", "failed_trials", "health", "decision_digests"):
        assert getattr(got, key) == getattr(want, key)
    assert got.rank_counts.keys() == want.rank_counts.keys()
    for name in want.rank_counts:
        np.testing.assert_array_equal(got.rank_counts[name], want.rank_counts[name])


def _digest(decisions, errors, window):
    dec = np.asarray(decisions, dtype=np.int8)
    return [hashlib.sha256(dec.tobytes()).hexdigest()[:16], int(errors[-window:].sum())]


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg == ExperimentConfig()
        assert cfg.N == 31 and cfg.Lp == 3
        assert cfg.power_profile_db == (0.0, -7.0, -10.0)
        assert cfg.doppler == 5e-5
        assert (cfg.tr_symbols, cfg.dd_symbols) == (250, 1500)
        assert cfg.rho_multiplier == 2.0
        assert (cfg.D_min, cfg.D_max) == (3, 20)

    def test_comments_and_values(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "# experiment\n"
            "K = 3  # users\n"
            "snr_sweep = 5, 10, 15\n"
            "detectors = full_rank_lms\n"
            "\n"
        )
        cfg = parse_config(path)
        assert cfg.K == 3
        assert cfg.snr_sweep == (5.0, 10.0, 15.0)
        assert cfg.detectors == ("full_rank_lms",)

    def test_invariant_violation_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("K = 3\nJ = 0\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 2
        assert "J" in str(err.value)

    # Lp is len(power_profile_db); the trace CSV is written unsmoothed
    @pytest.mark.parametrize("key", ["frobnicate", "Lp", "smoothing_window"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = 3\n")
        with pytest.raises(ConfigParseError, match=f"unknown key '{key}'") as err:
            parse_config(path)
        assert err.value.line == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("K = 2\nnot a key value pair\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 2

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("K = 2\nK = 3\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 2

    def test_empty_grid_rejected(self, tmp_path):
        """An empty grid fails instead of running a default grid."""
        path = tmp_path / "bad.cfg"
        path.write_text("users_sweep = ,\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 1
        assert "users_sweep is an empty grid" in str(err.value)

    @pytest.mark.parametrize(
        "line",
        [
            "detectors = full_rank_lms, full_rank_lms",
            "snr_sweep = 10, 15, 10.0",
            "users_sweep = 2, 2",
            "rank_sweep = 3, 4, 3",
            "snr_sweep = 10.0000001, 10.0000002",
        ],
    )
    def test_repeated_entry_rejected(self, tmp_path, line):
        """A repeated detector used to run twice and print twice; a repeated
        grid point, or two that print alike to 6 digits, repeated its CSV
        rows and shared one sidecar key."""
        path = tmp_path / "bad.cfg"
        path.write_text(f"K = 3\n{line}\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 2
        assert f"{line.split()[0]} repeats an entry" in str(err.value)

    @pytest.mark.parametrize(
        "line, grid",
        [
            ("snr_sweep = 10.0001, 10.0002", (10.0001, 10.0002)),
            ("snr_sweep = 0, 1e-06", (0.0, 1e-06)),
            ("snr_sweep = 10, inf", (10.0, math.inf)),
        ],
    )
    def test_grid_points_that_print_apart_accepted(self, tmp_path, line, grid):
        """The repeats rule refuses only points the CSV would print alike."""
        path = tmp_path / "ok.cfg"
        path.write_text(f"{line}\n")
        assert parse_config(path).snr_sweep == grid

    @pytest.mark.parametrize(
        "value, text",
        [
            (0.0, "0"),
            (12.5, "12.5"),
            (0.123456789, "0.123457"),
            (1e-07, "1e-07"),
            (10.0000001, "10"),
            (math.inf, "inf"),
        ],
    )
    def test_csv_number_format(self, value, text):
        """One format, to 6 significant digits, writes the CSV's numbers,
        keys the sidecar's grid points and decides which grid points repeat."""
        assert _fmt(value) == text

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mu_w = fast\n")
        with pytest.raises(ConfigParseError):
            parse_config(path)

    def test_every_key_parses_as_its_annotation(self, tmp_path):
        """Every key, written as text with a non-default value, parses to
        its annotated type: int, float and each kind of tuple."""
        path = tmp_path / "every.cfg"
        path.write_text(
            "N = 127\n"
            "K = 3\n"
            "snr_db = 12.5\n"
            "D = 6\n"
            "D_min = 2\n"
            "D_max = 10\n"
            "J = 2\n"
            "mu_w = 0.01\n"
            "mu_S = 0.02\n"
            "mu_lms = 0.03\n"
            "mu_fr_mber = 0.04\n"
            "rho_multiplier = 1.5\n"
            "tr_symbols = 40\n"
            "dd_symbols = 60\n"
            "doppler = 1e-4\n"
            "power_profile_db = 0, -3\n"
            "amplitudes = 1, 0.5, 0.25\n"
            "num_trials = 7\n"
            "base_seed = 99\n"
            "detectors = jio_mber_fixed, full_rank_lms\n"
            "snr_sweep = 5, 10\n"
            "users_sweep = 2, 4,\n"
            "rank_sweep = 3,, 5\n"
        )
        expected = ExperimentConfig(
            N=127,
            K=3,
            snr_db=12.5,
            D=6,
            D_min=2,
            D_max=10,
            J=2,
            mu_w=0.01,
            mu_S=0.02,
            mu_lms=0.03,
            mu_fr_mber=0.04,
            rho_multiplier=1.5,
            tr_symbols=40,
            dd_symbols=60,
            doppler=1e-4,
            power_profile_db=(0.0, -3.0),
            amplitudes=(1.0, 0.5, 0.25),
            num_trials=7,
            base_seed=99,
            detectors=("jio_mber_fixed", "full_rank_lms"),
            snr_sweep=(5.0, 10.0),
            users_sweep=(2, 4),
            rank_sweep=(3, 5),
        )
        default = ExperimentConfig()
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(expected, f.name) != getattr(default, f.name), f.name
        cfg = parse_config(path)
        assert cfg == expected
        # repr tells 7 from 7.0, so each value also has its annotated type
        assert repr(cfg) == repr(expected)
        assert cfg.Lp == 2

    def test_tap_count_is_the_profile_length(self, tmp_path):
        path = tmp_path / "two_taps.cfg"
        path.write_text("power_profile_db = 0, -3\n")
        cfg = parse_config(path)
        assert (cfg.Lp, cfg.M) == (2, 32)

    def test_byte_order_mark_skipped(self, tmp_path):
        """A BOM, as Notepad writes one, used to be read into the first key."""
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfN = 127\nK = 3\n")
        cfg = parse_config(path)
        assert (cfg.N, cfg.K) == (127, 3)

    def test_file_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        """A byte that is no UTF-8 used to exit 3 on a bare codec error."""
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"K = 3 # \xff\n")
        out = tmp_path / "x.csv"
        code = cli_main(["run", "--trials", "1", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"{path}:0: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "rho_multiplier = inf",
            "rho_multiplier = nan",
            "doppler = nan",
            "doppler = inf",
            "mu_w = inf",
            "mu_S = inf",
            "mu_lms = nan",
            "mu_fr_mber = inf",
            "amplitudes = inf, 1, 1, 1, 1",
            "amplitudes = 1, 1, nan, 1, 1",
            "power_profile_db = nan, -7, -10",
            "power_profile_db = 0, -7, nan",
            "power_profile_db = -inf, -7, -10",
            "power_profile_db = 0, inf, -10",
            "snr_db = nan",
        ],
    )
    def test_non_finite_rejected_at_its_line(self, tmp_path, line):
        """Each of these used to run: into a NaN detector output (exit 3)
        or, for rho_multiplier = inf, to exit 0 with MBER never adapting."""
        path = tmp_path / "bad.cfg"
        path.write_text(f"tr_symbols = 20\n{line}\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 2
        assert line.split()[0] in str(err.value)
        if line == "snr_db = nan":
            assert "NaN" in str(err.value) and "snr_sweep" not in str(err.value)

    @pytest.mark.parametrize(
        "line",
        [
            "base_seed = -1",
            "snr_db = -inf",
            "snr_db = 7000",
            "snr_db = -7000",
            "snr_sweep = 5, -inf",
            "snr_sweep = 7000",
            "snr_sweep = 5, nan",
        ],
    )
    def test_negative_seed_and_snr_without_noise_level_rejected(self, tmp_path, line):
        """numpy's SeedSequence refuses a negative seed, and 10^(snr/20)
        overflows or reaches 0 at these SNRs; both used to exit 3."""
        path = tmp_path / "bad.cfg"
        path.write_text(f"K = 5\n{line}\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 2
        assert line.split()[0] in str(err.value)

    def test_zero_power_tap_and_noiseless_snr_still_valid(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("power_profile_db = 0, -inf, -10\nsnr_sweep = 10, inf\n")
        cfg = parse_config(path)
        assert cfg.power_profile_db == (0.0, -math.inf, -10.0)
        assert cfg.snr_sweep == (10.0, math.inf)
        result = run_trial(dataclasses.replace(cfg, tr_symbols=20, dd_symbols=20), 3)
        assert all(e.shape == (40,) for e in result.errors.values())


class TestValidateConfig:
    def test_rank_must_fit_observation(self):
        with pytest.raises(ConfigurationError):
            validate_config(dataclasses.replace(FAST, D=40))

    def test_profile_holds_1_to_n_plus_1_taps(self):
        """An M = N + Lp - 1 observation window needs 1 <= Lp <= N + 1."""
        for taps in (1, 32):
            assert dataclasses.replace(FAST, power_profile_db=(0.0,) * taps).Lp == taps
        for taps in (0, 33):
            with pytest.raises(ConfigurationError, match="power_profile_db needs 1 to N") as err:
                dataclasses.replace(FAST, power_profile_db=(0.0,) * taps)
            assert err.value.field == "power_profile_db"

    def test_unknown_detector(self):
        with pytest.raises(ConfigurationError):
            validate_config(dataclasses.replace(FAST, detectors=("zf",)))

    def test_amplitudes_must_match_users(self):
        with pytest.raises(ConfigurationError):
            validate_config(dataclasses.replace(FAST, amplitudes=(1.0,)))

    def test_unsupported_gain(self):
        with pytest.raises(ConfigurationError, match=re.escape("one of [31, 127], got 16")) as err:
            validate_config(dataclasses.replace(FAST, N=16))
        assert err.value.field == "N"

    @pytest.mark.parametrize(
        "line, args",
        [("K = 34", ["run"]), ("users_sweep = 2, 34", ["sweep", "--axis", "users"])],
    )
    def test_users_beyond_gold_family_exit_2_at_their_line(
        self, tmp_path, capsys, line, args
    ):
        """N = 31 has 33 Gold codes; a 34th user used to pass validation and
        then exit 3 on a tuple index out of range."""
        path = tmp_path / "bad.cfg"
        path.write_text(f"tr_symbols = 5\n{line}\n")
        out = tmp_path / "x.csv"
        code = cli_main([*args, "--trials", "1", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"{path}:2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, args",
        [
            ("rank_sweep = 2, 40", ["sweep", "--axis", "rank"]),
            ("snr_sweep = 10, 7000", ["sweep", "--axis", "snr"]),
            # a noise level, but a kernel radius whose square underflows
            ("snr_sweep = 10, 3300", ["sweep", "--axis", "snr"]),
        ],
    )
    def test_grid_point_off_its_rule_exits_2_at_its_line(self, tmp_path, capsys, line, args):
        path = tmp_path / "bad.cfg"
        path.write_text(f"tr_symbols = 5\n{line}\n")
        out = tmp_path / "x.csv"
        code = cli_main([*args, "--trials", "1", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"{path}:2: {line.split()[0]} sets " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("snr_db = 3300\n", 1),
            ("snr_db = 3300\ndetectors = full_rank_mber\n", 1),
            ("rho_multiplier = 1e-200\n", 1),
            ("rho_multiplier = 1e-200\ndetectors = full_rank_mber\n", 1),
            ("amplitudes = 1e-300, 1, 1, 1, 1\n", 1),
        ],
    )
    def test_radius_squaring_to_zero_exits_2_before_any_trial(
        self, tmp_path, capsys, text, line
    ):
        """``2 rho^2`` underflows to 0 at these radii.  They used to pass
        validation, then exit 2 from init_state after synthesis or, with
        full_rank_mber alone, exit 3 on a NaN filter norm at symbol 0."""
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "x.csv"
        code = cli_main(["run", "--trials", "1", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"{path}:{line}: need snr_db " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, field, message",
        [
            ("D_max = 2", "D_min", "need 1 <= D_min <= D_max=2, got 3"),
        ],
    )
    def test_rule_over_two_fields_exits_2_at_the_line_the_file_set(
        self, tmp_path, capsys, text, field, message
    ):
        """The file leaves out the field the rule names, so the message
        points at the other field it reads; these, and the radius cases
        set by rho_multiplier or amplitudes, used to point at line 0."""
        path = tmp_path / "t.cfg"
        path.write_text(text + "\n")
        out = tmp_path / "x.csv"
        code = cli_main(["run", "--trials", "1", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert f"{path}:1: {message}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.__cause__.field == field

    def test_d_max_above_m_names_d_max_at_its_line(self, tmp_path):
        """A D_max above M used to be blamed on D_min, at line 0; a D_min
        above D_max is still D_min's."""
        path = tmp_path / "dmax.cfg"
        path.write_text("D_max = 40\n")
        with pytest.raises(ConfigParseError, match=r":1: need D_max <= M=33, got 40$"):
            parse_config(path)
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(D_min=5, D_max=4)
        assert err.value.field == "D_min"

    @pytest.mark.parametrize(
        "point_key, grid_key, value, need",
        [
            ("K", "users_sweep", 0, "1 <= K <= 33"),
            ("K", "users_sweep", 34, "1 <= K <= 33"),
            ("D", "rank_sweep", 0, "1 <= D <= M=33"),
            ("D", "rank_sweep", 34, "1 <= D <= M=33"),
            ("snr_db", "snr_sweep", math.nan, "not NaN, with a noise level"),
            ("snr_db", "snr_sweep", -math.inf, "not NaN, with a noise level"),
            ("snr_db", "snr_sweep", 7000.0, "not NaN, with a noise level"),
            ("snr_db", "snr_sweep", 3300.0, "and a kernel radius rho of 2 rho^2 > 0"),
        ],
    )
    def test_grid_point_obeys_the_rule_of_the_value_it_sets(self, point_key, grid_key, value, need):
        """One rule per swept value: the value and a point of its grid are
        refused alike, each naming its own key."""
        for key, given in ((point_key, value), (grid_key, (1, value))):
            with pytest.raises(ConfigurationError, match=re.escape(need)) as err:
                ExperimentConfig(**{key: given})
            assert err.value.field == key
        ExperimentConfig(**{point_key: 1, grid_key: (1,)})

    @pytest.mark.parametrize(
        "change, noun",
        [
            ({"snr_sweep": ("x",)}, "numbers"),
            ({"users_sweep": (1.5,)}, "integers"),
            ({"rank_sweep": (2.5, 4)}, "integers"),
            ({"power_profile_db": ("a", -7.0, -10.0)}, "numbers"),
            ({"amplitudes": (1.0, "b", 1.0, 1.0, 1.0)}, "numbers"),
            ({"detectors": ("full_rank_lms", 3)}, "names"),
            ({"snr_sweep": [5.0, 10.0]}, "numbers"),
            ({"amplitudes": 1.0}, "numbers"),
        ],
    )
    def test_tuple_items_type_checked(self, change, noun):
        """users_sweep = (1.5,) and rank_sweep = (2.5, 4) used to be built
        and fail mid-sweep naming K or D; the others died on a bare
        TypeError.  A list is refused too: only a tuple stays as checked."""
        with pytest.raises(ConfigurationError, match=f"must be a tuple of {noun}") as err:
            ExperimentConfig(**change)
        assert err.value.field == next(iter(change))

    @pytest.mark.parametrize("n, k_max", [(31, 33), (127, 129)])
    def test_user_count_bounded_by_gold_family_size(self, n, k_max):
        base = dataclasses.replace(FAST, N=n)
        validate_config(dataclasses.replace(base, K=k_max, users_sweep=(1, k_max)))
        for bad in ({"K": k_max + 1}, {"users_sweep": (k_max + 1,)}):
            with pytest.raises(ConfigurationError) as err:
                validate_config(dataclasses.replace(base, **bad))
            assert err.value.field == next(iter(bad))

    @pytest.mark.parametrize(
        "direct, change",
        [(True, {"K": 34}), (True, {"J": 2.7}), (False, {"D": 40}), (True, {"D_max": 40})],
    )
    def test_invalid_config_cannot_be_built(self, direct, change):
        """A config is checked when it is built, not first when it runs."""
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(**change) if direct else dataclasses.replace(FAST, **change)
        assert err.value.field == next(iter(change))

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ExperimentConfig) if f.type is int]
    )
    def test_non_integer_count_rejected(self, name):
        """J = 2.7 used to run as J = 2 (init_state truncated it), and a
        count such as D = 4.0 died later on a bare TypeError."""
        for value in (getattr(FAST, name) + 0.5, float(getattr(FAST, name))):
            with pytest.raises(ConfigurationError, match="integer") as err:
                dataclasses.replace(FAST, **{name: value})
            assert err.value.field == name

    @pytest.mark.parametrize(
        "change",
        [
            {"K": True},
            {"snr_db": False},
            {"rank_sweep": (True, 4)},
            {"amplitudes": (1.0, True, 1.0, 1.0, 1.0)},
        ],
    )
    def test_bool_rejected(self, change):
        """A bool is an integer to isinstance: ExperimentConfig(K=True,
        num_trials=True) used to build and run one user over one trial."""
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(**change)
        assert err.value.field == next(iter(change))

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ExperimentConfig) if f.type is float]
    )
    def test_non_number_rejected(self, name):
        """mu_w = "0.1" used to fail inside validation on a bare TypeError."""
        with pytest.raises(ConfigurationError) as err:
            dataclasses.replace(FAST, **{name: "0.1"})
        assert err.value.field == name


class TestNoiseMapping:
    def test_snr_to_sigma(self):
        cfg = ExperimentConfig()
        assert noise_sigma(cfg, 0.0) == pytest.approx(1.0)
        assert noise_sigma(cfg, 20.0) == pytest.approx(0.1)

    def test_kernel_radius_multiplier(self):
        cfg = ExperimentConfig()
        sigma = noise_sigma(cfg, 15.0)
        assert kernel_radius(cfg, sigma) == pytest.approx(2.0 * sigma)

    def test_kernel_radius_noiseless_fallback(self):
        cfg = ExperimentConfig()
        assert kernel_radius(cfg, 0.0) == cfg.rho_multiplier


class TestRunTrial:
    def test_same_seed_reproduces_exactly(self):
        a = run_trial(FAST, 42)
        b = run_trial(FAST, 42)
        for name in FAST.detectors:
            assert np.array_equal(a.errors[name], b.errors[name])
            assert np.array_equal(a.decisions[name], b.decisions[name])
        assert np.array_equal(a.true_bits, b.true_bits)

    def test_error_recount_oracle(self):
        """Errors are derived from the record, not stored in it: for every
        detector they equal decisions != truth, as uint8."""
        assert set(FAST.detectors) == set(DETECTOR_NAMES)
        for seed in (7, 8):
            result = run_trial(FAST, seed)
            assert "errors" not in vars(result)
            for name in FAST.detectors:
                recount = (result.decisions[name] != result.true_bits).astype(np.uint8)
                assert result.errors[name].dtype == np.uint8
                assert np.array_equal(result.errors[name], recount)
            assert any(result.errors[name].any() for name in FAST.detectors)

    def test_trace_shapes_and_rank_range(self):
        result = run_trial(FAST, 3)
        n = FAST.num_symbols
        for name in FAST.detectors:
            assert result.errors[name].shape == (n,)
        ranks = result.selected_ranks["jio_mber_auto"]
        assert ranks.shape == (n,)
        assert ranks.min() >= FAST.D_min and ranks.max() <= FAST.D_max

    def test_recorded_dtypes(self):
        """Each detector's decisions are one contiguous int8 vector (perfbench
        hashes their bytes); only the auto detector records ranks, as int16."""
        result = run_trial(FAST, 3)
        for name in FAST.detectors:
            decided = result.decisions[name]
            assert decided.dtype == np.int8 and decided.shape == (FAST.num_symbols,)
            assert decided.flags.c_contiguous
        assert list(result.selected_ranks) == ["jio_mber_auto"]
        assert result.selected_ranks["jio_mber_auto"].dtype == np.int16

    def test_noiseless_single_user_immediately_clean(self):
        cfg = dataclasses.replace(
            FAST,
            K=1,
            power_profile_db=(0.0,),
            snr_db=float("inf"),
            doppler=0.0,
            tr_symbols=20,
            dd_symbols=40,
        )
        result = run_trial(cfg, 11)
        for name in cfg.detectors:
            assert result.errors[name][1:].sum() == 0

    def test_matches_manual_adapter_composition(self):
        """run_trial equals running each detector on its own over the same
        stream, with the true bit as reference for i < tr_symbols and
        None (the detector's own decision) afterwards."""
        cfg = FAST
        seed = 99
        result = run_trial(cfg, seed)
        sigma = noise_sigma(cfg, cfg.snr_db)
        rho = kernel_radius(cfg, sigma)
        users = _build_users(cfg, seed)
        windows, bits = synthesize_arrays(users, cfg.num_symbols, sigma, seed)
        assert np.array_equal(bits[:, 0], result.true_bits)
        refs = _references(cfg, bits)
        for name in cfg.detectors:
            chosen = []
            step = _detector(name, cfg, rho)
            for i in range(cfg.num_symbols):
                decided = step(windows[i], refs[i])
                if isinstance(decided, tuple):  # the auto detector's (decision, rank)
                    decided, rank = decided
                    chosen.append(rank)
                assert decided == result.decisions[name][i], (name, i)
            if name == "jio_mber_auto":
                assert chosen == result.selected_ranks[name].tolist()
            else:
                assert chosen == [] and name not in result.selected_ranks

    def test_scalar_snr_required(self):
        with pytest.raises(ConfigurationError):
            run_trial(dataclasses.replace(FAST, snr_db=(5.0, 10.0)), 0)

    def test_diverging_lms_fails_loudly(self):
        """An overflowing filter raises, naming the detector, the first
        symbol whose output is non-finite and the trial seed, instead of
        turning NaN outputs into -1 decisions."""
        cfg = dataclasses.replace(
            ExperimentConfig(),
            tr_symbols=50,
            dd_symbols=400,
            mu_lms=10.0,
            detectors=("full_rank_lms",),
        )
        seed = 0
        sigma = noise_sigma(cfg, cfg.snr_db)
        windows, bits = synthesize_arrays(
            _build_users(cfg, seed), cfg.num_symbols, sigma, seed
        )
        # plain LMS reference: the first symbol whose output is non-finite
        w = np.zeros(cfg.M, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for first, r in enumerate(windows):
                y = np.vdot(w, r)
                if not np.isfinite(y.real):
                    break
                if first < cfg.tr_symbols:
                    b = bits[first, 0]
                else:
                    b = 1 if y.real >= 0 else -1
                w = w + cfg.mu_lms * np.conj(b - y) * r
            else:
                pytest.fail("reference LMS stayed finite")
            with pytest.raises(
                NumericalError,
                match=rf"^full_rank_lms at symbol {first} of trial seed {seed}: ",
            ):
                run_trial(cfg, seed)
        assert first == 214

    @pytest.mark.parametrize("name", ["jio_mber_fixed", "jio_mber_auto"])
    def test_non_finite_chip_fails_the_jio_detectors_loudly(self, name, monkeypatch):
        """An infinite chip at symbol 40 (decision-directed in FAST) stops
        the detector there, naming it, the symbol and the trial seed."""

        def with_inf_chip(*args):
            windows, bits = synthesize_arrays(*args)
            windows = windows.copy()  # a read-only view
            windows[40, 3] = np.inf
            return windows, bits

        monkeypatch.setattr(harness, "synthesize_arrays", with_inf_chip)
        cfg = dataclasses.replace(FAST, detectors=(name,))
        seed = 7
        message = rf"^{name} at symbol 40 of trial seed {seed}: detector output is "
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=message):
                run_trial(cfg, seed)

    @pytest.mark.slow
    def test_reproduces_recorded_reference_digests(self):
        """Every decision vector of the benchmark's reference pool (the paper
        operating point, all four detectors) equals the recorded one."""
        recorded, seeds = _recorded_digests("reference")
        cfg = ExperimentConfig()
        assert recorded["grid"] == [cfg.D]
        got = {}
        for seed in seeds:
            trial = run_trial(cfg, seed)
            got[f"{cfg.D}/{seed}"] = {
                name: _digest(trial.decisions[name], trial.errors[name], recorded["window"])
                for name in cfg.detectors
            }
        assert len(got) == 32 and len(cfg.detectors) == 4
        assert got == recorded["trials"]


def _two_pass_auto_step(state, d_min, r, true_bit, training):
    """The auto detector's step written out: the truncated statistics from
    prefix sums of ``w^* S^H r`` and of ``S w``, the pick, the decision,
    then the J adaptation cycles of the full state through
    :func:`jio_step`, driven by the true bit in training and by this
    decision afterwards.  Returns the decision and the chosen rank."""
    lo = d_min - 1
    x = np.cumsum(state.w.conj() * (state.S.conj().T @ r))
    sw = np.cumsum(state.S * state.w[None, :], axis=1)
    n = (sw.real**2 + sw.imag**2).sum(axis=0)
    xr = x.real[lo:]
    nn = n[lo:]
    valid = nn >= 1e-12
    if training:
        reference = true_bit
    else:
        reference = 1 if x.real[state.w.shape[0] - 1] >= 0.0 else -1
    stat = np.where(valid, reference * xr / np.sqrt(np.where(valid, nn, 1.0)), 0.0)
    pick = int(np.argmax(stat))
    decided = 1 if xr[pick] >= 0.0 else -1
    jio_step(state, r, true_bit if training else decided)
    return decided, d_min + pick


class TestCollect:
    """``_collect`` stacks whatever a step returns, one row per symbol."""

    WINDOWS = np.arange(6, dtype=complex)[:, None]  # window i reads i

    @pytest.mark.parametrize(
        "step, shape",
        [
            (lambda r, b: int(r[0].real), (6,)),
            (lambda r, b: (1, int(r[0].real)), (6, 2)),
            (lambda r, b: np.array([-1, 1, int(r[0].real)]), (6, 3)),
        ],
    )
    def test_one_row_per_symbol_in_the_steps_shape(self, step, shape):
        rows, seconds = harness._collect("stub", step, self.WINDOWS, [None] * 6, 0)
        assert rows.dtype == np.int16 and rows.shape == shape
        assert np.array_equal(rows.reshape(6, -1)[:, -1], np.arange(6))
        assert seconds >= 0.0

    @pytest.mark.parametrize("k", [0, 4])
    def test_failure_names_the_symbol_in_progress(self, k):
        def step(r, b):
            if r[0] == k:
                raise NumericalError("detector output is nan")
            return 1

        message = rf"^stub at symbol {k} of trial seed 42: detector output is nan$"
        with pytest.raises(NumericalError, match=message):
            harness._collect("stub", step, self.WINDOWS, [None] * 6, 42)


class TestAutoAdapterReusedProjection:
    @pytest.mark.parametrize("j", [1, 5])
    def test_bit_identical_to_two_pass_step(self, j):
        """The auto detector matches its step written out: S, w, rank and
        decision agree bit for bit at every symbol, through training and
        then decision-directed operation."""
        cfg = dataclasses.replace(
            ExperimentConfig(),
            J=j,
            tr_symbols=80,
            dd_symbols=160,
        )
        seed = 2024
        sigma = noise_sigma(cfg, cfg.snr_db)
        rho = kernel_radius(cfg, sigma)
        windows, bits = synthesize_arrays(
            _build_users(cfg, seed), cfg.num_symbols, sigma, seed
        )
        state = init_state(cfg.M, cfg.D_max, cfg.mu_w, cfg.mu_S, cfg.J, rho)
        two_pass = copy.deepcopy(state)
        refs = _references(cfg, bits)
        chosen = []
        for i in range(cfg.num_symbols):
            decided, picked = auto_step(state, cfg.D_min, windows[i], refs[i])
            chosen.append(picked)
            expected, rank = _two_pass_auto_step(
                two_pass, cfg.D_min, windows[i], int(bits[i, 0]), i < cfg.tr_symbols
            )
            assert decided == expected, i
            assert chosen[i] == rank, i
            assert np.array_equal(state.S, two_pass.S), i
            assert np.array_equal(state.w, two_pass.w), i


class TestAutoDetectorFollowsMaxRankState:
    @pytest.mark.parametrize("seed", [1234, 1240])
    def test_equals_jio_step_at_d_max(self, seed):
        """Over a full default trial (seed 1240 is a failed trial), the
        auto detector's S and w equal those of a jio_step state at D_max
        bit for bit after every symbol, and every decision-directed
        decision is that state's own.  Training decisions may differ,
        because there the true bit picks the rank."""
        cfg = ExperimentConfig()
        rho, windows, _, refs, _ = harness._synthesize(cfg, seed)
        auto = init_state(cfg.M, cfg.D_max, cfg.mu_w, cfg.mu_S, cfg.J, rho)
        fixed = copy.deepcopy(auto)
        for i, (r, b) in enumerate(zip(windows, refs)):
            decided, _ = auto_step(auto, cfg.D_min, r, b)
            expected = jio_step(fixed, r, b)
            assert b is not None or decided == expected, i
            assert np.array_equal(auto.S, fixed.S), i
            assert np.array_equal(auto.w, fixed.w), i


def _two_vdot_lms_update(state, r, b):
    """``lms_update`` forming ``w^H r`` itself, after the decision formed it."""
    e = float(b) - np.vdot(state.w, r)
    state.w = state.w + state.mu * np.conj(e) * r
    return state


def _two_vdot_mber_update(state, r, b):
    """``mber_full_rank_update`` forming ``w^H r`` itself."""
    w = state.w
    xr = np.vdot(w, r).real
    c = (
        np.exp(-(xr * xr) / (2.0 * state.rho * state.rho))
        * float(b)
        / (2.0 * np.sqrt(2.0 * np.pi) * state.rho)
    )
    w_next = w + (state.mu * c) * (r - xr * w)
    norm_sq = np.vdot(w_next, w_next).real
    state.w = w_next if norm_sq < 1e-12 else w_next / np.sqrt(norm_sq)
    return state


class TestFullRankAdaptersReuseOutput:
    @pytest.mark.parametrize(
        "name, update",
        [
            ("full_rank_lms", _two_vdot_lms_update),
            ("full_rank_mber", _two_vdot_mber_update),
        ],
    )
    @pytest.mark.parametrize("n, k", [(31, 5), (127, 16)])
    def test_bit_identical_to_two_vdot_step(self, name, update, n, k):
        """A rule that decides and steps on one w^H r changes nothing: w
        and the decision agree bit for bit with an update
        that forms w^H r again, through training and then decision-directed
        operation (at N=127, K=16 the default LMS step diverges)."""
        cfg = dataclasses.replace(
            ExperimentConfig(), N=n, K=k, tr_symbols=120, dd_symbols=120
        )
        seed = 2025
        sigma = noise_sigma(cfg, cfg.snr_db)
        rho = kernel_radius(cfg, sigma)
        windows, bits = synthesize_arrays(
            _build_users(cfg, seed), cfg.num_symbols, sigma, seed
        )
        if name == "full_rank_lms":
            state = init_full_rank(cfg.M, cfg.mu_lms)
            rule = harness.lms_update
        else:
            state = init_full_rank(cfg.M, cfg.mu_fr_mber, rho)
            rule = harness.mber_full_rank_update
        two_vdot = copy.deepcopy(state)
        refs = _references(cfg, bits)
        for i in range(cfg.num_symbols):
            training = i < cfg.tr_symbols
            true_bit = int(bits[i, 0])
            decided = rule(state, windows[i], refs[i])
            two_vdot_decided = 1 if np.vdot(two_vdot.w, windows[i]).real >= 0.0 else -1
            update(two_vdot, windows[i], true_bit if training else two_vdot_decided)
            assert decided == two_vdot_decided, i
            assert np.array_equal(state.w, two_vdot.w), i


class TestLmsHealth:
    FOUND = dataclasses.replace(
        ExperimentConfig(), N=127, K=16, detectors=("full_rank_lms",)
    )

    def test_default_step_unstable_at_long_code(self):
        """N=127, K=16 at the default mu_lms: the per-step bound
        mu * ||r||^2 < 2 fails, and the counter says where."""
        result = run_trial(self.FOUND, 1234)
        health = result.health["full_rank_lms"]
        sigma = noise_sigma(self.FOUND, self.FOUND.snr_db)
        windows, _ = synthesize_arrays(
            _build_users(self.FOUND, 1234), self.FOUND.num_symbols, sigma, 1234
        )
        over = [
            i
            for i in range(len(windows))
            if self.FOUND.mu_lms * np.vdot(windows[i], windows[i]).real >= 2.0
        ]
        assert health["unstable_steps"] == len(over) > 0
        assert health["first_unstable_step"] == over[0]

    def test_zero_step_counts_nothing(self):
        cfg = dataclasses.replace(self.FOUND, mu_lms=0.0)
        health = run_trial(cfg, 1234).health["full_rank_lms"]
        assert health == {
            "unstable_steps": 0,
            "first_unstable_step": None,
            "mean_square_load": 0.0,
        }

    @pytest.mark.parametrize("seed", [1234, 1235])
    def test_mean_square_load_is_mean_step_load(self, seed):
        """The trial's mean_square_load is mu_lms * ||r||^2 averaged over
        its windows, each ||r||^2 formed directly."""
        cfg = dataclasses.replace(FAST, detectors=("full_rank_lms",))
        sigma = noise_sigma(cfg, cfg.snr_db)
        windows, _ = synthesize_arrays(_build_users(cfg, seed), cfg.num_symbols, sigma, seed)
        direct = np.mean([cfg.mu_lms * np.vdot(r, r).real for r in windows])
        load = run_trial(cfg, seed).health["full_rank_lms"]["mean_square_load"]
        assert load == pytest.approx(direct, rel=1e-12)

    def test_mean_square_load_against_its_limit(self):
        """The run reports the trials' mean load, the named limit and the
        trials at or above it: at the default mu_lms one of the two FAST
        trials (loads 0.69 and 0.38) is over, at 0.2 both are."""
        cfg = dataclasses.replace(FAST, num_trials=2, detectors=("full_rank_lms",))
        trial_loads = [
            run_trial(cfg, cfg.base_seed + t).health["full_rank_lms"]["mean_square_load"]
            for t in range(2)
        ]
        limit = harness.LMS_MEAN_SQUARE_LIMIT
        assert limit == 2 / 3
        for mu_lms, overloaded in ((0.0, 0), (cfg.mu_lms, 1), (0.2, 2)):
            scaled = [load * mu_lms / cfg.mu_lms for load in trial_loads]
            health = run_monte_carlo(dataclasses.replace(cfg, mu_lms=mu_lms)).health
            lms = health["full_rank_lms"]
            assert lms["mean_square_load"] == pytest.approx(np.mean(scaled), rel=1e-12)
            assert lms["mean_square_limit"] == limit
            assert lms["overloaded_trials"] == overloaded
            assert overloaded == sum(load >= limit for load in scaled)

    def test_only_lms_is_counted(self):
        cfg = dataclasses.replace(FAST, detectors=("full_rank_mber",))
        assert run_trial(cfg, 1).health == {}

    def test_summed_into_result_and_sidecar(self, tmp_path):
        cfg = dataclasses.replace(self.FOUND, num_trials=2, dd_symbols=250)
        mc = run_monte_carlo(cfg)
        trials = [run_trial(cfg, cfg.base_seed + t).health["full_rank_lms"] for t in range(2)]
        health = mc.health["full_rank_lms"]
        assert health["unstable_steps"] == sum(t["unstable_steps"] for t in trials)
        assert health["unstable_trials"] == sum(t["unstable_steps"] > 0 for t in trials)
        assert health["first_unstable_step"] == min(
            t["first_unstable_step"] for t in trials
        )
        assert health["mean_square_load"] == pytest.approx(
            np.mean([t["mean_square_load"] for t in trials]), rel=1e-12
        )
        emit_csv(mc, tmp_path / "out.csv")
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["health"] == mc.health

        swept = sweep(
            dataclasses.replace(cfg, num_trials=1, snr_sweep=(15.0,)), axis="snr"
        )
        emit_csv(swept, tmp_path / "sweep.csv")
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        (point,) = swept.points
        assert set(point.health) == {"full_rank_lms"}
        assert meta["health"] == {"15": point.health}


class TestMatchedFilterBound:
    # One user on one static tap h: no linear detector beats the matched
    # filter's Q(sqrt(2) |h| / sigma).  mu_lms = 0.02 keeps LMS inside its
    # mean-square limit: mu_lms * E||r||^2 is about 0.33 here, below 2/3.
    CFG = dataclasses.replace(
        ExperimentConfig(),
        K=1,
        power_profile_db=(0.0,),
        doppler=0.0,
        snr_db=3.0,
        mu_lms=0.02,
        tr_symbols=250,
        dd_symbols=2000,
    )
    SEEDS = (1234, 1235, 1236, 1237)

    def test_no_detector_beats_the_bound(self):
        """Summed over four trials, each detector's decision-directed error
        count is at least the bound's expected count less 3 binomial SDs,
        and each MBER detector's is at most 1.5 times that count (they
        read 1.21 to 1.23 times it, LMS 1.85 times)."""
        cfg = self.CFG
        sigma = noise_sigma(cfg, cfg.snr_db)
        expected, variance = 0.0, 0.0
        counts = dict.fromkeys(cfg.detectors, 0)
        for seed in self.SEEDS:
            h = _build_users(cfg, seed)[0].channel.taps_for(np.zeros(1))[0, 0]
            p = float(q_function(math.sqrt(2.0) * abs(h) / sigma))
            expected += cfg.dd_symbols * p
            variance += cfg.dd_symbols * p * (1.0 - p)
            result = run_trial(cfg, seed)
            for name in cfg.detectors:
                counts[name] += int(result.errors[name][cfg.tr_symbols :].sum())
        floor = expected - 3.0 * math.sqrt(variance)
        for name, count in counts.items():
            assert count >= floor, (name, count, expected)
            if name != "full_rank_lms":
                assert count <= 1.5 * expected, (name, count, expected)


class TestRunMonteCarlo:
    def test_single_trial_equals_run_trial(self):
        cfg = dataclasses.replace(FAST, num_trials=1)
        mc = run_monte_carlo(cfg)
        trial = run_trial(cfg, cfg.base_seed)
        for name in cfg.detectors:
            assert np.array_equal(
                mc.ber_trace[name], trial.errors[name].astype(np.float64)
            )

    def test_trace_is_mean_of_trial_indicators(self):
        mc = run_monte_carlo(FAST)
        for name in FAST.detectors:
            stacked = np.stack(
                [run_trial(FAST, FAST.base_seed + t).errors[name] for t in range(3)]
            )
            np.testing.assert_array_equal(mc.ber_trace[name], stacked.mean(axis=0))

    def test_parallel_equals_serial(self):
        serial = run_monte_carlo(FAST, jobs=1)
        parallel = run_monte_carlo(FAST, jobs=2)
        for name in FAST.detectors:
            assert np.array_equal(serial.ber_trace[name], parallel.ber_trace[name])
            assert serial.final_ber[name] == parallel.final_ber[name]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_snr_list_rejected_before_any_trial(self, jobs, monkeypatch):
        """A list of SNRs belongs to sweep --axis snr; run must not start
        trials (or a pool) and fail inside them."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started")

        def no_trial(*args, **kwargs):
            raise AssertionError("trial started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(harness, "run_trial", no_trial)
        with pytest.raises(ConfigurationError) as err:
            run_monte_carlo(dataclasses.replace(FAST, snr_db=(5.0, 10.0)), jobs=jobs)
        assert err.value.field == "snr_db"

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigurationError) as err:
            run_monte_carlo(FAST, jobs=jobs)
        assert err.value.field == "jobs"

    def test_failed_trials_listed_by_seed(self, tmp_path):
        """A trial fails when its final-window BER is above FAILED_TRIAL_BER.
        At the defaults, trial seed 1234 ends with no error at any detector
        and seed 1240 well above the threshold at every one, so each
        detector lists no seed, then [1240], in the result and the sidecar."""
        assert harness.FAILED_TRIAL_BER == 0.2
        clean = run_monte_carlo(ExperimentConfig(num_trials=1, base_seed=1234))
        assert list(clean.final_ber.values()) == [0.0] * 4
        assert clean.failed_trials == {name: [] for name in DETECTOR_NAMES}
        failed = run_monte_carlo(ExperimentConfig(num_trials=1, base_seed=1240))
        assert list(failed.final_ber.values()) == [0.496, 0.454, 0.458, 0.454]
        assert failed.failed_trials == {name: [1240] for name in DETECTOR_NAMES}
        emit_csv(failed, tmp_path / "out.csv")
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["failed_trials"] == failed.failed_trials

    def test_decision_digests_match_recorded_reference_trial(self, tmp_path):
        """A default one-trial run (seed 1234) records per detector the
        decision digest that the benchmark recorded for reference trial
        8/1234, in the result and in the trace sidecar."""
        recorded = _recorded_digests("reference")[0]["trials"]["8/1234"]
        want = {name: {"1234": recorded[name][0]} for name in DETECTOR_NAMES}
        result = run_monte_carlo(ExperimentConfig(num_trials=1))
        assert result.decision_digests == want
        emit_csv(result, tmp_path / "out.csv")
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["decision_digests"] == want

    def test_decision_digests_name_each_trials_seed(self):
        """Trial t's digest is keyed by its seed, base_seed + t, and hashes
        that trial's int8 decisions."""
        result = run_monte_carlo(FAST)
        seeds = range(FAST.base_seed, FAST.base_seed + FAST.num_trials)
        trials = {str(seed): run_trial(FAST, seed) for seed in seeds}
        assert result.decision_digests == {
            name: {
                seed: _digest(t.decisions[name], t.errors[name], 1)[0]
                for seed, t in trials.items()
            }
            for name in FAST.detectors
        }

    def test_failed_trials_name_the_trials_seed(self):
        """Trial t is listed by its own seed, base_seed + t."""
        cfg = ExperimentConfig(num_trials=2, base_seed=1239, detectors=("full_rank_lms",))
        assert run_monte_carlo(cfg).failed_trials == {"full_rank_lms": [1240]}

    def test_final_window_capped_by_trace(self):
        mc = run_monte_carlo(FAST)
        assert mc.final_window == FAST.num_symbols - 0 if FAST.num_symbols < 500 else 500
        assert mc.final_window == min(500, FAST.num_symbols)

    def test_ber_values_in_unit_interval(self):
        mc = run_monte_carlo(FAST)
        for trace in mc.ber_trace.values():
            assert trace.min() >= 0.0 and trace.max() <= 1.0

    def test_doubling_trials_shrinks_stderr(self):
        """stderr(2T) is close to stderr(T)/sqrt(2) on average."""
        cfg = dataclasses.replace(
            FAST,
            detectors=("full_rank_lms",),
            snr_db=6.0,
            num_trials=8,
        )
        ratios = []
        for rep in range(20):
            small = dataclasses.replace(cfg, base_seed=9000 + 100 * rep)
            large = dataclasses.replace(small, num_trials=16)
            se_small = run_monte_carlo(small).final_stderr["full_rank_lms"]
            se_large = run_monte_carlo(large).final_stderr["full_rank_lms"]
            if se_small > 0 and se_large > 0:
                ratios.append(se_large / se_small)
        assert ratios, "noise level too low to measure stderr"
        mean_ratio = float(np.mean(ratios))
        expected = 1.0 / np.sqrt(2.0)
        assert abs(mean_ratio - expected) / expected < 0.25


class TestSweep:
    def test_singleton_snr_sweep(self):
        cfg = dataclasses.replace(FAST, snr_sweep=(10.0,))
        result = sweep(cfg, axis="snr")
        (point,) = result.points
        assert point.config.detectors == cfg.detectors
        assert point.final_ber.keys() == point.final_stderr.keys() == set(cfg.detectors)
        assert point.config.snr_db == 10.0

    def test_users_sweep_points(self):
        cfg = dataclasses.replace(FAST, users_sweep=(1, 2), num_trials=2)
        result = sweep(cfg, axis="users")
        assert [point.config.K for point in result.points] == [1, 2]

    def test_rank_sweep_restricted_to_fixed_detector(self):
        cfg = dataclasses.replace(FAST, rank_sweep=(2, 4), num_trials=2)
        result = sweep(cfg, axis="rank")
        for point in result.points:
            assert point.config.detectors == ("jio_mber_fixed",)
            assert point.final_ber.keys() == point.final_stderr.keys() == {"jio_mber_fixed"}

    @pytest.mark.parametrize("axis", ["users", "rank"])
    def test_snr_list_rejected_off_the_snr_axis(self, axis, monkeypatch):
        """A listed snr_db must not be replaced by a default on another axis."""
        calls = []
        monkeypatch.setattr(harness, "run_monte_carlo", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigurationError) as err:
            cfg = dataclasses.replace(
                FAST, snr_db=(5.0, 10.0), users_sweep=(1, 2), rank_sweep=(2, 4)
            )
            sweep(cfg, axis=axis)
        assert err.value.field == "snr_db"
        assert calls == []

    @pytest.mark.parametrize("axis", ["snr", "users", "rank"])
    def test_same_result_for_every_job_count(self, tmp_path, axis):
        cfg = dataclasses.replace(
            FAST, snr_sweep=(8.0, 12.0), users_sweep=(1, 2), rank_sweep=(2, 4, 6), num_trials=2
        )
        serial = sweep(cfg, axis=axis, jobs=1)
        parallel = sweep(cfg, axis=axis, jobs=2)
        assert len(serial.points) == len(parallel.points) == len(getattr(cfg, f"{axis}_sweep"))
        for got, want in zip(parallel.points, serial.points):
            _assert_same_run(got, want)
        serial_csv, parallel_csv = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit_csv(serial, serial_csv)
        emit_csv(parallel, parallel_csv)
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()
        serial_meta, parallel_meta = (
            {k: v for k, v in json.loads(pathlib.Path(f"{path}.meta.json").read_text()).items()
             if k not in ("wall_time_s", "stage_s")}
            for path in (serial_csv, parallel_csv)
        )
        assert serial_meta == parallel_meta

    def test_result_keeps_only_what_the_sweep_alone_knows(self):
        """Every per-run figure of a sweep is read off its points."""
        names = [f.name for f in dataclasses.fields(SweepResult)]
        assert names == ["axis", "points", "config", "wall_time_s"]

    @pytest.mark.parametrize(
        "axis, point_key, grid, only",
        [
            ("snr", "snr_db", (8.0, 12.0), {}),
            ("users", "K", (1, 2), {}),
            # the stacked rank sweep (FAST: D_max = 6 is the unpadded rank)
            ("rank", "D", (2, 6, 4), {"detectors": ("jio_mber_fixed",)}),
        ],
    )
    def test_points_equal_their_own_runs(self, axis, point_key, grid, only):
        """Each grid point of a sweep is the run at that point: the same
        traces, per-trial BERs, summaries, failed trials, ranks and health."""
        cfg = dataclasses.replace(FAST, **{f"{axis}_sweep": grid}, num_trials=3)
        points = sweep(cfg, axis=axis).points
        assert len(points) == len(grid)
        for point, value in zip(points, grid):
            alone = run_monte_carlo(dataclasses.replace(cfg, **{point_key: value}, **only))
            _assert_same_run(point, alone)

    @pytest.mark.parametrize(
        "cfg, seeds",
        [
            (dataclasses.replace(FAST, rank_sweep=(2, 6, 4)), (555, 556)),
            (ExperimentConfig(), (1234,)),
        ],
    )
    def test_rank_point_is_a_run(self, cfg, seeds):
        """Each record of a stacked rank trial is the record run_trial gives
        the fixed-rank detector at that D; only the first carries stage
        seconds (synthesis and the whole stack)."""
        point_cfgs = [
            dataclasses.replace(cfg, D=d, detectors=("jio_mber_fixed",)) for d in cfg.rank_sweep
        ]
        for seed in seeds:
            records = harness._rank_trial(point_cfgs, seed)
            assert len(records) == len(point_cfgs)
            for p, (point_cfg, record) in enumerate(zip(point_cfgs, records)):
                alone = run_trial(point_cfg, seed)
                for key in ("decisions", "errors"):
                    got, want = getattr(record, key), getattr(alone, key)
                    assert got.keys() == want.keys() == {"jio_mber_fixed"}
                    np.testing.assert_array_equal(got["jio_mber_fixed"], want["jio_mber_fixed"])
                    assert got["jio_mber_fixed"].dtype == want["jio_mber_fixed"].dtype
                np.testing.assert_array_equal(record.true_bits, alone.true_bits)
                assert "errors" not in vars(record)
                recount = record.decisions["jio_mber_fixed"] != record.true_bits
                assert record.errors["jio_mber_fixed"].dtype == np.uint8
                np.testing.assert_array_equal(record.errors["jio_mber_fixed"], recount)
                stages = {"synthesis", "jio_mber_fixed"} if p == 0 else set()
                assert set(record.stage_s) == stages

    def test_non_finite_chip_fails_the_rank_sweep_loudly(self, monkeypatch):
        """An infinite chip at symbol 40 stops the stack there, naming the
        detector, the first rank in the grid (every rank reads the chip),
        the symbol and the trial seed."""

        def with_inf_chip(*args):
            windows, bits = synthesize_arrays(*args)
            windows = windows.copy()  # a read-only view
            windows[40, 3] = np.inf
            return windows, bits

        monkeypatch.setattr(harness, "synthesize_arrays", with_inf_chip)
        cfg = dataclasses.replace(FAST, rank_sweep=(4, 2), num_trials=2)
        message = rf"^jio_mber_fixed at symbol 40 of trial seed {cfg.base_seed}: rank D = 4: "
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=message):
                sweep(cfg, axis="rank")

    @pytest.mark.slow
    def test_rank_sweep_reproduces_recorded_digests(self):
        """Every decision vector of the benchmark's rank_sweep pool equals
        the recorded one (see ``_recorded_digests``)."""
        recorded, seeds = _recorded_digests("rank_sweep")
        cfg = ExperimentConfig(detectors=("jio_mber_fixed",))
        ranks = tuple(recorded["grid"])
        assert ranks == cfg.rank_sweep
        point_cfgs = [dataclasses.replace(cfg, D=d) for d in ranks]
        got = {}
        for seed in seeds:
            for d, record in zip(ranks, harness._rank_trial(point_cfgs, seed)):
                got[f"{d}/{seed}"] = {
                    name: _digest(record.decisions[name], record.errors[name], recorded["window"])
                    for name in cfg.detectors
                }
        assert len(got) == 128
        assert got == recorded["trials"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(FAST, axis="power")

    def test_bad_grid_point_rejected_before_any_run(self, monkeypatch):
        """K = 3 needs three amplitudes; the K = 2 point must not run first."""
        calls = []

        def counting(point_cfg, jobs=1):
            calls.append(point_cfg.K)
            return run_monte_carlo(point_cfg, jobs=jobs)

        monkeypatch.setattr(harness, "run_monte_carlo", counting)
        cfg = dataclasses.replace(FAST, amplitudes=(1.0, 0.5), users_sweep=(2, 3))
        with pytest.raises(ConfigurationError) as err:
            sweep(cfg, axis="users")
        assert err.value.field == "amplitudes"
        assert calls == []

    def test_benchmark_reads_its_names_off_harness(self, monkeypatch):
        """The benchmark worker reads these names off harness and hooks
        harness.run_trial for its per-trial digests, so a run and every SNR
        or users sweep point reach run_trial through that binding."""
        for name in ("parse_config", "emit_csv", "run_trial", "run_monte_carlo", "sweep"):
            assert callable(getattr(harness, name, None)), name
        assert harness.parse_config is parse_config and harness.emit_csv is emit_csv
        assert harness.FINAL_WINDOW == 500
        calls = []
        original = harness.run_trial

        def counting(cfg, trial_seed):
            calls.append(trial_seed)
            return original(cfg, trial_seed)

        monkeypatch.setattr(harness, "run_trial", counting)
        cfg = dataclasses.replace(FAST, num_trials=2, snr_sweep=(10.0, 15.0), users_sweep=(1, 2))
        run_monte_carlo(cfg)
        assert len(calls) == cfg.num_trials
        for axis in ("snr", "users"):
            calls.clear()
            sweep(cfg, axis=axis)
            assert len(calls) == cfg.num_trials * 2, axis


class TestEmitCsv:
    def test_empty_result_writes_header_only(self, tmp_path):
        empty_trace = ExperimentResult(
            config=FAST,
            ber_trace={},
            final_ber={},
            final_stderr={},
            final_ber_trials={},
            rank_counts={},
            final_window=0,
            wall_time_s=0.0,
        )
        path = tmp_path / "empty.csv"
        emit_csv(empty_trace, path)
        assert path.read_text() == "symbol_index,detector,ber\n"

        empty_sweep = SweepResult(axis="snr", points=[], config=FAST, wall_time_s=0.0)
        path2 = tmp_path / "empty_sweep.csv"
        emit_csv(empty_sweep, path2)
        assert path2.read_text() == "axis_value,detector,ber,stderr\n"

    def test_trace_row_count_and_shape(self, tmp_path):
        cfg = dataclasses.replace(
            FAST, detectors=("full_rank_lms",), tr_symbols=2, dd_symbols=1
        )
        mc = run_monte_carlo(cfg)
        path = tmp_path / "trace.csv"
        emit_csv(mc, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "symbol_index,detector,ber"
        assert len(lines) == 1 + 3  # header + one row per symbol

    def test_trace_roundtrip_six_significant_digits(self, tmp_path):
        mc = run_monte_carlo(FAST)
        path = tmp_path / "trace.csv"
        emit_csv(mc, path)
        seen = {name: [] for name in FAST.detectors}
        for line in path.read_text().splitlines()[1:]:
            idx, name, ber = line.split(",")
            seen[name].append(float(ber))
        for name in FAST.detectors:
            np.testing.assert_allclose(
                np.array(seen[name]), mc.ber_trace[name], rtol=1e-5, atol=1e-9
            )

    def test_sweep_csv_columns(self, tmp_path):
        cfg = dataclasses.replace(FAST, snr_sweep=(8.0,), num_trials=2)
        result = sweep(cfg, axis="snr")
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "axis_value,detector,ber,stderr"
        assert len(lines) == 1 + len(result.points) * len(cfg.detectors)
        (point,) = result.points
        assert lines[1:] == [
            f"8,{name},{results._fmt(point.final_ber[name])},"
            f"{results._fmt(point.final_stderr[name])}"
            for name in cfg.detectors
        ]

    def test_sidecar_metadata(self, tmp_path):
        mc = run_monte_carlo(FAST)
        path = tmp_path / "out.csv"
        emit_csv(mc, path)
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["kind"] == "trace"
        assert meta["config"]["K"] == FAST.K
        assert meta["config"]["base_seed"] == FAST.base_seed
        assert "base_seed" not in meta and "num_trials" not in meta
        assert meta["version"].startswith("mberlink-")
        stages = meta["stage_s"]
        assert set(stages) == {"synthesis", *FAST.detectors}
        assert all(seconds > 0 for seconds in stages.values())
        assert sum(stages.values()) <= meta["wall_time_s"]
        counts = meta["rank_counts"]["jio_mber_auto"]
        assert counts == mc.rank_counts["jio_mber_auto"].tolist()
        assert len(counts) == FAST.D_max + 1
        assert sum(counts[FAST.D_min :]) == FAST.num_trials * FAST.num_symbols

        swept = sweep(dataclasses.replace(FAST, num_trials=1), axis="rank")
        emit_csv(swept, tmp_path / "sweep.csv")
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        stages = meta["stage_s"]
        assert set(stages) == {"synthesis", "jio_mber_fixed"}
        assert all(seconds > 0 for seconds in stages.values())
        assert sum(stages.values()) <= meta["wall_time_s"]
        # the fixed-rank detector alone: no rank histogram and no health at any rank
        assert meta["rank_counts"] == meta["health"] == {str(p.config.D): {} for p in swept.points}
        for key in ("failed_trials", "decision_digests"):
            assert meta[key] == {str(p.config.D): getattr(p, key) for p in swept.points}
        # the sidecar echoes the grid the sweep ran
        grid = [2, 4, 6, 8, 10, 12, 16, 20]
        assert meta["config"]["rank_sweep"] == grid
        assert [point.config.D for point in swept.points] == grid

    def test_rank_sweep_sidecar_holds_recorded_digests(self, tmp_path):
        """A default one-trial rank sweep (seed 1234) writes per rank D the
        decision digest the benchmark recorded for rank_sweep trial D/1234."""
        recorded = _recorded_digests("rank_sweep")[0]["trials"]
        cfg = ExperimentConfig(num_trials=1)
        emit_csv(sweep(cfg, axis="rank"), tmp_path / "sweep.csv")
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["decision_digests"] == {
            str(d): {"jio_mber_fixed": {"1234": recorded[f"{d}/1234"]["jio_mber_fixed"][0]}}
            for d in cfg.rank_sweep
        }

    def test_sidecars_name_the_software_environment(self, tmp_path):
        import platform

        cfg = dataclasses.replace(FAST, num_trials=1, detectors=("full_rank_lms",))
        emit_csv(run_monte_carlo(cfg), tmp_path / "run.csv")
        emit_csv(sweep(dataclasses.replace(cfg, snr_sweep=(8.0,)), "snr"), tmp_path / "s.csv")
        for name in ("run", "s"):
            meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
            assert meta["environment"] == {
                "python": platform.python_version(),
                "numpy": np.__version__,
            }

    def test_sidecars_are_strict_json_with_infinite_config_numbers(self, tmp_path):
        """``snr_db = inf``, an ``inf`` in ``snr_sweep`` and a ``-inf`` dB tap
        are valid config; their sidecars must still parse as RFC 8259 JSON,
        which has no ``Infinity``, and echo the text a config file gives them."""

        def strict(text):
            raise ValueError(f"non-JSON constant {text}")

        cfg = dataclasses.replace(
            FAST,
            snr_db=math.inf,
            power_profile_db=(0.0, -math.inf, -10.0),
            snr_sweep=(10.0, math.inf),
            detectors=("full_rank_lms",),
            num_trials=1,
        )
        emit_csv(run_monte_carlo(cfg), tmp_path / "trace.csv")
        emit_csv(sweep(cfg, axis="snr"), tmp_path / "sweep.csv")
        for name in ("trace", "sweep"):
            text = (tmp_path / f"{name}.csv.meta.json").read_text()
            config = json.loads(text, parse_constant=strict)["config"]
            assert config["snr_db"] == "inf"
            assert config["power_profile_db"] == [0.0, "-inf", -10.0]
            assert config["snr_sweep"] == [10.0, "inf"]
            assert [float(p) for p in config["power_profile_db"]] == list(cfg.power_profile_db)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sidecar_is_strict_json_with_an_uncomputable_step_load(self, tmp_path):
        """At mu_lms = 0 LMS runs on any finite stream, but an amplitude of
        1e160 makes ||r||^2 overflow, so the step load 0 * inf is NaN; the
        sidecar writes it as text, as it does an infinite config number."""
        cfg = dataclasses.replace(
            FAST, amplitudes=(1e160, 1.0), mu_lms=0.0, detectors=("full_rank_lms",)
        )
        emit_csv(run_monte_carlo(dataclasses.replace(cfg, num_trials=1)), tmp_path / "t.csv")
        emit_csv(sweep(dataclasses.replace(cfg, snr_sweep=(8.0,)), "snr"), tmp_path / "s.csv")
        strict = {"parse_constant": lambda text: pytest.fail(f"non-JSON constant {text}")}
        trace = json.loads((tmp_path / "t.csv.meta.json").read_text(), **strict)
        swept = json.loads((tmp_path / "s.csv.meta.json").read_text(), **strict)
        assert trace["health"]["full_rank_lms"]["mean_square_load"] == "nan"
        assert swept["health"]["8"]["full_rank_lms"]["mean_square_load"] == "nan"

    def test_byte_identical_for_same_config_and_seed(self, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        emit_csv(run_monte_carlo(FAST), path_a)
        emit_csv(run_monte_carlo(FAST), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    @pytest.mark.parametrize(
        "axis, grid",
        [("snr", {"snr_sweep": (8.0, 12.5)}), ("users", {"users_sweep": (1, 2)}),
         ("rank", {"rank_sweep": (2, 4)})],
    )
    def test_sweep_sidecar_blocks_keyed_by_csv_axis_values(self, tmp_path, axis, grid):
        """Under the axis value its CSV rows print, each point's per-run
        blocks are what that point's own trace sidecar writes at top level,
        one block per point, and the sweep's stage_s sums the points' own."""
        swept = sweep(dataclasses.replace(FAST, num_trials=2, **grid), axis=axis)
        emit_csv(swept, tmp_path / "sweep.csv")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        values = list(dict.fromkeys(row.split(",")[0] for row in rows))
        assert len(values) == len(swept.points)
        traces = []
        for value, point in zip(values, swept.points):
            emit_csv(point, tmp_path / f"{value}.csv")
            traces.append(json.loads((tmp_path / f"{value}.csv.meta.json").read_text()))
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert results._RUN_BLOCKS == ("rank_counts", "failed_trials", "decision_digests", "health")
        for key in results._RUN_BLOCKS:
            assert meta[key] == {value: trace[key] for value, trace in zip(values, traces)}, key
        stages = {stage for trace in traces for stage in trace["stage_s"]}
        assert meta["stage_s"] == {
            stage: sum(trace["stage_s"].get(stage, 0.0) for trace in traces) for stage in stages
        }

    def test_snr_sweep_sidecar_holds_each_points_rank_histogram(self, tmp_path):
        """Each point of a two-point SNR sweep writes its auto-rank
        histogram, which counts every symbol of every trial once."""
        cfg = dataclasses.replace(FAST, num_trials=2, snr_sweep=(8.0, 12.0))
        emit_csv(sweep(cfg, axis="snr"), tmp_path / "sweep.csv")
        counts = json.loads((tmp_path / "sweep.csv.meta.json").read_text())["rank_counts"]
        assert set(counts) == {"8", "12"}
        for point_counts in counts.values():
            assert set(point_counts) == {"jio_mber_auto"}
            assert len(point_counts["jio_mber_auto"]) == cfg.D_max + 1
            assert sum(point_counts["jio_mber_auto"]) == cfg.num_trials * cfg.num_symbols


def _trace_result(ber_trace, final_window=1):
    """A hand-built run holding only ``ber_trace``, for writing as CSV."""
    traces = {name: np.asarray(trace, dtype=float) for name, trace in ber_trace.items()}
    return ExperimentResult(
        config=FAST,
        ber_trace=traces,
        final_ber={name: float(t[-final_window:].mean()) for name, t in traces.items()},
        final_stderr={name: 0.0 for name in traces},
        final_ber_trials={name: t[-final_window:] for name, t in traces.items()},
        rank_counts={},
        final_window=final_window,
        wall_time_s=0.0,
    )


def _csv_traces(path):
    """A trace CSV read back as, per detector, its (symbol_index, ber) rows."""
    traces = {}
    for line in pathlib.Path(path).read_text().splitlines()[1:]:
        idx, name, ber = line.split(",")
        traces.setdefault(name, []).append((int(idx), float(ber)))
    return traces


class TestTraceCsv:
    """A trace CSV holds each detector's trial-averaged BER per symbol as
    the run computed it, with nothing smoothed or dropped."""

    def test_rows_are_the_trace_as_computed(self, tmp_path):
        """An alternating trace comes back alternating: no value is averaged
        with its neighbours."""
        emit_csv(_trace_result({"full_rank_lms": [0.0, 1.0, 0.0, 1.0, 0.0]}), tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            "0,full_rank_lms,0",
            "1,full_rank_lms,1",
            "2,full_rank_lms,0",
            "3,full_rank_lms,1",
            "4,full_rank_lms,0",
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_one_row_per_symbol_for_any_trace_length(self, tmp_path, n):
        trace = np.linspace(0.0, 0.5, n)
        emit_csv(_trace_result({"full_rank_lms": trace}), tmp_path / "t.csv")
        rows = _csv_traces(tmp_path / "t.csv")["full_rank_lms"]
        assert [i for i, _ in rows] == list(range(n))
        assert [ber for _, ber in rows] == [float(_fmt(b)) for b in trace]

    def test_each_detector_indexed_from_symbol_zero(self, tmp_path):
        ber_trace = {"full_rank_lms": [0.5, 0.25, 0.125], "jio_mber_auto": [0.3, 0.2, 0.1]}
        emit_csv(_trace_result(ber_trace), tmp_path / "t.csv")
        got = _csv_traces(tmp_path / "t.csv")
        assert list(got) == list(ber_trace)
        for name, trace in ber_trace.items():
            assert got[name] == list(enumerate(trace))

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_last_final_window_rows_average_to_final_ber(self, tmp_path, monkeypatch, name):
        """The README's reading of the CSV: a detector's last ``final_window``
        rows average to its printed final BER, up to the 6-digit rounding."""
        monkeypatch.setattr(harness, "FINAL_WINDOW", 40)
        mc = run_monte_carlo(FAST)
        assert mc.final_window == 40 < FAST.num_symbols
        emit_csv(mc, tmp_path / "t.csv")
        rows = _csv_traces(tmp_path / "t.csv")[name]
        assert len(rows) == FAST.num_symbols
        tail = np.mean([ber for _, ber in rows[-mc.final_window :]])
        assert tail == pytest.approx(mc.final_ber[name], rel=1e-5, abs=1e-9)
