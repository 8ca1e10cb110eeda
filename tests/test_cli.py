"""End-to-end CLI tests (small configurations)."""

import hashlib
import json

import numpy as np
import pytest

from mberlink import harness
from mberlink.cli import main


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(
        "K = 2\n"
        "snr_db = 12\n"
        "D = 4\n"
        "D_min = 2\n"
        "D_max = 6\n"
        "J = 1\n"
        "tr_symbols = 20\n"
        "dd_symbols = 40\n"
        "num_trials = 2\n"
        "detectors = jio_mber_fixed,full_rank_lms\n"
    )
    return path


def test_run_subcommand(tmp_path, fast_config, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(fast_config), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "symbol_index,detector,ber"
    assert len(lines) == 1 + 2 * 60  # two detectors, 60 symbols
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
    assert meta["kind"] == "trace"
    assert "final BER" in capsys.readouterr().out


def test_run_with_overrides(tmp_path, fast_config):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "run",
            "--config",
            str(fast_config),
            "--out",
            str(out),
            "--seed",
            "99",
            "--trials",
            "1",
            "--detectors",
            "full_rank_lms",
        ]
    )
    assert code == 0
    meta = json.loads((tmp_path / "trace.csv.meta.json").read_text())
    assert meta["config"]["base_seed"] == 99
    assert meta["config"]["num_trials"] == 1
    assert meta["config"]["detectors"] == ["full_rank_lms"]


def test_sweep_subcommand(tmp_path, fast_config):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--axis",
            "rank",
            "--config",
            str(fast_config),
            "--out",
            str(out),
            "--trials",
            "1",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis_value,detector,ber,stderr"
    assert len(lines) > 1


# a well-formed range whose ranks exceed the default M = 33
_RANK_ERRORS = {"2:40": "D must not exceed M=33, got 34"}


@pytest.mark.parametrize(
    "ranks, rows",
    [("2:6:2", 3), ("5:7", 3), ("6", 1), ("6:2", 0), ("2:x", 0), ("2::1", 0), ("2:40", 0)],
)
def test_complexity_subcommand(tmp_path, capsys, ranks, rows):
    """--D takes one rank or a LO:HI[:STEP] grid; rows = 0 marks a refused one."""
    out = tmp_path / "complexity.csv"
    assert main(["complexity", "--out", str(out), "--D", ranks]) == (0 if rows else 2)
    if not rows:
        assert _RANK_ERRORS.get(ranks, "bad range") in capsys.readouterr().err
        assert not out.exists()
        return
    lines = out.read_text().splitlines()
    # 8 algorithms at each rank + header
    assert len(lines) == 1 + 8 * rows

    reference = [line for line in lines if line.startswith("jio_mber,33,6,1")]
    assert reference == ["jio_mber,33,6,1,,,1262,962"]


def test_complexity_has_one_rank_option(tmp_path, capsys):
    """--d-range is gone: it used to override --D without a word."""
    out = tmp_path / "complexity.csv"
    with pytest.raises(SystemExit) as exc:
        main(["complexity", "--out", str(out), "--D", "6", "--d-range", "2:3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d-range" in capsys.readouterr().err
    assert not out.exists()


def test_complexity_refuses_tap_count_above_m(tmp_path, capsys):
    out = tmp_path / "complexity.csv"
    argv = ["complexity", "--M", "5", "--D", "2", "--Lp", "40", "--Dmax", "5"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "Lp must not exceed M=5, got 40" in capsys.readouterr().err
    assert not out.exists()


def test_complexity_table_over_default_rank_grid(tmp_path):
    """The D = 2..20 table at M = 33, J = 1, Lp = 3, every algorithm at each
    rank in turn, is byte for byte the recorded one."""
    out = tmp_path / "complexity.csv"
    argv = ["complexity", "--M", "33", "--J", "1", "--Lp", "3", "--D", "2:20"]
    assert main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 153
    digest = "537e098353693b3f2c6317cd2551a740523cbc293216f7ce79a9a36497e28e4e"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("J = 0\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_jobs_below_one_exit_code(fast_config, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["run", "--config", str(fast_config), "--out", str(out), "--jobs", "0"])
    assert code == 2
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


def test_snr_list_off_the_snr_axis_exit_code(fast_config, tmp_path, capsys):
    """A listed snr_db is not silently replaced by 15 dB on the users axis."""
    text = fast_config.read_text().replace("snr_db = 12", "snr_db = 5, 10")
    fast_config.write_text(text)
    out = tmp_path / "x.csv"
    args = ["sweep", "--axis", "users", "--config", str(fast_config), "--out", str(out)]
    code = main(args)
    assert code == 2
    assert "snr_db" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_negative_seed_exit_code(fast_config, tmp_path, capsys, jobs):
    out = tmp_path / "x.csv"
    args = ["run", "--config", str(fast_config), "--out", str(out), "--seed", "-1"]
    code = main(args + ["--jobs", jobs])
    assert code == 2
    assert "base_seed" in capsys.readouterr().err
    assert not out.exists()


def test_io_error_exit_code(fast_config, tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["run", "--config", str(fast_config), "--out", str(missing_dir)])
    assert code == 3


def _never_called(*args, **kwargs):
    raise AssertionError("ran trials although --out cannot be written")


@pytest.mark.parametrize(
    "argv, runner",
    [(["run"], "run_monte_carlo"), (["sweep", "--axis", "snr"], "sweep")],
    ids=["run", "sweep"],
)
@pytest.mark.parametrize("out", ["missing_dir", "existing_dir", "empty"])
def test_missing_out_dir_fails_before_any_trial(
    fast_config, tmp_path, capsys, monkeypatch, argv, runner, out
):
    """An --out whose directory is missing, that is a directory, or that is
    empty names no file to write: exit 3 before the first trial."""
    monkeypatch.setattr(harness, runner, _never_called)
    path = {
        "missing_dir": str(tmp_path / "no_such_dir" / "out.csv"),
        "existing_dir": str(tmp_path),
        "empty": "",
    }[out]
    code = main(argv + ["--config", str(fast_config), "--out", path])
    assert code == 3
    assert capsys.readouterr().err.startswith("i/o error: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("num_trials = 1\ndetectors = full_rank_lms\nmu_lms = 10\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "full_rank_lms at symbol" in capsys.readouterr().err


def test_rank_sweep_numerical_error_exit_code(fast_config, tmp_path, capsys, monkeypatch):
    """An infinite chip stops the stacked rank sweep with exit 3, naming
    the detector, the rank, the symbol and the trial seed."""
    synthesize = harness.synthesize_arrays

    def with_inf_chip(*args):
        windows, bits = synthesize(*args)
        windows = windows.copy()
        windows[25, 0] = np.inf
        return windows, bits

    monkeypatch.setattr(harness, "synthesize_arrays", with_inf_chip)
    fast_config.write_text(fast_config.read_text() + "rank_sweep = 4, 2\nbase_seed = 7\n")
    args = ["sweep", "--axis", "rank", "--config", str(fast_config)]
    with np.errstate(invalid="ignore"):
        code = main(args + ["--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "jio_mber_fixed at symbol 25 of trial seed 7: rank D = 4: " in err
