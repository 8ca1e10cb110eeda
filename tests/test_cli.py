"""End-to-end CLI tests (small configurations)."""

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


def test_complexity_subcommand(tmp_path):
    out = tmp_path / "complexity.csv"
    code = main(["complexity", "--out", str(out), "--d-range", "2:6:2"])
    assert code == 0
    lines = out.read_text().splitlines()
    # 8 algorithms x 3 rank values + header
    assert len(lines) == 1 + 8 * 3

    reference = [line for line in lines if line.startswith("jio_mber,33,6,1")]
    assert reference == ["jio_mber,33,6,1,,,1262,962"]


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
