"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE nn ... PASS|FAIL`` line (visible
with ``pytest -s`` or in captured output).  The Monte Carlo experiments
(criteria 5-7) share module-scoped fixtures; the full module takes a few
minutes on two cores.
"""

import dataclasses
import time

import mpmath
import numpy as np
import pytest

from mberlink.baselines import FullRankState, mber_full_rank_update
from mberlink.complexity import Algorithm, op_count
from mberlink.detector_core import (
    error_probability,
    gradient_S,
    gradient_w,
    q_function,
)
from mberlink.config import ExperimentConfig, kernel_radius, noise_sigma
from mberlink.harness import _build_users, run_monte_carlo, run_trial
from mberlink.jio_mber import JioState, jio_step, init_state, scale_filter, update_filter
from mberlink.results import emit_csv
from mberlink.signal_model import generate_gold_family, synthesize_arrays

JOBS = 2


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def paper_run():
    """Reference experiment: N=31, K=5, SNR=15 dB, D=8, J=5, mu=0.005,
    250 TR + 1500 DD, 200 trials, all four detectors."""
    cfg = ExperimentConfig()
    assert (cfg.N, cfg.K, cfg.snr_db) == (31, 5, 15.0)
    assert (cfg.D, cfg.J, cfg.mu_w, cfg.mu_S) == (8, 5, 0.005, 0.005)
    assert (cfg.tr_symbols, cfg.dd_symbols, cfg.num_trials) == (250, 1500, 200)
    start = time.perf_counter()
    result = run_monte_carlo(cfg, jobs=JOBS)
    result.elapsed = time.perf_counter() - start
    return result


@pytest.fixture(scope="module")
def snr_sweep_run(paper_run):
    """Common-random-numbers SNR sweep: every point runs the same trial
    seeds, so drops between points are paired statistics.  The 15 dB
    point is the reference experiment itself, so it is not run twice."""
    configs = {
        snr: dataclasses.replace(ExperimentConfig(), snr_db=snr, num_trials=200)
        for snr in (5.0, 10.0, 15.0)
    }
    assert configs[15.0] == paper_run.config
    results = {15.0: paper_run}
    for snr in (5.0, 10.0):
        results[snr] = run_monte_carlo(configs[snr], jobs=JOBS)
    return results


def test_criterion_01_table2_exactness():
    """Worked operation counts reproduced as exact integers in < 1 ms."""
    op_count(Algorithm.JIO_MBER, M=33, D=6, J=1)  # warm-up
    start = time.perf_counter()
    jio = op_count(Algorithm.JIO_MBER, M=33, D=6, J=1)
    mwf = op_count(Algorithm.MWF_MBER, M=33, D=6, Lp=3)
    elapsed = time.perf_counter() - start
    ok = (
        (jio.multiplications, jio.additions) == (1262, 962)
        and (mwf.multiplications, mwf.additions) == (8377, 5920)
        and elapsed < 1e-3
    )
    report(1, "operation-count exactness", ok, f"{elapsed * 1e6:.0f} us")
    assert (jio.multiplications, jio.additions) == (1262, 962)
    assert (mwf.multiplications, mwf.additions) == (8377, 5920)
    assert elapsed < 1e-3


def test_criterion_02_gradient_fidelity():
    """Both analytic gradients vs central differences: 100 instances,
    relative error <= 1e-6, under one second."""

    def pipeline(S, w, r, b, rho):
        x = complex(np.vdot(w, S.conj().T @ r))
        sw = S @ w
        return error_probability(x, b, float(np.vdot(sw, sw).real), rho)

    rng = np.random.default_rng(20150409)
    h = 1e-6
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    while instances < 100:
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, min(m, 4) + 1))
        S = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = int(rng.choice([-1, 1]))
        rho = float(rng.uniform(0.5, 2.0))
        sw = S @ w
        n = float(np.vdot(sw, sw).real)
        if n < 1e-3:
            continue
        if abs(b * np.vdot(w, S.conj().T @ r).real) / (rho * np.sqrt(n)) > 2.5:
            continue  # keep the finite differences out of the flat tail
        instances += 1

        g = gradient_w(S, w, r, b, rho)
        analytic = np.concatenate([2 * g.real, 2 * g.imag])
        fd = np.zeros(2 * d)
        for i in range(d):
            for part, off in ((1.0, 0), (1j, d)):
                wp, wm = w.copy(), w.copy()
                wp[i] += part * h
                wm[i] -= part * h
                fd[i + off] = (
                    pipeline(S, wp, r, b, rho) - pipeline(S, wm, r, b, rho)
                ) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))

        G = gradient_S(S, w, r, b, rho)
        analytic_s = np.concatenate([2 * G.real.ravel(), 2 * G.imag.ravel()])
        fd_s = np.zeros(2 * m * d)
        for part, off in ((1.0, 0), (1j, m * d)):
            for i in range(m):
                for j in range(d):
                    Sp, Sm = S.copy(), S.copy()
                    Sp[i, j] += part * h
                    Sm[i, j] -= part * h
                    fd_s[off + i * d + j] = (
                        pipeline(Sp, w, r, b, rho) - pipeline(Sm, w, r, b, rho)
                    ) / (2 * h)
        worst = max(
            worst, np.linalg.norm(fd_s - analytic_s) / np.linalg.norm(analytic_s)
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report(2, "gradient fidelity", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_03_normalization_invariant():
    """w^H S^H S w stays within 1e-10 of one after every adaptation step
    across a full 1750-symbol reference trial."""
    cfg = ExperimentConfig()
    sigma = noise_sigma(cfg, cfg.snr_db)
    rho = kernel_radius(cfg, sigma)
    users = _build_users(cfg, trial_seed=cfg.base_seed)
    windows, bits = synthesize_arrays(users, cfg.num_symbols, sigma, cfg.base_seed)
    state = init_state(cfg.M, cfg.D, cfg.mu_w, cfg.mu_S, cfg.J, rho)

    start = time.perf_counter()
    worst = 0.0
    for i in range(cfg.num_symbols):
        training = i < cfg.tr_symbols
        jio_step(state, windows[i], int(bits[i, 0]) if training else None)
        sw = state.S @ state.w
        worst = max(worst, abs(float(np.vdot(sw, sw).real) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(3, "normalization invariant", ok, f"worst |n-1| {worst:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_04_specialization_equivalence():
    """Full-rank MBER equals the reduced-rank filter recursion at S = I,
    bit for bit, over 50 random samples."""
    rng = np.random.default_rng(77)
    m = 12
    w0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    full = FullRankState(w=w0.copy(), mu=0.03, rho=0.6)
    reduced = JioState(
        S=np.eye(m, dtype=np.complex128),
        w=w0.copy(),
        mu_w=0.03,
        mu_S=0.0,
        J=1,
        rho=0.6,
    )
    identical = True
    for _ in range(50):
        r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = int(rng.choice([-1, 1]))
        mber_full_rank_update(full, r, b)
        reduced.w = update_filter(reduced, r, b)
        scale_filter(reduced)
        identical = identical and np.array_equal(full.w, reduced.w)
    report(4, "specialization equivalence", identical, "50 samples bit-exact")
    assert identical


@pytest.mark.slow
def test_criterion_05_reference_experiment_ordering(paper_run):
    """Final-500-symbol BER ordering JIO-MBER < FullRankMBER < FullRankLMS,
    each gap beyond twice the combined standard error."""
    fb, se = paper_run.final_ber, paper_run.final_stderr
    jio, frm, lms = fb["jio_mber_fixed"], fb["full_rank_mber"], fb["full_rank_lms"]

    def gap_ok(lo, hi):
        gap = fb[hi] - fb[lo]
        combined = np.sqrt(se[lo] ** 2 + se[hi] ** 2)
        return gap > 2.0 * combined, gap, combined

    ok1, gap1, c1 = gap_ok("jio_mber_fixed", "full_rank_mber")
    ok2, gap2, c2 = gap_ok("full_rank_mber", "full_rank_lms")
    ok = ok1 and ok2 and paper_run.elapsed < 300.0
    report(
        5,
        "reference-experiment ordering",
        ok,
        f"BER jio={jio:.4g} frmber={frm:.4g} lms={lms:.4g}; "
        f"gap1={gap1:.4g} vs 2se={2 * c1:.4g}, gap2={gap2:.4g} vs 2se={2 * c2:.4g}; "
        f"{paper_run.elapsed:.0f}s",
    )
    assert ok1, (
        f"JIO-MBER ({jio:.4g}) must beat FullRankMBER ({frm:.4g}) "
        f"by more than {2 * c1:.4g}"
    )
    assert ok2, (
        f"FullRankMBER ({frm:.4g}) must beat FullRankLMS ({lms:.4g}) "
        f"by more than {2 * c2:.4g}"
    )
    assert paper_run.elapsed < 300.0


@pytest.mark.slow
def test_criterion_06_auto_rank_benefit(paper_run):
    """Auto-rank final BER within 1.1x of fixed D=8; every selected rank
    inside [D_min, D_max]."""
    cfg = paper_run.config
    auto = paper_run.final_ber["jio_mber_auto"]
    fixed = paper_run.final_ber["jio_mber_fixed"]
    counts = paper_run.rank_counts["jio_mber_auto"]
    in_range = counts[: cfg.D_min].sum() == 0
    total = int(counts.sum())
    expected_total = cfg.num_trials * cfg.num_symbols
    ratio = auto / fixed if fixed > 0 else np.inf
    ok = ratio <= 1.1 and in_range and total == expected_total
    report(
        6,
        "auto-rank benefit",
        ok,
        f"auto={auto:.4g} fixed={fixed:.4g} ratio={ratio:.3f}; ranks in "
        f"[{cfg.D_min},{cfg.D_max}]: {bool(in_range)}",
    )
    assert in_range and total == expected_total
    assert ratio <= 1.1, f"auto-rank BER {auto:.4g} exceeds 1.1x fixed {fixed:.4g}"


@pytest.mark.slow
def test_criterion_07_snr_monotonicity(snr_sweep_run):
    """BER strictly decreasing in SNR beyond 2-sigma Monte Carlo noise for
    every detector; trials are paired across SNR points (common random
    numbers), so the noise is the paired-difference standard error."""
    points = sorted(snr_sweep_run)
    detectors = ExperimentConfig().detectors
    ok = True
    details = []
    for detector in detectors:
        for lo, hi in zip(points, points[1:]):
            a = snr_sweep_run[lo].final_ber_trials[detector]
            b = snr_sweep_run[hi].final_ber_trials[detector]
            diff = a - b
            se = diff.std(ddof=1) / np.sqrt(len(diff))
            margin = diff.mean() / se if se > 0 else np.inf
            details.append(f"{detector} {lo:g}->{hi:g}dB {margin:.1f}sigma")
            if not diff.mean() > 2.0 * se:
                ok = False
    report(7, "SNR monotonicity", ok, "; ".join(details))
    assert ok, details


def test_criterion_08_noiseless_sanity():
    """Single user, one path, sigma = 0: no errors after the first symbol."""
    cfg = dataclasses.replace(
        ExperimentConfig(),
        K=1,
        power_profile_db=(0.0,),
        snr_db=float("inf"),
        doppler=0.0,
        tr_symbols=50,
        dd_symbols=200,
        num_trials=1,
    )
    result = run_trial(cfg, cfg.base_seed)
    late_errors = {n: int(result.errors[n][1:].sum()) for n in cfg.detectors}
    ok = all(v == 0 for v in late_errors.values())
    report(8, "noiseless sanity", ok, str(late_errors))
    assert ok, late_errors


def test_criterion_09_q_function_accuracy():
    """|Q(x) - oracle| <= 1e-12 on x in {-8 .. 8} step 0.25, oracle via
    50-digit complementary error function."""
    mpmath.mp.dps = 50
    worst = 0.0
    for k in range(-32, 33):
        x = k * 0.25
        oracle = float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))
        worst = max(worst, abs(float(q_function(x)) - oracle))
    ok = worst <= 1e-12
    report(9, "Q-function accuracy", ok, f"worst abs err {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_10_gold_family_structure():
    """Degree 5: 33 codes of length 31 with cross-correlation spectrum
    {-9, -1, +7}, checked exhaustively."""
    family = generate_gold_family(5)
    sizes_ok = len(family) == 33 and all(c.length == 31 for c in family)
    signs = np.stack([np.sign(c.chips) for c in family]).astype(np.int64)
    values = set()
    for a in range(len(family)):
        rolled = np.stack([np.roll(signs[a], s) for s in range(31)])
        cross = rolled @ signs[a + 1 :].T
        values.update(np.unique(cross).tolist())
    ok = sizes_ok and values == {-9, -1, 7}
    report(10, "Gold family structure", ok, f"size {len(family)}, spectrum {sorted(values)}")
    assert sizes_ok
    assert values == {-9, -1, 7}


def test_criterion_11_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV output."""
    cfg = dataclasses.replace(
        ExperimentConfig(),
        K=3,
        tr_symbols=40,
        dd_symbols=100,
        num_trials=4,
        base_seed=2718,
    )
    paths = []
    for tag in ("one", "two"):
        path = tmp_path / f"{tag}.csv"
        emit_csv(run_monte_carlo(cfg), path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(11, "determinism", identical, "byte-identical trace CSV")
    assert identical
