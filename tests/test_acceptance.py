"""Acceptance suite: every published target the simulator must reproduce.

Each test checks one criterion at its stated tolerance and prints one
PASS line with the measured numbers (run with ``pytest -v -s`` to see
them).
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    McConfig,
    TapConfig,
    attach_tap,
    calibrate,
    calibrate_envelope,
    discrete_channel,
    distilled_gln,
    herald,
    kerr_blocks,
    run_mc_sweep,
    two_mode_cov,
    upper_bound_ln,
)
from cvdistill.calibrate import premix_ln
from cvdistill.mc import CovarianceAccumulator, ln_with_se
from conftest import (batch_moments, binomial_two_sided_p, beamsplitter, kerr_source, loss,
                      model_pooled, pooled_cov_se, random_physical_state, symplectic_eigenvalues,
                      tensor, vacuum)

THRESHOLD_GRID = [0.5 * k for k in range(25)]  # 0 .. 12 SNU


@pytest.fixture(scope="module")
def model():
    cal = calibrate()
    channel = discrete_channel()
    levels = two_mode_cov(*kerr_blocks(cal.v_squeezed, cal.v_antisqueezed, channel))
    tapped = attach_tap(cal.v_squeezed, cal.v_antisqueezed, channel, TapConfig())
    return cal, channel, levels, tapped


def test_criterion_1_calibration_fit(model):
    start = time.perf_counter()
    cal = calibrate()
    elapsed = time.perf_counter() - start
    assert cal.v_squeezed == 2.0 ** (-0.76)
    assert cal.ln_initial == pytest.approx(0.76, abs=1e-6)
    assert cal.ln_discrete_premix == pytest.approx(-1.63, abs=1e-4)
    assert elapsed < 1.0
    print(
        f"\ncriterion 1 PASS: source LN {cal.ln_initial:.8f} (target 0.76 +- 1e-6), "
        f"pooled LN {cal.ln_discrete_premix:.6f} (target -1.63 +- 1e-4), "
        f"V_a {cal.v_antisqueezed:.3f}, {elapsed * 1e3:.0f} ms"
    )


def test_criterion_2_upper_bound(model):
    _, channel, levels, _ = model
    bound = upper_bound_ln(channel.probabilities, levels)
    assert bound == pytest.approx(0.49, abs=0.08)
    print(f"\ncriterion 2 PASS: upper bound LN {bound:.4f} (target 0.49 +- 0.08)")


def test_criterion_3_distillation_point(model):
    _, _, _, tapped = model
    start = time.perf_counter()
    ens = herald(tapped, [9.0])
    (ln,), (success,) = distilled_gln(ens), ens.success_probability
    elapsed = time.perf_counter() - start
    assert 0.58 <= ln <= 0.76
    assert 1.69e-5 / 2.0 <= success <= 1.69e-5 * 2.0
    assert elapsed < 1.0
    print(
        f"\ncriterion 3 PASS: threshold 9 SNU gives LN {ln:.4f} (band [0.58, 0.76]) "
        f"at success {success:.3e} (within 2x of 1.69e-5)"
    )


def test_criterion_4_crossing(model):
    _, channel, levels, tapped = model
    start = time.perf_counter()
    bound = upper_bound_ln(channel.probabilities, levels)
    ens = herald(tapped, THRESHOLD_GRID)
    assert ens.errors == (None,) * len(THRESHOLD_GRID)
    points = list(zip(THRESHOLD_GRID, ens.success_probability, distilled_gln(ens)))
    elapsed = time.perf_counter() - start
    crossing = [
        (th, succ, ln) for th, succ, ln in points
        if 1e-5 <= succ <= 1e-3 and ln > bound
    ]
    assert crossing, "no threshold with success in [1e-5, 1e-3] exceeds the upper bound"
    assert elapsed < 1.0
    best_th, best_succ, best_ln = crossing[0]
    print(
        f"\ncriterion 4 PASS: LN {best_ln:.4f} > bound {bound:.4f} at threshold "
        f"{best_th:g} SNU, success {best_succ:.2e} in [1e-5, 1e-3]"
    )


def test_criterion_5_semicontinuous(model):
    cal, _, _, _ = model
    start = time.perf_counter()
    frac, channel = calibrate_envelope(cal.v_squeezed, cal.v_antisqueezed)
    assert channel.probabilities[-1] == pytest.approx(0.2, abs=1e-12)
    assert premix_ln(cal.v_squeezed, cal.v_antisqueezed, channel) == pytest.approx(-0.11, abs=1e-3)
    tapped = attach_tap(cal.v_squeezed, cal.v_antisqueezed, channel, TapConfig())
    grid = np.arange(8.0, 12.01, 0.5)
    ens = herald(tapped, grid)
    assert ens.errors == (None,) * grid.size
    lns = dict(zip(grid, distilled_gln(ens)))
    posterior_full = herald(tapped, [10.0]).posterior_weights[0, -1]
    elapsed = time.perf_counter() - start
    best_th, best_ln = max(lns.items(), key=lambda kv: kv[1])
    assert best_ln >= 0.30
    assert posterior_full == pytest.approx(0.30, abs=0.05)
    assert elapsed < 2.0
    print(
        f"\ncriterion 5 PASS: max LN {best_ln:.4f} at threshold {best_th:g} SNU "
        f"(target >= 0.30); P(T=1 | kept) at 10 SNU = {posterior_full:.4f} "
        f"(target 0.30 +- 0.05); {elapsed:.2f} s"
    )


def test_criterion_6_mc_analytic_equivalence(model):
    _, _, _, tapped = model
    ens = herald(tapped, [4.0])
    start = time.perf_counter()
    res = run_mc_sweep(tapped, McConfig(n_shots=10_000_000, seed=20260811), [4.0])
    elapsed = time.perf_counter() - start

    z_succ = abs(res.success_probability[0] - ens.success_probability[0]) / res.success_se[0]
    assert z_succ < 4.0
    entry_dev = np.abs(res.pooled_cov[0] - ens.pooled_cov[0]) / pooled_cov_se(res)[0]
    assert entry_dev.max() < 4.0
    ln_mc, ln_se = (column[0] for column in ln_with_se(res))
    z_ln = abs(ln_mc - distilled_gln(ens)[0]) / ln_se
    assert z_ln < 4.0
    assert elapsed < 60.0
    print(
        f"\ncriterion 6 PASS: 1e7 shots in {elapsed:.1f} s single worker; "
        f"success {z_succ:.2f} sigma, worst covariance "
        f"entry {entry_dev.max():.2f} sigma, LN {z_ln:.2f} sigma (all < 4)"
    )


def test_criterion_7_full_scale_head_count(model):
    _, _, _, tapped = model
    n_shots = 240_000_000
    start = time.perf_counter()
    res = run_mc_sweep(tapped, McConfig(n_shots=n_shots, seed=8160, n_workers=4), [9.0])
    (kept,) = res.kept_count.tolist()
    elapsed = time.perf_counter() - start
    assert 3000 <= kept <= 30000
    assert elapsed < 20 * 60
    # The kept count is Binomial(n_shots, p) at the analytic pass probability.
    p_value = binomial_two_sided_p(kept, n_shots, herald(tapped, [9.0]).success_probability[0])
    assert p_value >= 1e-6
    print(
        f"\ncriterion 7 PASS: kept {kept} of {n_shots} shots at threshold "
        f"9 SNU (band [3000, 30000]), exact binomial p = {p_value:.3g} (>= 1e-6); "
        f"{elapsed:.2f} s with 4 workers"
    )


def test_deep_tail_head_count(model):
    # The curve's end, 9-12 SNU, at 1e11 shots: count-first sampling draws
    # only the ~2e6 candidates, so the run takes about half a second.
    _, _, _, tapped = model
    grid, n_shots = [9.0, 10.0, 11.0, 12.0], 100_000_000_000
    start = time.perf_counter()
    res = run_mc_sweep(tapped, McConfig(n_shots=n_shots, seed=9120), grid)
    elapsed = time.perf_counter() - start
    ens = herald(tapped, grid)
    assert res.errors == ens.errors == (None,) * len(grid)
    # Each row's kept count is Binomial(n_shots, success) at its threshold.
    p_values = [binomial_two_sided_p(int(kept), n_shots, p)
                for kept, p in zip(res.kept_count, ens.success_probability)]
    assert min(p_values) >= 1e-6
    ln_mc, ln_se = ln_with_se(res)
    z_ln = np.abs(ln_mc - distilled_gln(ens)) / ln_se.astype(float)
    assert z_ln.max() < 4.0
    assert elapsed < 10.0
    print(
        f"\ndeep tail PASS: kept {res.kept_count.tolist()} of {n_shots:.0e} shots at "
        f"{grid} SNU, exact binomial p >= {min(p_values):.3g}, LN within "
        f"{z_ln.max():.2f} SE of the analytic engine; {elapsed:.2f} s"
    )


def test_criterion_8_invariant_suites(model):
    cal, channel, levels, tapped = model
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # the reference's beam splitters preserve the symplectic spectrum
    for _ in range(5):
        state = random_physical_state(rng, 2)
        _, mixed = beamsplitter(state, 0, 1, rng.uniform(0, 1))
        assert_allclose(symplectic_eigenvalues(mixed), symplectic_eigenvalues(state[1]), atol=1e-9)

    # the reference's loss equals beam splitter with a vacuum ancilla plus partial trace
    for _ in range(10):
        state = random_physical_state(rng, 2)
        eta = rng.choice([0.0, 0.25, 0.5, 0.93, 1.0])
        mode = int(rng.integers(2))
        _, direct = loss(state, mode, eta)
        _, routed = beamsplitter(tensor(state, vacuum(1)), 2, mode, eta)
        assert_allclose(direct, routed[:4, :4], atol=1e-12)

    # the closed-form levels are the reference's loss on the source's beam B
    _, reference = loss(kerr_source(cal.v_squeezed, cal.v_antisqueezed), 1, channel.transmittances)
    assert_allclose(levels, reference, rtol=0, atol=1e-13 * np.abs(reference).max())

    # heralding with no selection reproduces the pooled covariance
    ens = herald(tapped, [-40.0 * tapped.tap_sd.max()])
    cov = model_pooled(tapped)
    assert_allclose(ens.pooled_cov[0], cov[:4, :4], atol=1e-10)
    assert_allclose(ens.pooled_mean[0], 0.0, atol=1e-10)

    # success probability strictly decreasing in threshold
    succ = herald(tapped, np.linspace(-5, 10, 50)).success_probability
    assert succ.size == 50
    assert all(b < a for a, b in zip(succ, succ[1:]))

    # Monte Carlo determinism
    conf = McConfig(n_shots=100_000, seed=31415)
    first, second = run_mc_sweep(tapped, conf, [3.0]), run_mc_sweep(tapped, conf, [3.0])
    assert first.kept_count[0] == second.kept_count[0]
    assert np.array_equal(first.pooled_cov[0], second.pooled_cov[0])

    # accumulator merge associativity
    x = rng.standard_normal((10_000, 4)) + 2.0
    whole, split = CovarianceAccumulator(4), CovarianceAccumulator(4)
    whole.merge_moments(*batch_moments(x))
    split.merge_moments(*batch_moments(x[:5000]))
    split.merge_moments(*batch_moments(x[5000:]))
    assert_allclose(split.m2, whole.m2, rtol=1e-10)
    assert_allclose(split.mean, whole.mean, rtol=1e-10)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\ncriterion 8 PASS: invariant suite replayed in {elapsed:.1f} s "
          f"(full property coverage lives in the module test files)")


def test_criterion_9_gaussification(model):
    _, _, _, tapped = model
    start = time.perf_counter()
    ens = herald(tapped, THRESHOLD_GRID)
    assert ens.errors == (None,) * len(THRESHOLD_GRID)
    entropies = ens.weight_entropy.tolist()
    elapsed = time.perf_counter() - start
    assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))
    by_nine = entropies[THRESHOLD_GRID.index(9.0)]
    assert by_nine < 0.1
    assert elapsed < 1.0
    print(
        f"\ncriterion 9 PASS: posterior weight entropy decreases monotonically "
        f"({entropies[0]:.3f} -> {entropies[-1]:.2e} bits) and is {by_nine:.2e} "
        f"bits at 9 SNU (< 0.1)"
    )
