"""Acceptance suite: one test per release gate, ordered.

Each test prints a one-line measurement summary so a plain ``pytest -v``
run reads as a checklist; the assertions carry the binding tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
from scipy.stats import norm

from wavesel.bandit import pick_argmax
from wavesel.gaussmath import blr_update, kl_gaussian, posterior_gaussian
from wavesel.harness import ExperimentConfig, run_experiment
from wavesel.meta import POLICIES, TrackData, init_meta, meta_update
from wavesel.metrics import BoundInputs, pac_bayes_meta, pac_bayes_single
from wavesel.waveforms import CATALOG_NAMES, catalog_envelope

from oracles import cyclic_autocorrelation, float_posterior

#: Paired seed-bootstrap resamples behind each printed interval, and the
#: seed of their fixed stream, so the printout is deterministic.
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 7


def seed_noise(statistic, passes, *per_seed: np.ndarray) -> str:
    """The gate's quantity read against seed noise, as a printable line.

    ``per_seed`` holds each compared quantity's per-seed values;
    ``statistic`` maps their means over seeds to the gate's quantity, and
    ``passes`` says where that quantity meets the bound. The seeds are
    resampled with replacement, each resample keeping a seed's values
    together, since policies share a seed's scene (Efron and Tibshirani,
    An Introduction to the Bootstrap, 1993). Reports the 95% percentile
    interval, the share of resamples on the wrong side of the bound and
    the number of seeds that pass on their own.
    """
    n = per_seed[0].size
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(n, size=(BOOTSTRAP_RESAMPLES, n))
    resampled = statistic(*(values[picks].mean(axis=1) for values in per_seed))
    lo, hi = np.percentile(resampled, [2.5, 97.5])
    wrong = 1.0 - float(np.mean(passes(resampled)))
    alone = int(np.sum(passes(statistic(*per_seed))))
    return (
        f"seed 95% interval [{lo:.4g}, {hi:.4g}], {wrong:.0%} of resamples "
        f"fail, {alone} of {n} seeds pass alone"
    )


def _grid_meta_posterior(prior_mean, prior_cov, tracks, sigma0_sq, noise_var, points):
    """Hierarchical posterior over the prior mean by brute-force grid sums.

    The instance coefficients are marginalized in closed form per track
    (the losses are jointly Gaussian given the prior mean), then the prior
    mean itself is handled by quadrature on a wide regular grid, so nothing
    here shares code with the recursive update under test.
    """
    half_width = 8.0
    sd = np.sqrt(np.diag(prior_cov))
    axes = [
        np.linspace(m - half_width * s, m + half_width * s, points)
        for m, s in zip(prior_mean, sd)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    prior_prec = np.linalg.inv(prior_cov)
    diff = grid - prior_mean
    log_w = -0.5 * np.einsum("gi,ij,gj->g", diff, prior_prec, diff)
    for X, y in tracks:
        mid = noise_var * np.eye(len(y)) + sigma0_sq * (X @ X.T)
        mid_inv = np.linalg.inv(mid)
        resid = y[None, :] - grid @ X.T
        log_w = log_w - 0.5 * np.einsum("gi,ij,gj->g", resid, mid_inv, resid)
    w = np.exp(log_w - log_w.max())
    w = w / w.sum()
    mean = w @ grid
    centered = grid - mean
    cov = (centered * w[:, None]).T @ centered
    return mean, cov


def test_01_meta_update_matches_grid_marginalization():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    # (informative axes d, track sizes, sigma_q_sq, sigma0_sq, noise_var):
    # the belief is over three weights, and contexts that are zero past
    # their first d features leave the other weights at their flat prior,
    # so the grid spans the first d axes only
    cases = [
        (1, [1], 0.8, 0.5, 1.2),
        (1, [3, 2], 1.5, 0.9, 0.6),
        (2, [4], 1.0, 0.4, 0.8),
        (2, [5], 0.7, 1.1, 0.5),
        (2, [3, 2], 1.2, 0.6, 0.9),
    ]
    worst = 0.0
    for d, track_sizes, sigma_q_sq, sigma0_sq, noise_var in cases:
        mp = init_meta(sigma_q_sq, sigma0_sq=sigma0_sq, sigma_sq=noise_var)
        tracks = []
        for n_obs in track_sizes:
            X = rng.normal(size=(n_obs, d))
            y = rng.normal(size=n_obs)
            tracks.append((X, y))
            mp = meta_update(mp, TrackData(np.pad(X, ((0, 0), (0, 3 - d))), y))
        g_mean, g_cov = _grid_meta_posterior(
            np.zeros(d),
            sigma_q_sq * np.eye(d),
            tracks,
            sigma0_sq,
            noise_var,
            points=3001 if d == 1 else 481,
        )
        # the belief's first d weights: their mean and the root of their
        # covariance, the leading block of U U^T, which is not a block of U
        cov = mp.root @ mp.root.T
        exact = mp.mu[:d], np.linalg.cholesky(cov[:d, :d])
        gridded = g_mean, np.linalg.cholesky(g_cov)
        worst = max(worst, kl_gaussian(gridded, exact), kl_gaussian(exact, gridded))
    elapsed = time.perf_counter() - started
    print(
        f"acceptance 01 prior-learning update vs grid marginalization: "
        f"worst kl {worst:.2e}, {elapsed:.1f} s"
    )
    assert worst < 1e-6
    assert elapsed < 10.0


def test_02_sequential_updates_match_normal_equations():
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        n_obs = int(rng.integers(1, 25))
        prior_mean = rng.normal(size=3)
        prior_var = float(rng.uniform(0.2, 3.0))
        noise_var = float(rng.uniform(0.05, 2.0))
        X = rng.normal(size=(n_obs, 3))
        y = rng.normal(size=n_obs)
        post = posterior_gaussian((prior_mean, prior_var))
        for i in range(n_obs):
            post = blr_update(post, math.sqrt(noise_var), X[i].tolist(), float(y[i]))
        mean, cov = float_posterior(post)
        prec = np.eye(3) / prior_var + X.T @ X / noise_var
        direct_mean = np.linalg.solve(prec, prior_mean / prior_var + X.T @ y / noise_var)
        direct_cov = np.linalg.inv(prec)
        worst = max(
            worst,
            float(np.max(np.abs(mean - direct_mean))),
            float(np.max(np.abs(cov - direct_cov))),
        )
    elapsed = time.perf_counter() - started
    print(
        f"acceptance 02 sequential posterior vs batch normal equations: "
        f"worst gap {worst:.2e}, {elapsed:.2f} s"
    )
    assert worst < 1e-10
    assert elapsed < 1.0


def _log_density(draws: np.ndarray, g: tuple) -> np.ndarray:
    mean, cov = g
    chol = np.linalg.cholesky(cov)
    solved = np.linalg.solve(chol, (draws - mean).T)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    d = mean.size
    return -0.5 * (
        np.sum(solved**2, axis=0) + log_det + d * np.log(2.0 * np.pi)
    )


def test_03_closed_form_kl_matches_monte_carlo():
    started = time.perf_counter()
    rng = np.random.default_rng(37)
    worst_rel = 0.0
    pairs = 0
    while pairs < 20:
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        q = rng.normal(size=3), a @ a.T + 0.5 * np.eye(3)
        p = rng.normal(size=3), b @ b.T + 0.5 * np.eye(3)
        exact = kl_gaussian(
            (q[0], np.linalg.cholesky(q[1])), (p[0], np.linalg.cholesky(p[1]))
        )
        if not 0.3 <= exact <= 50.0:
            continue
        pairs += 1
        z = rng.standard_normal((1_000_000, 3))
        draws = q[0] + z @ np.linalg.cholesky(q[1]).T
        mc = float(np.mean(_log_density(draws, q) - _log_density(draws, p)))
        worst_rel = max(worst_rel, abs(mc - exact) / exact)
    elapsed = time.perf_counter() - started
    print(
        f"acceptance 03 closed-form kl vs monte carlo: "
        f"worst relative gap {worst_rel:.4f}, {elapsed:.1f} s"
    )
    assert worst_rel < 0.01
    assert elapsed < 30.0


def test_04_synthetic_regret_ordering(synthetic_sweep):
    per_seed = {
        policy: synthetic_sweep.curves(policy, "cum_regret").sum(axis=1)
        for policy in POLICIES
    }
    finals = {policy: float(values.mean()) for policy, values in per_seed.items()}
    oracle = finals["ts-oracle"]
    learned = finals["meta-ts"]
    flat = finals["ts-uninformative"]
    blind = finals["random"]
    noise = seed_noise(
        np.divide, lambda ratio: ratio <= 1.5, per_seed["meta-ts"], per_seed["ts-oracle"]
    )
    print(
        f"acceptance 04 final cumulative regret: oracle {oracle:.1f} < "
        f"meta {learned:.1f} < uninformative {flat:.1f} < random {blind:.1f}; "
        f"sweep {synthetic_sweep.elapsed_s:.0f} s; meta/oracle "
        f"{learned / oracle:.3f} <= 1.5, {noise}"
    )
    assert oracle < learned < flat < blind
    assert learned <= 1.5 * oracle
    assert flat >= 1.3 * learned
    assert synthetic_sweep.elapsed_s < 180.0


def test_05_meta_belief_concentrates(synthetic_sweep):
    kl = synthetic_sweep.curves("meta-ts", "kl_to_truth").mean(axis=0)
    print(
        f"acceptance 05 meta belief divergence: track 1 {kl[0]:.2f}, "
        f"track 50 {kl[-1]:.2f}, ratio {kl[-1] / kl[0]:.3f}"
    )
    assert kl[-1] <= 0.2 * kl[0]


def test_06_suboptimal_transmission_gap(synthetic_sweep):
    learned_curves = synthetic_sweep.curves("meta-ts", "subopt_freq")
    flat_curves = synthetic_sweep.curves("ts-uninformative", "subopt_freq")
    learned = float(learned_curves.mean())
    flat = float(flat_curves.mean())
    noise = seed_noise(
        np.subtract, lambda gap: gap >= 0.05,
        flat_curves.mean(axis=1), learned_curves.mean(axis=1),
    )
    print(
        f"acceptance 06 cumulative suboptimal frequency at track 50: "
        f"meta {learned:.4f}, uninformative {flat:.4f}, gap {flat - learned:.4f} "
        f">= 0.05, {noise}"
    )
    assert flat - learned >= 0.05


def test_07_physical_outage_reduction(physical_sweep):
    late = slice(39, None)
    meta_curves = physical_sweep.curves("meta-ts", "outage_freq")[:, late]
    flat_curves = physical_sweep.curves("ts-uninformative", "outage_freq")[:, :10]
    meta_late = float(meta_curves.mean())
    flat_early = float(flat_curves.mean())
    oracle_late = float(
        physical_sweep.curves("ts-oracle", "outage_freq")[:, late].mean()
    )
    noise = seed_noise(
        np.subtract, lambda gap: gap > 0.0,
        flat_curves.mean(axis=1), meta_curves.mean(axis=1),
    )
    print(
        f"acceptance 07 10 dB outage: meta tracks 40-50 {meta_late:.4f} vs "
        f"uninformative tracks 1-10 {flat_early:.4f}, oracle late {oracle_late:.4f}; "
        f"sweep {physical_sweep.elapsed_s:.0f} s; gap {flat_early - meta_late:.4f} "
        f"> 0, {noise}"
    )
    assert meta_late < flat_early
    assert meta_late <= 1.3 * oracle_late


def test_08_waveform_catalog_properties():
    energy_gap = 0.0
    for name in CATALOG_NAMES:
        env = catalog_envelope(name)
        energy_gap = max(
            energy_gap, abs(float(np.sum(np.abs(env.samples) ** 2)) - 1.0)
        )
    zc = catalog_envelope("zc-1024")
    sidelobe = max(
        abs(cyclic_autocorrelation(zc, lag)) for lag in range(1, len(zc))
    )
    frank = catalog_envelope("frank-144")
    hold = len(frank) // 144
    first_row = np.angle(frank.samples[: 12 * hold])
    print(
        f"acceptance 08 catalog: worst energy gap {energy_gap:.1e}, "
        f"worst zc sidelobe {sidelobe:.1e}, "
        f"frank first-row phase max {np.max(np.abs(first_row)):.1e}"
    )
    assert energy_gap < 1e-9
    assert sidelobe < 1e-9
    assert np.all(first_row == 0.0)


def test_09_selection_frequency_law():
    rng = np.random.default_rng(71)
    contexts = np.array([[0.55, 0.10, 0.60], [0.45, 0.30, 0.70]])
    post = posterior_gaussian((np.zeros(3), 1.0))
    X = np.array([[0.5, 0.2, 0.6], [0.6, 0.1, 0.4], [0.4, 0.3, 0.8]])
    y = np.array([0.4, 0.55, 0.5])
    for i in range(len(y)):
        post = blr_update(post, 0.5, X[i].tolist(), float(y[i]))
    mean, cov = float_posterior(post)
    delta = contexts[1] - contexts[0]
    p_analytic = float(
        norm.cdf(float(delta @ mean) / np.sqrt(float(delta @ cov @ delta)))
    )
    draws = mean + rng.standard_normal((100_000, 3)) @ np.linalg.cholesky(cov).T
    rows = contexts.tolist()
    picks = np.array([pick_argmax(theta, rows) for theta in draws.tolist()])
    freq = float(np.mean(picks == 1))
    print(
        f"acceptance 09 selection law: frequency {freq:.4f} vs "
        f"analytic {p_analytic:.4f}"
    )
    assert abs(freq - p_analytic) < 0.01


def test_10_reruns_byte_identical(tmp_path):
    for mode in ("synthetic", "physical"):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{mode}_{tag}"
            config = replace(
                ExperimentConfig(),
                m=2,
                n=12,
                k=3,
                seeds=(0,),
                policies=("meta-ts",),
                mode=mode,
                out_dir=str(out),
            )
            run_experiment(config)
            outputs.append(out)
        for name in ("cpi_meta-ts_seed0.csv", "track_meta-ts_seed0.csv"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    print("acceptance 10 determinism: synthetic and physical reruns byte-identical")


def test_11_generalization_bounds():
    value = pac_bayes_single(BoundInputs(0.0, 100, 0.05, 0.0))
    rng = np.random.default_rng(97)
    for _ in range(1000):
        b = BoundInputs(
            float(rng.uniform(0.0, 40.0)),
            int(rng.integers(2, 10**6)),
            float(rng.uniform(0.01, 1.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        assert pac_bayes_single(b) >= b.empirical_error
    for _ in range(1000):
        n_tasks = int(rng.integers(2, 8))
        per_task = [
            BoundInputs(
                float(rng.uniform(0.0, 20.0)),
                int(rng.integers(2, 10**5)),
                0.05,
                float(rng.uniform(0.0, 1.0)),
            )
            for _ in range(n_tasks)
        ]
        bound = pac_bayes_meta(
            per_task,
            float(rng.uniform(0.0, 10.0)),
            n_tasks,
            float(rng.uniform(0.01, 1.0)),
        )
        assert bound >= float(np.mean([b.empirical_error for b in per_task]))
    print(f"acceptance 11 generalization bounds: spot value {value:.5f}")
    assert abs(value - 0.19593) <= 1e-4
