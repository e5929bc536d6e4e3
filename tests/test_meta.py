from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesel import fstc, harness, meta, waveforms
from wavesel.bandit import SyntheticTrackEnv, TsAgent, run_track
from wavesel.errors import InvalidInput, ValidationError
from wavesel.gaussmath import cholesky
from wavesel.harness import ExperimentConfig, build_scene, parse_config
from wavesel.meta import (
    MetaPosterior,
    TrackData,
    init_meta,
    instance_rng,
    meta_mean_cov,
    meta_update,
    policy_index,
    run_meta_experiment,
    sample_instance_prior,
    track_rng,
)
from wavesel.metrics import kl_trace

from oracles import LinearPosterior, blr_update, posterior_mean_cov


def flat_meta(sigma_q_sq=1.0, d=3, sigma0_sq=0.35, sigma_sq=0.33) -> MetaPosterior:
    return init_meta(sigma_q_sq, d, sigma0_sq=sigma0_sq, sigma_sq=sigma_sq)


def meta_update_nxn(mp: MetaPosterior, data: TrackData) -> MetaPosterior:
    """Oracle: the joint-track update through the n x n marginal covariance
    M = sigma_sq I + sigma0_sq X X^T of the track's losses,

        precision' = precision + X^T M^-1 X
        mu'        = precision'^-1 (precision mu + X^T M^-1 l).
    """
    if len(data) == 0:
        return mp
    X = data.contexts
    n = X.shape[0]
    middle = mp.sigma_sq * np.eye(n) + mp.sigma0_sq * (X @ X.T)
    Lm = cholesky(middle)
    stacked = np.column_stack([X, data.losses])
    m_inv = np.linalg.solve(Lm.T, np.linalg.solve(Lm, stacked))
    prec = mp.precision + X.T @ m_inv[:, :-1]
    prec = 0.5 * (prec + prec.T)
    b = mp.precision @ mp.mu + X.T @ m_inv[:, -1]
    Lp = cholesky(prec)
    mu = np.linalg.solve(Lp.T, np.linalg.solve(Lp, b))
    return MetaPosterior(mu, prec, mp.sigma0_sq, mp.sigma_sq)


def relative_gap(a: MetaPosterior, b: MetaPosterior) -> float:
    """Largest entry-wise gap in mu and precision, each relative to the
    largest entry of b's."""
    return max(
        np.max(np.abs(a.mu - b.mu)) / np.max(np.abs(b.mu)),
        np.max(np.abs(a.precision - b.precision)) / np.max(np.abs(b.precision)),
    )


# ---------------------------------------------------------------------------
# belief construction


def test_init_meta_identity_precision():
    mp = flat_meta(sigma_q_sq=1.0, d=3)
    np.testing.assert_array_equal(mp.mu, np.zeros(3))
    np.testing.assert_array_equal(mp.precision, np.eye(3))


def test_init_meta_reciprocal_variance():
    mp = flat_meta(sigma_q_sq=4.0, d=1)
    np.testing.assert_allclose(mp.precision, [[0.25]])


def meta_ts_run():
    """The config, per-track results and belief history of a short meta-ts
    run."""
    cfg = replace(ExperimentConfig(), m=4, n=30)
    mu_star, state_proc = build_scene(cfg, 0)
    return cfg, *run_meta_experiment(cfg, mu_star, state_proc, "meta-ts", 0)


def test_meta_posterior_validation():
    """Every belief a run builds has the form the update and the sampler
    read, which MetaPosterior takes as given: a mean of the context
    dimension, a precision of matching shape that is exactly symmetric, and
    the config's positive variances."""
    cfg, _, history = meta_ts_run()
    for mp in [flat_meta(cfg.sigma_q_sq, 3, cfg.sigma0_sq, cfg.sigma_sq), *history]:
        assert mp.mu.shape == (3,) and mp.precision.shape == (3, 3)
        assert np.array_equal(mp.precision, mp.precision.T)
        assert (mp.sigma0_sq, mp.sigma_sq) == (cfg.sigma0_sq, cfg.sigma_sq)
        assert mp.sigma0_sq > 0 and mp.sigma_sq > 0


def test_track_data_validation():
    """The track data a run hands the meta update has the form TrackData
    takes as given: one row of three finite context features per finite
    loss."""
    cfg, results, _ = meta_ts_run()
    for result in results:
        data = TrackData(result.contexts, result.loss)
        assert data.contexts.shape == (cfg.n, 3) and data.losses.shape == (cfg.n,)
        assert len(data) == cfg.n
        assert np.all(np.isfinite(data.contexts)) and np.all(np.isfinite(data.losses))


def test_meta_mean_cov_inverts_precision():
    prec = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    mp = MetaPosterior(np.array([0.1, -0.2, 0.4]), prec, 0.35, 0.33)
    mean, cov = meta_mean_cov(mp)
    np.testing.assert_array_equal(mean, mp.mu)
    np.testing.assert_allclose(cov @ prec, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# prior sampling


def test_concentrated_belief_pins_sampled_mean():
    mp = MetaPosterior(np.array([0.3, -0.5, 0.8]), 1e12 * np.eye(3), 0.35, 0.33)
    mean = sample_instance_prior(mp, np.random.default_rng(0))
    np.testing.assert_allclose(mean, mp.mu, atol=1e-5)


def test_sampled_prior_covariance_is_exactly_isotropic():
    # the track's prior is (draw, sigma0_sq); the agent's factor is
    # sqrt(sigma0_sq) I
    mp = flat_meta()
    mean = sample_instance_prior(mp, np.random.default_rng(1))
    agent = TsAgent((mean, mp.sigma0_sq), mp.sigma_sq, 4, 5)
    got_mean, factor = agent.posterior
    r = np.sqrt(mp.sigma0_sq)
    assert np.array(got_mean).tobytes() == mean.tobytes()
    assert np.array(factor).tobytes() == np.array([r, 0.0, r, 0.0, 0.0, r]).tobytes()


def test_sampled_means_match_belief_covariance():
    prec = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    mp = MetaPosterior(np.array([0.1, -0.2, 0.4]), prec, 0.35, 0.33)
    rng = np.random.default_rng(2)
    draws = np.array(
        [sample_instance_prior(mp, rng) for _ in range(100_000)]
    )
    emp = np.cov(draws.T)
    target = np.linalg.inv(prec)
    assert np.max(np.abs(emp - target)) < 0.05 * np.max(np.abs(target))


# ---------------------------------------------------------------------------
# meta update


def test_one_dimensional_single_row_update():
    mp = init_meta(1.0, 1, sigma0_sq=1.0, sigma_sq=1.0)
    out = meta_update(mp, TrackData(np.array([[1.0]]), np.array([1.5])))
    np.testing.assert_allclose(out.precision, [[1.5]], atol=1e-12)
    np.testing.assert_allclose(out.mu, [0.5], atol=1e-12)


def test_update_rejects_wrong_context_dimension():
    # the package's contexts have the belief's dimension; others do not
    # broadcast against it
    with pytest.raises(ValueError):
        meta_update(flat_meta(d=3), TrackData(np.ones((4, 2)), np.ones(4)))


@given(
    n=st.integers(0, 60),
    d=st.sampled_from([1, 2, 3]),
    sigma0_sq=st.floats(1e-14, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sufficient_statistics_update_matches_nxn_oracle(n, d, sigma0_sq, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    mp = MetaPosterior(
        rng.standard_normal(d), a @ a.T + d * np.eye(d), sigma0_sq, 0.33
    )
    data = TrackData(rng.random((n, d)), rng.random(n))
    assert relative_gap(meta_update(mp, data), meta_update_nxn(mp, data)) < 1e-10


def test_long_track_update_matches_nxn_oracle():
    cfg = ExperimentConfig()
    rng = np.random.default_rng(5)
    mp = flat_meta(
        sigma_q_sq=cfg.sigma_q_sq, sigma0_sq=cfg.sigma0_sq, sigma_sq=cfg.sigma_sq
    )
    data = TrackData(rng.random((2500, 3)), rng.random(2500))
    assert relative_gap(meta_update(mp, data), meta_update_nxn(mp, data)) < 1e-12


def test_joint_update_differs_from_split_updates():
    rng = np.random.default_rng(3)
    X = rng.random((6, 2))
    L = rng.random(6)
    mp = init_meta(2.0, 2, sigma0_sq=0.5, sigma_sq=0.2)
    joint = meta_update(mp, TrackData(X, L))
    split = meta_update(
        meta_update(mp, TrackData(X[:3], L[:3])), TrackData(X[3:], L[3:])
    )
    assert np.max(np.abs(joint.precision - split.precision)) > 1e-6


def test_vanishing_instance_spread_reduces_to_blr():
    rng = np.random.default_rng(4)
    X = rng.random((6, 2))
    L = rng.random(6)
    noise_var = 0.3
    mp = init_meta(2.0, 2, sigma0_sq=1e-14, sigma_sq=noise_var)
    out = meta_update(mp, TrackData(X, L))

    post = LinearPosterior(*meta_mean_cov(mp), noise_var)
    for phi, ell in zip(X, L):
        post = blr_update(post, phi, float(ell))
    blr_mean, blr_cov = posterior_mean_cov(post)
    mean, cov = meta_mean_cov(out)
    np.testing.assert_allclose(mean, blr_mean, atol=1e-8)
    np.testing.assert_allclose(cov, blr_cov, atol=1e-8)


def test_precision_never_decreases_across_tracks():
    cfg = replace(ExperimentConfig(), m=8, n=60)
    mu_star, state_proc = build_scene(cfg, 0)
    _, history = run_meta_experiment(cfg, mu_star, state_proc, "meta-ts", 0)
    prev = init_meta(
        cfg.sigma_q_sq, 3, sigma0_sq=cfg.sigma0_sq, sigma_sq=cfg.sigma_sq
    )
    for mp in history:
        gap = np.linalg.eigvalsh(mp.precision - prev.precision)
        assert gap.min() >= -1e-10
        prev = mp


def test_history_entry_is_one_joint_update_of_track_data():
    cfg = replace(ExperimentConfig(), m=2, n=50)
    mu_star, state_proc = build_scene(cfg, 1)
    results, history = run_meta_experiment(cfg, mu_star, state_proc, "meta-ts", 1)
    mp0 = init_meta(
        cfg.sigma_q_sq, 3, sigma0_sq=cfg.sigma0_sq, sigma_sq=cfg.sigma_sq
    )
    replay = meta_update(mp0, TrackData(results[0].contexts, results[0].loss))
    np.testing.assert_array_equal(history[0].mu, replay.mu)
    np.testing.assert_array_equal(history[0].precision, replay.precision)


# ---------------------------------------------------------------------------
# experiment loop


def test_oracle_policy_uses_true_prior():
    cfg = replace(ExperimentConfig(), m=1, n=60)
    mu_star, state_proc = build_scene(cfg, 3)
    results, _ = run_meta_experiment(cfg, mu_star, state_proc, "ts-oracle", 3)
    rng = track_rng(3, "ts-oracle", 0)
    env_rng = instance_rng(3, 0)
    theta = mu_star + np.sqrt(cfg.sigma0_sq) * env_rng.standard_normal(3)
    env = SyntheticTrackEnv(
        theta, state_proc, cfg.sigma_sq, 10 ** (cfg.sinr_target_db / 10)
    )
    prior = (mu_star, cfg.sigma0_sq)
    replay, _ = run_track(env, prior, cfg.sigma_sq, 60, 5, rng)
    np.testing.assert_array_equal(results[0].waveform, replay.waveform)
    np.testing.assert_array_equal(results[0].loss, replay.loss)


def test_degenerate_meta_prior_matches_fixed_zero_mean_prior():
    cfg = replace(ExperimentConfig(), m=4, n=60, sigma_q_sq=1e-30)
    mu_star, state_proc = build_scene(cfg, 5)
    results, _ = run_meta_experiment(cfg, mu_star, state_proc, "meta-ts", 5)
    for t in range(4):
        rng = track_rng(5, "meta-ts", t)
        env_rng = instance_rng(5, t)
        theta = mu_star + np.sqrt(cfg.sigma0_sq) * env_rng.standard_normal(3)
        env = SyntheticTrackEnv(
            theta, state_proc, cfg.sigma_sq, 10 ** (cfg.sinr_target_db / 10)
        )
        replay, _ = run_track(
            env,
            (np.zeros(3), cfg.sigma0_sq),
            cfg.sigma_sq,
            60,
            5,
            rng,
        )
        np.testing.assert_array_equal(results[t].waveform, replay.waveform)


def test_meta_belief_concentrates_toward_truth():
    cfg = replace(ExperimentConfig(), m=12, n=150)
    firsts, lasts = [], []
    for seed in range(5):
        mu_star, state_proc = build_scene(cfg, seed)
        _, history = run_meta_experiment(cfg, mu_star, state_proc, "meta-ts", seed)
        trace = kl_trace(history, mu_star)
        firsts.append(trace[0])
        lasts.append(trace[-1])
    assert np.mean(lasts) < 0.5 * np.mean(firsts)


def test_non_meta_policy_keeps_flat_belief():
    cfg = replace(ExperimentConfig(), m=3, n=30)
    mu_star, state_proc = build_scene(cfg, 0)
    _, history = run_meta_experiment(cfg, mu_star, state_proc, "ts-uninformative", 0)
    assert len(history) == 3
    for mp in history:
        np.testing.assert_array_equal(mp.mu, np.zeros(3))
        np.testing.assert_array_equal(mp.precision, np.eye(3) / cfg.sigma_q_sq)


def test_experiment_input_validation():
    for field, bad in (("m", 0), ("n", 0), ("mode", "simulated")):
        with pytest.raises(ValidationError) as info:
            replace(ExperimentConfig(), **{field: bad})
        assert info.value.field == field
    with pytest.raises(InvalidInput):
        policy_index("epsilon-greedy")


def test_run_meta_experiment_refuses_a_float_seed():
    # truncated to an int, 1.5 would run seed 1's streams under another name
    cfg = replace(ExperimentConfig(), m=1, n=5)
    mu_star, state_proc = build_scene(cfg, 1)
    with pytest.raises(TypeError, match="seed must be integer"):
        run_meta_experiment(cfg, mu_star, state_proc, "random", 1.5)


def test_physical_mode_smoke():
    cfg = replace(ExperimentConfig(), m=2, n=30, mode="physical")
    mu_star, state_proc = build_scene(cfg, 7)
    results, history = run_meta_experiment(cfg, mu_star, state_proc, "meta-ts", 7)
    assert len(results) == 2 and len(history) == 2
    for res in results:
        assert np.all((res.loss >= 0.0) & (res.loss <= 1.0))
        assert np.all(res.regret_inc >= -1e-12)
        assert np.all(np.isfinite(res.sinr))


def test_runs_in_one_process_share_the_catalog_envelopes(monkeypatch, tmp_path):
    served = []

    def recording(*args, **kwargs):
        catalog = waveforms.default_catalog(*args, **kwargs)
        served.append(catalog)
        return catalog

    monkeypatch.setattr(meta, "default_catalog", recording)
    config = parse_config(f"mode = physical\nm = 1\nn = 4\nout_dir = {tmp_path}\n")
    for policy in ("ts-uninformative", "meta-ts"):
        harness.run(config, policy, 3)
    first, second = served
    assert len(first) == len(second) == 5
    assert all(a is b for a, b in zip(first, second))


def test_a_physical_run_builds_the_channel_tables_once(monkeypatch, tmp_path):
    built = []

    def recording(*args, **kwargs):
        built.append(args)
        return fstc.channel_tables(*args, **kwargs)

    monkeypatch.setattr(meta, "channel_tables", recording)
    config = parse_config(
        f"mode = physical\nm = 3\nn = 4\nk = 3\ndoppler = 0.7\nout_dir = {tmp_path}\n"
    )
    harness.run(config, "meta-ts", 0)
    assert len(built) == 1
    catalog, n_taps, doppler = built[0]
    assert len(catalog) == 3 and n_taps == config.ir_taps and doppler == 0.7
