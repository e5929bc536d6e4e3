from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavesel import fstc, harness, meta, waveforms
from wavesel.bandit import SyntheticTrackEnv, TsAgent, run_track
from wavesel.errors import InvalidInput, ValidationError
from wavesel.harness import ExperimentConfig, build_scene, parse_config
from wavesel.meta import (
    POLICIES,
    MetaPosterior,
    TrackData,
    init_meta,
    instance_rng,
    meta_update,
    policy_index,
    run_meta_experiment,
    sample_instance_prior,
    noise_rng,
    track_rng,
    walk_rng,
)
from wavesel.metrics import kl_trace

from oracles import (
    LinearPosterior,
    blr_update,
    block_runs,
    largest_gap,
    meta_mean_cov,
    posterior_mean_cov,
    upper_root,
)


def flat_meta(sigma_q_sq=1.0, sigma0_sq=0.35, sigma_sq=0.33) -> MetaPosterior:
    return init_meta(sigma_q_sq, sigma0_sq=sigma0_sq, sigma_sq=sigma_sq)


def belief(mu, cov, sigma0_sq=0.35, sigma_sq=0.33) -> MetaPosterior:
    """The meta belief N(mu, cov), kept as its upper root."""
    return MetaPosterior(np.asarray(mu, dtype=float), upper_root(cov), sigma0_sq, sigma_sq)


def meta_update_nxn(mean, cov, sigma0_sq, sigma_sq, data: TrackData) -> tuple:
    """Oracle: the joint-track update of the belief N(mean, cov) through the
    n x n marginal covariance M = sigma_sq I + sigma0_sq X X^T of the
    track's losses, in precision form P = cov^-1:

        P'  = P + X^T M^-1 X
        mu' = P'^-1 (P mean + X^T M^-1 l)

    Returns (mu', P'^-1)."""
    X = data.contexts
    n = X.shape[0]
    middle = sigma_sq * np.eye(n) + sigma0_sq * (X @ X.T)
    m_inv = np.linalg.solve(middle, np.column_stack([X, data.losses]))
    prec0 = np.linalg.inv(cov)
    prec = prec0 + X.T @ m_inv[:, :-1]
    new_cov = np.linalg.inv(0.5 * (prec + prec.T))
    return new_cov @ (prec0 @ mean + X.T @ m_inv[:, -1]), 0.5 * (new_cov + new_cov.T)


def precision(mp: MetaPosterior) -> np.ndarray:
    """The belief's precision (U U^T)^-1 = U^-T U^-1."""
    inv = np.linalg.inv(mp.root)
    return inv.T @ inv


def is_upper_root(root) -> bool:
    """A finite 3 x 3 upper-triangular matrix with a positive diagonal."""
    return (
        root.shape == (3, 3)
        and bool(np.isfinite(root).all())
        and np.array_equal(root, np.triu(root))
        and bool(np.all(np.diag(root) > 0.0))
    )


# ---------------------------------------------------------------------------
# belief construction


def test_init_meta_identity_precision():
    mp = flat_meta(sigma_q_sq=1.0)
    np.testing.assert_array_equal(mp.mu, np.zeros(3))
    np.testing.assert_array_equal(mp.root, np.eye(3))


def test_init_meta_reciprocal_variance():
    mp = flat_meta(sigma_q_sq=4.0)
    np.testing.assert_array_equal(mp.root, 2.0 * np.eye(3))
    np.testing.assert_allclose(precision(mp), 0.25 * np.eye(3))


def meta_ts_run():
    """The config, per-track results and belief history of a short meta-ts
    run."""
    cfg = replace(ExperimentConfig(), m=4, n=30)
    mu_star, state_proc = build_scene(cfg, 0)
    return cfg, *block_runs(cfg, mu_star, state_proc, ("meta-ts",), 0)[0]


def recording_meta_update(monkeypatch) -> list:
    """The track data of every later ``meta_update`` call, in call order."""
    seen, original = [], meta.meta_update

    def recording(mp, data):
        seen.append(data)
        return original(mp, data)

    monkeypatch.setattr(meta, "meta_update", recording)
    return seen


def test_meta_posterior_validation():
    """Every belief a run builds has the form the update and the sampler
    read, which MetaPosterior takes as given: a mean of the context
    dimension, a finite upper-triangular root with a positive diagonal, and
    the config's positive variances."""
    cfg, _, history = meta_ts_run()
    for mp in [flat_meta(cfg.sigma_q_sq, cfg.sigma0_sq, cfg.sigma_sq), *history]:
        assert mp.mu.shape == (3,) and is_upper_root(mp.root)
        assert (mp.sigma0_sq, mp.sigma_sq) == (cfg.sigma0_sq, cfg.sigma_sq)
        assert mp.sigma0_sq > 0 and mp.sigma_sq > 0


def test_track_data_validation(monkeypatch):
    """The track data a run hands the meta update has the form TrackData
    takes as given: one row of three finite context features per finite
    loss, the track's own losses."""
    seen = recording_meta_update(monkeypatch)
    cfg, results, _ = meta_ts_run()
    assert len(seen) == len(results) == cfg.m
    for result, data in zip(results, seen):
        assert data.losses is result.loss
        assert data.contexts.shape == (cfg.n, 3) and data.losses.shape == (cfg.n,)
        assert len(data) == cfg.n
        assert np.all(np.isfinite(data.contexts)) and np.all(np.isfinite(data.losses))


#: A belief precision with off-diagonal coupling.
PRECISION = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])


def test_meta_mean_cov_inverts_precision():
    # L^-T, for L the precision's Cholesky factor, is an upper root of the
    # covariance: the root the precision form's draws read
    L = np.linalg.cholesky(PRECISION)
    mp = MetaPosterior(np.array([0.1, -0.2, 0.4]), np.linalg.inv(L).T, 0.35, 0.33)
    assert np.array_equal(mp.root, np.triu(mp.root))
    mean, cov = meta_mean_cov(mp)
    np.testing.assert_array_equal(mean, mp.mu)
    np.testing.assert_allclose(cov @ PRECISION, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# prior sampling


def test_draw_is_the_precision_factor_draw():
    # U is L^-T for the precision's Cholesky factor L, so mu + U z is the
    # draw mu + L^-T z of the precision form, from the same normal draw
    mu = np.array([0.1, -0.2, 0.4])
    mp = belief(mu, np.linalg.inv(PRECISION))
    L = np.linalg.cholesky(PRECISION)
    assert largest_gap(mp.root, np.linalg.inv(L).T) < 1e-15
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    draw = sample_instance_prior(mp, rng)
    ref = mu + np.linalg.solve(L.T, ref_rng.standard_normal(3))
    assert largest_gap(draw, ref) < 1e-15
    assert rng.random() == ref_rng.random()


def test_concentrated_belief_pins_sampled_mean():
    mp = MetaPosterior(np.array([0.3, -0.5, 0.8]), 1e-6 * np.eye(3), 0.35, 0.33)
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
    mp = belief([0.1, -0.2, 0.4], np.linalg.inv(PRECISION))
    rng = np.random.default_rng(2)
    draws = np.array(
        [sample_instance_prior(mp, rng) for _ in range(100_000)]
    )
    emp = np.cov(draws.T)
    target = np.linalg.inv(PRECISION)
    assert np.max(np.abs(emp - target)) < 0.05 * np.max(np.abs(target))


# ---------------------------------------------------------------------------
# meta update


def test_one_dimensional_single_row_update():
    # a context along the first axis updates the first weight only, as the
    # scalar update with marginal noise variance 1 + 1 would
    mp = init_meta(1.0, sigma0_sq=1.0, sigma_sq=1.0)
    out = meta_update(mp, TrackData(np.array([[1.0, 0.0, 0.0]]), np.array([1.5])))
    np.testing.assert_allclose(precision(out), np.diag([1.5, 1.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(out.mu, [0.5, 0.0, 0.0], atol=1e-12)


def test_update_rejects_wrong_context_dimension():
    # the package's contexts have the belief's dimension; others do not
    # unpack against it
    with pytest.raises(ValueError):
        meta_update(flat_meta(), TrackData(np.ones((4, 2)), np.ones(4)))


@st.composite
def tracks(draw) -> TrackData:
    """A track of 1 to 60 pulses: contexts in [0, 1]^3, or on the grid
    {0, 0.5, 1}^3, where rows repeat as cold cells do, and losses in
    [0, 1]."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        contexts = rng.integers(0, 3, size=(n, 3)) / 2.0
    else:
        contexts = rng.random((n, 3))
    return TrackData(contexts, rng.random(n))


#: Variances within which the n x n oracle is well conditioned enough to
#: referee the update within 1e-12.
WELL_CONDITIONED = (1e-2, 1e2)

#: log10 of a variance: half the time in the well-conditioned range.
WELL_CONDITIONED_LOG = st.floats(-2.0, 2.0)


@given(
    WELL_CONDITIONED_LOG | st.floats(-30.0, 300.0),
    WELL_CONDITIONED_LOG | st.floats(-8.0, 100.0),
    st.lists(tracks(), min_size=1, max_size=2),
)
@settings(max_examples=300, deadline=None)
@example(300.0, 100.0, [TrackData(np.ones((60, 3)), np.ones(60))])
@example(-30.0, -8.0, [TrackData(np.eye(3), np.ones(3))] * 2)
@example(0.0, 0.0, [TrackData(np.array([[0.5, 0.5, 0.5]] * 40), np.linspace(0, 1, 40))])
def test_sufficient_statistics_update_matches_nxn_oracle(log_q, log_0, data):
    # one or two chained tracks from the flat belief: at every variance the
    # root stays a finite upper-triangular matrix with a positive diagonal,
    # and where the oracle is well conditioned mu and U U^T agree with it
    sigma_q_sq, sigma0_sq = 10.0**log_q, 10.0**log_0
    mp = flat_meta(sigma_q_sq, sigma0_sq)
    for track in data:
        mp = meta_update(mp, track)
        assert np.isfinite(mp.mu).all() and is_upper_root(mp.root)
    lo, hi = WELL_CONDITIONED
    if lo <= sigma_q_sq <= hi and lo <= sigma0_sq <= hi:
        mean, cov = np.zeros(3), sigma_q_sq * np.eye(3)
        for track in data:
            mean, cov = meta_update_nxn(mean, cov, sigma0_sq, mp.sigma_sq, track)
        got_mean, got_cov = meta_mean_cov(mp)
        # the mean's scale: its largest entry or its largest standard
        # deviation, as a mean near zero is only known to within its spread
        scale = max(np.max(np.abs(mean)), np.sqrt(np.max(np.abs(cov))))
        assert np.max(np.abs(got_mean - mean)) <= 1e-12 * scale
        assert largest_gap(got_cov, cov) <= 1e-12


def test_long_track_update_matches_nxn_oracle():
    cfg = ExperimentConfig()
    rng = np.random.default_rng(5)
    mp = flat_meta(cfg.sigma_q_sq, cfg.sigma0_sq, cfg.sigma_sq)
    data = TrackData(rng.random((2500, 3)), rng.random(2500))
    mean, cov = meta_update_nxn(
        mp.mu, cfg.sigma_q_sq * np.eye(3), cfg.sigma0_sq, cfg.sigma_sq, data
    )
    got_mean, got_cov = meta_mean_cov(meta_update(mp, data))
    assert largest_gap(got_mean, mean) < 1e-12
    assert largest_gap(got_cov, cov) < 1e-12


def test_joint_update_differs_from_split_updates():
    rng = np.random.default_rng(3)
    X = rng.random((6, 3))
    L = rng.random(6)
    mp = init_meta(2.0, sigma0_sq=0.5, sigma_sq=0.2)
    joint = meta_update(mp, TrackData(X, L))
    split = meta_update(
        meta_update(mp, TrackData(X[:3], L[:3])), TrackData(X[3:], L[3:])
    )
    assert np.max(np.abs(precision(joint) - precision(split))) > 1e-6


def test_vanishing_instance_spread_reduces_to_blr():
    rng = np.random.default_rng(4)
    X = rng.random((6, 3))
    L = rng.random(6)
    noise_var = 0.3
    mp = init_meta(2.0, sigma0_sq=1e-14, sigma_sq=noise_var)
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
    _, history = block_runs(cfg, mu_star, state_proc, ("meta-ts",), 0)[0]
    prev = flat_meta(cfg.sigma_q_sq, cfg.sigma0_sq, cfg.sigma_sq)
    for mp in history:
        gap = np.linalg.eigvalsh(precision(mp) - precision(prev))
        assert gap.min() >= -1e-10
        prev = mp


def test_history_entry_is_one_joint_update_of_track_data():
    # the first track's scored rows, replayed from its streams, and its
    # losses fold into the flat belief in one update
    cfg = replace(ExperimentConfig(), m=2, n=50)
    mu_star, state_proc = build_scene(cfg, 1)
    results, history = block_runs(cfg, mu_star, state_proc, ("meta-ts",), 1)[0]
    mp0 = flat_meta(cfg.sigma_q_sq, cfg.sigma0_sq, cfg.sigma_sq)
    theta = mu_star + np.sqrt(cfg.sigma0_sq) * instance_rng(1, 0).standard_normal(3)
    env = SyntheticTrackEnv(
        theta, state_proc, cfg.sigma_sq, 10 ** (cfg.sinr_target_db / 10), 50,
        walk_rng(1, 0), noise_rng(1, 0),
    )
    prior = (sample_instance_prior(mp0, meta.meta_prior_rng(1, "meta-ts")), cfg.sigma0_sq)
    replay, agent = run_track(env, prior, cfg.sigma_sq, 50, cfg.k, track_rng(1, "meta-ts", 0))
    np.testing.assert_array_equal(replay.loss, results[0].loss)
    replay = meta_update(mp0, TrackData(np.array(agent.scored), results[0].loss))
    np.testing.assert_array_equal(history[0].mu, replay.mu)
    np.testing.assert_array_equal(history[0].root, replay.root)


# ---------------------------------------------------------------------------
# experiment loop


def test_oracle_policy_uses_true_prior():
    cfg = replace(ExperimentConfig(), m=1, n=60)
    mu_star, state_proc = build_scene(cfg, 3)
    results, _ = block_runs(cfg, mu_star, state_proc, ("ts-oracle",), 3)[0]
    rng = track_rng(3, "ts-oracle", 0)
    env_rng = instance_rng(3, 0)
    theta = mu_star + np.sqrt(cfg.sigma0_sq) * env_rng.standard_normal(3)
    env = SyntheticTrackEnv(
        theta, state_proc, cfg.sigma_sq, 10 ** (cfg.sinr_target_db / 10), 60,
        walk_rng(3, 0), noise_rng(3, 0),
    )
    prior = (mu_star, cfg.sigma0_sq)
    replay, _ = run_track(env, prior, cfg.sigma_sq, 60, 5, rng)
    np.testing.assert_array_equal(results[0].waveform, replay.waveform)
    np.testing.assert_array_equal(results[0].loss, replay.loss)


def test_degenerate_meta_prior_matches_fixed_zero_mean_prior():
    cfg = replace(ExperimentConfig(), m=4, n=60, sigma_q_sq=1e-30)
    mu_star, state_proc = build_scene(cfg, 5)
    results, _ = block_runs(cfg, mu_star, state_proc, ("meta-ts",), 5)[0]
    for t in range(4):
        rng = track_rng(5, "meta-ts", t)
        env_rng = instance_rng(5, t)
        theta = mu_star + np.sqrt(cfg.sigma0_sq) * env_rng.standard_normal(3)
        env = SyntheticTrackEnv(
            theta, state_proc, cfg.sigma_sq, 10 ** (cfg.sinr_target_db / 10), 60,
            walk_rng(5, t), noise_rng(5, t),
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
        _, history = block_runs(cfg, mu_star, state_proc, ("meta-ts",), seed)[0]
        firsts.append(kl_trace(history[0], mu_star))
        lasts.append(kl_trace(history[-1], mu_star))
    assert np.mean(lasts) < 0.5 * np.mean(firsts)


def test_non_meta_policy_keeps_flat_belief():
    cfg = replace(ExperimentConfig(), m=3, n=30)
    mu_star, state_proc = build_scene(cfg, 0)
    _, history = block_runs(cfg, mu_star, state_proc, ("ts-uninformative",), 0)[0]
    assert len(history) == 3
    for mp in history:
        np.testing.assert_array_equal(mp.mu, np.zeros(3))
        np.testing.assert_array_equal(mp.root, np.sqrt(cfg.sigma_q_sq) * np.eye(3))


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
        next(run_meta_experiment(cfg, mu_star, state_proc, ("random",), 1.5))


def test_physical_mode_smoke():
    cfg = replace(ExperimentConfig(), m=2, n=30, mode="physical")
    mu_star, state_proc = build_scene(cfg, 7)
    results, history = block_runs(cfg, mu_star, state_proc, ("meta-ts",), 7)[0]
    assert len(results) == 2 and len(history) == 2
    for res in results:
        assert np.all((res.loss >= 0.0) & (res.loss <= 1.0))
        assert np.all(res.regret_inc >= -1e-12)
        assert np.all(np.isfinite(res.sinr))


def test_runs_in_one_process_share_the_catalog_envelopes(monkeypatch, tmp_path):
    # a catalog is requested once per table build: a second run at the same
    # (k, ir_taps, doppler) reads the process's tables, and a build at
    # another doppler is handed the same envelopes
    served = []

    def recording(*args, **kwargs):
        catalog = waveforms.default_catalog(*args, **kwargs)
        served.append(catalog)
        return catalog

    monkeypatch.setattr(meta, "default_catalog", recording)
    meta._cached_tables.cache_clear()
    config = parse_config(f"mode = physical\nm = 1\nn = 4\nout_dir = {tmp_path}\n")
    for policy in ("ts-uninformative", "meta-ts"):
        harness.run(config, policy, 3)
    assert len(served) == 1
    harness.run(replace(config, doppler=0.7), "meta-ts", 3)
    first, second = served
    assert len(first) == len(second) == 5
    assert all(a is b for a, b in zip(first, second))


def test_a_physical_run_builds_the_channel_tables_once(monkeypatch, tmp_path):
    # once per process for each (k, ir_taps, doppler): a second run reads
    # the first one's build, and a new value of any of the three builds
    # again, -0.0 apart from 0.0
    built = []

    def recording(*args, **kwargs):
        built.append(args)
        return fstc.channel_tables(*args, **kwargs)

    monkeypatch.setattr(meta, "channel_tables", recording)
    meta._cached_tables.cache_clear()
    config = parse_config(
        f"mode = physical\nm = 3\nn = 4\nk = 3\ndoppler = 0.7\nout_dir = {tmp_path}\n"
    )
    harness.run(config, "meta-ts", 0)
    harness.run(config, "random", 1)
    assert len(built) == 1
    catalog, n_taps, doppler = built[0]
    assert len(catalog) == 3 and n_taps == config.ir_taps and doppler == 0.7
    for change in (dict(doppler=0.0), dict(doppler=-0.0), dict(k=2), dict(ir_taps=5)):
        harness.run(replace(config, **change), "meta-ts", 0)
    assert [(len(c), taps, math.copysign(1.0, d)) for c, taps, d in built[1:]] == [
        (3, 8, 1.0), (3, 8, -1.0), (2, 8, 1.0), (3, 5, 1.0)
    ]
    assert meta._cached_tables.cache_info().currsize == meta.TABLE_CACHE_SIZE


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_a_second_physical_run_writes_the_first_runs_bytes(tmp_path, doppler):
    # the first run builds the tables, the second reads them from the cache
    meta._cached_tables.cache_clear()
    written = []
    for name in ("built", "cached"):
        config = parse_config(
            f"mode = physical\nm = 3\nn = 40\nseeds = 2\ndoppler = {doppler}\n"
            f"out_dir = {tmp_path / name}\n"
        )
        harness.run_experiment(config)
        written.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert meta._cached_tables.cache_info().hits == 1
    assert len(written[0]) == 2 * len(POLICIES)
    assert written[0] == written[1]


def test_cached_tables_are_read_only():
    tables = meta.process_tables(ExperimentConfig(mode="physical", doppler=0.7))
    arrays = [tables.tap_ramp, tables.noise_eigvals, *tables.windows]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    assert meta.process_tables(ExperimentConfig(mode="physical", doppler=0.7)) is tables


def csv_columns(path) -> dict:
    """{column: its values as written, one string a row} of a CSV file."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_the_oracle_stream_reaches_no_learner_column(monkeypatch, tmp_path, doppler):
    # two oracle streams: the expected losses move, and every byte the
    # learners read or make stays
    learner = {
        "cpi": ("state", "obs", "waveform", "sinr_db", "loss", "outage_10db"),
        "track": ("mean_loss", "outage_freq", "kl_to_truth"),
    }
    written = []
    for key in (1, 2):
        monkeypatch.setattr(
            meta, "oracle_rng",
            lambda seed, track, key=key: np.random.default_rng((seed, track, key)),
        )
        out = tmp_path / f"key{key}"
        config = parse_config(
            f"mode = physical\nm = 3\nn = 40\nseeds = 0\ndoppler = {doppler}\n"
            f"out_dir = {out}\n"
        )
        harness.run_block(config, POLICIES, 0)
        written.append({p.name: csv_columns(p) for p in sorted(out.iterdir())})
    first, second = written
    assert first.keys() == second.keys() and len(first) == 2 * len(POLICIES)
    for name, columns in first.items():
        for column in learner[name.split("_")[0]]:
            assert columns[column] == second[name][column], (name, column)
        if name.startswith("cpi_"):
            assert columns["oracle_loss"] != second[name]["oracle_loss"], name


# ---------------------------------------------------------------------------
# stream layout: shared walk and noise per (seed, track), selection per policy


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_every_policy_of_a_seed_walks_the_same_scene(tmp_path, mode):
    config = parse_config(f"mode = {mode}\nm = 3\nn = 300\nseeds = 4\nout_dir = {tmp_path}\n")
    harness.run_block(config, POLICIES, 4)
    files = [csv_columns(tmp_path / f"cpi_{policy}_seed4.csv") for policy in POLICIES]
    for columns in files[1:]:
        for column in ("track", "cpi", "state", "obs"):
            assert columns[column] == files[0][column], column
    # the choices, and so the losses, are the policies' own
    assert len({tuple(columns["waveform"]) for columns in files}) == len(POLICIES)


def test_physical_policies_sending_one_waveform_at_one_pulse_see_one_sinr(tmp_path):
    config = parse_config(f"mode = physical\nm = 3\nn = 300\nseeds = 2\nout_dir = {tmp_path}\n")
    harness.run_block(config, POLICIES, 2)
    files = [csv_columns(tmp_path / f"cpi_{policy}_seed2.csv") for policy in POLICIES]
    met = 0
    for i, a in enumerate(files):
        for b in files[i + 1 :]:
            for row, (wa, wb) in enumerate(zip(a["waveform"], b["waveform"])):
                if wa == wb:
                    met += 1
                    seen = (a["sinr_db"][row], a["loss"][row])
                    assert seen == (b["sinr_db"][row], b["loss"][row]), row
    assert met > 100


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_draws_equal_one_at_a_time_draws_to_the_bit(seed):
    # each stream is drawn STACK_BLOCK pulses at a time; the values, and
    # where each stream is left, are those of one pulse's draws at a time,
    # so no output depends on the block size
    n, k, width = 2 * fstc.STACK_BLOCK + 37, 5, 2 * fstc.WINDOW_HALF + 1
    streams = {
        "walk": (
            lambda: meta.walk_rng(seed, 3),
            lambda rng, size: rng.random((size, 3)),
            lambda rng: [rng.random() for _ in range(3)],
        ),
        "synthetic noise": (
            lambda: meta.noise_rng(seed, 3),
            lambda rng, size: rng.standard_normal(size),
            lambda rng: rng.standard_normal(),
        ),
        "physical noise": (
            lambda: meta.noise_rng(seed, 3),
            lambda rng, size: rng.standard_exponential((size, k, width)),
            lambda rng: rng.standard_exponential((k, width)),
        ),
        "thompson": (
            lambda: track_rng(seed, "meta-ts", 3),
            lambda rng, size: rng.standard_normal((size, 3)),
            lambda rng: rng.standard_normal(3),
        ),
        "random choices": (
            lambda: track_rng(seed, "random", 3),
            lambda rng, size: rng.integers(k, size=size),
            lambda rng: rng.integers(k),
        ),
    }
    for name, (stream, block, pulse) in streams.items():
        bulk, single = stream(), stream()
        got = np.concatenate([block(bulk, size) for _, size in fstc.blocks(n)])
        want = np.array([pulse(single) for _ in range(n)])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert bulk.random() == single.random(), name


def stream_identity(rng: np.random.Generator) -> tuple:
    """The PCG64 state and increment a generator starts from: two keys give
    one stream exactly when these match."""
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def test_stream_keys_do_not_collide():
    # every keyed stream of seeds up to 2**32 - 1 and tracks below the tags,
    # the new walk and noise keys among them, starts from its own state
    seeds, tracks = (0, 1, 4, 2**32 - 1), (0, 1, 2, 3, 49, 999_999)
    keys = [("scene", seed) for seed in seeds]
    keys += [("meta prior", seed, policy) for seed in seeds for policy in POLICIES]
    for seed in seeds:
        for track in tracks:
            keys += [("track", seed, policy, track) for policy in POLICIES]
            keys += [(name, seed, track) for name in ("instance", "walk", "noise", "oracle")]
    makers = {
        "scene": meta.scene_rng, "meta prior": meta.meta_prior_rng, "track": track_rng,
        "instance": instance_rng, "walk": walk_rng, "noise": noise_rng,
        "oracle": meta.oracle_rng,
    }
    identities = {}
    for name, *args in keys:
        identity = stream_identity(makers[name](*args))
        assert identity not in identities, ((name, *args), identities.get(identity))
        identities[identity] = (name, *args)


def test_a_seed_of_2_to_the_32_would_alias_a_stream_so_the_config_refuses_it():
    # SeedSequence splits a key item into 32-bit words and pads a key to
    # four words, so this seed's track-0 random stream is seed 5's walk
    aliasing = 5 + 2**32 * meta.WALK_TAG
    assert stream_identity(track_rng(aliasing, "random", 0)) == stream_identity(walk_rng(5, 0))
    with pytest.raises(ValidationError) as info:
        ExperimentConfig(seeds=(aliasing,))
    assert info.value.field == "seeds"
