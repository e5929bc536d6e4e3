from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from wavesel.bandit import (
    COLD_MAX,
    COLD_MEAN,
    COLD_VAR,
    SyntheticTrackEnv,
    TsAgent,
    agent_contexts,
    pick_argmax,
    record,
    run_track,
    synthetic_loss,
)
from wavesel.errors import IndexOutOfRange, InvalidInput
from wavesel.fstc import (
    STACK_BLOCK,
    PhysicalTrackEnv,
    StateProcess,
    compute_loss,
    draw_instance,
    random_transition,
    tap_root,
)
from wavesel.harness import ExperimentConfig
from wavesel.gaussmath import blr_update, posterior_gaussian, sample_gaussian
from oracles import (
    float_posterior,
    largest_gap,
    reference_track,
    regret_increment,
    simulator,
)


def uniform_state_proc(n_states: int = 4) -> StateProcess:
    return StateProcess(np.full((n_states, n_states), 1.0 / n_states), 0.1)


def make_agent(prior_mean=(0.0, 0.0, 0.0), prior_var=1.0, k_arms=5, n_obs=4):
    return TsAgent((np.asarray(prior_mean, dtype=float), prior_var), 0.1, n_obs, k_arms)


def thompson_pick(agent: TsAgent, o: int, rng: np.random.Generator) -> int:
    """The Thompson step of run_track: one draw, from three standard
    normals, scores every context at o."""
    theta = sample_gaussian(agent.posterior, rng.standard_normal(3).tolist())
    return pick_argmax(theta, agent_contexts(agent, o))


def streams(seed: int) -> tuple:
    """A track's walk and noise streams: two generators keyed by ``seed``."""
    return np.random.default_rng((seed, 1)), np.random.default_rng((seed, 2))


def synthetic_env(theta_star, state_proc: StateProcess, noise_var: float, n: int,
                  seed: int = 0) -> SyntheticTrackEnv:
    """A synthetic environment of ``n`` pulses at target 15.8, its walk and
    noise from ``streams(seed)``."""
    return SyntheticTrackEnv(
        np.asarray(theta_star, dtype=float), state_proc, noise_var, 15.8, n, *streams(seed)
    )


def learn(agent: TsAgent, o: int, w: int, loss: float) -> None:
    """The learning step of a Thompson pulse in run_track: ``record`` the
    cell, then update the posterior with the context that was scored."""
    phi = agent_contexts(agent, o)[w]
    record(agent, o, w, loss)
    agent.posterior = blr_update(agent.posterior, agent.noise_sd, phi, loss)


# ---------------------------------------------------------------------------
# loss map


def test_compute_loss_boundaries():
    assert compute_loss(15.8, 15.8) == 1.0
    assert compute_loss(0.0, 15.8) == 0.0
    assert compute_loss(7.9, 15.8) == 0.5
    assert compute_loss(100.0, 15.8) == 1.0


# ---------------------------------------------------------------------------
# context features


def test_cold_start_context():
    agent = make_agent()
    for o in range(4):
        np.testing.assert_array_equal(
            agent_contexts(agent, o), np.tile([COLD_MEAN, COLD_VAR, COLD_MAX], (5, 1))
        )


def test_single_sample_keeps_fill_variance():
    agent = make_agent()
    record(agent, 1, 2, 0.8)
    np.testing.assert_allclose(agent_contexts(agent, 1)[2], [0.8, COLD_VAR, 0.8])


def test_context_population_statistics():
    agent = make_agent()
    for loss in (0.2, 0.4, 0.9):
        record(agent, 0, 1, loss)
    ctx = agent_contexts(agent, 0)[1]
    np.testing.assert_allclose(ctx, [0.5, 0.26 / 3.0, 0.9], atol=1e-12)


def test_record_rejects_waveform_out_of_range():
    agent = make_agent()
    for o, w in ((0, 5), (0, -1), (4, 0), (-1, 0)):
        with pytest.raises(IndexOutOfRange):
            record(agent, o, w, 0.5)


def test_context_invariant_ranges_after_many_records():
    rng = np.random.default_rng(0)
    agent = make_agent(k_arms=3)
    for _ in range(200):
        record(
            agent,
            int(rng.integers(4)),
            int(rng.integers(3)),
            float(rng.random()),
        )
    for o in range(4):
        for ctx in agent_contexts(agent, o):
            mean, var, mx = ctx
            assert 0.0 <= mean <= 1.0
            assert 0.0 <= var <= 0.25
            assert 0.0 <= mx <= 1.0


def test_record_leaves_an_earlier_snapshot_unchanged():
    agent = make_agent()
    record(agent, 2, 1, 0.4)
    before = agent_contexts(agent, 2)
    kept = [tuple(row) for row in before]
    record(agent, 2, 3, 0.7)
    record(agent, 2, 1, 0.9)
    assert [tuple(row) for row in before] == kept
    assert before[3] == (COLD_MEAN, COLD_VAR, COLD_MAX)
    after = agent_contexts(agent, 2)
    assert len(after) == 5
    assert after[3] == (0.7, COLD_VAR, 0.7)
    assert after[1] == (0.65, 0.0625, 0.9)
    assert after[:1] + after[2:3] + after[4:] == before[:1] + before[2:3] + before[4:]


# ---------------------------------------------------------------------------
# selection


def test_point_mass_posterior_picks_higher_mean():
    agent = make_agent(prior_mean=(1.0, 0.0, 0.0), prior_var=1e-30, k_arms=2)
    record(agent, 0, 0, 0.2)
    record(agent, 0, 1, 0.9)
    assert thompson_pick(agent, 0, np.random.default_rng(1)) == 1


def test_identical_contexts_tie_to_lowest_index():
    agent = make_agent()
    for seed in range(10):
        assert thompson_pick(agent, 0, np.random.default_rng(seed)) == 0


def test_exact_score_ties_go_to_the_lowest_index():
    theta = (1.0, 0.0, 0.0)
    for firsts, want in (([0.2, 0.7, 0.7, 0.5], 1), ([0.1, 0.1], 0),
                         ([0.3, 0.2, 0.9, 0.9, 0.9], 2), ([-1.0, -1.0, -2.0], 0)):
        contexts = [[x, 0.5, 0.5] for x in firsts]
        assert pick_argmax(theta, contexts) == want
        assert int(np.argmax(np.array(contexts) @ np.array(theta))) == want


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_pick_argmax_equals_np_argmax_of_the_scores(pyrandom):
    # contexts on a coarse grid, so exact ties are common
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    theta = rng.integers(-2, 3, size=3) / 2.0
    contexts = rng.integers(0, 3, size=(int(rng.integers(1, 7)), 3)) / 4.0
    want = int(np.argmax(contexts @ theta))
    assert pick_argmax(theta.tolist(), contexts.tolist()) == want


def test_selection_frequency_matches_normal_cdf():
    # Two arms with distinct recorded losses; the probability that arm 1
    # scores higher under a posterior draw is Phi(gap' mu / sqrt(gap' S gap)).
    agent = make_agent(prior_mean=(0.6, -0.1, 0.3), prior_var=0.8, k_arms=2)
    learn(agent, 0, 0, 0.3)
    learn(agent, 0, 1, 0.7)
    phis = np.array(agent_contexts(agent, 0))
    gap = phis[1] - phis[0]
    mean, cov = float_posterior(agent.posterior)
    p_arm1 = float(stats.norm.cdf(gap @ mean / np.sqrt(gap @ cov @ gap)))

    rng = np.random.default_rng(2)
    n = 20_000
    hits = sum(thompson_pick(agent, 0, rng) == 1 for _ in range(n))
    assert abs(hits / n - p_arm1) < 0.02


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_argmax_invariant_under_context_scaling(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    theta = rng.standard_normal(3)
    contexts = rng.random((5, 3))
    scores = contexts @ theta
    top = np.sort(scores)[-2:]
    if top[1] - top[0] < 1e-9:
        return
    scale = float(rng.uniform(0.1, 10.0))
    assert pick_argmax(theta.tolist(), contexts.tolist()) == pick_argmax(
        theta.tolist(), (scale * contexts).tolist()
    )


# ---------------------------------------------------------------------------
# recording


def test_record_twice_same_value():
    agent = make_agent()
    record(agent, 2, 3, 0.6)
    record(agent, 2, 3, 0.6)
    count, mean, m2, _ = agent.stats[2][3]
    assert count == 2
    assert mean == pytest.approx(0.6, abs=1e-15)
    assert m2 == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("var", [2.0, 1e-30, 5e-324, 1e300])
def test_agent_prior_is_isotropic(var):
    # the mean and the packed factor sqrt(var) I, bit for bit
    mean = np.array([0.2, -0.1, 0.4])
    agent = TsAgent((mean, var), 0.1, 4, 5)
    r = np.sqrt(var)
    assert agent.posterior == (tuple(mean.tolist()), (r, 0.0, r, 0.0, 0.0, r))


def test_record_delegates_posterior_update():
    # record updates only the cell; the posterior update is run_track's,
    # under Thompson sampling, with the row that was scored
    agent = TsAgent((np.zeros(3), 2.0), 0.1, 4, 5)
    prior = agent.posterior
    for o, w, loss in ((0, 0, 0.55), (0, 0, 0.2), (1, 0, 0.9), (0, 0, 0.4)):
        record(agent, o, w, loss)
        assert agent.posterior is prior
    assert agent_contexts(agent, 0)[0] != (COLD_MEAN, COLD_VAR, COLD_MAX)

    env = synthetic_env([0.4, 0.1, 0.5], uniform_state_proc(), 0.1, 40)
    result, agent = run_track(env, (np.zeros(3), 2.0), 0.1, 40, 5, np.random.default_rng(1))
    manual = posterior_gaussian((np.zeros(3), 2.0))
    for phi, loss in zip(agent.scored, result.loss.tolist()):
        manual = blr_update(manual, math.sqrt(0.1), phi, loss)
    assert agent.posterior == manual


def test_record_means_match_brute_force():
    rng = np.random.default_rng(3)
    agent = make_agent(k_arms=4, n_obs=3)
    raw: dict[tuple[int, int], list[float]] = {}
    for _ in range(100):
        w = int(rng.integers(4))
        o = int(rng.integers(3))
        loss = float(rng.random())
        raw.setdefault((w, o), []).append(loss)
        record(agent, o, w, loss)
    for (w, o), losses in raw.items():
        count, mean, _, mx = agent.stats[o][w]
        assert count == len(losses)
        assert abs(mean - np.mean(losses)) < 1e-12
        assert abs(mx - np.max(losses)) < 1e-15
    untouched = [(o, w) for o in range(3) for w in range(4) if (w, o) not in raw]
    for o, w in untouched:
        assert agent.stats[o][w][0] == 0


def test_record_touches_only_its_own_cell():
    agent = make_agent()
    record(agent, 1, 1, 0.3)
    stats_before = np.array(agent.stats)
    contexts_before = np.array(agent.contexts)
    record(agent, 0, 2, 0.4)
    changed = np.any(np.array(agent.stats) != stats_before, axis=-1)
    assert list(zip(*np.nonzero(changed))) == [(0, 2)]
    changed = np.any(np.array(agent.contexts) != contexts_before, axis=-1)
    assert list(zip(*np.nonzero(changed))) == [(0, 2)]


def test_record_rejects_loss_outside_unit_interval():
    agent = make_agent()
    contexts = [list(row) for row in agent.contexts]
    for loss in (1.5, -0.1, float("nan")):
        with pytest.raises(InvalidInput):
            record(agent, 0, 0, loss)
    assert np.all(np.array(agent.stats)[..., 0] == 0)
    assert agent.contexts == contexts


# ---------------------------------------------------------------------------
# synthetic losses


def test_synthetic_loss_noiseless_inner_product():
    theta = np.array([1.0, 0.0, 0.0])
    phi = np.array([0.7, 0.2, 0.9])
    assert synthetic_loss(theta, phi, 0.0) == 0.7


def test_synthetic_loss_clamps():
    theta = np.array([2.0, 0.0, 0.0])
    phi = np.array([0.7, 0.0, 0.0])
    assert synthetic_loss(theta, phi, 0.0) == 1.0


def test_synthetic_loss_mean_matches_quadrature():
    theta = np.array([1.0, 0.0, 0.0])
    phi = np.array([0.97, 0.3, 0.1])
    noise_var = 0.01
    sigma = np.sqrt(noise_var)
    mu = float(theta @ phi)

    expected, _ = integrate.quad(
        lambda z: np.clip(mu + sigma * z, 0.0, 1.0) * stats.norm.pdf(z), -10, 10
    )
    rng = np.random.default_rng(4)
    sample = np.mean(
        [synthetic_loss(theta, phi, z) for z in (sigma * rng.standard_normal(100_000)).tolist()]
    )
    assert abs(sample - expected) < 0.005


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_synthetic_loss_stays_in_unit_interval(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    theta = 3.0 * rng.standard_normal(3)
    phi = rng.standard_normal(3)
    loss = synthetic_loss(theta, phi, np.sqrt(rng.uniform(0, 0.5)) * rng.standard_normal())
    assert 0.0 <= loss <= 1.0


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_synthetic_loss_inner_product_is_matmuls(theta, phi):
    # synthetic_loss reads <theta, phi> as theta.dot(phi) of an array and a
    # context tuple: the same float as np.matmul, so the CSVs keep their bytes
    theta = np.array(theta)
    assert float(theta.dot(tuple(phi))) == float(np.matmul(theta, tuple(phi)))
    assert float(theta.dot(tuple(phi))) == float(np.matmul(theta, np.array(phi)))


# ---------------------------------------------------------------------------
# posterior consistency and the track loop


def test_posterior_mean_converges_under_round_robin():
    # Forced exploration over a fixed context set that spans R^3; after 1e4
    # conjugate updates the posterior mean pins down the true weights.
    theta_true = np.array([-0.3, 0.2, 0.8])
    contexts = np.array(
        [
            [1.0, 0.1, 0.0],
            [0.2, 1.0, 0.3],
            [0.0, 0.2, 1.0],
            [0.5, 0.5, 0.5],
            [0.9, 0.0, 0.4],
        ]
    )
    noise_var = 0.05
    rng = np.random.default_rng(5)
    post = posterior_gaussian((np.zeros(3), 10.0))
    for k in range(10_000):
        phi = contexts[k % len(contexts)]
        y = float(phi @ theta_true + np.sqrt(noise_var) * rng.standard_normal())
        post = blr_update(post, math.sqrt(noise_var), phi.tolist(), y)
    assert np.max(np.abs(np.array(post[0]) - theta_true)) < 0.05


def run_synthetic_track(seed: int, explore: str = "ts"):
    env = synthetic_env([0.4, 0.1, 0.5], uniform_state_proc(), 0.05, 150, seed)
    prior = (np.zeros(3), 2.0)
    return run_track(
        env, prior, 0.05, 150, 5, np.random.default_rng(seed), explore=explore
    )


def test_run_track_output_shapes_and_ranges():
    result, agent = run_synthetic_track(6)
    assert result.loss.shape == (150,)
    assert np.all((result.loss >= 0.0) & (result.loss <= 1.0))
    assert np.all(result.regret_inc >= -1e-12)
    assert np.all((result.waveform >= 0) & (result.waveform < 5))
    assert np.array(agent.scored).shape == (150, 3)
    assert tuple(map(len, agent.posterior)) == (3, 6)


def test_run_track_regret_accounting():
    result, _ = run_synthetic_track(7)
    # increment is best minus chosen, so it cannot exceed the best expected
    # loss, and it is positive exactly on the pulses flagged suboptimal
    assert np.all(result.regret_inc <= result.oracle_loss + 1e-12)
    flagged = result.suboptimal
    assert np.all(result.regret_inc[~flagged] <= 1e-12)
    assert np.all(result.regret_inc[flagged] > 1e-12)


def test_run_track_deterministic():
    a, _ = run_synthetic_track(8)
    b, _ = run_synthetic_track(8)
    np.testing.assert_array_equal(a.waveform, b.waveform)
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.state, b.state)


def test_run_track_random_explore_uniform_choices():
    result, _ = run_synthetic_track(9, explore="random")
    counts = np.bincount(result.waveform, minlength=5)
    assert np.all(counts > 0)


class RecordingEnv:
    """Forwards to an environment and keeps a copy of every expected-loss
    vector the track loop asked for, one per CPI: the track-wide call is
    split into its rows."""

    def __init__(self, env):
        self.env = env
        self.state_proc, self.states, self.obs = env.state_proc, env.states, env.obs
        self.expected: list[np.ndarray] = []

    def step_scene(self, cpi):
        return self.env.step_scene(cpi)

    def expected_losses(self, states, contexts):
        out = np.array(self.env.expected_losses(states, contexts), dtype=float)
        self.expected.extend(row.copy() for row in out)
        return out

    def realize(self, cpi, s, w_idx, phi):
        return self.env.realize(cpi, s, w_idx, phi)


def physical_instance(n: int, doppler: float = 0.0, grid_n: int = 16) -> tuple:
    """(config, instance) of a physical track of ``n`` pulses."""
    config = ExperimentConfig(mode="physical", n=n, doppler=doppler, grid_n=grid_n)
    root = tap_root(config.ir_taps, config.ir_kernel_scale)
    inst = draw_instance(config, np.array([1.2, 0.4, 0.6]), root, np.random.default_rng(50))
    return config, inst


def physical_env(
    n: int, doppler: float = 0.0, grid_n: int = 16, state_proc: StateProcess | None = None,
    seed: int = 0,
) -> PhysicalTrackEnv:
    """A physical environment of ``n`` pulses, its walk and pulse noise from
    ``streams(seed)``."""
    config, inst = physical_instance(n, doppler, grid_n)
    walk, noise = streams(seed)
    sim = simulator(config, inst, np.random.default_rng(51), noise)
    return PhysicalTrackEnv(sim, state_proc or uniform_state_proc(), 15.8, walk)


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_run_track_regret_equals_oracle_at_every_cpi(mode):
    n = 120
    if mode == "synthetic":
        env = synthetic_env([-0.3, 0.2, 0.8], uniform_state_proc(), 0.05, n)
    else:
        env = physical_env(n)
    recorder = RecordingEnv(env)
    prior = (np.zeros(3), 2.0)
    result, _ = run_track(recorder, prior, 0.05, n, 5, np.random.default_rng(52))
    assert len(recorder.expected) == n
    for k, expected in enumerate(recorder.expected):
        chosen = int(result.waveform[k])
        assert result.regret_inc[k] == regret_increment(expected, chosen)
        assert result.oracle_loss[k] == np.max(expected)
    assert np.any(result.regret_inc > 0.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def track_state_proc(chain: str) -> StateProcess:
    """The uniform memory-2 chain at flip probability 0.1, or a drawn
    memory-3 chain whose observation flips half the time."""
    if chain == "uniform":
        return uniform_state_proc()
    return StateProcess(random_transition(4, 3, np.random.default_rng(61)), 0.5)


def track_env(mode: str, n: int, doppler: float, grid_n: int, chain: str, seed: int):
    if mode == "synthetic":
        return synthetic_env([-0.3, 0.2, 0.8], track_state_proc(chain), 0.33, n, seed)
    return physical_env(n, doppler, grid_n, track_state_proc(chain), seed)


@pytest.mark.parametrize("explore", ["ts", "random"])
@pytest.mark.parametrize(
    "mode, doppler, grid_n, chain",
    [("synthetic", 0.0, 16, "uniform"), ("physical", 0.0, 16, "uniform"),
     ("physical", 0.7, 16, "uniform"), ("physical", 0.0, 1, "uniform"),
     ("synthetic", 0.0, 16, "memory3"), ("physical", 0.0, 16, "memory3")],
    ids=["synthetic", "physical", "physical-doppler", "physical-grid1",
         "synthetic-memory3", "physical-memory3"],
)
def test_run_track_equals_validated_reference_loop_to_the_bit(
    mode, doppler, grid_n, chain, explore
):
    # the reference computes each pulse's expected losses on its own; the
    # track loop makes one track-wide call after the pulses. The reference
    # draws every stream one pulse at a time, the package in blocks of
    # STACK_BLOCK pulses, so the track runs past one block.
    n = STACK_BLOCK + 44
    prior = (np.array([0.2, -0.1, 0.4]), 2.0)
    result, agent = run_track(
        track_env(mode, n, doppler, grid_n, chain, 62), prior, 0.33, n, 5,
        np.random.default_rng(60), explore,
    )
    inst = physical_instance(n, doppler, grid_n)[1] if mode == "physical" else None
    expected = reference_track(
        track_env(mode, n, doppler, grid_n, chain, 62), prior, 0.33, n, 5,
        np.random.default_rng(60), *streams(62), explore, inst,
    )
    for name in ("state", "obs", "waveform", "sinr", "loss", "oracle_loss",
                 "regret_inc", "suboptimal"):
        assert same_bits(getattr(result, name), expected[name]), name
    assert same_bits(np.array(agent.scored), expected["scored"])
    # the float kernel updates the factor where the reference updates the
    # covariance, so the posterior may part in its last bits; every choice
    # and every other column is identical. A random track's posterior
    # stays its prior.
    mean, cov = float_posterior(agent.posterior)
    assert largest_gap(mean, expected["post_mean"]) <= 1e-12
    assert largest_gap(cov, expected["post_cov"]) <= 1e-12
    if explore == "random":
        assert agent.posterior == posterior_gaussian(prior)
    assert same_bits(np.array(agent.stats), expected["stats"])
    assert same_bits(np.array(agent.contexts), expected["agent_contexts"])
    if explore == "ts":
        assert len(set(result.waveform.tolist())) > 1
