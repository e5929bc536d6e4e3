from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavesel import fstc, harness
from wavesel.errors import IndexOutOfRange, InvalidInput, ValidationError
from wavesel.fstc import (
    _BASE,
    SINR_CAP,
    STACK_BLOCK,
    WINDOW_HALF,
    FstcInstance,
    StateProcess,
    PhysicalTrackEnv,
    SceneWalk,
    TrackSimulator,
    _sinr_value,
    channel_tables,
    compute_loss,
    draw_instance,
    random_transition,
    tap_root,
    unit_clip,
)
from wavesel.harness import parse_config
from wavesel.waveforms import (
    ComplexEnvelope,
    catalog_envelope,
    default_catalog,
    matched_filter,
)

import oracles
from oracles import STATE_GAIN, canvas_len, place, reflected, regret_increment, simulator


#: The physical scene the channel tests draw from: the default config on a
#: 16-cell delay grid, four states, and the physical prior mean.
SCENE = harness.ExperimentConfig(mode="physical", grid_n=16)
MU_STAR = np.array(harness.PHYSICAL_MU_STAR)


def draw(config, rng: np.random.Generator, mu_star=MU_STAR) -> FstcInstance:
    """One episode of ``config`` as a physical replicate draws it."""
    root = tap_root(config.ir_taps, config.ir_kernel_scale)
    return draw_instance(config, mu_star, root, rng)


# ---------------------------------------------------------------------------
# state process


def test_transition_rows_must_be_distributions():
    with pytest.raises(InvalidInput):
        StateProcess(np.array([[0.5, 0.4], [0.5, 0.5]]), 0.0)
    with pytest.raises(InvalidInput):
        StateProcess(np.array([[1.5, -0.5], [0.5, 0.5]]), 0.0)


def test_random_transition_shape_and_rows():
    t = random_transition(4, 2, np.random.default_rng(0))
    assert t.shape == (4, 4)
    np.testing.assert_allclose(t.sum(axis=-1), 1.0, atol=1e-12)
    sp = StateProcess(t, 0.1)
    assert sp.n_states == 4
    assert len(sp.rows) == 4


def test_step_state_point_mass_row():
    row = np.zeros(3)
    row[2] = 1.0
    sp = StateProcess(np.tile(row, (3, 1)), 0.0)
    assert scene_steps(sp, 5, np.random.default_rng(1)) == [(2, 2)] * 5


def scene_steps(sp: StateProcess, n_steps: int, rng: np.random.Generator) -> list:
    """The (state, observation) pairs of a scene walk of ``n_steps`` pulses,
    read pulse by pulse."""
    scene = SceneWalk(sp, n_steps, rng)
    return [scene.step_scene(cpi) for cpi in range(n_steps)]


def walk(sp: StateProcess, n_steps: int, rng: np.random.Generator) -> list:
    """The states of ``n_steps`` steps of a fresh scene walk, observations
    dropped."""
    return [s for s, _ in scene_steps(sp, n_steps, rng)]


def test_step_state_uniform_frequencies():
    sp = StateProcess(np.full((4, 4), 0.25), 0.0)
    states = walk(sp, 100_000, np.random.default_rng(2))
    counts = Counter(states)
    for s in range(4):
        assert abs(counts[s] / len(states) - 0.25) < 0.01


def test_step_state_memory_bound():
    # With memory 2 the next state depends on the last state only, so the
    # empirical conditionals given (s_{k-2}, s_{k-1}) must match those given
    # s_{k-1} alone.
    sp = StateProcess(random_transition(4, 2, np.random.default_rng(3)), 0.0)
    states = walk(sp, 300_000, np.random.default_rng(4))
    by_pair = defaultdict(Counter)
    by_last = defaultdict(Counter)
    for a, b, c in zip(states, states[1:], states[2:]):
        by_pair[(a, b)][c] += 1
        by_last[b][c] += 1
    for (a, b), counts in by_pair.items():
        n_pair = sum(counts.values())
        n_last = sum(by_last[b].values())
        assert n_pair > 1000
        for c in range(4):
            assert abs(counts[c] / n_pair - by_last[b][c] / n_last) < 0.02


@st.composite
def chains(draw):
    """A state process and a stream seed. Rows are drawn as small integer
    weights, so exact zeros (repeated running sums) occur. The observation
    flip probability is 0, 0.1 or 0.9; a chain that flips has at least two
    states to flip to."""
    flip = draw(st.sampled_from([0.0, 0.1, 0.9]))
    n_states = draw(st.integers(2 if flip else 1, 5))
    memory = draw(st.integers(1, 3))
    n_rows = n_states ** (memory - 1)
    weights = np.array(
        draw(st.lists(st.integers(0, 3), min_size=n_rows * n_states,
                      max_size=n_rows * n_states)),
        dtype=float,
    ).reshape(n_rows, n_states)
    weights[:, -1] += 1.0
    transition = (weights / weights.sum(axis=1, keepdims=True)).reshape(
        (n_states,) * (memory - 1) + (n_states,)
    )
    return StateProcess(transition, flip), draw(st.integers(0, 2**32 - 1))


def oracle_walk(sp: StateProcess, n_steps: int, rng: np.random.Generator) -> list:
    """The (state, observation) pairs of ``n_steps`` steps of the
    history-searching oracle and the oracle observation, drawn one uniform
    at a time in the scene walk's order."""
    states, pairs = [], []
    for _ in range(n_steps):
        states.append(oracles.step_state(sp, states, rng))
        pairs.append((states[-1], oracles.observe(sp, states[-1], rng)))
    return pairs


def assert_walk_is_oracle_walk(sp: StateProcess, n_steps: int, seed: int) -> None:
    """The scene walk's pairs equal the oracle's, and the two leave their
    streams at the same place."""
    fast_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert scene_steps(sp, n_steps, fast_rng) == oracle_walk(sp, n_steps, oracle_rng)
    assert fast_rng.random() == oracle_rng.random()


@given(chains())
@settings(max_examples=150, deadline=None)
def test_step_state_equals_running_sum_search(chain):
    sp, seed = chain
    assert_walk_is_oracle_walk(sp, 30, seed)


def test_step_state_equals_running_sum_search_on_dirichlet_rows():
    # 2000 pulses: the walk draws them in blocks of STACK_BLOCK
    for seed, (n_states, memory) in enumerate([(4, 2), (3, 3), (6, 1), (2, 4)]):
        sp = StateProcess(
            random_transition(n_states, memory, np.random.default_rng(seed)), 0.1
        )
        assert_walk_is_oracle_walk(sp, 2000, seed)


@given(chains())
@settings(max_examples=100, deadline=None)
def test_walk_row_is_the_c_order_index_of_the_padded_last_states(chain):
    # the row after each step is the table row of the zero-padded last
    # memory - 1 states, oldest first: a walk of j pulses ends on the row of
    # its states, which are the first j of a longer walk of the same stream
    sp, seed = chain
    need = sp.transition.ndim - 1
    assert SceneWalk(sp, 0, np.random.default_rng(seed)).row == 0
    states = [0] * need + SceneWalk(sp, 12, np.random.default_rng(seed)).states
    for j in range(1, 13):
        scene = SceneWalk(sp, j, np.random.default_rng(seed))
        assert scene.states == states[need : need + j]
        recent = tuple(states[j : j + need])
        assert scene.row == np.ravel_multi_index(recent, sp.transition.shape[:-1])
        assert sp.rows[scene.row] == np.cumsum(sp.transition[recent]).tolist()


@given(st.floats(allow_nan=True, allow_infinity=True))
@example(-0.0)
@example(0.0)
@example(float("nan"))
@example(-5e-324)
@example(1.0 + 2.0**-52)
def test_unit_clip_is_np_clip_to_the_bit(x):
    expected = np.float64(np.clip(x, 0.0, 1.0))
    assert np.float64(unit_clip(x)).tobytes() == expected.tobytes()


# the package draws the observation inside the ``SceneWalk`` walk, which
# the walk tests above hold to ``oracles.observe``; these hold the oracle to
# the kernel's law


def test_observe_noiseless():
    sp = StateProcess(np.full((4, 4), 0.25), 0.0)
    rng = np.random.default_rng(5)
    assert all(oracles.observe(sp, s, rng) == s for s in range(4))


def test_observe_flip_rate():
    sp = StateProcess(np.full((4, 4), 0.25), 0.1)
    rng = np.random.default_rng(6)
    hits = sum(oracles.observe(sp, 2, rng) == 2 for _ in range(100_000))
    assert abs(hits / 100_000 - 0.9) < 0.01


def test_observe_full_entropy_kernel():
    sp = StateProcess(np.full((4, 4), 0.25), 0.75)
    rng = np.random.default_rng(7)
    counts = Counter(oracles.observe(sp, 1, rng) for _ in range(100_000))
    for s in range(4):
        assert abs(counts[s] / 100_000 - 0.25) < 0.01


# ---------------------------------------------------------------------------
# instance draws


def test_degenerate_prior_pins_theta():
    config = replace(SCENE, sigma0_sq=1e-30, n=3)
    rng = np.random.default_rng(9)
    for _ in range(5):
        inst = draw(config, rng)
        np.testing.assert_allclose(inst.theta, MU_STAR, atol=1e-10)


def test_theta_moments_match_task_distribution():
    config = replace(SCENE, n=1)
    rng = np.random.default_rng(11)
    root = tap_root(config.ir_taps, config.ir_kernel_scale)
    thetas = np.array(
        [draw_instance(config, MU_STAR, root, rng).theta for _ in range(10_000)]
    )
    assert np.max(np.abs(thetas.mean(axis=0) - MU_STAR)) < 0.05
    var = thetas.var(axis=0)
    assert np.all(np.abs(var - config.sigma0_sq) < 0.1 * config.sigma0_sq)


def test_large_kernel_scale_flattens_taps():
    # neighbor correlation at scale s is 1 - (lag/s)^2, so the residual
    # spread over 8 taps is of order amplitude * taps/s: ~1e-5 here
    inst = draw(replace(SCENE, ir_kernel_scale=1e6, n=1), np.random.default_rng(13))
    spread = np.max(np.abs(inst.target_ir - inst.target_ir[0]))
    assert spread < 1e-4 * np.max(np.abs(inst.target_ir))


def test_trajectory_stays_on_grid():
    inst = draw(replace(SCENE, n=500), np.random.default_rng(15))
    assert inst.trajectory.shape == (500,)
    assert inst.trajectory.min() >= 1
    assert inst.trajectory.max() <= SCENE.grid_n
    assert np.all(np.abs(np.diff(inst.trajectory)) <= 1)


@pytest.mark.parametrize("grid_n", [1, 3, 64])
@pytest.mark.parametrize("n_cpis", [1, 200])
def test_trajectory_equals_the_interleaved_walk(grid_n, n_cpis):
    # the walk draws its n - 1 steps in one call; the values, and where it
    # leaves the stream, must be those of n - 1 single draws (the name is
    # from the layout before the stream split, whose walk interleaved a
    # dropped Doppler step with each delay step)
    config = replace(SCENE, grid_n=grid_n, n=n_cpis)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = draw(config, rng)
        ref = np.random.default_rng(seed)
        ref.standard_normal(3)
        for _ in range(4):
            ref.standard_normal(config.ir_taps)
        expected = oracles.single_step_walk(grid_n, n_cpis, ref)
        assert inst.trajectory.dtype == expected.dtype
        np.testing.assert_array_equal(inst.trajectory, expected)
        assert rng.random() == ref.random()


def test_synthetic_replicate_builds_no_tap_root(monkeypatch, tmp_path):
    # the tap root serves only physical draws, so a synthetic replicate
    # makes no eigendecomposition
    calls = []
    eigh = np.linalg.eigh

    def counting(*args):
        calls.append(args)
        return eigh(*args)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    config = parse_config(f"m = 2\nn = 5\nout_dir = {tmp_path}\n")
    harness.run(config, "meta-ts", 0)
    assert calls == []
    harness.run(replace(config, mode="physical"), "meta-ts", 0)
    assert len(calls) == 1


@pytest.mark.parametrize("mu_star", [[1.2, 0.4], [1.2, 0.4, 0.6, 0.1], [[1.2, 0.4, 0.6]]])
def test_task_distribution_needs_three_components(mu_star):
    # build_scene takes the true prior mean from the config, which refuses
    # any other shape, naming the key
    with pytest.raises(ValidationError) as info:
        harness.ExperimentConfig(mu_star=tuple(mu_star))
    assert info.value.field == "mu_star"


# ---------------------------------------------------------------------------
# receive path: the direct simulation, oracle for TrackSimulator


def window(peak: int, length: int) -> slice:
    """The lags within WINDOW_HALF of ``peak``, clipped to [0, length)."""
    lo = max(peak - WINDOW_HALF, 0)
    hi = min(peak + WINDOW_HALF + 1, length)
    return slice(lo, hi)


def receive(
    config,
    inst: FstcInstance,
    s: int,
    w: ComplexEnvelope,
    cpi: int,
    rng: np.random.Generator,
):
    """Simulate one pulse of ``inst`` in the scene of ``config``: returns
    (post-processing SINR, received samples).

    The direct simulation that ``TrackSimulator`` must agree with: the
    target echo is placed at the trajectory's current delay cell and carries
    the Doppler ramp; the clutter return spans the scene at zero delay, is
    static and is scaled by the state's gain ``STATE_GAIN[s]``; white noise
    covers the whole canvas. SINR is the target's matched-filter peak power
    over the mean clutter-plus-noise power in the window of lags around that
    peak.
    """
    if not 0 <= s < config.n_states:
        raise InvalidInput(f"state {s} outside [0, {config.n_states})")
    if not 0 <= cpi < len(inst.trajectory):
        raise IndexOutOfRange(
            f"cpi {cpi} outside trajectory of length {len(inst.trajectory)}"
        )

    delay = int(inst.trajectory[cpi]) - 1
    refl_t = reflected(w, inst.target_ir, config.doppler)
    refl_c = reflected(w, inst.clutter_ir, 0.0)
    clen = canvas_len(refl_t.size, config.grid_n)

    target = place(clen, refl_t, _BASE + delay)
    clutter = place(clen, np.sqrt(STATE_GAIN[s]) * refl_c, _BASE)
    noise = np.sqrt(inst.noise_var / 2.0) * (
        rng.standard_normal(clen) + 1j * rng.standard_normal(clen)
    )
    rx = target + clutter + noise

    y_t = matched_filter(w, target)
    y_c = matched_filter(w, clutter)
    y_n = matched_filter(w, noise)
    peak = int(np.argmax(np.abs(y_t)))
    sig = float(np.abs(y_t[peak]) ** 2)
    win = window(peak, y_t.size)
    denom = float(np.mean(np.abs(y_c[win]) ** 2) + np.mean(np.abs(y_n[win]) ** 2))
    return _sinr_value(sig, denom), rx


def default_instance(seed: int = 16, n_cpis: int = 4) -> FstcInstance:
    return draw(replace(SCENE, n=n_cpis), np.random.default_rng(seed + 1))


def test_receive_caps_in_noise_free_corner():
    inst = default_instance()
    clean = replace(
        inst,
        clutter_ir=np.zeros_like(inst.clutter_ir),
        noise_var=1e-30,
    )
    w = default_catalog()[0]
    sinr, _ = receive(SCENE, clean, 0, w, 0, np.random.default_rng(17))
    assert sinr == SINR_CAP


def test_receive_snr_of_impulse_channel():
    inst = FstcInstance(
        theta=np.zeros(3),
        target_ir=np.array([1.0 + 0.0j]),
        clutter_ir=np.array([0.0 + 0.0j]),
        noise_var=0.01,
        trajectory=np.array([1]),
    )
    w = catalog_envelope("zc-1024")
    rng = np.random.default_rng(18)
    config = replace(SCENE, grid_n=4)
    sinrs = [receive(config, inst, 0, w, 0, rng)[0] for _ in range(1000)]
    mean_db = 10.0 * np.log10(np.mean(sinrs))
    assert abs(mean_db - 20.0) < 0.5


def test_state_gain_scales_clutter_power_exactly():
    inst = default_instance()
    silent = replace(inst, target_ir=np.zeros_like(inst.target_ir), noise_var=1e-30)
    w = default_catalog()[1]
    _, rx0 = receive(SCENE, silent, 0, w, 0, np.random.default_rng(19))
    p0 = float(np.sum(np.abs(rx0) ** 2))
    for s in range(1, SCENE.n_states):
        _, rx = receive(SCENE, silent, s, w, 0, np.random.default_rng(19))
        p = float(np.sum(np.abs(rx) ** 2))
        ratio = STATE_GAIN[s] / STATE_GAIN[0]
        assert abs(p - ratio * p0) < 1e-12 * ratio * p0


def test_stronger_clutter_state_lowers_sinr():
    inst = default_instance()
    w = default_catalog()[0]
    s_low, _ = receive(SCENE, inst, 0, w, 0, np.random.default_rng(20))
    s_high, _ = receive(SCENE, inst, 3, w, 0, np.random.default_rng(20))
    assert s_high < s_low


def test_receive_is_deterministic():
    inst = default_instance()
    w = default_catalog()[2]
    a, rx_a = receive(SCENE, inst, 1, w, 0, np.random.default_rng(21))
    b, rx_b = receive(SCENE, inst, 1, w, 0, np.random.default_rng(21))
    assert a == b
    np.testing.assert_array_equal(rx_a, rx_b)


def test_receive_sinr_always_valid():
    inst = default_instance(n_cpis=8)
    rng = np.random.default_rng(22)
    for w in default_catalog():
        for cpi in range(8):
            sinr, _ = receive(SCENE, inst, int(rng.integers(4)), w, cpi, rng)
            assert np.isfinite(sinr)
            assert 0.0 < sinr <= SINR_CAP


def test_receive_rejects_bad_indices():
    inst = default_instance()
    w = default_catalog()[0]
    with pytest.raises(InvalidInput):
        receive(SCENE, inst, 9, w, 0, np.random.default_rng(0))
    with pytest.raises(IndexOutOfRange):
        receive(SCENE, inst, 0, w, 99, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# fast per-track simulator


def losses_at(sim: TrackSimulator, cpi: int, s: int, sinr_target: float) -> np.ndarray:
    """The (K,) expected losses at pulse ``cpi`` of a track held in state
    ``s`` throughout: one row of the simulator's track-wide call."""
    return sim.expected_losses(np.full(sim._delay.size, s), sinr_target)[cpi]


def test_simulator_agrees_with_receive_monte_carlo():
    inst = default_instance(seed=24)
    catalog = default_catalog()
    sinr_target = 10.0 ** (12.0 / 10.0)
    s, cpi, trials = 2, 0, 1000

    mc_loss = np.empty(len(catalog))
    rng = np.random.default_rng(25)
    for i, w in enumerate(catalog):
        losses = [
            min(max(receive(SCENE, inst, s, w, cpi, rng)[0] / sinr_target, 0.0), 1.0)
            for _ in range(trials)
        ]
        mc_loss[i] = np.mean(losses)

    refined_scene = replace(SCENE, n_oracle_draws=10_000)
    refined = simulator(refined_scene, inst, np.random.default_rng(26), np.random.default_rng(0))
    assert np.max(np.abs(losses_at(refined, cpi, s, sinr_target) - mc_loss)) < 0.02

    coarse = simulator(SCENE, inst, np.random.default_rng(27), np.random.default_rng(0))
    exp64 = losses_at(coarse, cpi, s, sinr_target)
    exp_ref = losses_at(refined, cpi, s, sinr_target)
    for chosen in range(len(catalog)):
        inc64 = regret_increment(exp64, chosen)
        inc_ref = regret_increment(exp_ref, chosen)
        assert abs(inc64 - inc_ref) < 0.02

    # a track held at the first pulse's delay cell for ``trials`` pulses:
    # each pulse reads a fresh entry of the noise table
    held = replace(inst, trajectory=np.full(trials, inst.trajectory[cpi]))
    pulses = simulator(SCENE, held, np.random.default_rng(27), np.random.default_rng(28))
    step_loss = np.mean(
        [
            min(max(pulses.step(pulse, s, 0) / sinr_target, 0.0), 1.0)
            for pulse in range(trials)
        ]
    )
    assert abs(step_loss - mc_loss[0]) < 0.02


def test_expected_losses_deterministic_per_episode():
    inst = default_instance(seed=29)
    sim = simulator(SCENE, inst, np.random.default_rng(30), np.random.default_rng(0))
    states = np.array([1, 3, 0, 1])
    a = sim.expected_losses(states, 15.8)
    b = sim.expected_losses(states, 15.8)
    np.testing.assert_array_equal(a, b)


def test_physical_env_walks_the_scene_chain_and_maps_sinr_to_loss():
    inst = default_instance(seed=31)
    sim = simulator(SCENE, inst, np.random.default_rng(32), np.random.default_rng(34))
    sp = StateProcess(random_transition(4, 2, np.random.default_rng(31)), 0.1)
    env = PhysicalTrackEnv(sim, sp, 15.8, np.random.default_rng(33))
    assert env.state_proc is sp
    # the walk of the simulator's pulses, from the environment's stream
    walk = SceneWalk(sp, inst.trajectory.size, np.random.default_rng(33))
    assert [env.step_scene(cpi) for cpi in range(inst.trajectory.size)] == [
        walk.step_scene(cpi) for cpi in range(inst.trajectory.size)
    ]
    for cpi in range(inst.trajectory.size):
        for w_idx in range(len(default_catalog())):
            loss, sinr = env.realize(cpi, 1, w_idx, None)
            assert sinr == sim.step(cpi, 1, w_idx)
            assert loss == compute_loss(sinr, 15.8)


def window_powers(config, inst: FstcInstance, w: ComplexEnvelope, delay: int):
    """Per-waveform oracle of the simulator's deterministic terms: the
    target's matched-filter peak power and the mean clutter power in the
    window around the peak shifted by ``delay``, from the canvas helpers and
    prefix sums over the whole filter output, checked against the window's
    direct mean."""
    refl_t = reflected(w, inst.target_ir, config.doppler)
    refl_c = reflected(w, inst.clutter_ir, 0.0)
    clen = canvas_len(refl_t.size, config.grid_n)
    y_t0 = matched_filter(w, place(clen, refl_t, _BASE))
    y_c0 = matched_filter(w, place(clen, refl_c, _BASE))
    p0 = int(np.argmax(np.abs(y_t0)))
    win = window(p0 + delay, y_t0.size)
    c_prefix = np.concatenate([[0.0], np.cumsum(np.abs(y_c0) ** 2)])
    clutter = (c_prefix[win.stop] - c_prefix[win.start]) / (win.stop - win.start)
    direct = float(np.mean(np.abs(y_c0[win]) ** 2))
    assert clutter == pytest.approx(direct, rel=1e-9)
    return float(np.abs(y_t0[p0]) ** 2), clutter


def edge_instance(seed: int) -> FstcInstance:
    """An instance whose trajectory visits the first and last delay cells."""
    inst = default_instance(seed=seed)
    return replace(inst, trajectory=np.array([1, SCENE.grid_n, 5]))


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_simulator_terms_equal_per_waveform_oracle(doppler):
    # The oracle filters the placed echo with ``matched_filter``, and scales
    # the expected-loss draws and each pulse's noise draws by the
    # eigenvalues of a fresh Toeplitz gram; the simulator convolves the
    # tables' correlations with the taps and reads the tables' eigenvalues,
    # so the two agree to rounding, not to the bit.
    inst = edge_instance(40)
    catalog = default_catalog()
    config = replace(SCENE, doppler=doppler, n_oracle_draws=129)
    sim = simulator(config, inst, np.random.default_rng(41), np.random.default_rng(42))
    noise = oracles.eigen_oracle_noise(inst, catalog, np.random.default_rng(41), 129)
    pulse_noise = oracles.pulse_noise_table(
        inst, catalog, np.random.default_rng(42), inst.trajectory.size
    )
    sinr_target = 15.8
    for cpi, cell in enumerate(inst.trajectory):
        delay = int(cell) - 1
        powers = [window_powers(config, inst, w, delay) for w in catalog]
        for s, gain in enumerate(STATE_GAIN):
            expected = np.empty(len(catalog))
            for i, (sig, clutter) in enumerate(powers):
                sinr = np.minimum(sig / (gain * clutter + noise[i]), SINR_CAP)
                expected[i] = np.mean(np.clip(sinr / sinr_target, 0.0, 1.0))
            np.testing.assert_allclose(
                losses_at(sim, cpi, s, sinr_target), expected, rtol=1e-12
            )
            for i, (sig, clutter) in enumerate(powers):
                p_n = pulse_noise[cpi, i]
                assert sim.step(cpi, s, i) == pytest.approx(
                    _sinr_value(sig, gain * clutter + p_n), rel=1e-12
                )


def test_clutter_table_equals_oracle_where_the_window_clips():
    # With no target echo the matched-filter peak falls at lag 0, so the
    # window clips at the low edge for the first WINDOW_HALF delay cells.
    inst = edge_instance(43)
    inst = replace(inst, target_ir=np.zeros_like(inst.target_ir))
    catalog = default_catalog(k=2)
    sim = simulator(
        replace(SCENE, k=2, n_oracle_draws=1), inst, np.random.default_rng(44),
        np.random.default_rng(45),
    )
    assert sim._clutter.shape == (SCENE.grid_n, len(catalog))
    for delay in range(SCENE.grid_n):
        for i, w in enumerate(catalog):
            sig, clutter = window_powers(SCENE, inst, w, delay)
            assert sig == sim._sig[i] == 0.0
            assert sim._clutter[delay, i] == pytest.approx(clutter, rel=1e-12)


@pytest.mark.parametrize("doppler", [0.0, 0.7])
@pytest.mark.parametrize("target", ["echo", "zero"])
def test_clutter_table_equals_fsum_of_the_full_response(doppler, target):
    # every cell of the default 64-cell grid, the first and last included,
    # against math.fsum of the same lag powers. A zero target peaks at lag
    # 0, so the windows of the first WINDOW_HALF cells clip at the low edge.
    # Differences of one prefix over the whole filter output are up to
    # 1.5e-13 relative off here.
    config = harness.ExperimentConfig(mode="physical", doppler=doppler)
    inst = draw(config, np.random.default_rng(47))
    if target == "zero":
        inst = replace(inst, target_ir=np.zeros_like(inst.target_ir))
    tables = channel_tables(default_catalog(), config.ir_taps, doppler)
    rngs = np.random.default_rng(48), np.random.default_rng(49)
    sim = TrackSimulator(config, inst, tables, *rngs)
    want = oracles.fsum_window_powers(config, inst, tables)
    assert sim._clutter.shape == want.shape == (config.grid_n, config.k)
    np.testing.assert_allclose(sim._clutter, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("seed", [40, 43, 46, 49])
def test_filtered_echo_equals_matched_filter_of_the_placed_echo(seed):
    # the table responses: the matched filter of an echo r (p * h) is
    # xcorr(p, r p) * (r h), and at doppler 0 that is acorr(p) * h
    inst = default_instance(seed=seed)
    catalog = default_catalog()
    for doppler in (0.0, 0.7, -2.3, 5.0):
        tables = channel_tables(catalog, inst.target_ir.size, doppler)
        for i, w in enumerate(catalog):
            taps = np.stack([tables.tap_ramp[i] * inst.target_ir, inst.clutter_ir])
            responses = (tables.windows[i] @ taps[:, :, None])[..., 0]
            for row, ir, ramp in ((0, inst.target_ir, doppler), (1, inst.clutter_ir, 0.0)):
                refl = reflected(w, ir, ramp)
                clen = canvas_len(refl.size, SCENE.grid_n)
                expected = matched_filter(w, place(clen, refl, _BASE))
                got = place(expected.size, responses[row], _BASE)
                peak = np.max(np.abs(expected))
                assert np.max(np.abs(got - expected)) <= 1e-12 * peak
                assert np.argmax(np.abs(got)) == np.argmax(np.abs(expected))


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_track_draw_and_build_factor_and_filter_nothing(monkeypatch, doppler):
    # per track, the draw reads the replicate's tap root and the build reads
    # the replicate's tables: no eigendecomposition, factor, Toeplitz
    # matrix, convolution, correlation or matched filter
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in (
        (np.linalg, "cholesky"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np, "convolve"),
        (np, "correlate"), (fstc, "hermitian_toeplitz"), (fstc, "matched_filter"),
    ):
        count(owner, name)
    config = replace(SCENE, doppler=doppler, n=50)
    tables = channel_tables(default_catalog(), config.ir_taps, doppler)
    root = tap_root(config.ir_taps, config.ir_kernel_scale)
    assert root.shape == (config.ir_taps, config.ir_taps)
    # the counters see what the replicate builds once; the correlation
    # count is left out, as the kept autocorrelations make it depend on
    # what ran before in the process
    assert (calls["eigh"], calls["eigvalsh"], calls["hermitian_toeplitz"]) == (1, 1, 5)
    assert (calls["cholesky"], calls["matched_filter"]) == (0, 5 if doppler else 0)
    calls.clear()
    rng = np.random.default_rng(61)
    for track in range(3):
        inst = draw_instance(config, MU_STAR, root, rng)
        TrackSimulator(
            config, inst, tables, np.random.default_rng(track), np.random.default_rng(9 + track)
        )
    assert calls == Counter()


def test_table_windows_are_read_only():
    tables = channel_tables(default_catalog(), 8, 0.7)
    with pytest.raises(ValueError):
        tables.windows[0][0, 0, 0] = 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_draw_of_k_exponential_blocks_equals_k_draws_to_the_bit(seed):
    # the simulator draws every waveform's oracle exponentials in one call,
    # the eigen-form oracle one (draws, width) block per waveform
    width = 2 * WINDOW_HALF + 1
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    for n_draws in (1, 64, 129):
        batch = one.standard_exponential((5, n_draws, width))
        for block in batch:
            assert block.tobytes() == two.standard_exponential((n_draws, width)).tobytes()
    assert one.random() == two.random()


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_eigen_draw_has_the_closed_form_moments_of_the_map(doppler):
    # noise_var sum_i 2 lambda_i E_i against |R x|^2 for x standard normal:
    # mean noise_var tr(R^T R) and variance 2 noise_var^2 tr((R^T R)^2)
    catalog = default_catalog()
    tables = channel_tables(catalog, SCENE.ir_taps, doppler)
    noise_var = 3e-3
    for env, lam in zip(catalog, tables.noise_eigvals):
        unit = oracles.unit_noise_map(env)
        gram = noise_var * (unit.T @ unit)
        mean, var = noise_var * np.sum(2.0 * lam), noise_var**2 * np.sum((2.0 * lam) ** 2)
        assert mean == pytest.approx(np.trace(gram), rel=1e-12)
        assert var == pytest.approx(2.0 * np.trace(gram @ gram), rel=1e-12)
        assert np.all(np.diff(lam) <= 0.0)


def test_eigen_and_map_draws_match_the_closed_form_moments():
    # 20,000 draws of each form: the sample mean and variance lie within 4
    # Monte Carlo standard errors of the closed forms. A sum of c_j E_j has
    # cumulants kappa_r = (r - 1)! sum c_j^r, so the sample variance's
    # standard error is sqrt((kappa_4 + 2 kappa_2^2) / N).
    catalog = default_catalog()
    tables = channel_tables(catalog, SCENE.ir_taps, 0.0)
    n_draws, noise_var = 20_000, 1.0
    rng = np.random.default_rng(70)
    for env, lam in zip(catalog, tables.noise_eigvals):
        unit = oracles.unit_noise_map(env)
        c = 2.0 * noise_var * lam
        k2, k4 = np.sum(c**2), 6.0 * np.sum(c**4)
        eigen = rng.standard_exponential((n_draws, lam.size)) @ c
        y = rng.standard_normal((n_draws, unit.shape[0])) @ (np.sqrt(noise_var) * unit).T
        for draws in (eigen, np.sum(y * y, axis=1)):
            assert abs(draws.mean() - np.sum(c)) < 4.0 * np.sqrt(k2 / n_draws)
            assert abs(draws.var(ddof=1) - k2) < 4.0 * np.sqrt((k4 + 2.0 * k2**2) / n_draws)


class BasisDraws:
    """A stand-in pulse-noise stream whose exponentials are unit vectors:
    pulse j's draw is 1 at index j of every waveform's width values and 0
    elsewhere, so a simulator's table row j holds each waveform's j-th
    coefficient."""

    def standard_exponential(self, shape):
        pulses, k, width = shape
        return np.broadcast_to(np.eye(width)[:pulses, None, :], shape).copy()


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_pulse_noise_table_has_the_closed_form_moments_of_the_map(doppler):
    # each pulse power is sum_i c_i E_i, linear in the exponentials, so unit
    # draws read the coefficients c_i: the mean sum c_i and the variance
    # sum c_i^2 equal noise_var tr(R^T R) and 2 noise_var^2 tr((R^T R)^2)
    width = 2 * WINDOW_HALF + 1
    catalog = default_catalog()
    inst = replace(default_instance(seed=54), trajectory=np.ones(width, dtype=int))
    config = replace(SCENE, doppler=doppler)
    sim = simulator(config, inst, np.random.default_rng(55), BasisDraws())
    coefficients = np.array(sim._pulse_noise)
    assert coefficients.shape == (width, len(catalog))
    for env, c in zip(catalog, coefficients.T):
        unit = oracles.unit_noise_map(env)
        gram = inst.noise_var * (unit.T @ unit)
        assert np.sum(c) == pytest.approx(np.trace(gram), rel=1e-12)
        assert np.sum(c**2) == pytest.approx(2.0 * np.trace(gram @ gram), rel=1e-12)


def test_pulse_noise_table_equals_the_eigen_form():
    # no clutter echo, so each realized SINR is the peak over the pulse's
    # noise power, drawn one pulse at a time in the eigen form from the
    # same stream; the oracle powers are the eigen form too
    inst = default_instance(seed=52, n_cpis=STACK_BLOCK + 9)
    inst = replace(inst, clutter_ir=np.zeros_like(inst.clutter_ir))
    catalog = default_catalog()
    sim = simulator(
        replace(SCENE, n_oracle_draws=129), inst, np.random.default_rng(53),
        np.random.default_rng(56),
    )
    np.testing.assert_allclose(
        sim._noise,
        oracles.eigen_oracle_noise(inst, catalog, np.random.default_rng(53), 129),
        rtol=1e-12,
    )
    pulse_noise = oracles.pulse_noise_table(
        inst, catalog, np.random.default_rng(56), inst.trajectory.size
    )
    assert np.array(sim._pulse_noise).tobytes() == pulse_noise.tobytes()
    for cpi in range(inst.trajectory.size):
        for i in range(len(catalog)):
            step = sim.step(cpi, 0, i)
            assert step < SINR_CAP
            assert step == pytest.approx(sim._sig[i] / pulse_noise[cpi, i], rel=1e-12)
