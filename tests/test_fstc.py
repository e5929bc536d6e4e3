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
    WINDOW_HALF,
    FstcInstance,
    SceneConfig,
    StateProcess,
    PhysicalTrackEnv,
    TaskDistribution,
    TrackSimulator,
    _sinr_value,
    channel_tables,
    compute_loss,
    draw_instance,
    observe,
    random_transition,
    step_state,
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


def make_task_dist(**overrides) -> TaskDistribution:
    base = dict(
        mu_star=np.array([1.2, 0.4, 0.6]),
        sigma0_sq=0.35,
        ir_kernel_scale=1.5,
        ir_taps=8,
    )
    base.update(overrides)
    return TaskDistribution(**base)


def make_scene(rng, **overrides) -> SceneConfig:
    base = dict(
        state_proc=StateProcess(random_transition(4, 2, rng), 0.1),
        state_gain=STATE_GAIN,
        noise_var=1e-3,
        grid_n=16,
        doppler=0.0,
        target_power=1.0,
        clutter_power=30.0,
    )
    base.update(overrides)
    return SceneConfig(**base)


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
    assert sp.memory == 2


def test_step_state_point_mass_row():
    row = np.zeros(3)
    row[2] = 1.0
    sp = StateProcess(np.tile(row, (3, 1)), 0.0)
    rng = np.random.default_rng(1)
    assert all(step_state(sp, [s], rng) == 2 for s in range(3))


def test_step_state_uniform_frequencies():
    sp = StateProcess(np.full((4, 4), 0.25), 0.0)
    rng = np.random.default_rng(2)
    states = []
    for _ in range(100_000):
        states.append(step_state(sp, states, rng))
    counts = Counter(states)
    for s in range(4):
        assert abs(counts[s] / len(states) - 0.25) < 0.01


def test_step_state_memory_bound():
    # With memory 2 the next state depends on the last state only, so the
    # empirical conditionals given (s_{k-2}, s_{k-1}) must match those given
    # s_{k-1} alone.
    sp = StateProcess(random_transition(4, 2, np.random.default_rng(3)), 0.0)
    rng = np.random.default_rng(4)
    states = []
    for _ in range(300_000):
        states.append(step_state(sp, states, rng))
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
    """A state process, some history and a stream seed. Rows are drawn as
    small integer weights, so exact zeros (repeated running sums) occur."""
    n_states = draw(st.integers(1, 5))
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
    history = draw(st.lists(st.integers(0, n_states - 1), max_size=6))
    return StateProcess(transition, 0.0), history, draw(st.integers(0, 2**32 - 1))


@given(chains())
@settings(max_examples=150, deadline=None)
def test_step_state_equals_running_sum_search(chain):
    sp, history, seed = chain
    fast, slow = list(history), list(history)
    rng_fast, rng_slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(30):
        fast.append(step_state(sp, fast, rng_fast))
        slow.append(oracles.step_state(sp, slow, rng_slow))
    assert fast == slow


def test_step_state_equals_running_sum_search_on_dirichlet_rows():
    for seed, (n_states, memory) in enumerate([(4, 2), (3, 3), (6, 1), (2, 4)]):
        sp = StateProcess(
            random_transition(n_states, memory, np.random.default_rng(seed)), 0.0
        )
        fast, slow = [], []
        rng_fast, rng_slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            fast.append(step_state(sp, fast, rng_fast))
            slow.append(oracles.step_state(sp, slow, rng_slow))
        assert fast == slow


def test_step_state_rejects_history_outside_the_states():
    # the package's histories are step_state's own states; no row is kept
    # for any other, so a foreign history fails the lookup
    sp = StateProcess(np.full((3, 3), 1.0 / 3.0), 0.0)
    with pytest.raises(KeyError):
        step_state(sp, [3], np.random.default_rng(0))


@given(st.floats(allow_nan=True, allow_infinity=True))
@example(-0.0)
@example(0.0)
@example(float("nan"))
@example(-5e-324)
@example(1.0 + 2.0**-52)
def test_unit_clip_is_np_clip_to_the_bit(x):
    expected = np.float64(np.clip(x, 0.0, 1.0))
    assert np.float64(unit_clip(x)).tobytes() == expected.tobytes()


def test_observe_noiseless():
    sp = StateProcess(np.full((4, 4), 0.25), 0.0)
    rng = np.random.default_rng(5)
    assert all(observe(sp, s, rng) == s for s in range(4))


def test_observe_flip_rate():
    sp = StateProcess(np.full((4, 4), 0.25), 0.1)
    rng = np.random.default_rng(6)
    hits = sum(observe(sp, 2, rng) == 2 for _ in range(100_000))
    assert abs(hits / 100_000 - 0.9) < 0.01


def test_observe_full_entropy_kernel():
    sp = StateProcess(np.full((4, 4), 0.25), 0.75)
    rng = np.random.default_rng(7)
    counts = Counter(observe(sp, 1, rng) for _ in range(100_000))
    for s in range(4):
        assert abs(counts[s] / 100_000 - 0.25) < 0.01


# ---------------------------------------------------------------------------
# instance draws


def test_degenerate_prior_pins_theta():
    dist = make_task_dist(sigma0_sq=1e-30)
    scene = make_scene(np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for _ in range(5):
        inst = draw_instance(dist, scene, 3, rng)
        np.testing.assert_allclose(inst.theta, dist.mu_star, atol=1e-10)


def test_theta_moments_match_task_distribution():
    dist = make_task_dist()
    scene = make_scene(np.random.default_rng(10))
    rng = np.random.default_rng(11)
    thetas = np.array(
        [draw_instance(dist, scene, 1, rng).theta for _ in range(10_000)]
    )
    assert np.max(np.abs(thetas.mean(axis=0) - dist.mu_star)) < 0.05
    var = thetas.var(axis=0)
    assert np.all(np.abs(var - dist.sigma0_sq) < 0.1 * dist.sigma0_sq)


def test_large_kernel_scale_flattens_taps():
    # neighbor correlation at scale s is 1 - (lag/s)^2, so the residual
    # spread over 8 taps is of order amplitude * taps/s: ~1e-5 here
    dist = make_task_dist(ir_kernel_scale=1e6)
    scene = make_scene(np.random.default_rng(12))
    inst = draw_instance(dist, scene, 1, np.random.default_rng(13))
    spread = np.max(np.abs(inst.target_ir - inst.target_ir[0]))
    assert spread < 1e-4 * np.max(np.abs(inst.target_ir))


def test_trajectory_stays_on_grid():
    dist = make_task_dist()
    scene = make_scene(np.random.default_rng(14))
    inst = draw_instance(dist, scene, 500, np.random.default_rng(15))
    assert inst.trajectory.shape == (500,)
    assert inst.trajectory.min() >= 1
    assert inst.trajectory.max() <= scene.grid_n
    assert np.all(np.abs(np.diff(inst.trajectory)) <= 1)


@pytest.mark.parametrize("grid_n", [1, 3, 64])
@pytest.mark.parametrize("n_cpis", [1, 200])
def test_trajectory_equals_the_interleaved_walk(grid_n, n_cpis):
    # the walk draws its 2n steps in one call; the values, and where it
    # leaves the stream, must be those of 2n single draws
    dist = make_task_dist()
    scene = make_scene(np.random.default_rng(14), grid_n=grid_n)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = draw_instance(dist, scene, n_cpis, rng)
        ref = np.random.default_rng(seed)
        ref.standard_normal(3)
        for _ in range(4):
            ref.standard_normal(dist.ir_taps)
        expected = oracles.interleaved_walk(grid_n, n_cpis, ref)
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
    # build_scene takes the task distribution's mean from the config, which
    # refuses any other shape, naming the key
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
    inst: FstcInstance,
    s: int,
    w: ComplexEnvelope,
    cpi: int,
    rng: np.random.Generator,
    doppler: float = 0.0,
):
    """Simulate one pulse: returns (post-processing SINR, received samples).

    The direct simulation that ``TrackSimulator`` must agree with: the
    target echo is placed at the trajectory's current delay cell and carries
    the Doppler ramp; the clutter return spans the scene at zero delay and is
    static; white noise covers the whole canvas. SINR is the target's
    matched-filter peak power over the mean clutter-plus-noise power in the
    window of lags around that peak.
    """
    if not 0 <= s < inst.state_proc.n_states:
        raise InvalidInput(f"state {s} outside [0, {inst.state_proc.n_states})")
    if not 0 <= cpi < len(inst.trajectory):
        raise IndexOutOfRange(
            f"cpi {cpi} outside trajectory of length {len(inst.trajectory)}"
        )

    delay = int(inst.trajectory[cpi]) - 1
    refl_t = reflected(w, inst.target_ir, doppler)
    refl_c = reflected(w, inst.clutter_ir, 0.0)
    clen = canvas_len(refl_t.size, inst.grid_n)

    target = place(clen, refl_t, _BASE + delay)
    clutter = place(clen, np.sqrt(inst.state_gain[s]) * refl_c, _BASE)
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
    dist = make_task_dist()
    scene = make_scene(np.random.default_rng(seed))
    return draw_instance(dist, scene, n_cpis, np.random.default_rng(seed + 1))


def test_receive_caps_in_noise_free_corner():
    inst = default_instance()
    clean = replace(
        inst,
        clutter_ir=np.zeros_like(inst.clutter_ir),
        noise_var=1e-30,
    )
    w = default_catalog()[0]
    sinr, _ = receive(clean, 0, w, 0, np.random.default_rng(17))
    assert sinr == SINR_CAP


def test_receive_snr_of_impulse_channel():
    sp = StateProcess(np.array([1.0]), 0.0)
    inst = FstcInstance(
        theta=np.zeros(3),
        target_ir=np.array([1.0 + 0.0j]),
        clutter_ir=np.array([0.0 + 0.0j]),
        state_proc=sp,
        noise_var=0.01,
        state_gain=np.array([1.0]),
        trajectory=np.array([1]),
        grid_n=4,
    )
    w = catalog_envelope("zc-1024")
    rng = np.random.default_rng(18)
    sinrs = [receive(inst, 0, w, 0, rng)[0] for _ in range(1000)]
    mean_db = 10.0 * np.log10(np.mean(sinrs))
    assert abs(mean_db - 20.0) < 0.5


def test_state_gain_scales_clutter_power_exactly():
    inst = default_instance()
    silent = replace(
        inst,
        target_ir=np.zeros_like(inst.target_ir),
        noise_var=1e-30,
        state_gain=np.array([1.0, 2.0, 4.0, 8.0]),
    )
    w = default_catalog()[1]
    _, rx1 = receive(silent, 0, w, 0, np.random.default_rng(19))
    _, rx2 = receive(silent, 1, w, 0, np.random.default_rng(19))
    p1 = float(np.sum(np.abs(rx1) ** 2))
    p2 = float(np.sum(np.abs(rx2) ** 2))
    assert abs(p2 - 2.0 * p1) < 1e-12 * p1


def test_stronger_clutter_state_lowers_sinr():
    inst = default_instance()
    w = default_catalog()[0]
    s_low, _ = receive(inst, 0, w, 0, np.random.default_rng(20))
    s_high, _ = receive(inst, 3, w, 0, np.random.default_rng(20))
    assert s_high < s_low


def test_receive_is_deterministic():
    inst = default_instance()
    w = default_catalog()[2]
    a, rx_a = receive(inst, 1, w, 0, np.random.default_rng(21))
    b, rx_b = receive(inst, 1, w, 0, np.random.default_rng(21))
    assert a == b
    np.testing.assert_array_equal(rx_a, rx_b)


def test_receive_sinr_always_valid():
    inst = default_instance(n_cpis=8)
    rng = np.random.default_rng(22)
    for w in default_catalog():
        for cpi in range(8):
            sinr, _ = receive(inst, int(rng.integers(4)), w, cpi, rng)
            assert np.isfinite(sinr)
            assert 0.0 < sinr <= SINR_CAP


def test_receive_rejects_bad_indices():
    inst = default_instance()
    w = default_catalog()[0]
    with pytest.raises(InvalidInput):
        receive(inst, 9, w, 0, np.random.default_rng(0))
    with pytest.raises(IndexOutOfRange):
        receive(inst, 0, w, 99, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# fast per-track simulator


def test_simulator_agrees_with_receive_monte_carlo():
    inst = default_instance(seed=24)
    catalog = default_catalog()
    sinr_target = 10.0 ** (12.0 / 10.0)
    s, cpi, trials = 2, 0, 1000

    mc_loss = np.empty(len(catalog))
    rng = np.random.default_rng(25)
    for i, w in enumerate(catalog):
        losses = [
            min(max(receive(inst, s, w, cpi, rng)[0] / sinr_target, 0.0), 1.0)
            for _ in range(trials)
        ]
        mc_loss[i] = np.mean(losses)

    refined = simulator(inst, np.random.default_rng(26), 10_000)
    assert np.max(np.abs(refined.expected_losses(cpi, s, sinr_target) - mc_loss)) < 0.02

    coarse = simulator(inst, np.random.default_rng(27), 64)
    exp64 = coarse.expected_losses(cpi, s, sinr_target)
    exp_ref = refined.expected_losses(cpi, s, sinr_target)
    for chosen in range(len(catalog)):
        inc64 = regret_increment(exp64, chosen)
        inc_ref = regret_increment(exp_ref, chosen)
        assert abs(inc64 - inc_ref) < 0.02

    step_rng = np.random.default_rng(28)
    step_loss = np.mean(
        [
            min(max(coarse.step(cpi, s, 0, step_rng) / sinr_target, 0.0), 1.0)
            for _ in range(trials)
        ]
    )
    assert abs(step_loss - mc_loss[0]) < 0.02


def test_expected_losses_deterministic_per_episode():
    inst = default_instance(seed=29)
    sim = simulator(inst, np.random.default_rng(30), 64)
    a = sim.expected_losses(0, 1, 15.8)
    b = sim.expected_losses(0, 1, 15.8)
    np.testing.assert_array_equal(a, b)


def test_physical_env_walks_the_instance_chain_and_maps_sinr_to_loss():
    inst = default_instance(seed=31)
    sim = simulator(inst, np.random.default_rng(32), 64)
    env = PhysicalTrackEnv(sim, 15.8)
    assert env.state_proc is inst.state_proc
    for w_idx in range(len(default_catalog())):
        loss, sinr = env.realize(0, 1, w_idx, None, np.random.default_rng(33))
        assert sinr == sim.step(0, 1, w_idx, np.random.default_rng(33))
        assert loss == compute_loss(sinr, 15.8)


def window_powers(
    inst: FstcInstance, w: ComplexEnvelope, delay: int, doppler: float = 0.0
):
    """Per-waveform oracle of the simulator's deterministic terms: the
    target's matched-filter peak power and the mean clutter power in the
    window around the peak shifted by ``delay``, from the canvas helpers and
    the same prefix sums the simulator uses."""
    refl_t = reflected(w, inst.target_ir, doppler)
    refl_c = reflected(w, inst.clutter_ir, 0.0)
    clen = canvas_len(refl_t.size, inst.grid_n)
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
    return replace(inst, trajectory=np.array([1, inst.grid_n, 5]))


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_simulator_terms_equal_per_waveform_oracle(doppler):
    # The oracle filters the placed echo with ``matched_filter`` and draws
    # the noise in the complex form from the track's own factor; the
    # simulator convolves the tables' correlations with the taps and scales
    # the unit noise map, so the two agree to rounding, not to the bit.
    inst = edge_instance(40)
    catalog = default_catalog()
    sim = simulator(inst, np.random.default_rng(41), 129, doppler=doppler)
    noise = oracles.complex_oracle_noise(inst, catalog, np.random.default_rng(41), 129)
    factors = [oracles.noise_factor(inst.noise_var, w) for w in catalog]
    sinr_target = 15.8
    for cpi, cell in enumerate(inst.trajectory):
        delay = int(cell) - 1
        powers = [window_powers(inst, w, delay, doppler) for w in catalog]
        for s in range(inst.state_proc.n_states):
            gain = float(inst.state_gain[s])
            expected = np.empty(len(catalog))
            for i, (sig, clutter) in enumerate(powers):
                sinr = np.minimum(sig / (gain * clutter + noise[i]), SINR_CAP)
                expected[i] = np.mean(np.clip(sinr / sinr_target, 0.0, 1.0))
            np.testing.assert_allclose(
                sim.expected_losses(cpi, s, sinr_target), expected, rtol=1e-12
            )
            for i, (sig, clutter) in enumerate(powers):
                p_n = oracles.complex_noise_power(factors[i], np.random.default_rng(42))
                step = sim.step(cpi, s, i, np.random.default_rng(42))
                assert step == pytest.approx(
                    _sinr_value(sig, gain * clutter + p_n), rel=1e-12
                )


def test_clutter_table_equals_oracle_where_the_window_clips():
    # With no target echo the matched-filter peak falls at lag 0, so the
    # window clips at the low edge for the first WINDOW_HALF delay cells.
    inst = edge_instance(43)
    inst = replace(inst, target_ir=np.zeros_like(inst.target_ir))
    catalog = default_catalog(k=2)
    sim = simulator(inst, np.random.default_rng(44), 1, k=2)
    assert sim._clutter.shape == (inst.grid_n, len(catalog))
    for delay in range(inst.grid_n):
        for i, w in enumerate(catalog):
            sig, clutter = window_powers(inst, w, delay)
            assert sig == sim._sig[i] == 0.0
            assert sim._clutter[delay, i] == pytest.approx(clutter, rel=1e-12)


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
                clen = canvas_len(refl.size, inst.grid_n)
                expected = matched_filter(w, place(clen, refl, _BASE))
                got = place(expected.size, responses[row], _BASE)
                peak = np.max(np.abs(expected))
                assert np.max(np.abs(got - expected)) <= 1e-12 * peak
                assert np.argmax(np.abs(got)) == np.argmax(np.abs(expected))


@pytest.mark.parametrize("doppler", [0.0, 0.7])
def test_track_draw_and_build_factor_and_filter_nothing(monkeypatch, doppler):
    # per track, the draw reads the task distribution's kept tap root and
    # the build reads the replicate's tables: no eigendecomposition,
    # factor, Toeplitz matrix, convolution, correlation or matched filter
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in (
        (np.linalg, "cholesky"), (np.linalg, "eigh"), (np, "convolve"),
        (np, "correlate"), (fstc, "hermitian_toeplitz"), (fstc, "matched_filter"),
    ):
        count(owner, name)
    dist = make_task_dist()
    scene = make_scene(np.random.default_rng(60), doppler=doppler)
    tables = channel_tables(default_catalog(), dist.ir_taps, doppler)
    assert dist.tap_root.shape == (dist.ir_taps, dist.ir_taps)
    # the counters see what the replicate builds once; the correlation
    # count is left out, as the kept autocorrelations make it depend on
    # what ran before in the process
    assert (calls["eigh"], calls["cholesky"], calls["hermitian_toeplitz"]) == (1, 5, 5)
    assert calls["matched_filter"] == (5 if doppler else 0)
    calls.clear()
    rng = np.random.default_rng(61)
    for track in range(3):
        inst = draw_instance(dist, scene, 50, rng)
        TrackSimulator(inst, tables, np.random.default_rng(track), 64)
    assert calls == Counter()


def test_table_windows_are_read_only():
    tables = channel_tables(default_catalog(), 8, 0.7)
    with pytest.raises(ValueError):
        tables.windows[0][0, 0, 0] = 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_draw_of_2w_normals_equals_two_draws_of_w_to_the_bit(seed):
    # the real noise map reads the stream the complex form read: real parts,
    # then imaginary parts
    width = 2 * WINDOW_HALF + 1
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    step_draw = one.standard_normal(2 * width)
    pair = np.concatenate([two.standard_normal(width), two.standard_normal(width)])
    assert step_draw.tobytes() == pair.tobytes()
    for n_draws in (1, 64, 129):
        oracle_draw = one.standard_normal((2, n_draws, width))
        pair = np.stack(
            [two.standard_normal((n_draws, width)), two.standard_normal((n_draws, width))]
        )
        assert oracle_draw.tobytes() == pair.tobytes()
    # the simulator draws every waveform's oracle normals in one call
    batch = one.standard_normal((5, 2, 64, width))
    for block in batch:
        assert block.tobytes() == two.standard_normal((2, 64, width)).tobytes()
    assert one.random() == two.random()


def test_real_noise_map_equals_complex_form():
    # no clutter echo, so each realized SINR is the peak over the noise power
    inst = default_instance(seed=52)
    inst = replace(inst, clutter_ir=np.zeros_like(inst.clutter_ir))
    catalog = default_catalog()
    sim = simulator(inst, np.random.default_rng(53), 129)
    np.testing.assert_allclose(
        sim._noise,
        oracles.complex_oracle_noise(inst, catalog, np.random.default_rng(53), 129),
        rtol=1e-12,
    )
    for i, w in enumerate(catalog):
        # the map is the unit factor's real form scaled by sqrt(noise_var),
        # to the bit, and the track's own factor's real form to rounding:
        # within 1e-12 of the largest entry (entries a thousandth of it
        # differ by up to 1.3e-12 of themselves)
        unit = oracles.real_form(oracles.unit_noise_factor(w))
        assert sim._noise_map[i].tobytes() == (np.sqrt(inst.noise_var) * unit).tobytes()
        lg = oracles.noise_factor(inst.noise_var, w)
        track = oracles.real_form(lg)
        gap = np.max(np.abs(sim._noise_map[i] - track))
        assert gap <= 1e-12 * np.max(np.abs(track))
        for seed in range(40):
            step = sim.step(0, 0, i, np.random.default_rng(seed))
            p_n = oracles.complex_noise_power(lg, np.random.default_rng(seed))
            assert step < SINR_CAP
            assert step == pytest.approx(sim._sig[i] / p_n, rel=1e-12)
