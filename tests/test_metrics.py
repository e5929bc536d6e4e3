from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wavesel import harness, metrics
from wavesel.bandit import TrackResult
from wavesel.errors import IndexOutOfRange, InvalidInput
from wavesel.fstc import SINR_CAP
from wavesel.gaussmath import kl_gaussian
from wavesel.harness import ExperimentConfig, build_scene
from wavesel.meta import MetaPosterior
from wavesel.metrics import (
    KL_REFERENCE_VAR,
    OUTAGE_DB,
    BoundInputs,
    kl_trace,
    pac_bayes_meta,
    pac_bayes_single,
    sinr_to_db,
    track_record,
)

from oracles import block_runs, regret_increment


def make_track(sinr, suboptimal=None, regret=None) -> TrackResult:
    """One track's result with the given linear SINRs, suboptimal flags and
    regret increments, and zeros elsewhere."""
    sinr = np.asarray(sinr, dtype=float)
    n = sinr.size
    return TrackResult(
        state=np.zeros(n, dtype=int),
        obs=np.zeros(n, dtype=int),
        waveform=np.zeros(n, dtype=int),
        sinr=sinr,
        loss=np.zeros(n),
        oracle_loss=np.zeros(n),
        regret_inc=np.zeros(n) if regret is None else np.asarray(regret, dtype=float),
        suboptimal=np.zeros(n, dtype=bool) if suboptimal is None
        else np.asarray(suboptimal, dtype=bool),
    )


def from_db(sinr_db) -> np.ndarray:
    return 10.0 ** (np.asarray(sinr_db, dtype=float) / 10.0)


def run_on(tmp_path, monkeypatch, *tracks):
    """``harness.run`` of the oracle policy, which reads no meta belief, with
    the given track results in place of simulated ones: (summary, the CPI
    file's lines)."""

    def given_tracks(config, mu_star, state_proc, policies, seed):
        for t, track in enumerate(tracks):
            yield "ts-oracle", t, track, None

    monkeypatch.setattr(harness, "run_meta_experiment", given_tracks)
    config = replace(
        ExperimentConfig(), m=len(tracks), n=tracks[0].loss.size, seeds=(0,),
        out_dir=str(tmp_path),
    )
    summary = harness.run(config, "ts-oracle", 0)
    path = harness.cpi_csv_path(str(tmp_path), "ts-oracle", 0)
    with open(path, encoding="utf-8") as fh:
        return summary, fh.read().splitlines()


# ---------------------------------------------------------------------------
# regret oracle: the arithmetic the track loop's regret_inc is checked against


def test_regret_zero_for_best_choice():
    assert regret_increment(np.array([0.1, 0.8, 0.3]), 1) == 0.0


def test_regret_gap_arithmetic():
    assert regret_increment(np.array([0.3, 0.7]), 0) == pytest.approx(0.4)


def test_regret_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        regret_increment(np.array([0.3, 0.7]), 2)


# ---------------------------------------------------------------------------
# frequencies: the per-track summary columns ``harness.run`` reduces from
# each track's record


def test_outage_zero_at_cap(tmp_path, monkeypatch):
    summary, _ = run_on(tmp_path, monkeypatch, make_track(np.full(6, SINR_CAP)))
    assert summary.outage_freq.tolist() == [0.0]


def test_outage_counting(tmp_path, monkeypatch):
    track = make_track(from_db([5.0, 15.0, 9.0, 20.0]))
    summary, _ = run_on(tmp_path, monkeypatch, track)
    assert summary.outage_freq.tolist() == [0.5]


def test_suboptimal_zero_for_oracle_replay(tmp_path, monkeypatch):
    summary, _ = run_on(tmp_path, monkeypatch, make_track(from_db(np.full(5, 20.0))))
    assert summary.subopt_freq.tolist() == [0.0]


def test_suboptimal_single_wrong_choice(tmp_path, monkeypatch):
    track = make_track(from_db([8.0]), suboptimal=[True], regret=[0.2])
    summary, _ = run_on(tmp_path, monkeypatch, track)
    assert summary.subopt_freq.tolist() == [1.0]
    assert summary.cum_regret.tolist() == [0.2]


def test_suboptimal_uniform_random_rate(tmp_path, monkeypatch):
    # With a unique best arm every pulse, a uniform chooser among K = 5 is
    # wrong with probability exactly 4/5.
    rng = np.random.default_rng(0)
    n = 20_000
    flags = np.empty(n, dtype=bool)
    for k in range(n):
        expected = rng.random(5)
        chosen = int(rng.integers(5))
        flags[k] = expected[chosen] < np.max(expected) - 1e-12
    summary, _ = run_on(tmp_path, monkeypatch, make_track(np.zeros(n), suboptimal=flags))
    assert abs(summary.subopt_freq[0] - 0.8) < 0.02


def test_frequencies_concatenate_multiple_records(tmp_path, monkeypatch):
    # each track's record gives that track's frequencies
    a = make_track(from_db([5.0, 15.0]), suboptimal=[True, True])
    b = make_track(from_db([20.0, 25.0]))
    summary, _ = run_on(tmp_path, monkeypatch, a, b)
    assert summary.outage_freq.tolist() == [0.5, 0.0]
    assert summary.subopt_freq.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# the per-track record check


def test_track_record_rejects_negative_regret(tmp_path, monkeypatch):
    track = make_track(from_db([10.0, 10.0]), regret=[0.0, -1e-6])
    with pytest.raises(InvalidInput):
        track_record(track)
    # checked as the track streams: the replicate writes no file
    with pytest.raises(InvalidInput):
        run_on(tmp_path, monkeypatch, make_track(from_db([10.0, 10.0])), track)
    assert not list(tmp_path.iterdir())
    ok = make_track(from_db([10.0, 10.0]), regret=[0.0, -1e-13])
    assert track_record(ok) is ok


def test_track_record_flags_outage_below_threshold(tmp_path, monkeypatch):
    track = make_track(from_db([OUTAGE_DB - 1.0, OUTAGE_DB, OUTAGE_DB + 1.0]))
    summary, lines = run_on(tmp_path, monkeypatch, track)
    assert [line.split(",")[-1] for line in lines[1:]] == ["1", "0", "0"]
    assert summary.outage_freq.tolist() == [1 / 3]


def test_sinr_to_db_floors_zero():
    assert sinr_to_db(0.0) == -300.0
    assert sinr_to_db(1.0) == 0.0


# ---------------------------------------------------------------------------
# KL trace


def test_kl_trace_zero_at_reference():
    mu_star = np.array([-0.3, 0.2, 0.8])
    mp = MetaPosterior(mu_star, np.sqrt(KL_REFERENCE_VAR) * np.eye(3), 0.35, 0.33)
    assert abs(kl_trace(mp, mu_star)) < 1e-12


def test_kl_trace_finite_nonnegative():
    cfg = replace(ExperimentConfig(), m=6, n=50)
    mu_star, state_proc = build_scene(cfg, 2)
    _, history = block_runs(cfg, mu_star, state_proc, ("meta-ts",), 2)[0]
    trace = np.array([kl_trace(mp, mu_star) for mp in history])
    assert trace.shape == (6,)
    assert np.all(np.isfinite(trace))
    assert np.all(trace >= 0.0)


@pytest.mark.parametrize(
    "policy, calls", [("random", 1), ("ts-uninformative", 1), ("meta-ts", 5), ("ts-oracle", 0)]
)
def test_kl_column_computes_each_distinct_belief_once(tmp_path, monkeypatch, policy, calls):
    # the flat belief, listed at every track of a policy without meta
    # level, is compared once; meta-ts lists m beliefs; ts-oracle's column
    # is zeros
    made = []

    def counting(*args):
        made.append(args)
        return kl_gaussian(*args)

    monkeypatch.setattr(metrics, "kl_gaussian", counting)
    config = replace(ExperimentConfig(), m=5, n=20, seeds=(0,), out_dir=str(tmp_path))
    summary = harness.run(config, policy, 0)
    assert len(made) == calls
    if policy == "ts-oracle":
        return
    # the column holds the divergence of each track's belief, to the bit
    mu_star, state_proc = build_scene(config, 0)
    _, history = block_runs(config, mu_star, state_proc, (policy,), 0)[0]
    ref = (mu_star, np.sqrt(KL_REFERENCE_VAR) * np.eye(3))
    assert summary.kl_to_truth.tolist() == [kl_gaussian((mp.mu, mp.root), ref) for mp in history]


def test_a_block_takes_each_distinct_belief_kl_once(tmp_path, monkeypatch):
    # random and ts-uninformative share the flat belief, compared once for
    # the block; meta-ts's five beliefs once each, as they arrive
    made = []

    def counting(*args):
        made.append(args)
        return kl_gaussian(*args)

    monkeypatch.setattr(metrics, "kl_gaussian", counting)
    config = replace(ExperimentConfig(), m=5, n=20, seeds=(0,), out_dir=str(tmp_path))
    summaries = harness.run_block(config, config.policies, 0)
    assert len(made) == 1 + 5
    alone = {p: harness.run(config, p, 0).kl_to_truth.tolist() for p in config.policies}
    assert {s.policy: s.kl_to_truth.tolist() for s in summaries} == alone


def test_kl_trend_is_monotone_downward(synthetic_sweep):
    # Seed-averaged divergence curve of the meta policy falls essentially
    # monotonically across tracks.
    mean_curve = synthetic_sweep.curves("meta-ts", "kl_to_truth").mean(axis=0)
    rho = stats.spearmanr(np.arange(mean_curve.size), mean_curve).statistic
    assert rho < -0.8


def test_default_sweep_needs_no_cholesky_jitter(synthetic_sweep):
    # No jitter is there to rescue a factor, so the default study must keep
    # every meta root upper triangular with a positive diagonal. The KL
    # column reads that diagonal through its log-determinant: a root that
    # lost definiteness would write a non-finite or negative divergence.
    config = synthetic_sweep.config
    for policy in config.policies:
        kl = synthetic_sweep.curves(policy, "kl_to_truth")
        assert np.all(np.isfinite(kl))
        assert np.all(kl >= 0.0)
    seed = config.seeds[0]
    mu_star, state_proc = build_scene(config, seed)
    _, history = block_runs(config, mu_star, state_proc, ("meta-ts",), seed)[0]
    for mp in history:
        assert np.array_equal(mp.root, np.triu(mp.root))
        assert np.all(np.isfinite(mp.root))
        assert np.all(np.diag(mp.root) > 0.0)


# ---------------------------------------------------------------------------
# cumulative regret shape


def test_oracle_regret_rate_roughly_constant(synthetic_sweep):
    # The informed baseline keeps incurring regret at a near-constant
    # per-track rate: compare half-sweep slopes of the seed-mean curve.
    per_track = synthetic_sweep.curves("ts-oracle", "cum_regret").mean(axis=0)
    cum = np.cumsum(per_track)
    m = cum.size
    first = (cum[m // 2 - 1] - cum[0]) / (m // 2 - 1)
    second = (cum[-1] - cum[m // 2 - 1]) / (m - m // 2)
    assert second < 2.0 * first
    assert first < 2.0 * second


def test_cumulative_regret_nondecreasing(synthetic_sweep):
    for policy in synthetic_sweep.config.policies:
        per_track = synthetic_sweep.curves(policy, "cum_regret")
        assert np.all(per_track >= -1e-12)


# ---------------------------------------------------------------------------
# PAC-Bayes bounds


def test_single_task_bound_value():
    b = BoundInputs(kl_posterior_prior=0.0, m=100, delta=0.05, empirical_error=0.0)
    assert pac_bayes_single(b) == pytest.approx(
        np.sqrt(np.log(2000.0) / 198.0), abs=1e-12
    )
    assert abs(pac_bayes_single(b) - 0.19593) < 1e-4


def test_single_task_bound_collapses_for_huge_m():
    b = BoundInputs(kl_posterior_prior=0.0, m=10**9, delta=0.05,
                    empirical_error=0.37)
    assert abs(pac_bayes_single(b) - 0.37) < 1e-3


def test_single_task_bound_monotone_in_kl():
    values = [
        pac_bayes_single(BoundInputs(kl, 50, 0.05, 0.1)) for kl in (0.0, 1.0, 5.0)
    ]
    assert values[0] < values[1] < values[2]


def test_bound_inputs_validation():
    with pytest.raises(InvalidInput):
        BoundInputs(-0.1, 10)
    with pytest.raises(InvalidInput):
        BoundInputs(0.0, 1)
    with pytest.raises(InvalidInput):
        BoundInputs(0.0, 10, delta=0.0)
    with pytest.raises(InvalidInput):
        BoundInputs(0.0, 10, empirical_error=1.5)


def test_meta_bound_collapses_when_complexity_vanishes():
    tasks = [BoundInputs(0.0, 10**9, 0.05, 0.25) for _ in range(1000)]
    bound = pac_bayes_meta(tasks, 0.0, 1000, 0.05)
    assert abs(bound - 0.25) < 0.1


def test_meta_bound_symmetric_over_identical_tasks():
    task = BoundInputs(0.7, 40, 0.05, 0.2)
    bound = pac_bayes_meta([task] * 10, 0.3, 10, 0.05)
    # with identical tasks the mean over task terms equals one task term
    one_term = np.sqrt(
        (0.3 + 0.7 + np.log(2.0 * 10 * 40 / 0.05)) / (2.0 * 39)
    )
    env_term = np.sqrt((0.3 + np.log(2.0 * 10 / 0.05)) / (2.0 * 9))
    assert bound == pytest.approx(0.2 + one_term + env_term, abs=1e-12)


def test_meta_bound_spot_value_against_direct_arithmetic():
    tasks = [
        BoundInputs(0.5, 30, 0.05, 0.1),
        BoundInputs(1.2, 60, 0.05, 0.3),
        BoundInputs(0.0, 45, 0.05, 0.2),
    ]
    env_kl, n, delta = 0.8, 3, 0.1
    err = (0.1 + 0.3 + 0.2) / 3
    terms = [
        np.sqrt((0.8 + 0.5 + np.log(2 * 3 * 30 / 0.1)) / (2 * 29)),
        np.sqrt((0.8 + 1.2 + np.log(2 * 3 * 60 / 0.1)) / (2 * 59)),
        np.sqrt((0.8 + 0.0 + np.log(2 * 3 * 45 / 0.1)) / (2 * 44)),
    ]
    env_term = np.sqrt((0.8 + np.log(2 * 3 / 0.1)) / (2 * 2))
    expected = err + np.mean(terms) + env_term
    assert pac_bayes_meta(tasks, env_kl, n, delta) == pytest.approx(
        expected, abs=1e-10
    )


def test_meta_bound_validation():
    task = BoundInputs(0.0, 10)
    with pytest.raises(InvalidInput):
        pac_bayes_meta([task], 0.0, 1, 0.05)
    with pytest.raises(InvalidInput):
        pac_bayes_meta([task, task], -0.5, 2, 0.05)
    with pytest.raises(InvalidInput):
        pac_bayes_meta([task], 0.0, 2, 0.05)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_bounds_dominate_empirical_error(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    err = float(rng.random())
    single = BoundInputs(
        float(rng.uniform(0, 10)), int(rng.integers(2, 1000)), 0.05, err
    )
    assert pac_bayes_single(single) >= err
    n = int(rng.integers(2, 8))
    tasks = [
        BoundInputs(
            float(rng.uniform(0, 10)),
            int(rng.integers(2, 1000)),
            0.05,
            float(rng.random()),
        )
        for _ in range(n)
    ]
    mean_err = float(np.mean([t.empirical_error for t in tasks]))
    assert pac_bayes_meta(tasks, float(rng.uniform(0, 5)), n, 0.05) >= mean_err
