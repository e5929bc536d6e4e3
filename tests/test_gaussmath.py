from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavesel import gaussmath, harness, meta
from wavesel.bandit import SyntheticTrackEnv, run_track
from wavesel.errors import NotPositiveDefinite
from wavesel.gaussmath import cholesky, kl_gaussian
from wavesel.harness import ExperimentConfig, build_scene, parse_config
from wavesel.meta import POLICIES

from oracles import (
    LinearPosterior,
    blr_update,
    exact_posterior,
    factor_matrix,
    float_posterior,
    largest_gap,
    np_cholesky,
    packed_factor,
    posterior_mean_cov,
    sample_gaussian,
    upper_root,
)


def random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


# ---------------------------------------------------------------------------
# cholesky


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_2x2_by_hand():
    L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    np.testing.assert_allclose(L, expected, atol=1e-12)


def test_cholesky_reconstructs_random_spd():
    rng = np.random.default_rng(7)
    m = random_spd(rng, 5)
    L = cholesky(m)
    assert np.max(np.abs(L @ L.T - m)) < 1e-9
    assert np.allclose(np.triu(L, 1), 0.0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def cholesky_outcome(m):
    """The factor ``gaussmath.cholesky`` returns, or None where it raises,
    in the form ``np_cholesky`` reports."""
    try:
        return cholesky(m)
    except NotPositiveDefinite:
        return None


def same_outcome(factor, ref) -> bool:
    if (factor is None) != (ref is None):
        return False
    if factor is None:
        return True
    if not factor.flags.c_contiguous or factor.shape != ref.shape:
        return False
    return factor.tobytes() == ref.tobytes()


@st.composite
def spd_matrices(draw, dims=st.integers(1, 6)):
    """D (A A^T + d I) D with entries of A in [-1, 1] and the diagonal of D
    in [1e-3, 1e3], so the diagonal of the matrix spans 1e-6 to 1e6."""
    d = draw(dims)
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)))
    a = a.reshape(d, d)
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    return (a @ a.T + d * np.eye(d)) * scale[:, None] * scale[None, :]


@settings(max_examples=400, deadline=None)
@given(spd_matrices())
def test_cholesky_equals_np_linalg_path(m):
    assert same_outcome(cholesky_outcome(m), np_cholesky(m))


def recording_cholesky(monkeypatch) -> list:
    """Route every call of ``gaussmath.cholesky``, in each namespace that
    calls it, through a wrapper; returns the list of the shapes it sees."""
    shapes = []
    original = gaussmath.cholesky

    def recording(m):
        shapes.append(np.shape(m))
        return original(m)

    for owner in (gaussmath, meta):
        monkeypatch.setattr(owner, "cholesky", recording)
    return shapes


def counted_only_under(monkeypatch, owners) -> list:
    """Route ``np.linalg.cholesky`` through a wrapper that records the shape
    of every call made outside the functions ``owners`` lists as
    (namespace, name) pairs; returns that list."""
    depth, stray = [], []
    original = np.linalg.cholesky

    def counting(m):
        if not depth:
            stray.append(np.shape(m))
        return original(m)

    def under(f):
        def wrapped(*args, **kwargs):
            depth.append(f)
            try:
                return f(*args, **kwargs)
            finally:
                depth.pop()
        return wrapped

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    for owner, name in owners:
        monkeypatch.setattr(owner, name, under(getattr(owner, name)))
    return stray


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_package_factors_only_matrices_of_dimension_at_most_4(monkeypatch, tmp_path, mode):
    # a replicate factors one matrix, the flat 3 x 3 root init_meta builds:
    # the meta draws, updates and KL column and the track loop factor
    # nothing. np.linalg.cholesky runs only under that call and under
    # fstc.channel_tables, which factors each waveform's noise window.
    shapes = recording_cholesky(monkeypatch)
    stray = counted_only_under(
        monkeypatch, [(gaussmath, "cholesky"), (meta, "cholesky"), (meta, "channel_tables")]
    )
    config = parse_config(f"mode = {mode}\nm = 2\nn = 20\nseeds = 0\nout_dir = {tmp_path}\n")
    seen = {}
    for policy in config.policies:
        shapes.clear()
        harness.run(config, policy, 0)
        seen[policy] = list(shapes)
    assert seen == dict.fromkeys(POLICIES, [(3, 3)])
    assert stray == []


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.outer([1.0, 2.0], [1.0, 2.0]),
        1e-6 * np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0]),
        np.zeros((3, 3)),
        np.array([[4.0]]),
        np.array([[-4.0]]),
        np.array([[0.0]]),
    ],
    ids=["indefinite", "rank-1", "rank-1 small", "zero", "1x1", "1x1 negative",
         "1x1 zero"],
)
def test_cholesky_edge_inputs_match_np_linalg_path(m):
    assert same_outcome(cholesky_outcome(m), np_cholesky(m))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[4.0, np.nan], [np.nan, 9.0]]),
        np.full((3, 3), np.nan),
        np.array([[np.nan]]),
        np.array([[4.0, np.nan, 0.0], [np.nan, 9.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[4.0, 0.0, 0.0], [0.0, 9.0, np.nan], [0.0, np.nan, 1.0]]),
        np.diag([1.0, 1.0, np.inf]),
    ],
    ids=["nan off-diagonal", "nan", "1x1 nan", "nan off-diagonal 3x3",
         "nan last column", "inf last pivot"],
)
def test_non_finite_inputs_raise_before_any_retry(m):
    # np.linalg.cholesky returns a NaN or infinite factor for these without
    # an error; cholesky refuses them instead
    assert cholesky_outcome(m) is None


# ---------------------------------------------------------------------------
# LinearPosterior (the array reference) construction


def test_linear_posterior_rejects_asymmetric_cov():
    with pytest.raises(NotPositiveDefinite):
        LinearPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)


def test_linear_posterior_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        LinearPosterior(np.zeros(3), np.eye(2), 1.0)


def test_linear_posterior_rejects_nonpositive_noise():
    with pytest.raises(NotPositiveDefinite):
        LinearPosterior(np.zeros(2), np.eye(2), 0.0)


# ---------------------------------------------------------------------------
# sample_gaussian, the array reference


def test_sample_degenerate_cov_returns_mean():
    mean = np.array([0.3, -0.7, 1.1])
    x = sample_gaussian(mean, 1e-30 * np.eye(3), np.random.default_rng(0))
    np.testing.assert_allclose(x, mean, atol=1e-10)


def test_sample_moments_match():
    rng = np.random.default_rng(11)
    draws = np.array([sample_gaussian(np.zeros(2), np.eye(2), rng) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0))) < 0.02
    emp_cov = np.cov(draws.T)
    assert np.max(np.abs(emp_cov - np.eye(2))) < 0.05


def test_sample_deterministic_across_runs():
    mean, cov = np.array([1.0, 2.0]), np.array([[2.0, 0.3], [0.3, 1.0]])
    a = sample_gaussian(mean, cov, np.random.default_rng(42))
    b = sample_gaussian(mean, cov, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# blr_update, the array reference


def test_blr_one_step_scalar():
    post = blr_update(LinearPosterior(np.zeros(1), np.eye(1), 1.0), np.array([1.0]), 1.0)
    mean, cov = posterior_mean_cov(post)
    np.testing.assert_allclose(mean, [0.5], atol=1e-12)
    np.testing.assert_allclose(cov, [[0.5]], atol=1e-12)


def test_blr_uninformative_observation_keeps_prior():
    prior_mean = np.array([0.4, -0.2])
    prior_cov = np.array([[1.5, 0.2], [0.2, 0.9]])
    post = blr_update(LinearPosterior(prior_mean, prior_cov, 1e12), np.array([1.0, 1.0]), 0.7)
    mean, cov = posterior_mean_cov(post)
    np.testing.assert_allclose(mean, prior_mean, atol=1e-9)
    np.testing.assert_allclose(cov, prior_cov, atol=1e-9)


def test_blr_sequential_matches_batch_normal_equations():
    rng = np.random.default_rng(3)
    d, n, noise_var, prior_var = 2, 6, 0.2, 2.0
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    post = LinearPosterior(np.zeros(d), prior_var * np.eye(d), noise_var)
    for phi, ell in zip(X, y):
        post = blr_update(post, phi, float(ell))
    mean, cov = posterior_mean_cov(post)
    prec = np.eye(d) / prior_var + X.T @ X / noise_var
    batch_mean = np.linalg.solve(prec, X.T @ y / noise_var)
    np.testing.assert_allclose(mean, batch_mean, atol=1e-10)
    np.testing.assert_allclose(cov, np.linalg.inv(prec), atol=1e-10)


def test_blr_rejects_wrong_context_dim():
    post = LinearPosterior(np.zeros(3), np.eye(3), 0.1)
    with pytest.raises(ValueError):
        blr_update(post, np.array([1.0, 2.0]), 0.5)


def test_blr_updates_in_place_and_copies_inputs():
    mean = np.array([0.2, -0.1])
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    post = LinearPosterior(mean, cov, 0.5)
    assert not np.shares_memory(post.mean, mean)
    assert not np.shares_memory(post.cov, cov)
    phi = np.array([1.0, -1.0])
    k = cov @ phi
    s = 0.5 + float(phi @ k)
    expected_mean = mean + k * ((0.3 - float(phi @ mean)) / s)
    expected_cov = cov - np.outer(k, k) / s
    assert blr_update(post, phi, 0.3) is post
    np.testing.assert_array_equal(post.mean, expected_mean)
    np.testing.assert_array_equal(post.cov, expected_cov)
    np.testing.assert_array_equal(post.cov, post.cov.T)
    # the caller's arrays are neither aliased nor modified
    np.testing.assert_array_equal(mean, [0.2, -0.1])
    np.testing.assert_array_equal(cov, [[1.0, 0.3], [0.3, 2.0]])
    np.testing.assert_array_equal(phi, [1.0, -1.0])


def test_moment_views_are_copies():
    prior_mean, prior_cov = np.array([0.1, 0.2]), 2.0 * np.eye(2)
    post = LinearPosterior(prior_mean, prior_cov, 0.5)
    mean, cov = posterior_mean_cov(post)
    blr_update(post, np.array([1.0, 0.5]), 0.9)
    np.testing.assert_array_equal(mean, prior_mean)
    np.testing.assert_array_equal(cov, prior_cov)


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_blr_update_order_does_not_matter(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    d, n = 3, 8
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    forward = LinearPosterior(np.zeros(d), np.eye(d), 0.3)
    for i in range(n):
        blr_update(forward, X[i], float(y[i]))
    shuffled = LinearPosterior(np.zeros(d), np.eye(d), 0.3)
    for i in rng.permutation(n):
        blr_update(shuffled, X[i], float(y[i]))
    np.testing.assert_allclose(forward.mean, shuffled.mean, atol=1e-9)
    np.testing.assert_allclose(forward.cov, shuffled.cov, atol=1e-9)


def synthetic_streams() -> tuple:
    """The walk and noise streams of the synthetic tracks below."""
    return np.random.default_rng((0, 1)), np.random.default_rng((0, 2))


def test_blr_long_track_matches_batch_normal_equations():
    # 3000 rank-1 factor updates on the contexts a Thompson track actually
    # visits (correlated, a few distinct values per cell); the posterior
    # precision ends near 1e4 along the best-observed direction.
    cfg = ExperimentConfig()
    mu_star, state_proc = build_scene(cfg, 0)
    env = SyntheticTrackEnv(
        mu_star, state_proc, cfg.sigma_sq, 15.8, 3000, *synthetic_streams()
    )
    prior_var = cfg.sigma_q_sq + cfg.sigma0_sq
    result, agent = run_track(
        env, (np.zeros(3), prior_var), cfg.sigma_sq, 3000, cfg.k, np.random.default_rng(0)
    )
    X, y = np.array(agent.scored), result.loss
    mean, cov = float_posterior(agent.posterior)
    prec = np.eye(3) / prior_var + X.T @ X / cfg.sigma_sq
    batch_mean = np.linalg.solve(prec, X.T @ y / cfg.sigma_sq)
    batch_cov = np.linalg.inv(prec)
    assert np.max(np.abs(mean - batch_mean)) < 1e-10 * np.max(np.abs(batch_mean))
    assert np.max(np.abs(cov - batch_cov)) < 1e-10 * np.max(np.abs(batch_cov))
    assert np.linalg.eigvalsh(cov).min() > 0.0


def test_blr_variance_contracts_along_context():
    phi = np.array([0.6, -0.8])
    post = LinearPosterior(np.zeros(2), 4.0 * np.eye(2), 0.5)
    variances = []
    for _ in range(10):
        _, cov = posterior_mean_cov(post)
        variances.append(float(phi @ cov @ phi))
        post = blr_update(post, phi, 0.1)
    assert all(b < a for a, b in zip(variances, variances[1:]))


# ---------------------------------------------------------------------------
# kl_gaussian


def rooted(mean, cov) -> tuple:
    """The (mean, lower Cholesky factor) pair ``kl_gaussian`` reads."""
    return np.asarray(mean, dtype=float), np.linalg.cholesky(cov)


def test_kl_identical_is_zero():
    g = rooted([0.2, -1.0], [[1.2, 0.4], [0.4, 2.0]])
    assert abs(kl_gaussian(g, g)) < 1e-12


def test_kl_unit_mean_shift_scalar():
    # (q, p, the 1-d closed form 0.5 [vq/vp + (mp - mq)^2/vp - 1 + ln(vp/vq)])
    cases = (
        ((np.zeros(1), np.eye(1)), (np.ones(1), np.eye(1)), 0.5),
        (
            (np.array([0.3]), np.array([[0.7]])),
            (np.array([-0.2]), np.array([[1.9]])),
            0.5 * (0.7 / 1.9 + 0.5**2 / 1.9 - 1.0 + np.log(1.9 / 0.7)),
        ),
    )
    for q, p, by_hand in cases:
        assert abs(kl_gaussian(rooted(*q), rooted(*p)) - by_hand) < 1e-12


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(19)
    q = rng.standard_normal(3), random_spd(rng, 3) / 3.0
    p = rng.standard_normal(3), random_spd(rng, 3) / 3.0
    closed = kl_gaussian(rooted(*q), rooted(*p))

    def logpdf(x, g):
        mean, cov = g
        L = cholesky(cov)
        w = np.linalg.solve(L, (x - mean).T)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        return -0.5 * (np.sum(w * w, axis=0) + logdet + mean.size * np.log(2 * np.pi))

    Lq = cholesky(q[1])
    draws = q[0] + rng.standard_normal((1_000_000, 3)) @ Lq.T
    mc = float(np.mean(logpdf(draws, q) - logpdf(draws, p)))
    assert abs(closed - mc) < 0.01 * max(closed, 1e-9)


def test_kl_reads_an_upper_root_as_its_covariance():
    # the meta belief hands over its upper root U; any root of the same
    # covariance gives the same divergence
    rng = np.random.default_rng(23)
    q = rng.standard_normal(3), random_spd(rng, 3)
    p = rng.standard_normal(3), random_spd(rng, 3)
    lower = kl_gaussian(rooted(*q), rooted(*p))
    upper = kl_gaussian((q[0], upper_root(q[1])), (p[0], upper_root(p[1])))
    assert abs(upper - lower) <= 1e-13 * lower


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    d = int(rng.integers(1, 5))
    q = rng.standard_normal(d), random_spd(rng, d)
    p = rng.standard_normal(d), random_spd(rng, d)
    assert kl_gaussian(rooted(*q), rooted(*p)) >= -1e-12


# ---------------------------------------------------------------------------
# the float kernel: factor, draw and update against the arrays


def isotropic(mean, var) -> tuple:
    """The float posterior of the prior (mean, var)."""
    return gaussmath.posterior_gaussian((np.asarray(mean, dtype=float), var))


def updated(prior_mean, prior_var, noise_var, phis, losses) -> tuple:
    """The float posterior after ``gaussmath.blr_update`` folds in each
    (phi, loss) in turn."""
    post = isotropic(prior_mean, prior_var)
    for phi, loss in zip(phis.tolist(), losses.tolist()):
        post = gaussmath.blr_update(post, math.sqrt(noise_var), phi, loss)
    return post


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 2.0), st.randoms(use_true_random=False))
def test_float_factor_matches_np_linalg_cholesky(log_var, pyrandom):
    # the updated factor is lower triangular with a positive diagonal, so it
    # is the Cholesky factor of its posterior covariance: draws read the
    # factor a per-CPI factorization of that covariance would give
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    n = int(rng.integers(1, 300))
    phis, losses = rng.random((n, 3)), rng.random(n)
    noise_var = float(rng.uniform(0.01, 2.0))
    _, factor = updated(np.zeros(3), 10.0 ** log_var, noise_var, phis, losses)
    post = LinearPosterior(np.zeros(3), 10.0 ** log_var * np.eye(3), noise_var)
    for phi, loss in zip(phis, losses):
        blr_update(post, phi, float(loss))
    ref = np.linalg.cholesky(post.cov)
    assert largest_gap(factor_matrix(factor), ref) <= 1e-12


#: Prior variances up to which a float posterior is held to a reference
#: within 1e-12. The array update cancels about eps * var / noise_var (its
#: gap to the exact posterior reached 3e-11 at 1e4); the float update's
#: f = L^T phi cancels about eps * sqrt(var), which shows first in the mean
#: (3e-12 of its scale at 1e12) and later in L L^T (2.5e-2 at 1e90).
ARRAY_MAX_VAR = 1e2
MEAN_MAX_VAR = 1e8
COV_MAX_VAR = 1e16


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-30.0, 300.0),
    st.integers(0, 200),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example(-30.0, 200, False, random.Random(0))
@example(16.0, 200, True, random.Random(1))
@example(300.0, 200, True, random.Random(2))
@example(300.0, 0, False, random.Random(3))
def test_float_update_matches_the_array_update(log_var, n, on_grid, pyrandom):
    # contexts in [0, 1]^3, on a coarse grid when on_grid, so that contexts
    # repeat as cold cells do. At every prior variance the factor stays
    # finite with a positive diagonal; the exact rational posterior referees
    # it up to COV_MAX_VAR, the array update up to ARRAY_MAX_VAR.
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    var, noise_var = 10.0 ** log_var, float(rng.uniform(0.01, 2.0))
    prior_mean = rng.standard_normal(3)
    phis = rng.integers(0, 3, size=(n, 3)) / 2.0 if on_grid else rng.random((n, 3))
    losses = rng.random(n)
    post = updated(prior_mean, var, noise_var, phis, losses)
    factor = np.array(post[1])
    assert np.isfinite(post[0]).all() and np.isfinite(factor).all()
    assert factor[[0, 2, 5]].min() > 0.0
    got_mean, got_cov = float_posterior(post)
    exact_mean, exact_cov = exact_posterior(prior_mean, var, noise_var, phis, losses)
    if var <= COV_MAX_VAR:
        assert largest_gap(got_cov, exact_cov) <= 1e-12
    if var <= MEAN_MAX_VAR:
        # the mean's scale: its largest entry or its largest standard deviation
        scale = max(np.max(np.abs(exact_mean)), np.sqrt(np.max(np.abs(exact_cov))))
        assert np.max(np.abs(got_mean - exact_mean)) <= 1e-12 * scale
    if var <= ARRAY_MAX_VAR:
        ref = LinearPosterior(prior_mean, var * np.eye(3), noise_var)
        for phi, loss in zip(phis, losses):
            blr_update(ref, phi, float(loss))
        assert largest_gap(got_mean, ref.mean) <= 1e-12
        assert largest_gap(got_cov, ref.cov) <= 1e-12


def test_float_draw_is_mean_plus_factor_times_one_normal_draw():
    mean, cov = np.array([0.3, -0.7, 1.1]), random_spd(np.random.default_rng(5), 3)
    rng = np.random.default_rng(42)
    z = rng.standard_normal(3).tolist()
    theta = gaussmath.sample_gaussian((tuple(mean.tolist()), packed_factor(cov)), z)
    ref_rng = np.random.default_rng(42)
    assert largest_gap(theta, sample_gaussian(mean, cov, ref_rng)) < 1e-14
    # both read one standard_normal(3) call, so the streams stay aligned
    assert rng.random() == ref_rng.random()


def test_float_draws_have_the_posterior_moments():
    cov = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 0.5]])
    g = (1.0, -2.0, 0.5), packed_factor(cov)
    rng = np.random.default_rng(11)
    draws = np.array([gaussmath.sample_gaussian(g, z) for z in rng.standard_normal((100_000, 3))])
    assert np.max(np.abs(draws.mean(axis=0) - [1.0, -2.0, 0.5])) < 0.02
    assert np.max(np.abs(np.cov(draws.T) - cov)) < 0.05


def test_float_update_reads_its_inputs_only():
    post = (0.2, -0.1, 0.4), packed_factor([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]])
    phi = [1.0, -1.0, 0.5]
    copies = (post, list(phi))
    new = gaussmath.blr_update(post, math.sqrt(0.5), phi, 0.3)
    assert (post, phi) == copies
    # the variance along phi contracts
    phi_arr = np.array(phi)
    (_, old_cov), (_, new_cov) = float_posterior(post), float_posterior(new)
    assert phi_arr @ new_cov @ phi_arr < phi_arr @ old_cov @ phi_arr


def test_float_update_rejects_wrong_context_dim():
    # the package's contexts have three features; a context of another
    # length does not unpack
    with pytest.raises(ValueError):
        gaussmath.blr_update(isotropic(np.zeros(3), 1.0), 0.1, [1.0, 2.0], 0.5)


def synthetic_track(prior: tuple, n: int = 200):
    cfg = ExperimentConfig()
    mu_star, state_proc = build_scene(cfg, 0)
    env = SyntheticTrackEnv(mu_star, state_proc, cfg.sigma_sq, 15.8, n, *synthetic_streams())
    return run_track(env, prior, cfg.sigma_sq, n, cfg.k, np.random.default_rng(3))


def test_thompson_track_factors_nothing_on_a_well_conditioned_prior(monkeypatch):
    # the track loop keeps the factor and updates it: no cholesky call and
    # no np.linalg factorization, from a tiny to a huge prior variance
    shapes = recording_cholesky(monkeypatch)
    linalg_calls = counted_only_under(monkeypatch, [])
    for var in (1e-30, 2.0, 1e300):
        result, agent = synthetic_track((np.zeros(3), var))
        assert (shapes, linalg_calls) == ([], []), var
        assert np.isfinite(np.array(agent.posterior[1])).all(), var
        assert np.all((result.loss >= 0.0) & (result.loss <= 1.0)), var
