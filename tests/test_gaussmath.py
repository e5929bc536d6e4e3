from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesel import bandit, gaussmath, meta
from wavesel.bandit import SyntheticTrackEnv, TsAgent, run_track
from wavesel.errors import NotPositiveDefinite
from wavesel.gaussmath import cholesky, kl_gaussian
from wavesel.harness import ExperimentConfig, build_scene
from wavesel.meta import run_meta_experiment

from oracles import (
    LinearPosterior,
    blr_update,
    float_posterior,
    largest_gap,
    np_cholesky,
    packed_cov,
    posterior_mean_cov,
    sample_gaussian,
    unpacked_cov,
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
    before = gaussmath.jitter_retries
    L = cholesky(m)
    assert gaussmath.jitter_retries == before
    assert np.max(np.abs(L @ L.T - m)) < 1e-9
    assert np.allclose(np.triu(L, 1), 0.0)


def test_cholesky_rejects_indefinite():
    before = gaussmath.jitter_retries
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert gaussmath.jitter_retries == before + 1


def test_cholesky_jitter_rescues_singular():
    # rank-1 matrix: plain factorization fails, the one-shot jitter retry
    # succeeds
    v = np.array([1.0, 2.0])
    L = cholesky(np.outer(v, v))
    assert np.all(np.isfinite(L))


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_cholesky_jitter_is_relative_to_the_diagonal(scale):
    # Rank-deficient at either scale, so the plain factorization fails. The
    # retry must add the same share of the diagonal at both: an absolute
    # 1e-10 would be 1e-4 of the small matrix and round-off to the large one.
    v = np.array([1.0, 2.0, -1.0])
    m = scale * np.outer(v, v)
    before = gaussmath.jitter_retries
    L = cholesky(m)
    assert gaussmath.jitter_retries == before + 1
    jitter = gaussmath.JITTER * np.mean(np.abs(np.diag(m)))
    np.testing.assert_allclose(L @ L.T, m + jitter * np.eye(3), rtol=0, atol=1e-14 * scale)


def cholesky_outcome(m) -> tuple:
    """(factor or None, jittered retries) of ``gaussmath.cholesky``, in the
    form ``np_cholesky`` reports."""
    before = gaussmath.jitter_retries
    try:
        factor = cholesky(m)
    except NotPositiveDefinite:
        factor = None
    return factor, gaussmath.jitter_retries - before


def same_outcome(got, want) -> bool:
    (factor, retries), (ref, ref_retries) = got, want
    if retries != ref_retries or (factor is None) != (ref is None):
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


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_package_factors_only_matrices_of_dimension_at_most_4(monkeypatch, mode):
    # gaussmath.cholesky factors the meta belief's d x d precision, once for
    # each draw and once for each update of a meta-ts track, and a track
    # posterior only when the closed form cannot: no call per CPI, and
    # every factored matrix is 3 x 3.
    shapes = recording_cholesky(monkeypatch)
    cfg = replace(ExperimentConfig(), m=2, n=20, mode=mode)
    mu_star, state_proc = build_scene(cfg, 0)
    seen = {}
    for policy in ("ts-uninformative", "meta-ts"):
        shapes.clear()
        run_meta_experiment(cfg, mu_star, state_proc, policy, 0)
        seen[policy] = list(shapes)
    assert seen == {"ts-uninformative": [], "meta-ts": [(3, 3)] * 4}


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
    # an error; cholesky refuses them before its jittered retry
    factor, retries = cholesky_outcome(m)
    assert factor is None and retries == 0


def test_cholesky_refuses_a_jitter_that_overflows():
    # finite but indefinite, with a diagonal whose mean overflows: the
    # jittered retry adds an infinite diagonal, which np.linalg.cholesky
    # factors into infinities without an error
    m = np.array([[1.5e308, 1.6e308], [1.6e308, 1.5e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(np_cholesky(m)[0]).any()
        factor, retries = cholesky_outcome(m)
    assert factor is None and retries == 1


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


def test_blr_long_track_matches_batch_normal_equations():
    # 3000 Sherman-Morrison steps on the contexts a Thompson track actually
    # visits (correlated, a few distinct values per cell); the posterior
    # precision ends near 1e4 along the best-observed direction.
    cfg = ExperimentConfig()
    mu_star, state_proc = build_scene(cfg, 0)
    env = SyntheticTrackEnv(mu_star, state_proc, cfg.sigma_sq, 15.8)
    prior_var = cfg.sigma_q_sq + cfg.sigma0_sq
    result, agent = run_track(
        env, (np.zeros(3), prior_var), cfg.sigma_sq, 3000, cfg.k, np.random.default_rng(0)
    )
    X, y = result.contexts, result.loss
    mean, cov = float_posterior(agent.mean, agent.cov)
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


def test_kl_identical_is_zero():
    g = np.array([0.2, -1.0]), np.array([[1.2, 0.4], [0.4, 2.0]])
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
        assert abs(kl_gaussian(q, p) - by_hand) < 1e-12


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(19)
    q = rng.standard_normal(3), random_spd(rng, 3) / 3.0
    p = rng.standard_normal(3), random_spd(rng, 3) / 3.0
    closed = kl_gaussian(q, p)

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


def test_kl_rejects_indefinite_cov():
    q = np.zeros(2), np.eye(2)
    bad = np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        kl_gaussian(q, bad)


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    d = int(rng.integers(1, 5))
    q = rng.standard_normal(d), random_spd(rng, d)
    p = rng.standard_normal(d), random_spd(rng, d)
    assert kl_gaussian(q, p) >= -1e-12


# ---------------------------------------------------------------------------
# the float kernel: closed-form factor, draw and update against the arrays


def float_factor_outcome(m) -> tuple:
    """(factor or None, jittered retries) of ``gaussmath.posterior_gaussian``
    on the packed lower triangle of ``m``, in the form ``np_cholesky``
    reports."""
    before = gaussmath.jitter_retries
    try:
        _, (l00, l10, l11, l20, l21, l22) = gaussmath.posterior_gaussian(
            [0.0, 0.0, 0.0], packed_cov(m)
        )
        factor = np.array([[l00, 0.0, 0.0], [l10, l11, 0.0], [l20, l21, l22]])
    except NotPositiveDefinite:
        factor = None
    return factor, gaussmath.jitter_retries - before


@settings(max_examples=400, deadline=None)
@given(spd_matrices(st.just(3)))
def test_float_factor_matches_np_linalg_cholesky(m):
    (factor, retries), (ref, ref_retries) = float_factor_outcome(m), np_cholesky(m)
    assert retries == ref_retries == 0
    assert np.max(np.abs(factor - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0]),
        1e-6 * np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0]),
        np.zeros((3, 3)),
        np.diag([1.0, 1.0, -1.0]),
    ],
    ids=["indefinite", "rank-1", "rank-1 small", "zero", "negative last pivot"],
)
def test_float_factor_edge_inputs_match_np_linalg_path(m):
    # every one has a pivot the closed form rejects, so it takes the
    # fallback: the same outcome, bits and retry count as np_cholesky
    assert same_outcome(float_factor_outcome(m), np_cholesky(m))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[4.0, np.nan, 0.0], [np.nan, 9.0, 0.0], [0.0, 0.0, 1.0]]),
        np.full((3, 3), np.nan),
        np.array([[4.0, 0.0, 0.0], [0.0, 9.0, np.nan], [0.0, np.nan, 1.0]]),
    ],
    ids=["nan off-diagonal", "nan", "nan last column"],
)
def test_float_factor_non_finite_inputs_raise_before_any_retry(m):
    # a NaN fails a pivot test of the closed form, so the float factor takes
    # the fallback, which refuses it before its jittered retry
    factor, retries = float_factor_outcome(m)
    assert factor is None and retries == 0


def test_float_draw_is_mean_plus_factor_times_one_normal_draw():
    mean, cov = np.array([0.3, -0.7, 1.1]), random_spd(np.random.default_rng(5), 3)
    rng = np.random.default_rng(42)
    theta = gaussmath.sample_gaussian(
        gaussmath.posterior_gaussian(mean.tolist(), packed_cov(cov)), rng
    )
    ref_rng = np.random.default_rng(42)
    assert largest_gap(theta, sample_gaussian(mean, cov, ref_rng)) < 1e-14
    # both read one standard_normal(3) call, so the streams stay aligned
    assert rng.random() == ref_rng.random()


def test_float_draws_have_the_posterior_moments():
    cov = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 0.5]])
    g = gaussmath.posterior_gaussian([1.0, -2.0, 0.5], packed_cov(cov))
    rng = np.random.default_rng(11)
    draws = np.array([gaussmath.sample_gaussian(g, rng) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0) - [1.0, -2.0, 0.5])) < 0.02
    assert np.max(np.abs(np.cov(draws.T) - cov)) < 0.05


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_float_update_matches_the_array_update(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    prior_mean, prior_cov = rng.standard_normal(3), random_spd(rng, 3)
    noise_var = float(rng.uniform(0.01, 2.0))
    post = LinearPosterior(prior_mean, prior_cov, noise_var)
    mean, cov = prior_mean.tolist(), packed_cov(prior_cov)
    for _ in range(int(rng.integers(1, 300))):
        phi, loss = rng.random(3), float(rng.random())
        blr_update(post, phi, loss)
        mean, cov = gaussmath.blr_update(mean, cov, noise_var, phi.tolist(), loss)
    got_mean, got_cov = float_posterior(mean, cov)
    assert largest_gap(got_mean, post.mean) < 1e-12
    assert largest_gap(got_cov, post.cov) < 1e-12


def test_float_update_reads_its_inputs_only():
    mean, cov, phi = [0.2, -0.1, 0.4], [1.0, 0.3, 2.0, 0.0, 0.1, 0.5], [1.0, -1.0, 0.5]
    copies = (list(mean), list(cov), list(phi))
    new_mean, new_cov = gaussmath.blr_update(mean, cov, 0.5, phi, 0.3)
    assert (mean, cov, phi) == copies
    assert new_mean is not mean and new_cov is not cov
    # the variance along phi contracts
    phi_arr = np.array(phi)
    assert phi_arr @ unpacked_cov(new_cov) @ phi_arr < phi_arr @ unpacked_cov(cov) @ phi_arr


def test_float_update_rejects_wrong_context_dim():
    # the package's contexts have three features; a context of another
    # length does not unpack
    with pytest.raises(ValueError):
        gaussmath.blr_update([0.0] * 3, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0], 0.1, [1.0, 2.0], 0.5)


def synthetic_track(prior: tuple, n: int = 200):
    cfg = ExperimentConfig()
    mu_star, state_proc = build_scene(cfg, 0)
    env = SyntheticTrackEnv(mu_star, state_proc, cfg.sigma_sq, 15.8)
    return run_track(env, prior, cfg.sigma_sq, n, cfg.k, np.random.default_rng(3))


def test_thompson_track_factors_nothing_on_a_well_conditioned_prior(monkeypatch):
    shapes = recording_cholesky(monkeypatch)
    before = gaussmath.jitter_retries
    synthetic_track((np.zeros(3), 2.0))
    assert shapes == []
    assert gaussmath.jitter_retries == before
    # a 1e-30 isotropic prior keeps its pivots positive, so it factors in
    # closed form too
    synthetic_track((np.zeros(3), 1e-30))
    assert shapes == []


def test_thompson_track_on_a_singular_prior_takes_the_counted_fallback(monkeypatch):
    # a rank-1 covariance has a zero second pivot, and stays rank-1 under
    # every update: each draw goes through cholesky's jittered retry. A
    # track's prior is isotropic, so the agent's covariance is set after it
    # is built.
    v = np.array([0.5, 1.0, -0.5])

    class RankOneAgent(TsAgent):
        def __init__(self, *args):
            super().__init__(*args)
            self.cov = packed_cov(np.outer(v, v))

    monkeypatch.setattr(bandit, "TsAgent", RankOneAgent)
    shapes = recording_cholesky(monkeypatch)
    before = gaussmath.jitter_retries
    result, _ = synthetic_track((np.zeros(3), 1.0), n=50)
    assert shapes == [(3, 3)] * 50
    assert gaussmath.jitter_retries - before == 50
    assert np.all((result.loss >= 0.0) & (result.loss <= 1.0))
