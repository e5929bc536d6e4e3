from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from wavesel import gaussmath
from wavesel.bandit import SyntheticTrackEnv, run_track
from wavesel.errors import DimensionMismatch, NotPositiveDefinite
from wavesel.gaussmath import (
    Gaussian,
    LinearPosterior,
    blr_update,
    cholesky,
    isotropic_gaussian,
    kl_gaussian,
    posterior_gaussian,
    posterior_mean_cov,
    sample_gaussian,
    to_linear_posterior,
)
from wavesel.harness import ExperimentConfig, build_scene
from wavesel.meta import run_meta_experiment

from oracles import np_cholesky


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


def same_outcome(got, want, bits: bool = True) -> bool:
    (factor, retries), (ref, ref_retries) = got, want
    if retries != ref_retries or (factor is None) != (ref is None):
        return False
    if factor is None:
        return True
    if not factor.flags.c_contiguous or factor.shape != ref.shape:
        return False
    if bits:
        return factor.tobytes() == ref.tobytes()
    return np.allclose(factor, ref, rtol=1e-12, atol=0.0)


@st.composite
def spd_matrices(draw):
    """D (A A^T + d I) D with entries of A in [-1, 1] and the diagonal of D
    in [1e-3, 1e3], so the diagonal of the matrix spans 1e-6 to 1e6."""
    d = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)))
    a = a.reshape(d, d)
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    return (a @ a.T + d * np.eye(d)) * scale[:, None] * scale[None, :]


@settings(max_examples=400, deadline=None)
@given(spd_matrices())
def test_cholesky_equals_np_linalg_path(m):
    # The factor comes from scipy's LAPACK and the reference from numpy's;
    # the two wheels bundle different OpenBLAS builds, whose potrf agree to
    # the bit on the short dot products of d <= 4 (the package factors 3 x 3
    # matrices only) and may part in the last bits beyond.
    d = m.shape[0]
    assert same_outcome(cholesky_outcome(m), np_cholesky(m), bits=d <= 4)


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_package_factors_only_matrices_of_dimension_at_most_4(monkeypatch, mode):
    # Beyond d = 4 the factor may differ in its last bits from the one
    # np.linalg.cholesky gives (see above), so a wider context would move
    # the output bytes. Every factorization goes through gaussmath.dpotrf.
    dims = []

    def recording_dpotrf(a, **kwargs):
        dims.append(np.shape(a)[0])
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(gaussmath, "dpotrf", recording_dpotrf)
    task_dist, scene = build_scene(ExperimentConfig(), 0)
    for policy in ("ts-uninformative", "meta-ts"):
        run_meta_experiment(task_dist, scene, 2, 20, policy, mode, 0)
    assert dims and max(dims) <= 4


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.outer([1.0, 2.0], [1.0, 2.0]),
        1e-6 * np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0]),
        np.zeros((3, 3)),
        np.array([[4.0, np.nan], [np.nan, 9.0]]),
        np.full((3, 3), np.nan),
        np.array([[4.0]]),
        np.array([[-4.0]]),
        np.array([[0.0]]),
        np.array([[np.nan]]),
    ],
    ids=["indefinite", "rank-1", "rank-1 small", "zero", "nan off-diagonal",
         "nan", "1x1", "1x1 negative", "1x1 zero", "1x1 nan"],
)
def test_cholesky_edge_inputs_match_np_linalg_path(m):
    assert same_outcome(cholesky_outcome(m), np_cholesky(m))


# ---------------------------------------------------------------------------
# Gaussian / LinearPosterior construction


def test_gaussian_rejects_asymmetric_cov():
    with pytest.raises(NotPositiveDefinite):
        Gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_gaussian_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        Gaussian(np.zeros(3), np.eye(2))


def test_linear_posterior_rejects_nonpositive_noise():
    with pytest.raises(NotPositiveDefinite):
        LinearPosterior(np.zeros(2), np.eye(2), 0.0)


def test_isotropic_gaussian():
    g = isotropic_gaussian(np.array([1.0, -2.0]), 3.0)
    np.testing.assert_array_equal(g.cov, 3.0 * np.eye(2))
    assert g.dim == 2


# ---------------------------------------------------------------------------
# sample_gaussian


def test_sample_degenerate_cov_returns_mean():
    g = isotropic_gaussian(np.array([0.3, -0.7, 1.1]), 1e-30)
    x = sample_gaussian(g, np.random.default_rng(0))
    np.testing.assert_allclose(x, g.mean, atol=1e-10)


def test_sample_moments_match():
    g = isotropic_gaussian(np.zeros(2), 1.0)
    rng = np.random.default_rng(11)
    draws = np.array([sample_gaussian(g, rng) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0))) < 0.02
    emp_cov = np.cov(draws.T)
    assert np.max(np.abs(emp_cov - np.eye(2))) < 0.05


def test_sample_deterministic_across_runs():
    g = Gaussian(np.array([1.0, 2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    a = sample_gaussian(g, np.random.default_rng(42))
    b = sample_gaussian(g, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# blr_update


def test_blr_one_step_scalar():
    post = blr_update(to_linear_posterior(isotropic_gaussian(np.zeros(1), 1.0), 1.0),
                      np.array([1.0]), 1.0)
    mean, cov = posterior_mean_cov(post)
    np.testing.assert_allclose(mean, [0.5], atol=1e-12)
    np.testing.assert_allclose(cov, [[0.5]], atol=1e-12)


def test_blr_uninformative_observation_keeps_prior():
    prior = Gaussian(np.array([0.4, -0.2]), np.array([[1.5, 0.2], [0.2, 0.9]]))
    post = blr_update(to_linear_posterior(prior, 1e12), np.array([1.0, 1.0]), 0.7)
    mean, cov = posterior_mean_cov(post)
    np.testing.assert_allclose(mean, prior.mean, atol=1e-9)
    np.testing.assert_allclose(cov, prior.cov, atol=1e-9)


def test_blr_sequential_matches_batch_normal_equations():
    rng = np.random.default_rng(3)
    d, n, noise_var, prior_var = 2, 6, 0.2, 2.0
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    post = to_linear_posterior(isotropic_gaussian(np.zeros(d), prior_var), noise_var)
    for phi, ell in zip(X, y):
        post = blr_update(post, phi, float(ell))
    mean, cov = posterior_mean_cov(post)
    prec = np.eye(d) / prior_var + X.T @ X / noise_var
    batch_mean = np.linalg.solve(prec, X.T @ y / noise_var)
    np.testing.assert_allclose(mean, batch_mean, atol=1e-10)
    np.testing.assert_allclose(cov, np.linalg.inv(prec), atol=1e-10)


def test_blr_rejects_wrong_context_dim():
    post = to_linear_posterior(isotropic_gaussian(np.zeros(3), 1.0), 0.1)
    with pytest.raises(DimensionMismatch):
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
    prior = isotropic_gaussian(np.array([0.1, 0.2]), 2.0)
    post = to_linear_posterior(prior, 0.5)
    assert not np.shares_memory(post.mean, prior.mean)
    assert not np.shares_memory(post.cov, prior.cov)
    g = posterior_gaussian(post)
    mean, cov = posterior_mean_cov(post)
    blr_update(post, np.array([1.0, 0.5]), 0.9)
    np.testing.assert_array_equal(g.mean, prior.mean)
    np.testing.assert_array_equal(g.cov, prior.cov)
    np.testing.assert_array_equal(mean, prior.mean)
    np.testing.assert_array_equal(cov, prior.cov)


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_blr_update_order_does_not_matter(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    d, n = 3, 8
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    prior = isotropic_gaussian(np.zeros(d), 1.0)
    forward = to_linear_posterior(prior, 0.3)
    for i in range(n):
        blr_update(forward, X[i], float(y[i]))
    shuffled = to_linear_posterior(prior, 0.3)
    for i in rng.permutation(n):
        blr_update(shuffled, X[i], float(y[i]))
    np.testing.assert_allclose(forward.mean, shuffled.mean, atol=1e-9)
    np.testing.assert_allclose(forward.cov, shuffled.cov, atol=1e-9)


def test_blr_long_track_matches_batch_normal_equations():
    # 3000 Sherman-Morrison steps on the contexts a Thompson track actually
    # visits (correlated, a few distinct values per cell); the posterior
    # precision ends near 1e4 along the best-observed direction.
    cfg = ExperimentConfig()
    task_dist, scene = build_scene(cfg, 0)
    env = SyntheticTrackEnv(task_dist.mu_star, scene.state_proc, cfg.sigma_sq, 15.8)
    prior_var = cfg.sigma_q_sq + cfg.sigma0_sq
    prior = isotropic_gaussian(np.zeros(3), prior_var)
    result, agent = run_track(
        env, prior, cfg.sigma_sq, 3000, cfg.k, np.random.default_rng(0)
    )
    X, y = result.contexts, result.loss
    post = agent.posterior
    prec = np.eye(3) / prior_var + X.T @ X / cfg.sigma_sq
    batch_mean = np.linalg.solve(prec, X.T @ y / cfg.sigma_sq)
    batch_cov = np.linalg.inv(prec)
    assert np.max(np.abs(post.mean - batch_mean)) < 1e-10 * np.max(np.abs(batch_mean))
    assert np.max(np.abs(post.cov - batch_cov)) < 1e-10 * np.max(np.abs(batch_cov))
    np.testing.assert_array_equal(post.cov, post.cov.T)
    assert np.linalg.eigvalsh(post.cov).min() > 0.0


def test_blr_variance_contracts_along_context():
    phi = np.array([0.6, -0.8])
    post = to_linear_posterior(isotropic_gaussian(np.zeros(2), 4.0), 0.5)
    variances = []
    for _ in range(10):
        _, cov = posterior_mean_cov(post)
        variances.append(float(phi @ cov @ phi))
        post = blr_update(post, phi, 0.1)
    assert all(b < a for a, b in zip(variances, variances[1:]))


# ---------------------------------------------------------------------------
# kl_gaussian


def test_kl_identical_is_zero():
    g = Gaussian(np.array([0.2, -1.0]), np.array([[1.2, 0.4], [0.4, 2.0]]))
    assert abs(kl_gaussian(g, g)) < 1e-12


def test_kl_unit_mean_shift_scalar():
    q = isotropic_gaussian(np.zeros(1), 1.0)
    p = isotropic_gaussian(np.ones(1), 1.0)
    assert abs(kl_gaussian(q, p) - 0.5) < 1e-12


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(19)
    q = Gaussian(rng.standard_normal(3), random_spd(rng, 3) / 3.0)
    p = Gaussian(rng.standard_normal(3), random_spd(rng, 3) / 3.0)
    closed = kl_gaussian(q, p)

    def logpdf(x, g):
        L = cholesky(g.cov)
        w = np.linalg.solve(L, (x - g.mean).T)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        return -0.5 * (np.sum(w * w, axis=0) + logdet + g.dim * np.log(2 * np.pi))

    Lq = cholesky(q.cov)
    draws = q.mean + rng.standard_normal((1_000_000, 3)) @ Lq.T
    mc = float(np.mean(logpdf(draws, q) - logpdf(draws, p)))
    assert abs(closed - mc) < 0.01 * max(closed, 1e-9)


def test_kl_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kl_gaussian(isotropic_gaussian(np.zeros(2), 1.0),
                    isotropic_gaussian(np.zeros(3), 1.0))


def test_kl_rejects_indefinite_cov():
    q = isotropic_gaussian(np.zeros(2), 1.0)
    bad = Gaussian(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        kl_gaussian(q, bad)


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative(pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    d = int(rng.integers(1, 5))
    q = Gaussian(rng.standard_normal(d), random_spd(rng, d))
    p = Gaussian(rng.standard_normal(d), random_spd(rng, d))
    assert kl_gaussian(q, p) >= -1e-12
