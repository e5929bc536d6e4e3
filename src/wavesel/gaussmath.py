"""Multivariate Gaussian machinery used by every learning component.

Beliefs live in moment form. :class:`Gaussian` is a plain (mean, covariance)
pair, used for sampling and KL computations. :class:`LinearPosterior` is the
covariance-form posterior of a Bayesian linear regression with known
observation noise: :func:`blr_update` folds one observation in place with a
Sherman-Morrison rank-1 step, so neither an update nor a draw needs a solve,
and a draw factors the covariance once.

Validation happens at the boundaries: constructing a :class:`Gaussian` or a
:class:`LinearPosterior` checks shapes and symmetry. The per-CPI step is
arithmetic only. :func:`blr_update` keeps the covariance symmetric to the
bit, so :func:`posterior_gaussian` copies the moments without checking them
again; :func:`blr_update` still checks the shape of the context it reads.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import DimensionMismatch, NotPositiveDefinite

#: Relative jitter: a matrix that fails to factor is retried once with
#: ``JITTER`` times its mean absolute diagonal added to the diagonal; a second
#: failure is reported to the caller.
JITTER = 1e-10

#: Number of jittered retries :func:`cholesky` has made in this process.
jitter_retries = 0

_SYM_TOL = 1e-10


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    The square matrix goes straight to LAPACK ``dpotrf``, which reads the
    lower triangle as ``np.linalg.cholesky`` does, without that function's
    per-call checks; the factor is returned in C order, as
    ``np.linalg.cholesky`` returns it, so a product with it runs the same
    BLAS kernel. When ``dpotrf`` fails, it retries once with a jitter of
    ``JITTER`` times the mean absolute diagonal, counted in
    ``jitter_retries``, then raises :class:`NotPositiveDefinite`.
    """
    global jitter_retries
    m = np.asarray(m, dtype=float)
    factor, info = dpotrf(m, lower=1, clean=1)
    if info != 0:
        jitter_retries += 1
        scale = float(np.mean(np.abs(np.diag(m))))
        jittered = m + JITTER * scale * np.eye(m.shape[0])
        factor, info = dpotrf(jittered, lower=1, clean=1)
        if info != 0:
            raise NotPositiveDefinite(
                f"matrix of shape {m.shape} is not positive definite"
            )
    return factor.copy(order="C")


def _check_gaussian(mean: np.ndarray, cov: np.ndarray) -> None:
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise DimensionMismatch(
            f"mean has shape {mean.shape}, cov has shape {cov.shape}"
        )
    if not np.all(np.abs(cov - cov.T) <= _SYM_TOL):
        raise NotPositiveDefinite("covariance is not symmetric")


@dataclass(frozen=True)
class Gaussian:
    """Moment-form multivariate normal N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        _check_gaussian(self.mean, self.cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass
class LinearPosterior:
    """Covariance-form posterior N(mean, cov) of a linear model with noise
    variance sigma^2.

    The object is mutable: :func:`blr_update` changes both arrays in place.
    Construction copies its inputs, so no caller's arrays are aliased.
    """

    mean: np.ndarray
    cov: np.ndarray
    noise_var: float

    def __post_init__(self):
        self.mean = np.array(self.mean, dtype=float)
        self.cov = np.array(self.cov, dtype=float)
        self.noise_var = float(self.noise_var)
        _check_gaussian(self.mean, self.cov)
        if self.noise_var <= 0.0:
            raise NotPositiveDefinite("noise_var must be strictly positive")

    @property
    def dim(self) -> int:
        return self.mean.size


def isotropic_gaussian(mean: np.ndarray, var: float) -> Gaussian:
    """N(mean, var * I)."""
    mean = np.asarray(mean, dtype=float)
    return Gaussian(mean, var * np.eye(mean.size))


def sample_gaussian(g: Gaussian, rng: np.random.Generator) -> np.ndarray:
    """One draw x = mean + L z with L the Cholesky factor of cov."""
    L = cholesky(g.cov)
    return g.mean + L @ rng.standard_normal(g.dim)


def to_linear_posterior(g: Gaussian, noise_var: float) -> LinearPosterior:
    """Start a sequential posterior from a moment-form prior (copied)."""
    return LinearPosterior(g.mean, g.cov, noise_var)


def posterior_mean_cov(p: LinearPosterior) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the posterior's (mean, cov)."""
    return p.mean.copy(), p.cov.copy()


def posterior_gaussian(p: LinearPosterior) -> Gaussian:
    """Copies of the posterior's moments as a :class:`Gaussian`.

    The moments were checked when ``p`` was built and :func:`blr_update`
    keeps them well formed, so they are not checked again.
    """
    g = object.__new__(Gaussian)
    object.__setattr__(g, "mean", p.mean.copy())
    object.__setattr__(g, "cov", p.cov.copy())
    return g


def blr_update(p: LinearPosterior, phi: np.ndarray, loss: float) -> LinearPosterior:
    """Conjugate update for one observation loss = <theta, phi> + noise.

    Updates ``p`` in place and returns it, by Sherman-Morrison: with
    k = cov phi and s = sigma^2 + phi^T k, the mean gains
    k (loss - phi^T mean) / s and the covariance loses outer(k, k) / s.
    The covariance stays symmetric to the bit, since a symmetric matrix
    minus outer(k, k) / s is symmetric. ``phi`` is only read.
    """
    mean, cov = p.mean, p.cov
    if type(phi) is not np.ndarray:
        phi = np.asarray(phi, dtype=float)
    if phi.shape != mean.shape:
        raise DimensionMismatch(
            f"context has shape {phi.shape}, posterior dimension is {p.dim}"
        )
    k = cov.dot(phi)
    s = p.noise_var + float(phi.dot(k))
    mean += k * ((float(loss) - float(phi.dot(mean))) / s)
    # k[:, None] * k is np.outer(k, k), bit for bit
    outer = k[:, None] * k
    outer /= s
    cov -= outer
    return p


def kl_gaussian(q: Gaussian, p: Gaussian) -> float:
    """KL(q || p) between two multivariate normals.

    0.5 * [tr(Sp^-1 Sq) + (mp-mq)^T Sp^-1 (mp-mq) - d + ln(det Sp / det Sq)]
    """
    if q.dim != p.dim:
        raise DimensionMismatch(f"dimensions differ: {q.dim} vs {p.dim}")
    Lq = cholesky(q.cov)
    Lp = cholesky(p.cov)
    # tr(Sp^-1 Sq) = ||Lp^-1 Lq||_F^2
    A = np.linalg.solve(Lp, Lq)
    trace_term = float(np.sum(A * A))
    diff = p.mean - q.mean
    w = np.linalg.solve(Lp, diff)
    quad_term = float(w @ w)
    logdet_term = 2.0 * float(
        np.sum(np.log(np.diag(Lp))) - np.sum(np.log(np.diag(Lq)))
    )
    return 0.5 * (trace_term + quad_term - q.dim + logdet_term)
