"""Multivariate Gaussian machinery used by every learning component.

Beliefs live in one of two forms. :class:`Gaussian` is the moment form
(mean, covariance), used for sampling and KL computations.
:class:`LinearPosterior` is the precision form (Lambda, b = Lambda @ mean)
of a Bayesian linear-regression posterior with known observation noise;
precision accumulates additively and in place, which keeps sequential
updates cheap and numerically stable. Conversion back to moments happens
only at sampling time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Added to the diagonal once if a covariance fails to factor; a second
# failure is reported to the caller.
JITTER = 1e-10

_SYM_TOL = 1e-10


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    Retries once with ``JITTER`` added to the diagonal, then raises
    :class:`NotPositiveDefinite`.
    """
    m = np.asarray(m, dtype=float)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(m + JITTER * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"matrix of shape {m.shape} is not positive definite"
        ) from None


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
    """Precision-form posterior of a linear model with noise variance sigma^2.

    ``precision_mean`` stores b = precision @ mean, so the moment form is
    recovered by a single solve. The object is mutable: :func:`blr_update`
    adds to both arrays in place. Construction copies its inputs, so no
    caller's arrays are aliased.
    """

    precision: np.ndarray
    precision_mean: np.ndarray
    noise_var: float

    def __post_init__(self):
        self.precision = np.array(self.precision, dtype=float)
        self.precision_mean = np.array(self.precision_mean, dtype=float)
        self.noise_var = float(self.noise_var)
        _check_gaussian(self.precision_mean, self.precision)
        if self.noise_var <= 0.0:
            raise NotPositiveDefinite("noise_var must be strictly positive")

    @property
    def dim(self) -> int:
        return self.precision_mean.size


def isotropic_gaussian(mean: np.ndarray, var: float) -> Gaussian:
    """N(mean, var * I)."""
    mean = np.asarray(mean, dtype=float)
    return Gaussian(mean, var * np.eye(mean.size))


def sample_gaussian(g: Gaussian, rng: np.random.Generator) -> np.ndarray:
    """One draw x = mean + L z with L the Cholesky factor of cov."""
    L = cholesky(g.cov)
    return g.mean + L @ rng.standard_normal(g.dim)


def to_linear_posterior(g: Gaussian, noise_var: float) -> LinearPosterior:
    """Convert a moment-form prior into precision form for sequential updates."""
    L = cholesky(g.cov)
    eye = np.eye(g.dim)
    cov_inv = np.linalg.solve(L.T, np.linalg.solve(L, eye))
    cov_inv = 0.5 * (cov_inv + cov_inv.T)
    return LinearPosterior(cov_inv, cov_inv @ g.mean, noise_var)


def posterior_mean_cov(p: LinearPosterior) -> tuple[np.ndarray, np.ndarray]:
    """Recover (mean, cov) from precision form."""
    L = cholesky(p.precision)
    eye = np.eye(p.dim)
    cov = np.linalg.solve(L.T, np.linalg.solve(L, eye))
    cov = 0.5 * (cov + cov.T)
    mean = np.linalg.solve(L.T, np.linalg.solve(L, p.precision_mean))
    return mean, cov


def posterior_gaussian(p: LinearPosterior) -> Gaussian:
    mean, cov = posterior_mean_cov(p)
    return Gaussian(mean, cov)


def blr_update(p: LinearPosterior, phi: np.ndarray, loss: float) -> LinearPosterior:
    """Conjugate update for one observation loss = <theta, phi> + noise.

    Updates ``p`` in place and returns it: the precision gains
    phi phi^T / sigma^2 and b gains loss phi / sigma^2. The precision stays
    symmetric to the bit, since a symmetric matrix plus outer(phi, phi) is
    symmetric. ``phi`` is only read.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (p.dim,):
        raise DimensionMismatch(
            f"context has shape {phi.shape}, posterior dimension is {p.dim}"
        )
    p.precision += np.outer(phi, phi) / p.noise_var
    p.precision_mean += float(loss) * phi / p.noise_var
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
