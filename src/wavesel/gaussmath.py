"""Multivariate Gaussian machinery used by every learning component.

A belief takes one form per level. The meta level keeps precision form (see
``meta``) and hands each track a prior (mean, variance), the isotropic
N(mean, variance I). :func:`kl_gaussian` compares two (mean, covariance)
array pairs, and :func:`cholesky` factors an array with
``np.linalg.cholesky`` and makes one counted, jittered retry before it gives
up.

The per-track learner's posterior over its three weights is nine floats: the
mean (m0, m1, m2) and the covariance's lower triangle packed row by row,
(c00, c10, c11, c20, c21, c22). Its per-CPI steps run on Python floats,
without a numpy call: :func:`posterior_gaussian` factors the covariance in
closed form, :func:`sample_gaussian` draws from the factored posterior and
:func:`blr_update` folds one observation in with an unrolled
Sherman-Morrison step. Only a covariance the closed form cannot factor goes
to :func:`cholesky`, and so to its counted retry. The three names are the
per-CPI spans the benchmark's tracer times (with ``bandit``'s
``agent_contexts``, ``pick_argmax`` and ``record``); ROADMAP item 1 will
re-cut these spans.
"""

import math

import numpy as np

from .errors import NotPositiveDefinite

#: Relative jitter: a matrix that fails to factor is retried once with
#: ``JITTER`` times its mean absolute diagonal added to the diagonal; a second
#: failure is reported to the caller.
JITTER = 1e-10

#: Number of jittered retries :func:`cholesky` has made in this process.
jitter_retries = 0


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    ``np.linalg.cholesky`` reads the lower triangle. When it fails, it is
    retried once with a jitter of ``JITTER`` times the mean absolute
    diagonal, counted in ``jitter_retries``; a second failure raises
    :class:`NotPositiveDefinite`.
    """
    global jitter_retries
    m = np.asarray(m, dtype=float)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        jitter_retries += 1
    scale = float(np.mean(np.abs(np.diag(m))))
    try:
        return np.linalg.cholesky(m + JITTER * scale * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"matrix of shape {m.shape} is not positive definite"
        ) from None


def kl_gaussian(q: tuple, p: tuple) -> float:
    """KL(q || p) between two multivariate normals of one dimension d, each
    a (mean, covariance) pair of arrays.

    0.5 * [tr(Sp^-1 Sq) + (mp-mq)^T Sp^-1 (mp-mq) - d + ln(det Sp / det Sq)]
    """
    (mq, sq), (mp, sp) = q, p
    Lq = cholesky(sq)
    Lp = cholesky(sp)
    # tr(Sp^-1 Sq) = ||Lp^-1 Lq||_F^2
    A = np.linalg.solve(Lp, Lq)
    trace_term = float(np.sum(A * A))
    w = np.linalg.solve(Lp, mp - mq)
    quad_term = float(w @ w)
    logdet_term = 2.0 * float(
        np.sum(np.log(np.diag(Lp))) - np.sum(np.log(np.diag(Lq)))
    )
    return 0.5 * (trace_term + quad_term - mq.size + logdet_term)


# ---------------------------------------------------------------------------
# the per-track posterior on floats


def posterior_gaussian(mean, cov) -> tuple:
    """The posterior N(mean, cov) in the form a draw reads: the mean and the
    lower Cholesky factor of ``cov``, packed as (l00, l10, l11, l20, l21,
    l22).

    ``cov`` is the packed lower triangle (c00, c10, c11, c20, c21, c22). The
    factor is closed form; each column is scaled by the reciprocal of its
    pivot, as LAPACK's unblocked factorization does. When a pivot is not
    positive (or is NaN), the whole matrix goes to :func:`cholesky`, which
    makes its counted jitter retry or raises :class:`NotPositiveDefinite`.
    """
    c00, c10, c11, c20, c21, c22 = cov
    if c00 > 0.0:
        l00 = math.sqrt(c00)
        r = 1.0 / l00
        l10 = c10 * r
        l20 = c20 * r
        d1 = c11 - l10 * l10
        if d1 > 0.0:
            l11 = math.sqrt(d1)
            l21 = (c21 - l20 * l10) * (1.0 / l11)
            d2 = c22 - (l20 * l20 + l21 * l21)
            if d2 > 0.0:
                return mean, (l00, l10, l11, l20, l21, math.sqrt(d2))
    full = np.array([[c00, c10, c20], [c10, c11, c21], [c20, c21, c22]])
    (l00, _, _), (l10, l11, _), (l20, l21, l22) = cholesky(full).tolist()
    return mean, (l00, l10, l11, l20, l21, l22)


def sample_gaussian(g: tuple, rng: np.random.Generator) -> tuple:
    """One draw x = mean + L z of a :func:`posterior_gaussian`, from one
    ``standard_normal(3)`` call: (x0, x1, x2)."""
    (m0, m1, m2), (l00, l10, l11, l20, l21, l22) = g
    z0, z1, z2 = rng.standard_normal(3).tolist()
    return (
        m0 + l00 * z0,
        m1 + (l10 * z0 + l11 * z1),
        m2 + (l20 * z0 + l21 * z1 + l22 * z2),
    )


def blr_update(mean, cov, noise_var: float, phi, loss: float) -> tuple:
    """Conjugate update for one observation loss = <theta, phi> + noise:
    the new (mean, cov), packed as the inputs are, which are only read.

    By Sherman-Morrison: with k = cov phi and s = noise_var + phi^T k, the
    mean gains k (loss - phi^T mean) / s and the covariance loses
    outer(k, k) / s, entry by entry, so it stays symmetric.
    """
    p0, p1, p2 = phi
    m0, m1, m2 = mean
    c00, c10, c11, c20, c21, c22 = cov
    k0 = c00 * p0 + c10 * p1 + c20 * p2
    k1 = c10 * p0 + c11 * p1 + c21 * p2
    k2 = c20 * p0 + c21 * p1 + c22 * p2
    s = noise_var + (p0 * k0 + p1 * k1 + p2 * k2)
    gain = (loss - (p0 * m0 + p1 * m1 + p2 * m2)) / s
    return (
        [m0 + k0 * gain, m1 + k1 * gain, m2 + k2 * gain],
        [
            c00 - k0 * k0 / s,
            c10 - k1 * k0 / s,
            c11 - k1 * k1 / s,
            c20 - k2 * k0 / s,
            c21 - k2 * k1 / s,
            c22 - k2 * k2 / s,
        ],
    )
