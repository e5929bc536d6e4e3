"""Multivariate Gaussian machinery used by every learning component.

Both levels keep a belief as its mean and a triangular root of its
covariance and update it by one rank-1 step, :func:`blr_update`. The meta
level (see ``meta``) keeps (mu, U), U upper triangular, and hands each
track a prior (mean, variance), the isotropic N(mean, variance I).
:func:`kl_gaussian` compares two (mean, triangular root) array pairs.
:func:`cholesky` runs once per replicate, for the flat meta root. It stays
because the benchmark's tracer counts its calls in ``gaussmath`` and
``meta`` (``gaussmath.cholesky.per_cpi``); ROADMAP item 1 may retire it.

The per-track learner's posterior over its three weights is nine floats:
the mean (m0, m1, m2) and the lower Cholesky factor L of the covariance,
packed row by row, (l00, l10, l11, l20, l21, l22). Its steps run on Python
floats, without a numpy call: :func:`posterior_gaussian` turns a track's
prior into this form once per track, :func:`sample_gaussian` draws
mean + L z, and :func:`blr_update` folds one observation in by a rank-1
update of L itself, so the covariance is never formed and nothing factors.
The three names are spans the benchmark's tracer times (with ``bandit``'s
``agent_contexts``, ``pick_argmax`` and ``record``): ``posterior_gaussian``
per track, the other two per CPI; ROADMAP item 1 will re-cut these spans.
"""

import math

import numpy as np

from .errors import NotPositiveDefinite


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix.

    ``np.linalg.cholesky`` reads the lower triangle. A non-finite entry (which
    LAPACK would factor without an error) or a failed factorization raises
    :class:`NotPositiveDefinite`.
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NotPositiveDefinite(f"matrix of shape {m.shape} has a non-finite entry")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"matrix of shape {m.shape} is not positive definite") from None


def kl_gaussian(q: tuple, p: tuple) -> float:
    """KL(q || p) between two multivariate normals of one dimension d, each
    a (mean, S) pair of arrays, S a triangular root (lower or upper, with a
    positive diagonal) of the covariance S S^T. Nothing is factored:

    0.5 * [||Sp^-1 Sq||_F^2 + ||Sp^-1 (mp-mq)||^2 - d
           + 2 sum ln diag(Sp) - 2 sum ln diag(Sq)]
    """
    (mq, sq), (mp, sp) = q, p
    A = np.linalg.solve(sp, sq)
    trace_term = float(np.sum(A * A))
    w = np.linalg.solve(sp, mp - mq)
    quad_term = float(w @ w)
    logdet_term = 2.0 * float(
        np.sum(np.log(np.diag(sp))) - np.sum(np.log(np.diag(sq)))
    )
    return 0.5 * (trace_term + quad_term - mq.size + logdet_term)


# ---------------------------------------------------------------------------
# the per-track posterior on floats


def posterior_gaussian(prior: tuple) -> tuple:
    """The track posterior at its prior (mean, var), the isotropic
    N(mean, var I): the mean as three floats and the lower factor
    sqrt(var) I, packed row by row as (l00, l10, l11, l20, l21, l22)."""
    mean, var = prior
    r = math.sqrt(var)
    return tuple(float(x) for x in mean), (r, 0.0, r, 0.0, 0.0, r)


def sample_gaussian(g: tuple, z) -> tuple:
    """One draw x = mean + L z of a posterior (mean, L), from three standard
    normals z: (x0, x1, x2)."""
    (m0, m1, m2), (l00, l10, l11, l20, l21, l22) = g
    z0, z1, z2 = z
    return (
        m0 + l00 * z0,
        m1 + (l10 * z0 + l11 * z1),
        m2 + (l20 * z0 + l21 * z1 + l22 * z2),
    )


def blr_update(posterior: tuple, noise_sd: float, phi, loss: float) -> tuple:
    """Conjugate update for one observation loss = <theta, phi> + noise,
    the noise of standard deviation ``noise_sd``: the new (mean, L) of the
    posterior (mean, L), which is only read.

    With f = L^T phi and the suffix sums b3 = noise_sd^2 and
    b_j = b_{j+1} + f_j^2, the new factor is L B, where B is lower
    triangular with B_jj = r_{j+1} / r_j and B_ij = -f_i f_j / (r_j r_{j+1})
    for i > j, r_j = sqrt(b_j). Then L B (L B)^T = L (I - f f^T / b0) L^T,
    the Sherman-Morrison covariance, and L B is again lower triangular with
    a positive diagonal: its Cholesky factor (Carlson 1973; Gill, Golub,
    Murray & Saunders 1974). The mean gains k (loss - phi^T mean) / b0 with
    k = L f, the covariance times phi. Each r_j is ``hypot(r_{j+1}, f_j)``
    and f_j / (r_j r_{j+1}) is formed by two divisions, so the factor stays
    finite, with a positive diagonal, at any finite prior variance.
    """
    (m0, m1, m2), (l00, l10, l11, l20, l21, l22) = posterior
    p0, p1, p2 = phi
    f0 = l00 * p0 + l10 * p1 + l20 * p2
    f1 = l11 * p1 + l21 * p2
    f2 = l22 * p2
    r2 = math.hypot(noise_sd, f2)
    r1 = math.hypot(r2, f1)
    r0 = math.hypot(r1, f0)
    b00, b11, b22 = r1 / r0, r2 / r1, noise_sd / r2
    g0, g1 = f0 / r0 / r1, f1 / r1 / r2
    b10, b20, b21 = -f1 * g0, -f2 * g0, -f2 * g1
    k0 = l00 * f0
    k1 = l10 * f0 + l11 * f1
    k2 = l20 * f0 + l21 * f1 + l22 * f2
    gain = (loss - (p0 * m0 + p1 * m1 + p2 * m2)) / (r0 * r0)
    return (
        (m0 + k0 * gain, m1 + k1 * gain, m2 + k2 * gain),
        (
            l00 * b00,
            l10 * b00 + l11 * b10,
            l11 * b11,
            l20 * b00 + l21 * b10 + l22 * b20,
            l21 * b11 + l22 * b21,
            l22 * b22,
        ),
    )
