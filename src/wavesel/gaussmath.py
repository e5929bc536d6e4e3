"""Multivariate Gaussian machinery used by every learning component.

A belief takes one form per level. The meta level keeps precision form (see
``meta``) and hands each track a prior (mean, variance), the isotropic
N(mean, variance I). :func:`kl_gaussian` compares two (mean, covariance)
array pairs, and :func:`cholesky` factors an array with
``np.linalg.cholesky`` and makes one counted, jittered retry before it gives
up; it never returns a non-finite factor.

The per-track learner's posterior over its three weights is nine floats:
the mean (m0, m1, m2) and the lower Cholesky factor L of the covariance,
packed row by row, (l00, l10, l11, l20, l21, l22). Its steps run on Python
floats, without a numpy call: :func:`posterior_gaussian` turns a track's
prior into this form once per track, :func:`sample_gaussian` draws
mean + L z, and :func:`blr_update` folds one observation in by a rank-1
update of L itself, so the covariance is never formed and the track loop
never factors. Only the meta belief reaches :func:`cholesky`: its draws,
its updates and its KL column. The three
names are spans the benchmark's tracer times (with ``bandit``'s
``agent_contexts``, ``pick_argmax`` and ``record``): ``posterior_gaussian``
per track, the other two per CPI; ROADMAP item 1 will re-cut these spans.
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
    diagonal, counted in ``jitter_retries``. A non-finite entry (before any
    retry, as LAPACK would factor it without an error), a second failure or
    a non-finite factor raises :class:`NotPositiveDefinite`.
    """
    global jitter_retries
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NotPositiveDefinite(f"matrix of shape {m.shape} has a non-finite entry")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        jitter_retries += 1
    scale = float(np.mean(np.abs(np.diag(m))))
    try:
        factor = np.linalg.cholesky(m + JITTER * scale * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        factor = None
    if factor is None or not np.isfinite(factor).all():
        raise NotPositiveDefinite(f"matrix of shape {m.shape} is not positive definite")
    return factor


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


def posterior_gaussian(prior: tuple) -> tuple:
    """The track posterior at its prior (mean, var), the isotropic
    N(mean, var I): the mean as three floats and the lower factor
    sqrt(var) I, packed row by row as (l00, l10, l11, l20, l21, l22)."""
    mean, var = prior
    r = math.sqrt(var)
    return tuple(float(x) for x in mean), (r, 0.0, r, 0.0, 0.0, r)


def sample_gaussian(g: tuple, rng: np.random.Generator) -> tuple:
    """One draw x = mean + L z of a posterior (mean, L), from one
    ``standard_normal(3)`` call: (x0, x1, x2)."""
    (m0, m1, m2), (l00, l10, l11, l20, l21, l22) = g
    z0, z1, z2 = rng.standard_normal(3).tolist()
    return (
        m0 + l00 * z0,
        m1 + (l10 * z0 + l11 * z1),
        m2 + (l20 * z0 + l21 * z1 + l22 * z2),
    )


def blr_update(posterior: tuple, noise_var: float, phi, loss: float) -> tuple:
    """Conjugate update for one observation loss = <theta, phi> + noise:
    the new (mean, L) of the posterior (mean, L), which is only read.

    With f = L^T phi and the suffix sums b3 = noise_var and
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
    r3 = math.sqrt(noise_var)
    r2 = math.hypot(r3, f2)
    r1 = math.hypot(r2, f1)
    r0 = math.hypot(r1, f0)
    b00, b11, b22 = r1 / r0, r2 / r1, r3 / r2
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
