"""Reporting layer: the check of one track's per-CPI record, KL traces,
and PAC-Bayes bound evaluators.

Everything here is a pure function of completed records, so any value can be
recomputed from the persisted CSVs and compared exactly.
"""

from dataclasses import dataclass

import numpy as np

from .bandit import TrackResult
from .errors import InvalidInput
from .gaussmath import kl_gaussian

#: Linear SINR floor before dB conversion, so a zero never hits log10.
DB_FLOOR = 1e-30

#: Isotropic variance of the reference Gaussian the meta belief is compared
#: against: the true prior mean smoothed to a narrow ball.
KL_REFERENCE_VAR = 1e-2

#: Post-processing SINR below this, in dB, counts as an outage.
OUTAGE_DB = 10.0


def sinr_to_db(sinr) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(np.asarray(sinr, dtype=float), DB_FLOOR))


def track_record(result: TrackResult) -> TrackResult:
    """One track's record, checked: a regret increment below -1e-12 is rejected."""
    if result.regret_inc.min(initial=0.0) < -1e-12:
        raise InvalidInput("negative regret increment")
    return result


def kl_trace(mp, mu_star: np.ndarray) -> float:
    """Divergence of the meta belief ``mp`` from the smoothed true prior
    mean N(mu_star, KL_REFERENCE_VAR I), from the belief's root (mu, U) and
    the reference's root sqrt(KL_REFERENCE_VAR) I: no factorization."""
    return kl_gaussian((mp.mu, mp.root), (mu_star, np.sqrt(KL_REFERENCE_VAR) * np.eye(3)))


# ---------------------------------------------------------------------------
# PAC-Bayes bounds


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of one task's bound term."""

    kl_posterior_prior: float
    m: int
    delta: float = 0.05
    empirical_error: float = 0.0

    def __post_init__(self):
        if self.kl_posterior_prior < 0:
            raise InvalidInput("kl_posterior_prior must be nonnegative")
        if self.m < 2:
            raise InvalidInput("m must be at least 2")
        if not 0.0 < self.delta <= 1.0:
            raise InvalidInput("delta must lie in (0, 1]")
        if not 0.0 <= self.empirical_error <= 1.0:
            raise InvalidInput("empirical_error must lie in [0, 1]")


def pac_bayes_single(b: BoundInputs) -> float:
    """Single-task bound: empirical error plus the KL complexity term."""
    complexity = np.sqrt(
        (b.kl_posterior_prior + np.log(b.m / b.delta)) / (2.0 * (b.m - 1))
    )
    return float(b.empirical_error + complexity)


def pac_bayes_meta(
    per_task: list, env_kl: float, n_tasks: int, delta: float
) -> float:
    """Multi-task bound: mean empirical error, mean per-task complexity, and
    the environment-level complexity term.

    The environment divergence enters every per-task term as well as the
    final term; per-task sample counts m_i may differ.
    """
    if n_tasks < 2:
        raise InvalidInput("n_tasks must be at least 2")
    if len(per_task) != n_tasks:
        raise InvalidInput(
            f"{len(per_task)} per-task inputs for n_tasks={n_tasks}"
        )
    if env_kl < 0:
        raise InvalidInput("env_kl must be nonnegative")
    if not 0.0 < delta <= 1.0:
        raise InvalidInput("delta must lie in (0, 1]")
    err = float(np.mean([b.empirical_error for b in per_task]))
    task_terms = [
        np.sqrt(
            (env_kl + b.kl_posterior_prior + np.log(2.0 * n_tasks * b.m / delta))
            / (2.0 * (b.m - 1))
        )
        for b in per_task
    ]
    env_term = np.sqrt(
        (env_kl + np.log(2.0 * n_tasks / delta)) / (2.0 * (n_tasks - 1))
    )
    return float(err + np.mean(task_terms) + env_term)
