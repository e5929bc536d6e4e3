"""Reporting layer: per-pulse records, summary frequencies, KL traces, and
PAC-Bayes bound evaluators.

Everything here is a pure function of completed records, so any value can be
recomputed from the persisted CSVs and compared exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidInput
from .fstc import TaskDistribution
from .gaussmath import isotropic_gaussian, kl_gaussian
from .meta import meta_gaussian

#: Linear SINR floor before dB conversion, so a zero never hits log10.
DB_FLOOR = 1e-30

#: Isotropic variance of the reference Gaussian the meta belief is compared
#: against: the true prior mean smoothed to a narrow ball.
KL_REFERENCE_VAR = 1e-2

#: Post-processing SINR below this, in dB, counts as an outage.
OUTAGE_DB = 10.0


def sinr_to_db(sinr) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(np.asarray(sinr, dtype=float), DB_FLOOR))


@dataclass(frozen=True)
class TrackRecord:
    """Per-pulse outcome arrays of one track, plus run identity.

    ``outage`` flags the pulses whose SINR fell below ``OUTAGE_DB``.
    """

    state: np.ndarray
    obs: np.ndarray
    waveform: np.ndarray
    sinr_db: np.ndarray
    loss: np.ndarray
    oracle_loss: np.ndarray
    regret_inc: np.ndarray
    suboptimal: np.ndarray
    outage: np.ndarray
    policy: str = ""
    seed: int = 0
    track: int = 0

    def __post_init__(self):
        n = self.loss.size
        for name in ("state", "obs", "waveform", "sinr_db", "oracle_loss",
                     "regret_inc", "suboptimal", "outage"):
            if getattr(self, name).shape != (n,):
                raise InvalidInput(f"field {name} does not have {n} rows")
        if self.outage.dtype != bool:
            raise InvalidInput("outage flags must be boolean")
        if n and float(np.min(self.regret_inc)) < -1e-12:
            raise InvalidInput("negative regret increment")

    def __len__(self) -> int:
        return self.loss.size


def track_record(
    result, *, policy: str = "", seed: int = 0, track: int = 0
) -> TrackRecord:
    """Build a record from a raw per-track result, deriving dB SINR and the
    outage flags."""
    sinr_db = sinr_to_db(result.sinr)
    outage = sinr_db < OUTAGE_DB
    return TrackRecord(
        state=result.state,
        obs=result.obs,
        waveform=result.waveform,
        sinr_db=sinr_db,
        loss=result.loss,
        oracle_loss=result.oracle_loss,
        regret_inc=result.regret_inc,
        suboptimal=result.suboptimal,
        outage=outage,
        policy=policy,
        seed=seed,
        track=track,
    )


def _gather(records, name: str) -> np.ndarray:
    if isinstance(records, TrackRecord):
        records = [records]
    arrays = [getattr(r, name) for r in records]
    if not arrays or sum(a.size for a in arrays) == 0:
        raise EmptyInput("no pulse records")
    return np.concatenate(arrays)


def outage_frequency(records) -> float:
    """Fraction of pulses whose post-processing SINR fell below ``OUTAGE_DB``."""
    return float(np.mean(_gather(records, "outage")))


def suboptimal_frequency(records) -> float:
    """Fraction of pulses where the chosen waveform was not the best available."""
    flags = _gather(records, "suboptimal")
    return float(np.mean(flags))


def kl_trace(meta_history, task_dist: TaskDistribution) -> np.ndarray:
    """Per-track divergence of the meta belief from the smoothed true prior
    mean N(mu_star, KL_REFERENCE_VAR I)."""
    history = list(meta_history)
    if not history:
        raise EmptyInput("empty meta history")
    ref = isotropic_gaussian(task_dist.mu_star, KL_REFERENCE_VAR)
    return np.array([kl_gaussian(meta_gaussian(mp), ref) for mp in history])


# ---------------------------------------------------------------------------
# PAC-Bayes bounds


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of one task's bound term."""

    kl_posterior_prior: float
    m: int
    delta: float = 0.05
    empirical_error: float = 0.0
    n_tasks: int = 1

    def __post_init__(self):
        if self.kl_posterior_prior < 0:
            raise InvalidInput("kl_posterior_prior must be nonnegative")
        if self.m < 2:
            raise InvalidInput("m must be at least 2")
        if not 0.0 < self.delta <= 1.0:
            raise InvalidInput("delta must lie in (0, 1]")
        if not 0.0 <= self.empirical_error <= 1.0:
            raise InvalidInput("empirical_error must lie in [0, 1]")
        if self.n_tasks < 1:
            raise InvalidInput("n_tasks must be at least 1")


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
