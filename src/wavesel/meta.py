"""Track-to-track meta-learning over instance-prior means.

Across an experiment, each track is one learning episode whose latent weight
vector is drawn from a shared Gaussian task distribution. The meta level
keeps a Gaussian belief over that distribution's mean, refreshed in closed
form after each completed track from the (context, loss) pairs the per-track
learner consumed. Meta-Thompson sampling draws one candidate mean from the
belief at the start of a track and hands the per-track learner the
corresponding instance prior.

The same experiment loop drives all four selection policies so their random
streams stay aligned: streams are keyed by (seed, policy index, track index)
with the policy index taken from the canonical ``POLICIES`` order, so adding
or removing one policy from a sweep never perturbs another's draws.
"""

from dataclasses import dataclass

import numpy as np

from .bandit import SyntheticTrackEnv, TrackResult, run_track
from .errors import InvalidInput
from .fstc import (
    PhysicalTrackEnv,
    StateProcess,
    TrackSimulator,
    channel_tables,
    draw_instance,
    tap_root,
)
from .gaussmath import Gaussian, cholesky, isotropic_gaussian
from .waveforms import default_catalog

#: Canonical policy order; stream keys always use an index into this tuple.
POLICIES = ("random", "ts-uninformative", "ts-oracle", "meta-ts")

# Stream tags, chosen far above any realistic track count so a tagged key can
# never collide with a (seed, policy, track) key of the same length.
SCENE_TAG = 1_000_003
INSTANCE_TAG = 1_000_019
META_TAG = 1_000_033
ORACLE_TAG = 1_000_037


@dataclass(frozen=True)
class MetaPosterior:
    """Gaussian belief N(mu, precision^-1) over the instance-prior mean.

    Carries the two fixed variances of the hierarchy alongside the belief:
    ``sigma0_sq`` is the instance-prior spread handed to each track and
    ``noise_var`` the observation noise of the per-track linear model.
    """

    mu: np.ndarray
    precision: np.ndarray
    sigma0_sq: float
    noise_var: float

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class TrackData:
    """The (context, loss) pairs one track produced, in pulse order."""

    contexts: np.ndarray
    losses: np.ndarray

    def __len__(self) -> int:
        return self.losses.size


def init_meta(
    sigma_q_sq: float, d: int, *, sigma0_sq: float, noise_var: float
) -> MetaPosterior:
    """Flat starting belief: zero mean with isotropic variance sigma_q_sq."""
    return MetaPosterior(
        np.zeros(d), np.eye(d) / sigma_q_sq, sigma0_sq, noise_var
    )


def meta_mean_cov(mp: MetaPosterior) -> tuple[np.ndarray, np.ndarray]:
    """Moment form (mean, covariance) of the belief over prior means."""
    L = cholesky(mp.precision)
    cov = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(mp.dim)))
    return mp.mu.copy(), 0.5 * (cov + cov.T)


def meta_gaussian(mp: MetaPosterior) -> Gaussian:
    mean, cov = meta_mean_cov(mp)
    return Gaussian(mean, cov)


def sample_instance_prior(mp: MetaPosterior, rng: np.random.Generator) -> Gaussian:
    """Draw a candidate prior mean from the belief; return N(draw, sigma0_sq I).

    Sampling goes through the precision factor directly: with L L^T the
    Cholesky factorization of the precision, mu + L^-T z has exactly the
    belief covariance.
    """
    L = cholesky(mp.precision)
    mean = mp.mu + np.linalg.solve(L.T, rng.standard_normal(mp.dim))
    return isotropic_gaussian(mean, mp.sigma0_sq)


def meta_update(mp: MetaPosterior, data: TrackData) -> MetaPosterior:
    """Fold one completed track, of at least one pulse, into the belief.

    The track's model evidence marginalizes the per-track weights out, so a
    track with contexts X and losses l shifts the belief through the n x n
    marginal covariance M = noise_var I + sigma0_sq X X^T:

        precision' = precision + X^T M^-1 X
        mu'        = precision'^-1 (precision mu + X^T M^-1 l)

    By Woodbury the same step needs only the d x d sufficient statistics
    G = X^T X / noise_var and h = X^T l / noise_var: with
    A = I + sigma0_sq G, X^T M^-1 X = A^-1 G and X^T M^-1 l = A^-1 h. This
    costs O(n d^2) time and no n x n matrix.

    The whole track enters in one joint step; splitting it into sub-blocks
    and updating sequentially would drop the coupling M carries between
    pulses and give a different (wrong) answer.
    """
    X = data.contexts
    G = (X.T @ X) / mp.noise_var
    h = (X.T @ data.losses) / mp.noise_var
    A = np.eye(mp.dim) + mp.sigma0_sq * G
    solved = np.linalg.solve(A, np.column_stack([G, h]))
    gain = solved[:, :-1]
    prec = mp.precision + 0.5 * (gain + gain.T)
    b = mp.precision @ mp.mu + solved[:, -1]
    Lp = cholesky(prec)
    mu = np.linalg.solve(Lp.T, np.linalg.solve(Lp, b))
    return MetaPosterior(mu, prec, mp.sigma0_sq, mp.noise_var)


# ---------------------------------------------------------------------------
# experiment loop

def _rng(*key) -> np.random.Generator:
    """The stream of ``key``, a tuple of nonnegative ints; ``SeedSequence``
    refuses any other item, a float seed included."""
    return np.random.default_rng(np.random.SeedSequence(key))


def policy_index(policy: str) -> int:
    try:
        return POLICIES.index(policy)
    except ValueError:
        raise InvalidInput(f"unknown policy {policy!r}") from None


def scene_rng(seed: int) -> np.random.Generator:
    """Stream for scene-level draws shared by every policy under a seed."""
    return _rng(seed, SCENE_TAG)


def track_rng(seed: int, policy: str, track: int) -> np.random.Generator:
    """Per-track stream driving the policy's scene walk and selections."""
    return _rng(seed, policy_index(policy), track)


def instance_rng(seed: int, track: int) -> np.random.Generator:
    """Stream for the track's episode draw, shared by every policy so that
    policies are compared on a common sequence of episodes."""
    return _rng(seed, INSTANCE_TAG, track)


def meta_prior_rng(seed: int, policy: str) -> np.random.Generator:
    """Dedicated stream for prior-mean draws, kept apart from track streams
    so a degenerate meta level leaves per-track behavior untouched."""
    return _rng(seed, policy_index(policy), META_TAG)


def oracle_rng(seed: int, track: int) -> np.random.Generator:
    """Stream for the expected-loss reference draws of one physical track,
    policy-independent so regret is measured against one fixed reference."""
    return _rng(seed, INSTANCE_TAG, track, ORACLE_TAG)


def run_meta_experiment(
    config, mu_star: np.ndarray, state_proc: StateProcess, policy: str, seed: int
) -> tuple[list[TrackResult], list[MetaPosterior]]:
    """Run ``config.m`` tracks of ``config.n`` pulses under one policy and seed.

    ``config`` is a ``harness.ExperimentConfig``; ``mu_star``, the true prior
    mean, and ``state_proc`` are the seed's scene from
    ``harness.build_scene(config, seed)``.

    Per track: draw the episode (a latent weight vector in synthetic mode, a
    full channel instance in physical mode), pick the policy's instance
    prior, run the per-track selection loop, and, for meta-TS only, fold the
    track's data into the meta belief. Returns the per-track results together
    with the belief state after each track (constant for non-meta policies).

    Priors per policy: ts-oracle uses the true task-distribution mean;
    meta-TS samples a mean from the current belief; random and
    ts-uninformative use a zero-mean prior whose spread is the marginal
    variance sigma_q_sq + sigma0_sq of a weight under the hierarchy.
    """
    n, k_arms, sigma_sq, sigma0_sq = config.n, config.k, config.sigma_sq, config.sigma0_sq
    d = mu_star.size
    mp = init_meta(config.sigma_q_sq, d, sigma0_sq=sigma0_sq, noise_var=sigma_sq)
    sinr_target = 10.0 ** (config.sinr_target_db / 10.0)
    if config.mode == "physical":
        tables = channel_tables(default_catalog(k=k_arms), config.ir_taps, config.doppler)
        root = tap_root(config.ir_taps, config.ir_kernel_scale)
    meta_draws = meta_prior_rng(seed, policy)

    uninformative = isotropic_gaussian(np.zeros(d), config.sigma_q_sq + sigma0_sq)
    oracle_prior = isotropic_gaussian(mu_star, sigma0_sq)

    results: list[TrackResult] = []
    history: list[MetaPosterior] = []
    for t in range(config.m):
        rng = track_rng(seed, policy, t)
        env_rng = instance_rng(seed, t)
        if config.mode == "synthetic":
            theta_star = mu_star + np.sqrt(sigma0_sq) * env_rng.standard_normal(d)
            env = SyntheticTrackEnv(theta_star, state_proc, sigma_sq, sinr_target)
        else:
            inst = draw_instance(config, mu_star, root, env_rng)
            sim = TrackSimulator(config, inst, tables, oracle_rng(seed, t))
            env = PhysicalTrackEnv(sim, state_proc, sinr_target)

        if policy == "ts-oracle":
            prior = oracle_prior
        elif policy == "meta-ts":
            prior = sample_instance_prior(mp, meta_draws)
        else:
            prior = uninformative

        explore = "random" if policy == "random" else "ts"
        result, _ = run_track(env, prior, sigma_sq, n, k_arms, rng, explore=explore)
        if policy == "meta-ts":
            mp = meta_update(mp, TrackData(result.contexts, result.loss))
        results.append(result)
        history.append(mp)
    return results, history
