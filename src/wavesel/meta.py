"""Track-to-track meta-learning over instance-prior means.

Across an experiment, each track is one learning episode whose latent weight
vector is drawn from a shared Gaussian task distribution. The meta level
keeps a Gaussian belief over that distribution's mean, refreshed in closed
form after each completed track from the (context, loss) pairs the per-track
learner consumed. Meta-Thompson sampling draws one candidate mean from the
belief at the start of a track and hands the per-track learner the
corresponding instance prior.

One generator runs a seed block, every listed policy under one seed, and
yields each finished track: each track's episode is drawn once and every
policy reads it. The random draws are split by purpose into keyed streams
(stream layout version 2; README's "Random streams" table lists them):

- per seed, the scene's transition table (``scene_rng``) and meta-TS's
  prior-mean draws (``meta_prior_rng``);
- per (seed, track), shared by every policy: the episode (``instance_rng``),
  the hidden-state walk (``walk_rng``), the loss noise (``noise_rng``) and,
  in physical mode, the expected-loss reference (``oracle_rng``);
- per (seed, policy, track): the policy's selection draws (``track_rng``).

So the policies of a seed are compared on common episodes: the same
instance, hidden states, observations and noise, and only the choices
differ (common random numbers; Glasserman & Yao, Management Science 1992).
A policy's keys use its canonical ``POLICIES`` index, so adding or removing
one policy from a block never perturbs another's draws. The walk, the noise
and the selection draws are made ``STACK_BLOCK`` pulses at a time and read
by pulse index. The physical channel's tables depend on no seed:
:func:`process_tables` builds them once per process for each (k,
``ir_taps``, ``doppler``) and every later block at those values reads that
build.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .bandit import SyntheticTrackEnv, run_track
from .errors import InvalidInput
from .fstc import (
    ChannelTables,
    PhysicalTrackEnv,
    StateProcess,
    TrackSimulator,
    channel_tables,
    draw_instance,
    tap_root,
)
from .gaussmath import blr_update, cholesky
from .waveforms import default_catalog

#: Canonical policy order; stream keys always use an index into this tuple.
POLICIES = ("random", "ts-uninformative", "ts-oracle", "meta-ts")

# Stream tags, chosen far above any realistic track count so a tagged key can
# never collide with a (seed, policy, track) key of the same length.
SCENE_TAG = 1_000_003
INSTANCE_TAG = 1_000_019
META_TAG = 1_000_033
ORACLE_TAG = 1_000_037
WALK_TAG = 1_000_039
NOISE_TAG = 1_000_081


@dataclass(frozen=True)
class MetaPosterior:
    """Gaussian belief N(mu, U U^T) over the instance-prior mean, U upper
    triangular with a positive diagonal: L^-T for the precision's Cholesky
    factor L, so a draw mu + U z is the precision form's mu + L^-T z.

    Carries the two fixed variances of the hierarchy alongside the belief,
    the config's values of the same names: ``sigma0_sq`` is the
    instance-prior spread handed to each track and ``sigma_sq`` the
    observation noise of the per-track linear model.
    """

    mu: np.ndarray
    root: np.ndarray
    sigma0_sq: float
    sigma_sq: float


@dataclass(frozen=True)
class TrackData:
    """The (context, loss) pairs one track produced, in pulse order."""

    contexts: np.ndarray
    losses: np.ndarray

    def __len__(self) -> int:
        return self.losses.size


def init_meta(sigma_q_sq: float, *, sigma0_sq: float, sigma_sq: float) -> MetaPosterior:
    """Flat starting belief over the three weights: zero mean with isotropic
    variance sigma_q_sq, whose root sqrt(sigma_q_sq) I is the one matrix a
    replicate factors (``gaussmath`` says why)."""
    return MetaPosterior(np.zeros(3), cholesky(sigma_q_sq * np.eye(3)), sigma0_sq, sigma_sq)


def sample_instance_prior(mp: MetaPosterior, rng: np.random.Generator) -> np.ndarray:
    """Draw a candidate prior mean mu + U z from the belief, from one
    ``standard_normal(3)`` call; the track's prior is then
    (draw, sigma0_sq)."""
    return mp.mu + mp.root @ rng.standard_normal(3)


def meta_update(mp: MetaPosterior, data: TrackData) -> MetaPosterior:
    """Fold one completed track, of at least one pulse, into the belief.

    The track's model evidence marginalizes the per-track weights out: a
    track with contexts X and losses l observes l = X mu + w, where w has
    the n x n covariance sigma_sq I + sigma0_sq X X^T. With sigma the root
    of sigma_sq and the thin SVD X / sigma = Q S V^T, the losses rotated to
    y = Q^T l / sigma are y_i = s_i v_i^T mu + e_i, where the e_i are
    independent with variance 1 + sigma0_sq s_i^2; the part of l / sigma
    outside the range of X carries no information about mu. So the joint
    track update is exactly min(n, 3) independent pseudo-observations
    (s_i v_i, y_i), each folded in by ``gaussmath.blr_update`` with the
    noise root hypot(1, sqrt(sigma0_sq) s_i), which cannot overflow. A zero
    singular value leaves the belief as it is. This costs O(n) time, forms
    no n x n matrix and factors nothing.

    ``blr_update`` updates a lower factor: with J the exchange matrix, each
    step runs on (J mu, J U J), the lower root of J mu's covariance, with
    the context J s_i v_i, and U stays upper triangular.

    The whole track enters in one joint step; splitting it into sub-blocks
    and updating sequentially would drop the coupling the covariance of w
    carries between pulses and give a different (wrong) answer.
    """
    sigma, sd0 = math.sqrt(mp.sigma_sq), math.sqrt(mp.sigma0_sq)
    q, s, vt = np.linalg.svd(data.contexts / sigma, full_matrices=False)
    y = q.T @ data.losses / sigma
    (u00, u01, u02), (_, u11, u12), (_, _, u22) = mp.root.tolist()
    post = tuple(mp.mu[::-1].tolist()), (u22, u12, u11, u02, u01, u00)
    for s_i, v_i, y_i in zip(s.tolist(), vt[:, ::-1].tolist(), y.tolist()):
        phi = [s_i * x for x in v_i]
        post = blr_update(post, math.hypot(1.0, sd0 * s_i), phi, y_i)
    (m2, m1, m0), (u22, u12, u11, u02, u01, u00) = post
    root = np.array([[u00, u01, u02], [0.0, u11, u12], [0.0, 0.0, u22]])
    return MetaPosterior(np.array([m0, m1, m2]), root, mp.sigma0_sq, mp.sigma_sq)


# ---------------------------------------------------------------------------
# experiment loop

#: Channel-table builds a process keeps, the least recently used dropped
#: first. A sweep reads one; a build at the default k and ``ir_taps`` holds
#: about 0.18 MB at ``doppler`` 0 and 0.34 MB at 0.7 (tracemalloc, the
#: envelopes' kept autocorrelations aside), of which the noise covariance's
#: eigenvalues, which both noise draws read, are 1.3 KB.
TABLE_CACHE_SIZE = 4


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _cached_tables(k: int, n_taps: int, doppler: float, doppler_sign: float) -> ChannelTables:
    return channel_tables(default_catalog(k=k), n_taps, doppler)


def process_tables(config) -> ChannelTables:
    """The read-only :class:`~wavesel.fstc.ChannelTables` of ``config``'s
    k, ``ir_taps`` and ``doppler``, built on the first request in the
    process and shared by every later one. The key carries the sign of
    ``doppler``, so -0.0 and 0.0, which compare equal, are built apart.
    ``_cached_tables.cache_clear()`` drops every build."""
    d = config.doppler
    return _cached_tables(config.k, config.ir_taps, d, math.copysign(1.0, d))


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
    """Stream for scene-level draws shared by every policy under a seed: the
    transition table."""
    return _rng(seed, SCENE_TAG)


def track_rng(seed: int, policy: str, track: int) -> np.random.Generator:
    """The policy's selection stream of one track and nothing else: three
    standard normals a pulse under Thompson sampling, one choice a pulse
    for the random baseline."""
    return _rng(seed, policy_index(policy), track)


def instance_rng(seed: int, track: int) -> np.random.Generator:
    """Stream for the track's episode draw (theta, and in physical mode the
    impulse responses and the trajectory), made once per seed block and read
    by every policy."""
    return _rng(seed, INSTANCE_TAG, track)


def walk_rng(seed: int, track: int) -> np.random.Generator:
    """Stream for the track's hidden-state walk and its observations, three
    uniforms a pulse, walked once per seed block and read by every policy."""
    return _rng(seed, WALK_TAG, track)


def noise_rng(seed: int, track: int) -> np.random.Generator:
    """Stream for the track's loss noise, drawn once per seed block and read
    by every policy: one standard normal a pulse in synthetic mode, K times
    width standard exponentials a pulse in physical mode."""
    return _rng(seed, NOISE_TAG, track)


def meta_prior_rng(seed: int, policy: str) -> np.random.Generator:
    """Dedicated stream for prior-mean draws, kept apart from track streams
    so a degenerate meta level leaves per-track behavior untouched."""
    return _rng(seed, policy_index(policy), META_TAG)


def oracle_rng(seed: int, track: int) -> np.random.Generator:
    """Stream for the expected-loss reference draws of one physical track,
    one ``standard_exponential`` call read once per seed block, so regret is
    measured against one reference."""
    return _rng(seed, INSTANCE_TAG, track, ORACLE_TAG)


def run_meta_experiment(
    config, mu_star: np.ndarray, state_proc: StateProcess, policies: tuple, seed: int
):
    """Run ``config.m`` tracks of ``config.n`` pulses under ``policies`` and
    one seed, yielding each finished track, in the order of ``policies``
    within a track, as (policy, track, ``TrackResult``, the policy's meta
    belief after it, the flat one for non-meta), and keeping none.

    ``config`` is a ``harness.ExperimentConfig``; ``mu_star``, the true prior
    mean, and ``state_proc`` are the seed's scene from
    ``harness.build_scene(config, seed)``.

    Per track: draw the episode once (a latent weight vector in synthetic
    mode, a channel instance and its simulator in physical mode) with its
    scene walk and loss noise, as one environment; then, per policy, pick
    its instance prior, run the per-track selection loop on that
    environment with the policy's own selection stream, and, for meta-TS
    only, fold the track's scored contexts and losses into the meta belief.

    A track's prior is a pair (mean, var), the isotropic N(mean, var I).
    Per policy: ts-oracle uses (mu_star, sigma0_sq); meta-TS samples the
    mean from the current belief, with sigma0_sq; random and
    ts-uninformative use a zero mean whose spread is the marginal variance
    sigma_q_sq + sigma0_sq of a weight under the hierarchy.
    """
    n, k_arms, sigma_sq, sigma0_sq = config.n, config.k, config.sigma_sq, config.sigma0_sq
    d = mu_star.size
    flat = mp = init_meta(config.sigma_q_sq, sigma0_sq=sigma0_sq, sigma_sq=sigma_sq)
    sinr_target = 10.0 ** (config.sinr_target_db / 10.0)
    if config.mode == "physical":
        tables = process_tables(config)
        root = tap_root(config.ir_taps, config.ir_kernel_scale)
    meta_draws = meta_prior_rng(seed, "meta-ts")
    uninformative = (np.zeros(d), config.sigma_q_sq + sigma0_sq)

    for t in range(config.m):
        # the episode, its walk and its noise, drawn once for every policy
        env_rng, walk, noise = instance_rng(seed, t), walk_rng(seed, t), noise_rng(seed, t)
        if config.mode == "synthetic":
            theta_star = mu_star + np.sqrt(sigma0_sq) * env_rng.standard_normal(d)
            env = SyntheticTrackEnv(
                theta_star, state_proc, sigma_sq, sinr_target, n, walk, noise
            )
        else:
            inst = draw_instance(config, mu_star, root, env_rng)
            sim = TrackSimulator(config, inst, tables, oracle_rng(seed, t), noise)
            env = PhysicalTrackEnv(sim, state_proc, sinr_target, walk)
        for policy in policies:
            if policy == "ts-oracle":
                prior = (mu_star, sigma0_sq)
            elif policy == "meta-ts":
                prior = (sample_instance_prior(mp, meta_draws), sigma0_sq)
            else:
                prior = uninformative
            rng = track_rng(seed, policy, t)
            explore = "random" if policy == "random" else "ts"
            result, agent = run_track(env, prior, sigma_sq, n, k_arms, rng, explore=explore)
            if policy == "meta-ts":
                scored = np.fromiter(chain.from_iterable(agent.scored), float).reshape(n, d)
                mp = meta_update(mp, TrackData(scored, result.loss))
            yield policy, t, result, mp if policy == "meta-ts" else flat
