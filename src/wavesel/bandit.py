"""Per-track waveform selection: a linear contextual bandit with Thompson
sampling over loss-history context features.

Throughout the package "loss" is a higher-is-better normalised reward in
[0, 1]: the post-processing SINR over the target level, clipped, so 1 means
on target or better. The learner maximises it; the CSV column names keep
the word "loss".

Each (observation, waveform) cell carries running statistics of its past
losses; the context vector of a cell is (running mean, population variance,
running max) with neutral fill values before any data arrives. The learner
keeps a Bayesian linear-regression posterior over the weights, samples one
draw per pulse and transmits the waveform whose context scores highest
under it (Agrawal & Goyal, ICML 2013). All of this state lives in one
:class:`TsAgent` as Python floats and nested lists (the posterior packed as
``gaussmath`` packs it), so a pulse's contexts, draw, choice and update
make no numpy call. The draws a pulse reads come in blocks: its policy's
selection stream gives ``STACK_BLOCK`` pulses of Thompson normals (or the
random baseline's choices) per call, and the environment holds the track's
scene walk and loss noise, drawn once per (seed, track) and read by pulse
index. ``run_track`` builds the posterior once
(``posterior_gaussian``), binds the environment's methods once per track,
and calls the per-CPI steps through this module's namespace, where the
benchmark's tracer times each: ``agent_contexts`` (a snapshot),
``sample_gaussian``, ``pick_argmax``, ``record`` and, under Thompson
sampling only, ``blr_update``; ROADMAP item 1 will re-cut these spans. The
snapshots are stacked after the pulses, by ``np.fromiter``. An exact-linear
synthetic environment generates losses straight from the context model,
which makes the learner's behavior verifiable against closed-form oracles.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import IndexOutOfRange, InvalidInput
from .fstc import SceneWalk, blocks, unit_clip
from .gaussmath import blr_update, posterior_gaussian, sample_gaussian

COLD_MEAN = 0.5
COLD_VAR = 1.0 / 12.0
COLD_MAX = 0.5

#: Features per context: (mean, variance, max).
CONTEXT_DIM = 3

#: Two expected losses within this of each other count as tied for regret
#: and suboptimality accounting.
TIE_TOL = 1e-12


class TsAgent:
    """Mutable learner state of one track, all of it Python floats.

    ``posterior`` is the belief over the weights as ``gaussmath`` packs it:
    the mean and the covariance's lower Cholesky factor, built once from
    the prior (mean, var), the isotropic N(mean, var I), so the factor
    starts as sqrt(var) I; ``noise_sd`` is the observation noise's standard
    deviation, the root of the noise variance.
    ``stats[o][w]`` is the Welford accumulator [count, mean, m2, max] of the
    losses seen for waveform w at observation o, and ``contexts[o][w]`` the
    context tuple (mean, variance, max) derived from it, so ``contexts[o]``
    is the list of K rows scored at observation o. Cells with no data hold
    the neutral fill (0.5, 1/12, 0.5); a single sample keeps the fill
    variance because its sample variance is undefined. ``scored`` lists the
    row each pulse chose, the contexts the meta level consumes.
    """

    def __init__(self, prior: tuple, noise_var: float, n_obs: int, k_arms: int):
        self.noise_sd = math.sqrt(noise_var)
        self.posterior = posterior_gaussian(prior)
        self.stats = [[[0.0, 0.0, 0.0, -math.inf] for _ in range(k_arms)]
                      for _ in range(n_obs)]
        self.contexts = [[(COLD_MEAN, COLD_VAR, COLD_MAX)] * k_arms for _ in range(n_obs)]
        self.scored = []


def agent_contexts(agent: TsAgent, o: int) -> tuple:
    """Context tuples of every waveform at observation o: a snapshot, the
    tuple of the K (mean, variance, max) rows, which a later ``record``
    does not change."""
    return tuple(agent.contexts[o])


def pick_argmax(theta, contexts) -> int:
    """Index of the highest-scoring context under the weights ``theta``,
    scored in floats over the K rows of three; the first maximum wins, as
    with ``np.argmax``."""
    t0, t1, t2 = theta
    best, top = 0, -math.inf
    for i, (c0, c1, c2) in enumerate(contexts):
        score = c0 * t0 + c1 * t1 + c2 * t2
        if score > top:
            best, top = i, score
    return best


def record(agent: TsAgent, o: int, w: int, loss: float) -> None:
    """Fold one outcome of waveform w at observation o into the cell (o, w)
    in place: its Welford accumulator and context tuple. The posterior is
    ``run_track``'s to update, with the row that was scored.
    """
    stats = agent.stats
    if not (0 <= o < len(stats) and 0 <= w < len(stats[o])):
        raise IndexOutOfRange(
            f"cell ({o}, {w}) outside {len(stats)} observations x "
            f"{len(stats[0]) if stats else 0} waveforms"
        )
    x = float(loss)
    if not 0.0 <= x <= 1.0:
        raise InvalidInput(f"loss {x} outside [0, 1]")
    cell = stats[o][w]
    count, mean, m2, mx = cell
    cell[0] = count = count + 1
    delta = x - mean
    cell[1] = mean = mean + delta / count
    cell[2] = m2 = m2 + delta * (x - mean)
    if x > mx:
        cell[3] = mx = x
    agent.contexts[o][w] = (mean, m2 / count if count >= 2 else COLD_VAR, mx)


def synthetic_loss(theta, phi, noise: float) -> float:
    """Exact-linear loss clamp(<theta, phi> + noise) for an array ``theta``
    and one noise value; ``theta.dot`` and ``np.matmul`` give the same
    float, and ``dot`` costs less per call."""
    return unit_clip(float(theta.dot(phi)) + noise)


# ---------------------------------------------------------------------------
# track loop


@dataclass
class TrackResult:
    """The per-CPI record of one track, (n,) arrays: the one shape per-CPI
    data takes. The harness writes each track's rows to its replicate's
    file, keeps the track's summary values and drops the record.
    """

    state: np.ndarray
    obs: np.ndarray
    waveform: np.ndarray
    sinr: np.ndarray
    loss: np.ndarray
    oracle_loss: np.ndarray
    regret_inc: np.ndarray
    suboptimal: np.ndarray


class SyntheticTrackEnv(SceneWalk):
    """Exact-linear environment: losses come from the context model itself.

    The track's scene walk, of ``n_cpis`` pulses from ``walk_rng``, and its
    loss noise are drawn once: ``noise_rng`` gives one standard normal a
    pulse, ``STACK_BLOCK`` pulses at a time, kept scaled by
    sqrt(``noise_var``), so every policy that reaches pulse cpi adds the
    same noise. The environment holds no learner state, so every policy of
    a seed reads one. A pseudo-SINR is derived by inverting the loss map so
    that SINR-based metrics stay defined in this mode.
    """

    def __init__(self, theta_star, state_proc, noise_var, sinr_target, n_cpis: int,
                 walk_rng: np.random.Generator, noise_rng: np.random.Generator):
        super().__init__(state_proc, n_cpis, walk_rng)
        self.theta_star = np.asarray(theta_star, dtype=float)
        self.noise_var = float(noise_var)
        self.sinr_target = float(sinr_target)
        noise_sd = math.sqrt(self.noise_var)
        self.noise = []
        for _, size in blocks(n_cpis):
            self.noise.extend((noise_sd * noise_rng.standard_normal(size)).tolist())

    def expected_losses(self, states, contexts) -> np.ndarray:
        """The (n, K) clip(<theta*, phi>) of a track's snapshots of K (mean,
        variance, max) rows, stacked ``STACK_BLOCK`` pulses at a time."""
        out = np.empty((len(contexts), len(contexts[0])))
        for start, size in blocks(len(out)):
            block = chain.from_iterable(chain.from_iterable(contexts[start : start + size]))
            rows = np.fromiter(block, float).reshape(size, out.shape[1], CONTEXT_DIM)
            np.matmul(rows, self.theta_star, out=out[start : start + size])
        return out.clip(0.0, 1.0, out=out)

    def realize(self, cpi: int, s: int, w_idx: int, phi):
        loss = synthetic_loss(self.theta_star, phi, self.noise[cpi])
        return loss, loss * self.sinr_target


def run_track(
    env,
    prior: tuple,
    noise_var: float,
    n_cpis: int,
    k_arms: int,
    rng: np.random.Generator,
    explore: str = "ts",
) -> tuple[TrackResult, TsAgent]:
    """Run one track of n_cpis pulses against an environment, from the
    prior (mean, var), the isotropic N(mean, var I).

    ``explore`` is "ts" for Thompson sampling or "random" for the uniform
    baseline, which records outcomes in the context table but neither reads
    nor updates the posterior. ``rng`` is the policy's selection stream,
    read ``STACK_BLOCK`` pulses at a time: three standard normals a pulse
    for Thompson sampling, one ``integers(k_arms)`` a pulse for the random
    baseline. The environment's walk and noise are its own; the state and
    observation columns are its walk's ``states`` and ``obs`` lists. Regret
    increments compare the environment's expected losses of the best and
    the chosen waveform at the contexts used for selection.

    The pulse loop carries only what the learner feeds back: scene step,
    draw, choice, outcome, ``record`` and, under Thompson sampling, the
    posterior update with the context that was scored. The learner never
    reads the expected losses, so one ``env.expected_losses(states,
    offered)`` call after the loop, on the n snapshots the pulses chose
    from, gives the oracle losses, regret increments and suboptimal flags;
    only the synthetic environment reads the snapshots.
    """
    agent = TsAgent(prior, noise_var, env.state_proc.n_states, k_arms)
    step_scene, realize, noise_sd = env.step_scene, env.realize, agent.noise_sd
    # pulses: each pulse's choice, SINR and loss, flat; offered: the K
    # contexts it chose from, as a snapshot; the agent's scored: its choice
    pulses, offered = [], []
    keep, offer, add_scored = pulses.extend, offered.append, agent.scored.append
    thompson = explore == "ts"
    for start, size in blocks(n_cpis):
        if thompson:
            draws = rng.standard_normal((size, CONTEXT_DIM)).tolist()
        else:
            draws = rng.integers(k_arms, size=size).tolist()
        for k, draw in enumerate(draws, start):
            s, o = step_scene(k)
            phis = agent_contexts(agent, o)
            offer(phis)
            idx = pick_argmax(sample_gaussian(agent.posterior, draw), phis) if thompson else draw
            phi = phis[idx]
            realized, sinr_k = realize(k, s, idx, phi)
            keep((idx, sinr_k, realized))
            add_scored(phi)
            record(agent, o, idx, realized)
            if thompson:
                agent.posterior = blr_update(agent.posterior, noise_sd, phi, realized)

    state = np.fromiter(env.states, int, n_cpis)
    waveform = np.array(pulses[0::3], dtype=int)
    expected = env.expected_losses(state, offered)
    oracle_loss = expected.max(axis=-1)
    chosen = expected[np.arange(n_cpis), waveform]
    return TrackResult(
        state=state,
        obs=np.fromiter(env.obs, int, n_cpis),
        waveform=waveform,
        sinr=np.array(pulses[1::3], dtype=float),
        loss=np.array(pulses[2::3], dtype=float),
        oracle_loss=oracle_loss,
        regret_inc=oracle_loss - chosen,
        suboptimal=chosen < oracle_loss - TIE_TOL,
    ), agent
