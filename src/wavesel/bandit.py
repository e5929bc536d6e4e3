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
``gaussmath`` packs it). The draws a pulse reads come in blocks: its
policy's selection stream gives ``STACK_BLOCK`` pulses of Thompson normals
(or the random baseline's choices) per call, and the environment holds the
track's scene walk and loss noise, drawn once per (seed, track) and read by
pulse index.

``run_track`` is one per-track kernel. It keeps the posterior's nine
floats as locals for the whole track; each pulse reads the walk's
observation, takes its snapshot, draws, scores, folds the outcome into its
cell, updates the posterior inline and makes one call into the
environment, ``realize``. The per-step definitions below,
``agent_contexts``, ``pick_argmax`` and ``record`` (with
``gaussmath.sample_gaussian`` and ``gaussmath.blr_update``), are the
reference the loop is tested against, bit for bit; the benchmark's tracer
still wraps them by name, so their spans read n = 0. An exact-linear
synthetic environment generates losses straight from the context model,
which makes the learner's behavior verifiable against closed-form oracles.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import IndexOutOfRange, InvalidInput
from .fstc import SceneWalk, blocks
from .gaussmath import blr_update, posterior_gaussian, sample_gaussian

# sample_gaussian and blr_update are re-exported for the benchmark's tracer,
# which wraps the per-CPI steps by name in this namespace
__all__ = [
    "COLD_MAX", "COLD_MEAN", "COLD_VAR", "CONTEXT_DIM", "TIE_TOL", "SyntheticTrackEnv",
    "TrackResult", "TsAgent", "agent_contexts", "blr_update", "pick_argmax",
    "posterior_gaussian", "record", "run_track", "sample_gaussian",
]

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
    starts as sqrt(var) I; ``run_track`` holds it in locals while the track
    runs and stores the final belief here. ``noise_sd`` is the observation
    noise's standard deviation, the root of the noise variance.
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

    def expected_losses(self, contexts) -> np.ndarray:
        """The (n, K) clip(<theta*, phi>) of a track's snapshots of K (mean,
        variance, max) rows, stacked ``STACK_BLOCK`` pulses at a time."""
        out = np.empty((len(contexts), len(contexts[0])))
        for start, size in blocks(len(out)):
            block = chain.from_iterable(chain.from_iterable(contexts[start : start + size]))
            rows = np.fromiter(block, float).reshape(size, out.shape[1], CONTEXT_DIM)
            np.matmul(rows, self.theta_star, out=out[start : start + size])
        return out.clip(0.0, 1.0, out=out)

    def realize(self, cpi: int, w_idx: int, phi):
        """(loss, pseudo-SINR) of pulse ``cpi`` under the context ``phi``:
        clip(<theta*, phi> + noise) to [0, 1], as ``np.clip`` gives it.
        ``theta_star.dot`` of the tuple gives the float ``np.vecdot`` gives
        in a stack; the (n, K, 3) ``np.matmul`` of :meth:`expected_losses`
        differs from it in the last bit at some entries."""
        x = float(self.theta_star.dot(phi)) + self.noise[cpi]
        loss = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
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
    baseline. The state and observation columns are the environment's walk,
    its ``states`` and ``obs`` lists.

    The pulse loop carries only what the learner feeds back: the walk's
    observation, the snapshot of its K contexts, the draw and choice, one
    ``env.realize`` call for the outcome, the Welford step of the chosen
    cell and, under Thompson sampling, the posterior update with the
    context that was scored. Each step is inlined with the arithmetic
    of its per-step definition (``agent_contexts``, ``sample_gaussian``,
    ``pick_argmax``, ``record``, ``blr_update``), in the same order of
    operations, so every float is theirs to the bit; a loss outside [0, 1],
    a NaN included, raises ``InvalidInput`` as ``record`` does. The
    learner never reads the expected losses, so one
    ``env.expected_losses(offered)`` call after the loop, on the n snapshots
    the pulses chose from, gives the oracle losses, the regret increments
    (best minus chosen) and the suboptimal flags; only the synthetic
    environment reads the snapshots.
    """
    agent = TsAgent(prior, noise_var, env.state_proc.n_states, k_arms)
    obs, realize, noise_sd = env.obs, env.realize, agent.noise_sd
    cells, table = agent.stats, agent.contexts
    # the posterior's mean and packed lower factor, as blr_update reads them
    (m0, m1, m2), (l00, l10, l11, l20, l21, l22) = agent.posterior
    hypot, unscored = math.hypot, -math.inf
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
            o = obs[k]
            row = table[o]
            phis = tuple(row)
            offer(phis)
            if thompson:
                # sample_gaussian, then pick_argmax: the first maximum wins
                z0, z1, z2 = draw
                t0 = m0 + l00 * z0
                t1 = m1 + (l10 * z0 + l11 * z1)
                t2 = m2 + (l20 * z0 + l21 * z1 + l22 * z2)
                idx, top = 0, unscored
                for i, (c0, c1, c2) in enumerate(phis):
                    score = c0 * t0 + c1 * t1 + c2 * t2
                    if score > top:
                        idx, top = i, score
            else:
                idx = draw
            phi = phis[idx]
            x, sinr_k = realize(k, idx, phi)
            keep((idx, sinr_k, x))
            add_scored(phi)
            # record: the Welford step of cell (o, idx) and its context
            if not 0.0 <= x <= 1.0:
                raise InvalidInput(f"loss {x} outside [0, 1]")
            cell = cells[o][idx]
            count, mean, sq, peak = cell
            cell[0] = count = count + 1
            delta = x - mean
            cell[1] = mean = mean + delta / count
            cell[2] = sq = sq + delta * (x - mean)
            if x > peak:
                cell[3] = peak = x
            row[idx] = (mean, sq / count if count >= 2 else COLD_VAR, peak)
            if thompson:
                # blr_update, in its order of operations
                p0, p1, p2 = phi
                f0 = l00 * p0 + l10 * p1 + l20 * p2
                f1 = l11 * p1 + l21 * p2
                f2 = l22 * p2
                r2 = hypot(noise_sd, f2)
                r1 = hypot(r2, f1)
                r0 = hypot(r1, f0)
                b00, b11, b22 = r1 / r0, r2 / r1, noise_sd / r2
                g0, g1 = f0 / r0 / r1, f1 / r1 / r2
                b10, b20, b21 = -f1 * g0, -f2 * g0, -f2 * g1
                k0 = l00 * f0
                k1 = l10 * f0 + l11 * f1
                k2 = l20 * f0 + l21 * f1 + l22 * f2
                gain = (x - (p0 * m0 + p1 * m1 + p2 * m2)) / (r0 * r0)
                m0, m1, m2 = m0 + k0 * gain, m1 + k1 * gain, m2 + k2 * gain
                l00, l10, l11, l20, l21, l22 = (
                    l00 * b00,
                    l10 * b00 + l11 * b10,
                    l11 * b11,
                    l20 * b00 + l21 * b10 + l22 * b20,
                    l21 * b11 + l22 * b21,
                    l22 * b22,
                )
    agent.posterior = (m0, m1, m2), (l00, l10, l11, l20, l21, l22)

    state = np.fromiter(env.states, int, n_cpis)
    waveform = np.array(pulses[0::3], dtype=int)
    expected = env.expected_losses(offered)
    oracle_loss = expected.max(axis=-1)
    chosen = expected[np.arange(n_cpis), waveform]
    return TrackResult(
        state=state,
        obs=np.fromiter(obs, int, n_cpis),
        waveform=waveform,
        sinr=np.array(pulses[1::3], dtype=float),
        loss=np.array(pulses[2::3], dtype=float),
        oracle_loss=oracle_loss,
        regret_inc=oracle_loss - chosen,
        suboptimal=chosen < oracle_loss - TIE_TOL,
    ), agent
