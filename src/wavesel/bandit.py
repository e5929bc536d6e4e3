"""Per-track waveform selection: a linear contextual bandit with Thompson
sampling over loss-history context features.

Throughout the package "loss" is a higher-is-better normalised reward in
[0, 1]: the post-processing SINR over the target level, clipped, so 1 means
on target or better. The learner maximises it; the CSV column names keep
the word "loss".

Each (observation, waveform) cell carries running statistics of its past
losses; the context vector of a cell is (running mean, population variance,
running max) with neutral fill values before any data arrives. The learner
keeps a Bayesian linear-regression posterior over the weight vector, samples
one weight draw per pulse, and transmits the waveform whose context scores
highest under the draw (Agrawal & Goyal, ICML 2013). All of this state lives
in one :class:`TsAgent` as Python floats: the posterior's nine, the mean
and the covariance's lower factor (see ``gaussmath``), and the Welford
statistics and context table as nested lists, one cell updated per pulse,
so a pulse's contexts, draw, choice and update make no numpy call. A
track's posterior is built from its prior once (``posterior_gaussian``);
the per-CPI steps are ``agent_contexts`` (a snapshot), ``sample_gaussian``
(the draw), ``pick_argmax``, ``record`` (the cell) and, under Thompson
sampling only, ``blr_update`` (the posterior). Each is called through this
module's namespace, where the benchmark's tracer times it; ROADMAP item 1
will re-cut these spans. An exact-linear synthetic environment
generates losses straight from the context model, which makes the
learner's behavior verifiable against closed-form oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidInput
from .fstc import SceneWalk, unit_clip
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
    variance because its sample variance is undefined.
    """

    def __init__(self, prior: tuple, noise_var: float, n_obs: int, k_arms: int):
        self.noise_sd = math.sqrt(noise_var)
        self.posterior = posterior_gaussian(prior)
        self.stats = [[[0.0, 0.0, 0.0, -math.inf] for _ in range(k_arms)]
                      for _ in range(n_obs)]
        self.contexts = [[(COLD_MEAN, COLD_VAR, COLD_MAX)] * k_arms for _ in range(n_obs)]


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
    count += 1
    delta = x - mean
    mean = mean + delta / count
    m2 = m2 + delta * (x - mean)
    mx = max(mx, x)
    cell[:] = count, mean, m2, mx
    agent.contexts[o][w] = (mean, m2 / count if count >= 2 else COLD_VAR, mx)


def synthetic_loss(theta, phi, noise_var: float, rng: np.random.Generator) -> float:
    """Exact-linear loss clamp(<theta, phi> + noise), noise ~ N(0, noise_var)."""
    y = float(np.matmul(theta, phi)) + math.sqrt(noise_var) * rng.standard_normal()
    return unit_clip(y)


# ---------------------------------------------------------------------------
# track loop


@dataclass
class TrackResult:
    """The per-CPI record: raw per-pulse arrays of one track, plus the
    contexts of the (context, loss) pairs the meta level consumes.

    ``run_track`` returns one track's, with (n,) columns and (n, d)
    contexts; ``metrics.track_record`` stacks a replicate's into one with a
    leading track axis, (m, n) and (m, n, d).
    """

    state: np.ndarray
    obs: np.ndarray
    waveform: np.ndarray
    sinr: np.ndarray
    loss: np.ndarray
    oracle_loss: np.ndarray
    regret_inc: np.ndarray
    suboptimal: np.ndarray
    contexts: np.ndarray


class SyntheticTrackEnv(SceneWalk):
    """Exact-linear environment: losses come from the context model itself.

    A pseudo-SINR is derived by inverting the loss map so that SINR-based
    metrics stay defined in this mode.
    """

    def __init__(self, theta_star, state_proc, noise_var, sinr_target):
        super().__init__(state_proc)
        self.theta_star = np.asarray(theta_star, dtype=float)
        self.noise_var = float(noise_var)
        self.sinr_target = float(sinr_target)

    def expected_losses(self, states, contexts: np.ndarray) -> np.ndarray:
        """clip(<theta*, phi>) of a track's (n, K, 3) contexts; the states
        are not read."""
        return np.matmul(contexts, self.theta_star).clip(0.0, 1.0)

    def realize(self, cpi: int, s: int, w_idx: int, phi, rng: np.random.Generator):
        loss = synthetic_loss(self.theta_star, phi, self.noise_var, rng)
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
    nor updates the posterior. Regret increments compare the environment's
    expected losses of the best and the chosen waveform at the contexts
    used for selection.

    The pulse loop carries only what the learner feeds back: scene step,
    draw, choice, outcome, ``record`` and, under Thompson sampling, the
    posterior update with the context that was scored. The learner never
    reads the expected losses, so one ``env.expected_losses(states,
    contexts)`` call, the (n, K) losses of the whole track, gives the oracle
    losses, regret increments and suboptimal flags after the loop.
    """
    agent = TsAgent(prior, noise_var, env.state_proc.n_states, k_arms)
    # offered: the K contexts each pulse chose from, as snapshots
    state, obs, waveform, sinr, loss, offered = [], [], [], [], [], []

    thompson = explore == "ts"
    for k in range(n_cpis):
        s, o = env.step_scene(rng)
        phis = agent_contexts(agent, o)
        offered.append(phis)
        if thompson:
            idx = pick_argmax(sample_gaussian(agent.posterior, rng), phis)
        else:
            idx = int(rng.integers(k_arms))
        realized, sinr_k = env.realize(k, s, idx, phis[idx], rng)
        state.append(s)
        obs.append(o)
        waveform.append(idx)
        sinr.append(sinr_k)
        loss.append(realized)
        record(agent, o, idx, realized)
        if thompson:
            agent.posterior = blr_update(
                agent.posterior, agent.noise_sd, phis[idx], realized
            )

    offered = np.array(offered, dtype=float).reshape(n_cpis, k_arms, CONTEXT_DIM)
    state = np.array(state, dtype=int)
    waveform = np.array(waveform, dtype=int)
    pulses = np.arange(n_cpis)
    expected = env.expected_losses(state, offered)
    oracle_loss = expected.max(axis=-1)
    chosen = expected[pulses, waveform]
    return TrackResult(
        state=state,
        obs=np.array(obs, dtype=int),
        waveform=waveform,
        sinr=np.array(sinr, dtype=float),
        loss=np.array(loss, dtype=float),
        oracle_loss=oracle_loss,
        regret_inc=oracle_loss - chosen,
        suboptimal=chosen < oracle_loss - TIE_TOL,
        contexts=offered[pulses, waveform],
    ), agent
