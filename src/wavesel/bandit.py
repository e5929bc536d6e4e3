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
in one :class:`TsAgent` whose arrays are updated in place, one cell per
pulse. An exact-linear synthetic environment generates losses straight from
the context model, which makes the learner's behavior verifiable against
closed-form oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidInput
from .fstc import SceneWalk, unit_clip
from .gaussmath import (
    Gaussian,
    blr_update,
    posterior_gaussian,
    sample_gaussian,
    to_linear_posterior,
)

COLD_MEAN = 0.5
COLD_VAR = 1.0 / 12.0
COLD_MAX = 0.5

#: Two expected losses within this of each other count as tied for regret
#: and suboptimality accounting.
TIE_TOL = 1e-12


class TsAgent:
    """Mutable learner state of one track.

    ``posterior`` is the covariance-form belief over the weights.
    ``stats[o, w]`` is the Welford accumulator (count, mean, m2, max) of the
    losses seen for waveform w at observation o, and ``contexts[o, w]`` the
    context vector (mean, variance, max) derived from it, so ``contexts[o]``
    is the contiguous (K, 3) block scored at observation o. Cells with no
    data hold the neutral fill (0.5, 1/12, 0.5); a single sample keeps the
    fill variance because its sample variance is undefined.
    """

    def __init__(self, prior: Gaussian, noise_var: float, n_obs: int, k_arms: int):
        if k_arms < 1:
            raise InvalidInput("k_arms must be at least 1")
        self.posterior = to_linear_posterior(prior, noise_var)
        self.stats = np.zeros((n_obs, k_arms, 4))
        self.stats[..., 3] = -np.inf
        self.contexts = np.empty((n_obs, k_arms, 3))
        self.contexts[...] = (COLD_MEAN, COLD_VAR, COLD_MAX)


def agent_contexts(agent: TsAgent, o: int) -> np.ndarray:
    """Context vectors of every waveform at observation o, shape (K, 3).

    This is a view of the agent's table: ``record`` at observation o
    changes it.
    """
    return agent.contexts[o]


def pick_argmax(theta: np.ndarray, contexts: np.ndarray) -> int:
    """Index of the highest-scoring context; ties go to the lowest index."""
    return int(np.matmul(contexts, theta).argmax())


def record(agent: TsAgent, o: int, w: int, loss: float, phi: np.ndarray) -> None:
    """Fold one outcome into the agent in place.

    Performs the conjugate posterior update with ``phi``, the context that
    was used at selection time, then updates the Welford cell (o, w) and its
    context vector. ``phi`` may be a view of that cell.
    """
    n_obs, k_arms, _ = agent.stats.shape
    if not (0 <= o < n_obs and 0 <= w < k_arms):
        raise IndexOutOfRange(
            f"cell ({o}, {w}) outside {n_obs} observations x {k_arms} waveforms"
        )
    x = float(loss)
    if not 0.0 <= x <= 1.0:
        raise InvalidInput(f"loss {x} outside [0, 1]")
    blr_update(agent.posterior, phi, x)
    cell = agent.stats[o, w]
    count, mean, m2, mx = cell.tolist()
    count += 1
    delta = x - mean
    mean = mean + delta / count
    m2 = m2 + delta * (x - mean)
    mx = max(mx, x)
    cell[0], cell[1], cell[2], cell[3] = count, mean, m2, mx
    context = agent.contexts[o, w]
    context[0], context[1], context[2] = (
        mean, m2 / count if count >= 2 else COLD_VAR, mx
    )


def synthetic_loss(
    theta: np.ndarray, phi: np.ndarray, noise_var: float, rng: np.random.Generator
) -> float:
    """Exact-linear loss clamp(<theta, phi> + noise) with Gaussian noise."""
    if noise_var < 0:
        raise InvalidInput("noise_var must be non-negative")
    y = float(np.matmul(theta, phi))
    if noise_var > 0:
        y += math.sqrt(noise_var) * rng.standard_normal()
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

    def expected_losses(self, cpi, s, contexts) -> np.ndarray:
        """clip(<theta*, phi>) of every context: (K, 3) contexts give (K,),
        and a stack of shape S + (K, 3), such as a whole track's, gives
        S + (K,). ``cpi`` and ``s`` are not read."""
        return np.matmul(contexts, self.theta_star).clip(0.0, 1.0)

    def realize(self, cpi: int, s: int, w_idx: int, phi, rng: np.random.Generator):
        loss = synthetic_loss(self.theta_star, phi, self.noise_var, rng)
        return loss, loss * self.sinr_target


def run_track(
    env,
    prior: Gaussian,
    noise_var: float,
    n_cpis: int,
    k_arms: int,
    rng: np.random.Generator,
    explore: str = "ts",
) -> tuple[TrackResult, TsAgent]:
    """Run one track of n_cpis pulses against an environment.

    ``explore`` is "ts" for Thompson sampling or "random" for the uniform
    baseline, which ignores the posterior when choosing but still records
    outcomes. Regret increments compare the environment's expected losses of
    the best and the chosen waveform at the contexts used for selection.

    The pulse loop carries only what the learner feeds back: scene step,
    draw, choice, outcome and ``record``. The learner never reads the
    expected losses, so one ``env.expected_losses`` call over the whole
    track's (cpi, state, contexts) gives the oracle losses, regret
    increments and suboptimal flags after the loop.
    """
    if explore not in ("ts", "random"):
        raise InvalidInput(f"unknown exploration mode {explore!r}")
    agent = TsAgent(prior, noise_var, env.state_proc.n_states, k_arms)
    state, obs, waveform, sinr, loss = [], [], [], [], []
    # the (K, d) contexts each pulse chose from, before its record
    offered = np.empty((n_cpis,) + agent.contexts.shape[1:])

    thompson = explore == "ts"
    for k in range(n_cpis):
        s, o = env.step_scene(rng)
        phis = agent_contexts(agent, o)
        if thompson:
            theta = sample_gaussian(posterior_gaussian(agent.posterior), rng)
            idx = pick_argmax(theta, phis)
        else:
            idx = int(rng.integers(k_arms))
        offered[k] = phis
        phi = phis[idx]
        realized, sinr_k = env.realize(k, s, idx, phi, rng)
        state.append(s)
        obs.append(o)
        waveform.append(idx)
        sinr.append(sinr_k)
        loss.append(realized)
        record(agent, o, idx, realized, phi)

    state = np.array(state, dtype=int)
    waveform = np.array(waveform, dtype=int)
    pulses = np.arange(n_cpis)
    expected = env.expected_losses(pulses, state, offered)
    oracle_loss = expected.max(axis=-1)
    chosen = expected[pulses, waveform]
    result = TrackResult(
        state=state,
        obs=np.array(obs, dtype=int),
        waveform=waveform,
        sinr=np.array(sinr, dtype=float),
        loss=np.array(loss, dtype=float),
        oracle_loss=oracle_loss,
        regret_inc=oracle_loss - chosen,
        suboptimal=chosen < oracle_loss - TIE_TOL,
        contexts=offered[pulses, waveform],
    )
    return result, agent
