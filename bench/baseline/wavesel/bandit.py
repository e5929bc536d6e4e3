"""Per-track waveform selection: a linear contextual bandit with Thompson
sampling over loss-history context features.

Each waveform/observation pair carries running statistics of its past
losses; the context vector for a pair is (running mean, population variance,
running max) with neutral fill values before any data arrives. The learner
keeps a Bayesian linear-regression posterior over the weight vector, samples
one weight draw per pulse, and transmits the waveform whose context scores
highest under the draw. An exact-linear synthetic environment generates
losses straight from the context model, which makes the learner's behavior
verifiable against closed-form oracles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidInput
from .fstc import observe, step_state
from .gaussmath import (
    Gaussian,
    blr_update,
    LinearPosterior,
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


@dataclass(frozen=True)
class PairStats:
    """Welford accumulator for one (waveform, observation) pair."""

    count: int
    mean: float
    m2: float
    max: float


@dataclass(frozen=True)
class HistoryEntry:
    """One pulse's outcome as the learner saw it."""

    cpi: int
    observation: int
    waveform: int
    loss: float
    context: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "context", np.asarray(self.context, dtype=float))
        if not 0.0 <= self.loss <= 1.0:
            raise InvalidInput(f"loss {self.loss} outside [0, 1]")


@dataclass(frozen=True)
class TsAgent:
    """Immutable learner state: posterior plus per-pair context statistics."""

    posterior: LinearPosterior
    catalog_size: int
    context_stats: dict

    def pair_stats(self, w: int, o: int) -> PairStats | None:
        return self.context_stats.get((w, o))


def make_agent(prior: Gaussian, noise_var: float, catalog_size: int) -> TsAgent:
    if catalog_size < 1:
        raise InvalidInput("catalog_size must be at least 1")
    return TsAgent(to_linear_posterior(prior, noise_var), catalog_size, {})


def compute_loss(sinr_post: float, sinr_target: float) -> float:
    """Normalized SINR shortfall mapped to [0, 1]; 1 means on-target or better."""
    if sinr_target <= 0:
        raise InvalidInput("sinr_target must be strictly positive")
    return float(np.clip(sinr_post / sinr_target, 0.0, 1.0))


def _context_from_stats(st: PairStats | None) -> np.ndarray:
    if st is None:
        return np.array([COLD_MEAN, COLD_VAR, COLD_MAX])
    var = st.m2 / st.count if st.count >= 2 else COLD_VAR
    return np.array([st.mean, var, st.max])


def build_context(agent: TsAgent, o: int, w: int) -> np.ndarray:
    """Context vector (mean, variance, max) of past losses for (w, o).

    Pairs with no history use the neutral fill (0.5, 1/12, 0.5); a single
    sample keeps the fill variance because its sample variance is undefined.
    """
    if not 0 <= w < agent.catalog_size:
        raise IndexOutOfRange(f"waveform {w} outside catalog of {agent.catalog_size}")
    return _context_from_stats(agent.pair_stats(w, o))


def agent_contexts(agent: TsAgent, o: int) -> np.ndarray:
    """Stacked context vectors of every waveform at observation o, shape (K, d)."""
    return np.stack(
        [build_context(agent, o, w) for w in range(agent.catalog_size)]
    )


def pick_argmax(theta: np.ndarray, contexts: np.ndarray) -> int:
    """Index of the highest-scoring context; ties go to the lowest index."""
    scores = np.asarray(contexts) @ np.asarray(theta)
    return int(np.argmax(scores))


def select_waveform(agent: TsAgent, o: int, rng: np.random.Generator) -> int:
    """Thompson step: one posterior draw scores all contexts at observation o."""
    theta = sample_gaussian(posterior_gaussian(agent.posterior), rng)
    return pick_argmax(theta, agent_contexts(agent, o))


def record(agent: TsAgent, entry: HistoryEntry) -> TsAgent:
    """Fold one outcome into the agent; returns a new agent.

    Updates the (waveform, observation) running statistics and performs the
    conjugate posterior update with the context that was used at selection
    time.
    """
    key = (entry.waveform, entry.observation)
    st = agent.context_stats.get(key)
    x = float(entry.loss)
    if st is None:
        new = PairStats(1, x, 0.0, x)
    else:
        count = st.count + 1
        delta = x - st.mean
        mean = st.mean + delta / count
        m2 = st.m2 + delta * (x - mean)
        new = PairStats(count, mean, m2, max(st.max, x))
    stats = dict(agent.context_stats)
    stats[key] = new
    post = blr_update(agent.posterior, entry.context, entry.loss)
    return TsAgent(post, agent.catalog_size, stats)


def synthetic_loss(
    theta: np.ndarray, phi: np.ndarray, noise_var: float, rng: np.random.Generator
) -> float:
    """Exact-linear loss clamp(<theta, phi> + noise) with Gaussian noise."""
    if noise_var < 0:
        raise InvalidInput("noise_var must be non-negative")
    y = float(np.asarray(theta) @ np.asarray(phi))
    if noise_var > 0:
        y += float(np.sqrt(noise_var) * rng.standard_normal())
    return float(np.clip(y, 0.0, 1.0))


# ---------------------------------------------------------------------------
# track loop


@dataclass
class TrackResult:
    """Raw per-pulse arrays of one track, plus the (context, loss) pairs the
    meta level consumes."""

    state: np.ndarray
    obs: np.ndarray
    waveform: np.ndarray
    sinr: np.ndarray
    loss: np.ndarray
    oracle_loss: np.ndarray
    regret_inc: np.ndarray
    suboptimal: np.ndarray
    contexts: np.ndarray


class SyntheticTrackEnv:
    """Exact-linear environment: losses come from the context model itself.

    A pseudo-SINR is derived by inverting the loss map so that SINR-based
    metrics stay defined in this mode.
    """

    def __init__(self, theta_star, state_proc, noise_var, sinr_target):
        self.theta_star = np.asarray(theta_star, dtype=float)
        self.state_proc = state_proc
        self.noise_var = float(noise_var)
        self.sinr_target = float(sinr_target)
        self._states: list[int] = []

    def step_scene(self, rng: np.random.Generator):
        s = step_state(self.state_proc, self._states, rng)
        self._states.append(s)
        return s, observe(self.state_proc, s, rng)

    def expected_losses(self, cpi: int, s: int, contexts) -> np.ndarray:
        return np.clip(np.asarray(contexts) @ self.theta_star, 0.0, 1.0)

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
    """
    if explore not in ("ts", "random"):
        raise InvalidInput(f"unknown exploration mode {explore!r}")
    agent = make_agent(prior, noise_var, k_arms)
    d = prior.dim
    state = np.empty(n_cpis, dtype=int)
    obs = np.empty(n_cpis, dtype=int)
    waveform = np.empty(n_cpis, dtype=int)
    sinr = np.empty(n_cpis)
    loss = np.empty(n_cpis)
    oracle_loss = np.empty(n_cpis)
    regret_inc = np.empty(n_cpis)
    suboptimal = np.empty(n_cpis, dtype=bool)
    contexts = np.empty((n_cpis, d))

    for k in range(n_cpis):
        s, o = env.step_scene(rng)
        phis = agent_contexts(agent, o)
        if explore == "random":
            idx = int(rng.integers(k_arms))
        else:
            theta = sample_gaussian(posterior_gaussian(agent.posterior), rng)
            idx = pick_argmax(theta, phis)
        expected = np.asarray(env.expected_losses(k, s, phis), dtype=float)
        realized, sinr_k = env.realize(k, s, idx, phis[idx], rng)
        best = float(np.max(expected))

        state[k] = s
        obs[k] = o
        waveform[k] = idx
        sinr[k] = sinr_k
        loss[k] = realized
        oracle_loss[k] = best
        regret_inc[k] = best - float(expected[idx])
        suboptimal[k] = expected[idx] < best - TIE_TOL
        contexts[k] = phis[idx]

        agent = record(agent, HistoryEntry(k, o, idx, realized, phis[idx]))

    result = TrackResult(
        state=state,
        obs=obs,
        waveform=waveform,
        sinr=sinr,
        loss=loss,
        oracle_loss=oracle_loss,
        regret_inc=regret_inc,
        suboptimal=suboptimal,
        contexts=contexts,
    )
    return result, agent
