"""Finite-state target channel: hidden clutter states, stochastic impulse
responses, and post-matched-filter SINR for one tracking episode.

The channel hides a discrete clutter state with short memory behind a noisy
observation kernel. Each episode (track) draws a latent parameter vector
theta that sets the target, clutter, and noise power levels through a
softplus link, plus smooth random impulse responses for the target and the
clutter bed. A pulse is received as

    rx = (w * h) delayed, ramped  +  (w * c) * sqrt(state_gain[s])  +  noise,

where ``*`` is linear convolution, the complex phase ramp
exp(2 pi j doppler i / len) turns the target echo only through ``doppler``
cycles across its length (the clutter bed is static), and the additive noise
is circular complex Gaussian. The post-processing SINR compares the target's
matched-filter peak against the average clutter-plus-noise power in a short
window of lags around that peak, capped at 60 dB. :class:`TrackSimulator`
draws that SINR per pulse from precomputed matched-filter responses.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .errors import InvalidInput, NotPositiveDefinite
from .waveforms import ComplexEnvelope, matched_filter

SINR_CAP = 1e6  # 60 dB
#: Interference power is averaged over lags peak +/- WINDOW_HALF.
WINDOW_HALF = 16


def unit_clip(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` of one float, to the bit: a NaN stays NaN and
    -0.0 stays -0.0."""
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def compute_loss(sinr_post: float, sinr_target: float) -> float:
    """Normalized SINR shortfall mapped to [0, 1]; 1 means on-target or better.

    The "loss" is a higher-is-better normalised reward.
    """
    if sinr_target <= 0:
        raise InvalidInput("sinr_target must be strictly positive")
    return unit_clip(float(sinr_post / sinr_target))


def softplus(x):
    """ln(1 + e^x), the positive link from latent parameters to power gains."""
    return np.logaddexp(0.0, x)


# ---------------------------------------------------------------------------
# state process


@dataclass(frozen=True)
class StateProcess:
    """Hidden clutter-state chain with memory, plus a noisy observation kernel.

    ``transition`` has shape (n_states,) * (memory - 1) + (n_states,): the
    leading axes index the previous states (oldest first) and the last axis
    is the distribution of the next state. The observation equals the true
    state with probability 1 - obs_flip_prob, otherwise it is uniform over
    the remaining states.

    Construction also sets ``n_states`` and ``memory``, read from the
    table's shape, and keeps ``cumulative``: the running sums of every row,
    keyed by the tuple of previous states, for :func:`step_state`.
    """

    transition: np.ndarray
    obs_flip_prob: float

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        object.__setattr__(self, "transition", t)
        if np.any(t < 0):
            raise InvalidInput("transition probabilities must be non-negative")
        if not np.allclose(t.sum(axis=-1), 1.0, atol=1e-9):
            raise InvalidInput("transition rows must sum to one")
        if not 0.0 <= self.obs_flip_prob < 1.0:
            raise InvalidInput("obs_flip_prob must lie in [0, 1)")
        cumulative = {
            prev: np.cumsum(t[prev]).tolist() for prev in np.ndindex(t.shape[:-1])
        }
        object.__setattr__(self, "n_states", t.shape[-1])
        object.__setattr__(self, "memory", t.ndim)
        object.__setattr__(self, "cumulative", cumulative)


def random_transition(n_states: int, memory: int, rng: np.random.Generator) -> np.ndarray:
    """Transition table with each row drawn from a symmetric Dirichlet(2)."""
    if n_states < 1 or memory < 1:
        raise InvalidInput("n_states and memory must be positive")
    n_rows = n_states ** (memory - 1)
    rows = rng.dirichlet(np.full(n_states, 2.0), size=n_rows)
    return rows.reshape((n_states,) * (memory - 1) + (n_states,))


def step_state(sp: StateProcess, history, rng: np.random.Generator) -> int:
    """Advance the chain one step given the most recent states.

    ``history`` holds past states, oldest first; only the last memory - 1
    entries matter, and shorter histories are padded with state 0.
    """
    need = sp.memory - 1
    recent = tuple(map(int, history[-need:])) if need else ()
    if len(recent) < need:
        recent = (0,) * (need - len(recent)) + recent
    try:
        row = sp.cumulative[recent]
    except KeyError:
        raise InvalidInput(f"history {recent} outside [0, {sp.n_states})") from None
    idx = bisect_right(row, rng.random())
    return min(idx, sp.n_states - 1)


def observe(sp: StateProcess, s: int, rng: np.random.Generator) -> int:
    """Noisy state reading: s with probability 1 - eps, else uniform elsewhere."""
    if not 0 <= s < sp.n_states:
        raise InvalidInput(f"state {s} outside [0, {sp.n_states})")
    if sp.n_states == 1 or rng.random() >= sp.obs_flip_prob:
        return int(s)
    other = int(rng.integers(sp.n_states - 1))
    return other + (other >= s)


# ---------------------------------------------------------------------------
# episode-level types


@dataclass(frozen=True)
class TaskDistribution:
    """Episode-generating distribution: theta ~ N(mu_star, sigma0_sq I)."""

    mu_star: np.ndarray
    sigma0_sq: float
    ir_kernel_scale: float
    ir_taps: int

    def __post_init__(self):
        object.__setattr__(self, "mu_star", np.asarray(self.mu_star, dtype=float))
        if self.sigma0_sq <= 0:
            raise InvalidInput("sigma0_sq must be strictly positive")
        if self.ir_taps < 1:
            raise InvalidInput("ir_taps must be at least 1")


@dataclass(frozen=True)
class SceneConfig:
    """Episode-independent channel configuration shared by all tracks."""

    state_proc: StateProcess
    state_gain: tuple
    noise_var: float
    grid_n: int
    doppler: float
    target_power: float
    clutter_power: float

    def __post_init__(self):
        if len(self.state_gain) != self.state_proc.n_states:
            raise InvalidInput("state_gain needs one entry per state")
        if self.noise_var <= 0:
            raise InvalidInput("noise_var must be strictly positive")
        if self.grid_n < 1:
            raise InvalidInput("grid_n must be positive")


@dataclass(frozen=True)
class FstcInstance:
    """One episode's frozen channel: latent theta, impulse responses, and the
    target trajectory, the 1-based delay cell of each CPI. ``noise_var`` is
    the effective (theta-scaled) value."""

    theta: np.ndarray
    target_ir: np.ndarray
    clutter_ir: np.ndarray
    state_proc: StateProcess
    noise_var: float
    state_gain: np.ndarray
    doppler: float
    trajectory: np.ndarray
    grid_n: int


def _gp_taps(n_taps: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean complex draw with squared-exponential covariance over tap index.

    Uses an eigendecomposition so the nearly rank-deficient large-scale limit
    stays well defined (all taps equal).
    """
    idx = np.arange(n_taps)
    cov = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * scale**2))
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    z = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) / np.sqrt(2.0)
    return root @ z


def draw_instance(
    task_dist: TaskDistribution,
    scene: SceneConfig,
    n_cpis: int,
    rng: np.random.Generator,
) -> FstcInstance:
    """Draw one episode: theta, impulse responses, and a bounded random-walk
    trajectory across the delay cells.

    theta feeds three power levels through the softplus link: target gain,
    clutter gain, and the noise floor. The draw order (theta, target taps,
    clutter taps, trajectory) is fixed so seeded streams reproduce exactly.
    """
    d = task_dist.mu_star.size
    theta = task_dist.mu_star + np.sqrt(task_dist.sigma0_sq) * rng.standard_normal(d)
    gain_t = softplus(theta[0]) * scene.target_power
    gain_c = softplus(theta[1 % d]) * scene.clutter_power
    noise_var = softplus(theta[2 % d]) * scene.noise_var

    h = np.sqrt(gain_t) * _gp_taps(task_dist.ir_taps, task_dist.ir_kernel_scale, rng)
    c = np.sqrt(gain_c) * _gp_taps(task_dist.ir_taps, task_dist.ir_kernel_scale, rng)

    # Tracks begin at standoff range: the dominant clutter patch sits at the
    # near edge of the delay grid, and a target under track starts well
    # separated from it. The walk may still close that separation.
    delay = int(rng.integers(1 + scene.grid_n // 3, scene.grid_n + 1))
    # The target's Doppler is the scene-wide ``doppler`` ramp, so the walk
    # keeps no Doppler cell. It still makes the draws of a walk on a 16-cell
    # Doppler axis and drops them: they keep the stream layout, so physical
    # CSVs stay byte-identical.
    rng.integers(1, 17)
    cells = np.empty(n_cpis, dtype=int)
    for i in range(n_cpis):
        cells[i] = delay
        delay = min(max(delay + int(rng.integers(-1, 2)), 1), scene.grid_n)
        rng.integers(-1, 2)

    return FstcInstance(
        theta=theta,
        target_ir=h,
        clutter_ir=c,
        state_proc=scene.state_proc,
        noise_var=float(noise_var),
        state_gain=np.asarray(scene.state_gain, dtype=float),
        doppler=scene.doppler,
        trajectory=cells,
        grid_n=scene.grid_n,
    )


# ---------------------------------------------------------------------------
# pulse simulation

# All reflected content is placed at this base offset on the canvas so the
# analysis window around any peak sees fully-overlapped matched-filter lags.
_BASE = WINDOW_HALF

_SQRT2 = np.sqrt(2.0)


def _reflected(env: ComplexEnvelope, ir: np.ndarray, doppler: float) -> np.ndarray:
    refl = np.convolve(env.samples, ir)
    if doppler != 0.0:
        t = np.arange(refl.size) / refl.size
        refl = refl * np.exp(2j * np.pi * doppler * t)
    return refl


def _canvas_len(refl_len: int, grid_n: int) -> int:
    return refl_len + grid_n + 2 * WINDOW_HALF


def _place(canvas_len: int, refl: np.ndarray, offset: int) -> np.ndarray:
    out = np.zeros(canvas_len, dtype=complex)
    out[offset : offset + refl.size] = refl
    return out


def _sinr_value(sig: float, denom: float) -> float:
    if denom <= 0.0:
        return SINR_CAP
    return float(min(sig / denom, SINR_CAP))


class SceneWalk:
    """The hidden-state walk of one track: each pulse advances the chain and
    reads its noisy observation. Both track environments share it."""

    def __init__(self, state_proc: StateProcess):
        self.state_proc = state_proc
        self._states: list[int] = []

    def step_scene(self, rng: np.random.Generator):
        s = step_state(self.state_proc, self._states, rng)
        self._states.append(s)
        return s, observe(self.state_proc, s, rng)


class TrackSimulator:
    """Per-episode fast path: precomputes every waveform's deterministic
    matched-filter responses so each pulse costs only a small noise draw.

    The noise contribution to the analysis window is drawn directly in the
    matched-filter domain from its exact joint distribution (Toeplitz
    covariance from the waveform's autocorrelation), which is identical in
    law to filtering white noise and orders of magnitude cheaper. Expected
    losses per state use a fixed set of Monte Carlo noise draws shared by
    all pulses of the episode.

    The state is arrays over the K waveforms: peak powers ``_sig`` (K,),
    window clutter powers per delay cell ``_clutter`` (grid_n, K), noise
    factors ``_lg`` and cached noise powers ``_noise`` (K, n_oracle_draws),
    plus the trajectory's 0-based delay cells ``_delay`` (n,).
    """

    def __init__(
        self,
        inst: FstcInstance,
        catalog: list,
        oracle_rng: np.random.Generator,
        n_oracle_draws: int,
    ):
        self.inst = inst
        k = len(catalog)
        width = 2 * WINDOW_HALF + 1
        delays = np.arange(inst.grid_n)
        self._sig = np.empty(k)
        self._clutter = np.empty((inst.grid_n, k))
        self._lg = np.empty((k, width, width), dtype=complex)
        self._noise = np.empty((k, n_oracle_draws))
        for i, env in enumerate(catalog):
            refl_t = _reflected(env, inst.target_ir, inst.doppler)
            refl_c = _reflected(env, inst.clutter_ir, 0.0)
            clen = _canvas_len(refl_t.size, inst.grid_n)
            y_t0 = matched_filter(env, _place(clen, refl_t, _BASE))
            y_c0 = matched_filter(env, _place(clen, refl_c, _BASE))
            p0 = int(np.argmax(np.abs(y_t0)))
            self._sig[i] = np.abs(y_t0[p0]) ** 2
            # bounds of the lags within WINDOW_HALF of p0 + delay, clipped to
            # the filter output, for every delay cell
            lo = np.maximum(p0 + delays - WINDOW_HALF, 0)
            hi = np.minimum(p0 + delays + WINDOW_HALF + 1, y_t0.size)
            c_prefix = np.concatenate([[0.0], np.cumsum(np.abs(y_c0) ** 2)])
            self._clutter[:, i] = (c_prefix[hi] - c_prefix[lo]) / (hi - lo)
            # exact covariance of matched-filter noise at neighbouring lags
            mid = env.samples.size - 1
            col = inst.noise_var * env.autocorrelation[mid : mid + width]
            gram = toeplitz(col, np.conj(col))
            try:
                lg = np.linalg.cholesky(gram + 1e-12 * inst.noise_var * np.eye(width))
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite("noise window covariance failed to factor")
            self._lg[i] = lg
            n_draws = (
                oracle_rng.standard_normal((n_oracle_draws, width))
                + 1j * oracle_rng.standard_normal((n_oracle_draws, width))
            ) / np.sqrt(2.0)
            p_hat = np.mean(np.abs(n_draws @ lg.T) ** 2, axis=1)
            # first-moment correction: the exact mean window power is known
            p_hat = p_hat + (inst.noise_var - p_hat.mean())
            self._noise[i] = np.clip(p_hat, 1e-18, None)
        self._delay = inst.trajectory - 1
        self._gain = inst.state_gain.tolist()

    def step(self, cpi: int, s: int, w_idx: int, rng: np.random.Generator) -> float:
        """Realized SINR of one pulse, equal in distribution to filtering the
        full received pulse (target, clutter and white noise on the canvas)."""
        p_c = self._gain[s] * self._clutter[self._delay[cpi], w_idx]
        width = self._lg.shape[1]
        z = (rng.standard_normal(width) + 1j * rng.standard_normal(width)) / _SQRT2
        p_n = float(np.add.reduce(np.abs(self._lg[w_idx] @ z) ** 2) / width)
        return _sinr_value(float(self._sig[w_idx]), p_c + p_n)

    def expected_losses(self, cpi, s, sinr_target: float) -> np.ndarray:
        """Monte Carlo mean loss of every waveform at the true state.

        ``cpi`` and ``s`` broadcast against each other: ints give the (K,)
        losses of one pulse, arrays of shape S give shape S + (K,), so one
        call covers a whole track. Uses the episode's cached noise draws, so
        the estimate is a deterministic function of (delay cell, state).
        Each distinct pair is evaluated once, in one (pairs, K, draws)
        buffer; pairs is at most min(pulses, n_states * grid_n).
        """
        cell, s = np.broadcast_arrays(self._delay[cpi], s)
        n_cells = self._clutter.shape[0]
        pairs, inverse = np.unique((s * n_cells + cell).ravel(), return_inverse=True)
        gain = self.inst.state_gain[pairs // n_cells]
        p_c = gain[:, None] * self._clutter[pairs % n_cells]
        # updated in place, so the call holds one (pairs, K, draws) buffer
        losses = p_c[..., None] + self._noise
        np.divide(self._sig[:, None], losses, out=losses)
        np.minimum(losses, SINR_CAP, out=losses)
        losses /= sinr_target
        losses.clip(0.0, 1.0, out=losses)
        means = np.add.reduce(losses, axis=-1) / losses.shape[-1]
        return means[inverse.ravel()].reshape(cell.shape + (len(self._sig),))


class PhysicalTrackEnv(SceneWalk):
    """Adapter giving the per-track learner a uniform environment interface."""

    def __init__(self, sim: TrackSimulator, sinr_target: float):
        super().__init__(sim.inst.state_proc)
        self.sim = sim
        self.sinr_target = sinr_target

    def expected_losses(self, cpi, s, contexts) -> np.ndarray:
        """The simulator's expected losses at (cpi, state), broadcast as
        :meth:`TrackSimulator.expected_losses` does; the contexts are not
        read."""
        return self.sim.expected_losses(cpi, s, self.sinr_target)

    def realize(self, cpi: int, s: int, w_idx: int, phi, rng: np.random.Generator):
        sinr = self.sim.step(cpi, s, w_idx, rng)
        return compute_loss(sinr, self.sinr_target), sinr
