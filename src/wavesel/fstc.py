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
window of lags around that peak, capped at 60 dB. :func:`channel_tables`
builds, once per replicate, what depends only on the waveforms, ``doppler``
and the tap count: each waveform's correlations, tap ramp and unit noise
map. From those a :class:`TrackSimulator` computes one track's
matched-filter responses and draws that SINR per pulse.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInput, NotPositiveDefinite
from .waveforms import matched_filter

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
        cumulative = {
            prev: np.cumsum(t[prev]).tolist() for prev in np.ndindex(t.shape[:-1])
        }
        object.__setattr__(self, "n_states", t.shape[-1])
        object.__setattr__(self, "memory", t.ndim)
        object.__setattr__(self, "cumulative", cumulative)


def random_transition(n_states: int, memory: int, rng: np.random.Generator) -> np.ndarray:
    """Transition table with each row drawn from a symmetric Dirichlet(2)."""
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
    idx = bisect_right(sp.cumulative[recent], rng.random())
    return min(idx, sp.n_states - 1)


def observe(sp: StateProcess, s: int, rng: np.random.Generator) -> int:
    """Noisy state reading: s with probability 1 - eps, else uniform elsewhere."""
    if sp.n_states == 1 or rng.random() >= sp.obs_flip_prob:
        return int(s)
    other = int(rng.integers(sp.n_states - 1))
    return other + (other >= s)


# ---------------------------------------------------------------------------
# episode-level types


@dataclass(frozen=True)
class TaskDistribution:
    """Episode-generating distribution: theta ~ N(mu_star, sigma0_sq I).

    theta has exactly three components: the target, clutter and noise
    levels.
    """

    mu_star: np.ndarray
    sigma0_sq: float
    ir_kernel_scale: float
    ir_taps: int

    @cached_property
    def tap_root(self) -> np.ndarray:
        """A square root of the squared-exponential tap covariance, computed
        on the first impulse-response draw and kept for every later one.

        Uses an eigendecomposition so the nearly rank-deficient large-scale
        limit stays well defined (all taps equal).
        """
        idx = np.arange(self.ir_taps)
        scale = self.ir_kernel_scale
        cov = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * scale**2))
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


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
    trajectory: np.ndarray
    grid_n: int


def _gp_taps(root: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean complex draw with the covariance ``root @ root^H``."""
    n_taps = root.shape[0]
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
    theta = task_dist.mu_star + np.sqrt(task_dist.sigma0_sq) * rng.standard_normal(3)
    gain_t = softplus(theta[0]) * scene.target_power
    gain_c = softplus(theta[1]) * scene.clutter_power
    noise_var = softplus(theta[2]) * scene.noise_var

    h = np.sqrt(gain_t) * _gp_taps(task_dist.tap_root, rng)
    c = np.sqrt(gain_c) * _gp_taps(task_dist.tap_root, rng)

    # Tracks begin at standoff range: the dominant clutter patch sits at the
    # near edge of the delay grid, and a target under track starts well
    # separated from it. The walk may still close that separation.
    delay = int(rng.integers(1 + scene.grid_n // 3, scene.grid_n + 1))
    # The target's Doppler is the scene-wide ``doppler`` ramp, so the walk
    # keeps no Doppler cell. It still makes the draws of a walk on a 16-cell
    # Doppler axis and drops them: the first cell, then one step after each
    # delay step, so the stream layout, and the physical CSVs, stay as they
    # were. One batch of 2n steps reads the same values as 2n single draws
    # and leaves the stream at the same place; the delay steps are the even
    # ones.
    rng.integers(1, 17)
    cells = []
    for step in rng.integers(-1, 2, size=2 * n_cpis)[::2].tolist():
        cells.append(delay)
        delay = min(max(delay + step, 1), scene.grid_n)

    return FstcInstance(
        theta=theta,
        target_ir=h,
        clutter_ir=c,
        state_proc=scene.state_proc,
        noise_var=float(noise_var),
        state_gain=np.asarray(scene.state_gain, dtype=float),
        trajectory=np.array(cells, dtype=int),
        grid_n=scene.grid_n,
    )


# ---------------------------------------------------------------------------
# pulse simulation

# All reflected content is placed at this base offset on the canvas so the
# analysis window around any peak sees fully-overlapped matched-filter lags.
_BASE = WINDOW_HALF


@dataclass(frozen=True)
class ChannelTables:
    """The per-waveform parts of the physical channel that no track changes:
    they depend only on the catalog, the scene's ``doppler`` and the number
    of impulse-response taps. :func:`channel_tables` builds them once per
    replicate, and every :class:`TrackSimulator` of the replicate reads
    them.

    ``windows[i]`` is a (2, len_i + n_taps - 1, n_taps) read-only view of
    waveform i's two correlations, zero-padded, whose product with a
    (2, n_taps, 1) stack of tap vectors is their two convolutions with
    those taps: row 0 is the target's Doppler cut, row 1 the clutter's
    correlation (the kept autocorrelation). At ``doppler`` 0 the two are
    the same, so the view has one row, which the product broadcasts.
    ``tap_ramp`` (K, n_taps) is the Doppler ramp over the taps, and
    ``unit_noise_map`` (K, 2 width, 2 width) the real map of the noise
    window's factor at unit ``noise_var``.
    """

    windows: tuple
    tap_ramp: np.ndarray
    unit_noise_map: np.ndarray


def hermitian_toeplitz(col: np.ndarray) -> np.ndarray:
    """The Hermitian Toeplitz matrix T with first column ``col``:
    T[i, j] = col[i - j] on and below the diagonal, conj(col[j - i]) above
    it, so the diagonal is col[0] as given."""
    n = col.size
    lag = np.arange(n)[:, None] - np.arange(n)
    return np.where(lag >= 0, col[np.abs(lag)], np.conj(col)[np.abs(lag)])


def channel_tables(catalog: list, n_taps: int, doppler: float) -> ChannelTables:
    """Build the :class:`ChannelTables` of ``catalog`` for echoes off
    ``n_taps``-tap impulse responses turned by ``doppler``.

    The matched filter of an echo p * h is acorr(p) * h. The Doppler ramp
    r_i = exp(2 pi j doppler i / len) over an echo of length
    len = len(p) + n_taps - 1 is linear in phase, so r (p * h) = (r p) * (r h)
    and the matched filter of the ramped echo is xcorr(p, r p) * (r h):
    one cut of the pulse's cross-ambiguity function (Levanon and Mozeson,
    Radar Signals, 2004), convolved with the ramped taps. At ``doppler`` 0
    the ramp is 1 and the cut is the autocorrelation.

    The noise window's covariance is ``noise_var`` times the Hermitian
    Toeplitz matrix T of the autocorrelation's first width lags, so one
    complex factor L = chol(T + 1e-12 I) serves every track, scaled by
    sqrt(``noise_var``). It is kept as the real map
    [[Re L, -Im L], [Im L, Re L]] / sqrt(2 width).
    """
    width = 2 * WINDOW_HALF + 1
    windows = []
    tap_ramp = np.empty((len(catalog), n_taps), dtype=complex)
    unit_noise_map = np.empty((len(catalog), 2 * width, 2 * width))
    for i, env in enumerate(catalog):
        echo_len = len(env) + n_taps - 1
        ramp = np.exp(2j * np.pi * doppler * (np.arange(echo_len) / echo_len))
        tap_ramp[i] = ramp[:n_taps]
        acorr = env.autocorrelation
        if doppler == 0.0:
            corr = acorr[None]
        else:
            corr = np.stack([matched_filter(env, ramp[: len(env)] * env.samples), acorr])
        padded = np.pad(corr, ((0, 0), (n_taps - 1, n_taps - 1)))
        # entry j of window n is the padded correlation at n - j, so a
        # window's product with taps h is entry n of the convolution with h
        windows.append(sliding_window_view(padded, n_taps, axis=1)[..., ::-1])
        mid = len(env) - 1
        gram = hermitian_toeplitz(acorr[mid : mid + width])
        try:
            lg = np.linalg.cholesky(gram + 1e-12 * np.eye(width))
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("noise window covariance failed to factor")
        noise_map = unit_noise_map[i]
        noise_map[:width, :width] = noise_map[width:, width:] = lg.real
        noise_map[:width, width:] = -lg.imag
        noise_map[width:, :width] = lg.imag
        noise_map /= np.sqrt(2.0 * width)
    return ChannelTables(tuple(windows), tap_ramp, unit_noise_map)


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
    """Per-episode fast path: computes every waveform's deterministic
    matched-filter responses once, from the replicate's
    :class:`ChannelTables`, so each pulse costs only a small noise draw.

    Both responses, the target's and the clutter's, are a kept correlation
    convolved with the track's taps: one small product per waveform of the
    tables' windows with the ramped target taps and the clutter taps, placed
    at ``_BASE`` on the filter output. The build factors nothing and takes
    the same path at every ``doppler``.

    The noise contribution to the analysis window is drawn directly in the
    matched-filter domain from its exact joint distribution (Toeplitz
    covariance from the waveform's autocorrelation), which is identical in
    law to filtering white noise and orders of magnitude cheaper. The real
    noise map R is sqrt(``noise_var``) times the tables' unit map, so the
    window's mean noise power is |R (x, y)|^2 for one draw of 2 width
    standard normals: the real parts, then the imaginary parts, of the
    circular normal the complex factor acts on. Expected losses per state
    use a fixed set of such draws shared by all pulses of the episode,
    drawn for every waveform in one call.

    The state is arrays over the K waveforms: peak powers ``_sig`` (K,),
    window clutter powers per delay cell ``_clutter`` (grid_n, K), real
    noise maps ``_noise_map`` (K, 2 width, 2 width) and cached noise powers
    ``_noise`` (K, n_oracle_draws), plus the trajectory's 0-based delay
    cells ``_delay`` (n,).
    """

    def __init__(
        self,
        inst: FstcInstance,
        tables: ChannelTables,
        oracle_rng: np.random.Generator,
        n_oracle_draws: int,
    ):
        n_taps = tables.tap_ramp.shape[1]
        self.inst = inst
        k = len(tables.windows)
        width = 2 * WINDOW_HALF + 1
        delays = np.arange(inst.grid_n)
        self._sig = np.empty(k)
        self._clutter = np.empty((inst.grid_n, k))
        self._noise_map = np.sqrt(inst.noise_var) * tables.unit_noise_map
        self._noise = np.empty((k, n_oracle_draws))
        # per waveform, the real parts of every draw, then the imaginary parts
        normals = oracle_rng.standard_normal((k, 2, n_oracle_draws, width))
        taps = np.empty((2, n_taps, 1), dtype=complex)
        taps[1, :, 0] = inst.clutter_ir
        for i, windows in enumerate(tables.windows):
            np.multiply(tables.tap_ramp[i], inst.target_ir, out=taps[0, :, 0])
            responses = windows @ taps
            n_resp = responses.shape[1]
            # |target| and |clutter| over the filter output, response at _BASE
            out_len = n_resp + inst.grid_n + 2 * WINDOW_HALF
            mag = np.zeros((2, out_len))
            mag[:, _BASE : _BASE + n_resp] = np.abs(responses[..., 0])
            p0 = int(np.argmax(mag[0]))
            self._sig[i] = mag[0, p0] ** 2
            # bounds of the lags within WINDOW_HALF of p0 + delay, clipped to
            # the filter output, for every delay cell
            lo = np.maximum(p0 + delays - WINDOW_HALF, 0)
            hi = np.minimum(p0 + delays + WINDOW_HALF + 1, out_len)
            c_prefix = np.concatenate([[0.0], np.cumsum(mag[1] ** 2)])
            self._clutter[:, i] = (c_prefix[hi] - c_prefix[lo]) / (hi - lo)
            y = np.concatenate(normals[i], axis=1) @ self._noise_map[i].T
            p_hat = np.add.reduce(y * y, axis=1)
            # first-moment correction: the exact mean window power is known
            p_hat = p_hat + (inst.noise_var - p_hat.mean())
            self._noise[i] = np.clip(p_hat, 1e-18, None)
        self._delay = inst.trajectory - 1
        self._gain = inst.state_gain.tolist()

    def step(self, cpi: int, s: int, w_idx: int, rng: np.random.Generator) -> float:
        """Realized SINR of one pulse, equal in distribution to filtering the
        full received pulse (target, clutter and white noise on the canvas)."""
        p_c = self._gain[s] * self._clutter[self._delay[cpi], w_idx]
        noise_map = self._noise_map[w_idx]
        y = noise_map.dot(rng.standard_normal(noise_map.shape[1]))
        return _sinr_value(float(self._sig[w_idx]), p_c + float(y.dot(y)))

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
