"""Finite-state target channel: hidden clutter states, stochastic impulse
responses, and post-matched-filter SINR for one tracking episode.

The channel hides a discrete clutter state with short memory behind a noisy
observation kernel. Each episode (track) draws a latent parameter vector
theta that sets the target, clutter, and noise power levels through a
softplus link, plus smooth random impulse responses for the target and the
clutter bed. A pulse is received as

    rx = (w * h) delayed, ramped  +  (w * c) * sqrt(4 ** (s - 1))  +  noise,

where ``*`` is linear convolution, 4 ** (s - 1) is the clutter gain of
state s (:func:`state_gains`), the complex phase ramp
exp(2 pi j doppler i / len) turns the target echo only through ``doppler``
cycles across its length (the clutter bed is static), and the additive noise
is circular complex Gaussian. The post-processing SINR compares the target's
matched-filter peak against the average clutter-plus-noise power in a short
window of lags around that peak, capped at 60 dB. :func:`channel_tables`
builds what depends only on the waveforms, ``doppler`` and the tap count:
each waveform's correlations, tap ramp, the span of lags around its
mainlobe with a norm bound on every lag outside it, and the eigenvalues of
its noise window's covariance, read-only, so one build serves every
replicate of a process at those values. From those a :class:`TrackSimulator`
finds one track's target peak on the span, or on every lag where the bound
cannot certify it, computes its clutter on the lags the windows read, and
draws each pulse's noise power and its expected-loss reference in that
covariance's eigenbasis.

The scene's values (noise floor, powers, grid, taps, draws) are read from a
``harness.ExperimentConfig`` where they are used; the only scene-level draw
is the :class:`StateProcess` transition table, which each track walks once
with a :class:`SceneWalk`. A track's walk and its pulse noise read streams
of their own, drawn ``STACK_BLOCK`` pulses at a time, so no outcome depends
on the policy: a :class:`PhysicalTrackEnv` computes them once, as (n, K)
tables that every policy of a seed reads by pulse index.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInput, NotPositiveDefinite
from .waveforms import matched_filter

SINR_CAP = 1e6  # 60 dB
#: Interference power is averaged over lags peak +/- WINDOW_HALF.
WINDOW_HALF = 16

#: Pulses per block of a track's bulk draws, and per array of stacked
#: snapshots: one (n, K, 3) array raised peak RSS.
STACK_BLOCK = 256


def blocks(n_cpis: int):
    """(first pulse, pulse count) of each ``STACK_BLOCK``-pulse block of a
    track of ``n_cpis`` pulses, in order; the last block may be shorter."""
    return ((start, min(STACK_BLOCK, n_cpis - start)) for start in range(0, n_cpis, STACK_BLOCK))


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

    Construction also sets ``n_states``, read from the table's shape, and
    keeps ``rows``: the running sums of every row, as one list in C order
    of the previous states, which :meth:`SceneWalk.step_scene` bisects.
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
        n_states = t.shape[-1]
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "rows", np.cumsum(t.reshape(-1, n_states), 1).tolist())


def random_transition(n_states: int, memory: int, rng: np.random.Generator) -> np.ndarray:
    """Transition table with each row drawn from a symmetric Dirichlet(2)."""
    n_rows = n_states ** (memory - 1)
    rows = rng.dirichlet(np.full(n_states, 2.0), size=n_rows)
    return rows.reshape((n_states,) * (memory - 1) + (n_states,))


# ---------------------------------------------------------------------------
# episode draws


def state_gains(n_states: int) -> list:
    """The clutter power gain of each hidden state, 4 ** (s - 1)."""
    return [4.0 ** (s - 1) for s in range(n_states)]


def tap_root(n_taps: int, kernel_scale: float) -> np.ndarray:
    """A square root of the squared-exponential covariance of ``n_taps``
    impulse-response taps at length scale ``kernel_scale``.

    Uses an eigendecomposition so the nearly rank-deficient large-scale
    limit stays well defined (all taps equal).
    """
    idx = np.arange(n_taps)
    cov = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * kernel_scale**2))
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class FstcInstance:
    """One episode's frozen channel: latent theta, impulse responses, and the
    target trajectory, the 1-based delay cell of each CPI. ``noise_var`` is
    the effective (theta-scaled) value."""

    theta: np.ndarray
    target_ir: np.ndarray
    clutter_ir: np.ndarray
    noise_var: float
    trajectory: np.ndarray


def _gp_taps(root: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean complex draw with the covariance ``root @ root^H``."""
    n_taps = root.shape[0]
    z = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) / np.sqrt(2.0)
    return root @ z


def draw_instance(
    config, mu_star: np.ndarray, root: np.ndarray, rng: np.random.Generator
) -> FstcInstance:
    """Draw one episode of ``config.n`` CPIs: theta ~ N(mu_star, sigma0_sq I),
    impulse responses with the tap covariance root ``root @ root^H`` (see
    :func:`tap_root`), and a bounded random-walk trajectory across the
    ``config.grid_n`` delay cells.

    ``config`` is a ``harness.ExperimentConfig``. theta feeds three power
    levels through the softplus link: target gain, clutter gain, and the
    noise floor. The draw order (theta, target taps, clutter taps, first
    delay cell, then the n - 1 delay steps in one call) is fixed so seeded
    streams reproduce exactly.
    """
    grid_n = config.grid_n
    theta = mu_star + np.sqrt(config.sigma0_sq) * rng.standard_normal(3)
    gain_t = softplus(theta[0]) * config.target_power
    gain_c = softplus(theta[1]) * config.clutter_power
    noise_var = softplus(theta[2]) * config.noise_var

    h = np.sqrt(gain_t) * _gp_taps(root, rng)
    c = np.sqrt(gain_c) * _gp_taps(root, rng)

    # Tracks begin at standoff range: the dominant clutter patch sits at the
    # near edge of the delay grid, and a target under track starts well
    # separated from it. The walk may still close that separation. The
    # target's Doppler is the scene-wide ``doppler`` ramp, so the walk keeps
    # no Doppler cell.
    delay = int(rng.integers(1 + grid_n // 3, grid_n + 1))
    cells = [delay]
    for step in rng.integers(-1, 2, size=config.n - 1).tolist():
        delay += step
        if delay < 1:
            delay = 1
        elif delay > grid_n:
            delay = grid_n
        cells.append(delay)

    return FstcInstance(
        theta=theta,
        target_ir=h,
        clutter_ir=c,
        noise_var=float(noise_var),
        trajectory=np.array(cells, dtype=int),
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
    of impulse-response taps. ``meta`` builds them once per process for each
    (k, ``ir_taps``, ``doppler``) and every :class:`TrackSimulator` built
    with those values reads them, so every array is read-only.

    ``windows[i]`` is a (2, len_i + n_taps - 1, n_taps) read-only view of
    waveform i's two correlations, zero-padded: ``windows[i][r, a:b] @ h``
    is correlation r convolved with the taps h, at lags a to b - 1. Row 0
    is the target's Doppler cut, row -1 the clutter's correlation (the kept
    autocorrelation). At ``doppler`` 0 the two are the same, so the view
    has one row.
    ``tap_ramp`` (K, n_taps) is the Doppler ramp over the taps, and
    ``noise_eigvals`` (K, width) the eigenvalues of R^T R for the real map R
    of the noise window's factor at unit ``noise_var`` (see
    :func:`channel_tables`), largest first; the real form holds each of
    them twice.

    ``peak_spans[i]`` is the tuple (start, stop, bound) of waveform i's
    target row: the lags start to stop - 1 around the window of largest
    norm, the mainlobe the target's peak is searched on, and the largest
    norm of a window outside them. Every lag outside responds to taps h
    with at most bound ||h|| (Cauchy-Schwarz), which certifies a peak found
    in the span (see :class:`TrackSimulator`).
    """

    windows: tuple
    tap_ramp: np.ndarray
    noise_eigvals: np.ndarray
    peak_spans: tuple


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
    Toeplitz matrix T of the autocorrelation's first width lags. With
    L = chol(T + 1e-12 I), the window's noise is sqrt(``noise_var``) L z for
    a circular normal z, or R x for x real standard normal and the real map
    R = [[Re L, -Im L], [Im L, Re L]] / sqrt(2 width). R^T R is the real
    form of L^H L / (2 width), whose eigenvalues are those of L L^H, so the
    eigenvalues of R^T R are those of (T + 1e-12 I) / (2 width), each held
    twice: one ``eigvalsh`` of the K matrices stacked gives them, and no
    factor or map is formed. An eigenvalue that is not positive raises
    :class:`~wavesel.errors.NotPositiveDefinite`.

    The peak span of a target row is c +/- (2 WINDOW_HALF + n_taps),
    clipped to the row, for c the window of largest norm: the Doppler cut's
    mainlobe, spread by the taps, with the analysis window's width on
    either side. A window's squared norm is the sum of the |padded
    correlation|^2 its taps read, one sliding sum over the row.
    """
    width = 2 * WINDOW_HALF + 1
    half_span = 2 * WINDOW_HALF + n_taps
    windows, peak_spans = [], []
    tap_ramp = np.empty((len(catalog), n_taps), dtype=complex)
    grams = np.empty((len(catalog), width, width), dtype=complex)
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
        norms = np.add.reduce(sliding_window_view(np.abs(padded[0]) ** 2, n_taps), axis=1)
        centre = int(np.argmax(norms))
        start, stop = max(centre - half_span, 0), min(centre + half_span + 1, norms.size)
        outside = max(norms[:start].max(initial=0.0), norms[stop:].max(initial=0.0))
        peak_spans.append((start, stop, math.sqrt(outside)))
        mid = len(env) - 1
        grams[i] = hermitian_toeplitz(acorr[mid : mid + width]) + 1e-12 * np.eye(width)
    noise_eigvals = np.linalg.eigvalsh(grams)[:, ::-1] / (2.0 * width)
    if not np.all(noise_eigvals > 0.0):
        raise NotPositiveDefinite("noise window covariance is not positive definite")
    for table in (tap_ramp, noise_eigvals):
        table.flags.writeable = False
    return ChannelTables(tuple(windows), tap_ramp, noise_eigvals, tuple(peak_spans))


def _sinr_value(sig: float, denom: float) -> float:
    if denom <= 0.0:
        return SINR_CAP
    return float(min(sig / denom, SINR_CAP))


class SceneWalk:
    """The hidden-state walk of one track, walked once and read by every
    policy: :meth:`step_scene` returns pulse ``cpi``'s (state, observation).
    Both track environments share it.

    The walk reads its own stream, three uniforms a pulse, drawn
    ``STACK_BLOCK`` pulses at a time. The first is bisected into the running
    sums of the row of the last memory - 1 states, padded with state 0: the
    row starts at 0, and each step shifts the new state in and the oldest
    out. The second is tested against ``obs_flip_prob``, and on a flip the
    third picks one of the other n_states - 1 states, as
    int(u (n_states - 1)). A block of uniforms is the stream's values one at
    a time, so the walk does not depend on the block size. ``row`` is the
    row after the last pulse.
    """

    def __init__(self, state_proc: StateProcess, n_cpis: int, rng: np.random.Generator):
        self.state_proc = sp = state_proc
        rows, n_states, flip = sp.rows, sp.n_states, sp.obs_flip_prob
        n_rows, others = len(rows), n_states - 1
        states, obs = [], []
        row = 0
        for _, size in blocks(n_cpis):
            for u_state, u_flip, u_other in rng.random((size, 3)).tolist():
                s = bisect_right(rows[row], u_state)
                if s == n_states:
                    s = others
                row = (row * n_states + s) % n_rows
                states.append(s)
                if u_flip >= flip:
                    obs.append(s)
                else:
                    other = int(u_other * others)
                    obs.append(other + (other >= s))
        self.states, self.obs, self.row = states, obs, row

    def step_scene(self, cpi: int) -> tuple:
        return self.states[cpi], self.obs[cpi]


class TrackSimulator:
    """Per-episode fast path: computes every waveform's deterministic
    matched-filter responses once, from the replicate's
    :class:`ChannelTables`, and every pulse's noise power, so each pulse is
    a lookup.

    The target's response is its Doppler cut convolved with the ramped
    taps h: one small product per waveform with the tables' windows, on the
    lags of the waveform's peak span only. By Cauchy-Schwarz no lag outside
    the span responds with more than bound ||h||, and ||h|| is the
    unramped taps' norm, since the ramp has unit modulus. So when the
    span's first maximum exceeds bound ||h|| (1 + 1e-9), the margin
    covering the rounding of the norms, it is the first maximum over every
    lag; otherwise, an all-zero target included, the product is formed on
    every lag. The span is a slice of the same strided view, so each lag's
    value is the full product's to the bit. That first peak p0 centres the
    analysis windows, and the clutter's response is formed only on the
    grid_n + 2 WINDOW_HALF lags they read, where one sliding-window reduce
    sums every window of every waveform. The build factors nothing and
    takes the same path at every ``doppler``.

    The noise contribution to the analysis window has an exact joint law in
    the matched-filter domain (Toeplitz covariance from the waveform's
    autocorrelation), identical to filtering white noise: with R the real
    map of the window's unit noise factor (see :func:`channel_tables`), the
    window's mean noise power is ``noise_var`` |R x|^2 for x a vector of
    2 width standard normals. It is drawn in R's eigenbasis: with lambda_i
    the tables' eigenvalues of the unit R^T R, each held twice, |R x|^2 has
    the law of sum_i 2 lambda_i E_i for E_i ~ Exp(1), since each pair's two
    squared normals sum to a chi-square with two degrees of freedom, which
    is 2 E_i (Imhof, Biometrika 1961).

    Two streams are drawn this way. ``noise_rng``, the track's pulse noise,
    fills the (n, K) table of every pulse's noise power under every
    waveform, (pulses, K, width) exponentials per ``STACK_BLOCK`` pulses.
    ``oracle_rng`` draws the (K, n_oracle_draws) powers shared by every
    pulse that :meth:`expected_losses` averages, in one
    ``standard_exponential`` call of (K, n_oracle_draws, width) and one
    stacked product, then centred on the exact mean ``noise_var``.

    ``config`` is a ``harness.ExperimentConfig``, read for ``grid_n``,
    ``n_states`` and ``n_oracle_draws``. The state is arrays over the K
    waveforms: peak powers ``_sig`` (K,) at the output lags ``_p0`` (K,),
    window clutter powers per delay cell ``_clutter`` (grid_n, K), cached
    oracle powers ``_noise`` (K, n_oracle_draws) and pulse noise powers
    ``_pulse_noise`` (n, K), plus the trajectory's 0-based delay cells
    ``_delay`` (n,) and the list of state gains ``_gain``."""

    def __init__(
        self,
        config,
        inst: FstcInstance,
        tables: ChannelTables,
        oracle_rng: np.random.Generator,
        noise_rng: np.random.Generator,
    ):
        grid_n, n_draws = config.grid_n, config.n_oracle_draws
        k, width = len(tables.windows), 2 * WINDOW_HALF + 1
        self._sig = np.empty(k)
        self._p0 = p0 = np.zeros(k, dtype=int)
        power = np.zeros((k, grid_n + 2 * WINDOW_HALF))  # |clutter|^2 the windows read
        # the ramp has unit modulus: one norm of the ramped taps for every waveform
        h_norm = math.sqrt(np.vdot(inst.target_ir, inst.target_ir).real)
        for i, (windows, (start, stop, bound)) in enumerate(zip(tables.windows, tables.peak_spans)):
            target = (tables.tap_ramp[i] * inst.target_ir)[:, None]
            # one product per waveform, of a slice of the strided view: a
            # product of the K windows stacked, or of a dense copy of them,
            # sums in another order and moves _sig in its last bits
            mag = np.abs((windows[0, start:stop] @ target)[:, 0])
            peak = int(np.argmax(mag))
            top = mag[peak]
            if top > bound * h_norm * (1.0 + 1e-9):
                peak += start
            else:  # a lag outside the span may reach the peak: every lag
                mag = np.abs((windows[0] @ target)[:, 0])
                peak = int(np.argmax(mag))
                top = mag[peak]
            self._sig[i] = top**2
            # the output's first maximum: zeros precede the response at
            # _BASE, so an all-zero target peaks at lag 0
            p0[i] = 0 if top == 0.0 else _BASE + peak
            lo = p0[i] - _BASE - WINDOW_HALF  # the response lag of power[i, 0]
            first, last = max(lo, 0), min(lo + power.shape[1], windows.shape[1])
            clutter = windows[-1, first:last] @ inst.clutter_ir
            power[i, first - lo : last - lo] = np.abs(clutter) ** 2
        # window d of waveform i: power[i, d : d + width] summed, over the
        # count of its lags on the output, which only p0 = 0 can clip
        self._clutter = np.empty((grid_n, k))
        np.add.reduce(sliding_window_view(power, width, axis=1), axis=2, out=self._clutter.T)
        self._clutter /= np.minimum(np.arange(grid_n)[:, None] + (p0 + WINDOW_HALF + 1), width)
        draws = oracle_rng.standard_exponential((k, n_draws, width))
        p_hat = np.matmul(draws, tables.noise_eigvals[:, :, None])[..., 0]
        p_hat *= 2.0 * inst.noise_var
        # first-moment correction: the exact mean window power is known
        p_hat += inst.noise_var - p_hat.mean(axis=1, keepdims=True)
        self._noise = np.clip(p_hat, 1e-18, None, out=p_hat)
        self._delay = inst.trajectory - 1
        self._gain = state_gains(config.n_states)
        self._pulse_noise = np.empty((self._delay.size, k))
        for start, size in blocks(self._delay.size):
            draws = noise_rng.standard_exponential((size, k, width))
            # each entry sums its own width products alone, so a pulse's
            # power does not depend on the block it was drawn in
            powers = self._pulse_noise[start : start + size]
            np.einsum("pkw,kw->pk", draws, tables.noise_eigvals, out=powers)
            powers *= 2.0 * inst.noise_var

    def step(self, cpi: int, s: int, w_idx: int) -> float:
        """Realized SINR of pulse ``cpi`` in state ``s`` under waveform
        ``w_idx``, equal in distribution to filtering the full received
        pulse (target, clutter and white noise on the canvas).

        :class:`PhysicalTrackEnv`'s SINR table holds it bit for bit."""
        p_c = self._gain[s] * self._clutter[self._delay[cpi], w_idx]
        return _sinr_value(self._sig[w_idx], p_c + self._pulse_noise[cpi, w_idx])

    def expected_losses(self, states: np.ndarray, sinr_target: float) -> np.ndarray:
        """Monte Carlo mean loss of every waveform at each pulse's true state:
        the (n, K) losses of the track whose (n,) ``states`` are given.

        Uses the episode's cached noise draws, so the estimate is a
        deterministic function of (delay cell, state). Each distinct pair is
        evaluated once, in one (pairs, K, draws) buffer; pairs is at most
        min(n, n_states * grid_n).
        """
        n_cells = self._clutter.shape[0]
        pairs, inverse = np.unique(states * n_cells + self._delay, return_inverse=True)
        gain = np.array(self._gain)[pairs // n_cells]
        p_c = gain[:, None] * self._clutter[pairs % n_cells]
        # updated in place, so the call holds one (pairs, K, draws) buffer
        losses = p_c[..., None] + self._noise
        np.divide(self._sig[:, None], losses, out=losses)
        losses /= sinr_target
        # min(r, SINR_CAP) / t is min(r / t, SINR_CAP / t), and no r is below 0
        np.minimum(losses, min(SINR_CAP / sinr_target, 1.0), out=losses)
        means = np.add.reduce(losses, axis=-1) / losses.shape[-1]
        return means[inverse]


class PhysicalTrackEnv(SceneWalk):
    """The track's scene walk on ``state_proc``, of the simulator's n
    pulses from ``walk_rng``, and its outcomes, which no policy changes, so
    every policy of a seed reads one. Right after the walk it builds (n, K)
    tables: :meth:`TrackSimulator.step`'s SINR at each pulse's walked state,
    in ``step``'s order of operations; its loss, the ratio to
    ``sinr_target`` clipped to [0, 1] as ``np.clip`` gives it, both
    read-only memoryviews of float64 arrays whose (pulse, waveform) index
    reads a Python float; and one :meth:`TrackSimulator.expected_losses`
    call's read-only array."""

    def __init__(self, sim: TrackSimulator, state_proc: StateProcess, sinr_target: float,
                 walk_rng: np.random.Generator):
        super().__init__(state_proc, sim._delay.size, walk_rng)
        self.sim = sim
        self.sinr_target = sinr_target
        states = np.array(self.states)
        denom = np.array(sim._gain)[states, None] * sim._clutter[sim._delay]
        denom += sim._pulse_noise
        sinr = np.divide(sim._sig, denom, out=np.full(denom.shape, SINR_CAP), where=denom > 0.0)
        np.minimum(sinr, SINR_CAP, out=sinr)
        loss = np.clip(sinr / sinr_target, 0.0, 1.0)
        self._sinr, self._loss = memoryview(sinr).toreadonly(), memoryview(loss).toreadonly()
        self._expected = sim.expected_losses(states, sinr_target)
        self._expected.flags.writeable = False

    def expected_losses(self, contexts) -> np.ndarray:
        """The track's (n, K) expected losses; the contexts are not read."""
        return self._expected

    def realize(self, cpi: int, w_idx: int, phi):
        """(loss, SINR) of pulse ``cpi`` under waveform ``w_idx``."""
        return self._loss[cpi, w_idx], self._sinr[cpi, w_idx]
