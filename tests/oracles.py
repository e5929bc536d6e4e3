"""Reference arithmetic the package computes inline, kept here as test
oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal
from scipy.linalg import toeplitz

from wavesel.bandit import COLD_MAX, COLD_MEAN, COLD_VAR, TIE_TOL
from wavesel.errors import IndexOutOfRange, NotPositiveDefinite
from wavesel.fstc import (
    _BASE,
    SINR_CAP,
    WINDOW_HALF,
    TrackSimulator,
    channel_tables,
)
from wavesel.gaussmath import cholesky
from wavesel.harness import PER_CPI_HEADER
from wavesel.meta import run_meta_experiment
from wavesel.waveforms import default_catalog


def unit_clip(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` of one float, to the bit: a NaN stays NaN and
    -0.0 stays -0.0."""
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def synthetic_loss(theta, phi, noise: float) -> float:
    """Exact-linear loss clamp(<theta, phi> + noise) for an array ``theta``
    and one noise value, the loss ``SyntheticTrackEnv.realize`` computes;
    ``theta.dot`` and ``np.matmul`` give the same float."""
    return unit_clip(float(theta.dot(phi)) + noise)


def compute_loss(sinr_post: float, sinr_target: float) -> float:
    """Normalized SINR shortfall mapped to [0, 1], the loss
    ``PhysicalTrackEnv.realize`` computes; 1 means on-target or better."""
    return unit_clip(float(sinr_post / sinr_target))


#: The clutter gains of a four-state scene, 4 ** (s - 1), as
#: ``fstc.state_gains`` builds them.
STATE_GAIN = (0.25, 1.0, 4.0, 16.0)


@dataclass
class LinearPosterior:
    """Covariance-form posterior N(mean, cov) of a linear model with noise
    variance sigma^2, as arrays of any dimension: a reference for the
    package's three-weight float posterior, in covariance form.

    The object is mutable: :func:`blr_update` changes both arrays in place.
    Construction copies its inputs, so no caller's arrays are aliased.
    """

    mean: np.ndarray
    cov: np.ndarray
    noise_var: float

    def __post_init__(self):
        self.mean = np.array(self.mean, dtype=float)
        self.cov = np.array(self.cov, dtype=float)
        self.noise_var = float(self.noise_var)
        if self.mean.ndim != 1 or self.cov.shape != (self.dim, self.dim):
            raise ValueError(
                f"mean has shape {self.mean.shape}, cov has shape {self.cov.shape}"
            )
        if not np.all(np.abs(self.cov - self.cov.T) <= 1e-10):
            raise NotPositiveDefinite("covariance is not symmetric")
        if self.noise_var <= 0.0:
            raise NotPositiveDefinite("noise_var must be strictly positive")

    @property
    def dim(self) -> int:
        return self.mean.size


def sample_gaussian(mean: np.ndarray, cov: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One draw x = mean + L z of N(mean, cov), with L the (counted) Cholesky
    factor of cov."""
    L = cholesky(cov)
    return mean + L @ rng.standard_normal(mean.size)


def blr_update(p: LinearPosterior, phi: np.ndarray, loss: float) -> LinearPosterior:
    """Conjugate update for one observation loss = <theta, phi> + noise, in
    place, by Sherman-Morrison in array form: with k = cov phi and
    s = sigma^2 + phi^T k, the mean gains k (loss - phi^T mean) / s and the
    covariance loses outer(k, k) / s. ``phi`` is only read."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != p.mean.shape:
        raise ValueError(
            f"context has shape {phi.shape}, posterior dimension is {p.dim}"
        )
    k = p.cov.dot(phi)
    s = p.noise_var + float(phi.dot(k))
    p.mean += k * ((float(loss) - float(phi.dot(p.mean))) / s)
    p.cov -= np.outer(k, k) / s
    return p


def posterior_mean_cov(p) -> tuple[np.ndarray, np.ndarray]:
    """Copies of a ``LinearPosterior``'s (mean, cov)."""
    return p.mean.copy(), p.cov.copy()


def factor_matrix(factor) -> np.ndarray:
    """The 3 x 3 lower-triangular matrix of a factor packed row by row,
    (l00, l10, l11, l20, l21, l22), the form of a float posterior's L."""
    l00, l10, l11, l20, l21, l22 = factor
    return np.array([[l00, 0.0, 0.0], [l10, l11, 0.0], [l20, l21, l22]])


def packed_factor(cov) -> tuple:
    """The lower Cholesky factor of a 3 x 3 covariance, packed as
    :func:`factor_matrix` unpacks it."""
    (l00, _, _), (l10, l11, _), (l20, l21, l22) = np.linalg.cholesky(cov).tolist()
    return l00, l10, l11, l20, l21, l22


def float_posterior(posterior) -> tuple[np.ndarray, np.ndarray]:
    """A float posterior (mean, L), such as a ``TsAgent``'s, as the arrays
    (mean, L L^T) for comparison with the array forms above."""
    mean, factor = posterior
    L = factor_matrix(factor)
    return np.array(mean, dtype=float), L @ L.T


def exact_posterior(prior_mean, prior_var: float, noise_var: float, phis, losses) -> tuple:
    """The posterior (mean, cov) of N(prior_mean, prior_var I) after the
    observations losses[i] = <theta, phis[i]> + noise, computed in rational
    arithmetic from the precision form and rounded once to floats.

    Every input float is a dyadic rational, so the precision
    I / prior_var + sum phi phi^T / noise_var and its inverse are exact; the
    result is the reference at any prior variance, where a float update
    (this module's :func:`blr_update` included) loses digits.
    """
    v, s2 = Fraction(prior_var), Fraction(noise_var)
    prec = [[Fraction(int(i == j)) / v for j in range(3)] for i in range(3)]
    h = [Fraction(x) / v for x in prior_mean]
    for phi, y in zip(phis, losses):
        p = [Fraction(x) for x in phi]
        for i in range(3):
            h[i] += p[i] * Fraction(y) / s2
            for j in range(3):
                prec[i][j] += p[i] * p[j] / s2
    (a, b, c), (d, e, f), (g, k, m) = prec
    adjugate = [
        [e * m - f * k, c * k - b * m, b * f - c * e],
        [f * g - d * m, a * m - c * g, c * d - a * f],
        [d * k - e * g, b * g - a * k, a * e - b * d],
    ]
    det = a * adjugate[0][0] + b * adjugate[1][0] + c * adjugate[2][0]
    cov = [[x / det for x in row] for row in adjugate]
    mean = [sum(cij * hj for cij, hj in zip(row, h)) for row in cov]
    return (np.array([float(x) for x in mean]),
            np.array([[float(x) for x in row] for row in cov]))


def largest_gap(got, want) -> float:
    """Largest entry gap of two arrays relative to the largest entry of
    ``want``."""
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def cyclic_autocorrelation(env, lag: int) -> complex:
    """R(tau) = sum_k s[k] conj(s[(k + tau) mod N]) of an envelope's samples;
    R(0) is the pulse energy."""
    s = env.samples
    return complex(np.sum(s * np.conj(np.roll(s, -int(lag)))))


def regret_increment(expected_losses, chosen: int) -> float:
    """Gap between the best available expected loss and the chosen one."""
    expected = np.asarray(expected_losses, dtype=float)
    if not 0 <= chosen < expected.size:
        raise IndexOutOfRange(
            f"chosen index {chosen} outside {expected.size} waveforms"
        )
    return float(np.max(expected) - expected[chosen])


def np_cholesky(m):
    """The factorization as ``np.linalg.cholesky`` gives it, or None where
    it fails."""
    try:
        return np.linalg.cholesky(np.asarray(m, dtype=float))
    except np.linalg.LinAlgError:
        return None


def upper_root(cov) -> np.ndarray:
    """The upper-triangular root U of a covariance, U U^T = cov with a
    positive diagonal, as J chol(J cov J) J for the exchange matrix J: the
    form of a meta belief's ``root``."""
    cov = np.asarray(cov, dtype=float)
    return np.linalg.cholesky(cov[::-1, ::-1])[::-1, ::-1]


def meta_mean_cov(mp) -> tuple[np.ndarray, np.ndarray]:
    """Moment form (mean, U U^T) of a meta belief (mu, U)."""
    return mp.mu.copy(), mp.root @ mp.root.T


def scipy_matched_filter(env, rx) -> np.ndarray:
    """The matched filter as a convolution: rx convolved with the filter
    conj(p(-t)) by scipy's direct method."""
    p = env.samples
    rx = np.asarray(rx, dtype=complex)
    return signal.convolve(rx, np.conj(p[::-1]), mode="full", method="direct")


def reflected(env, ir: np.ndarray, doppler: float) -> np.ndarray:
    """The echo of the pulse off ``ir``, turned by the Doppler phase ramp
    exp(2 pi j doppler i / len) over the echo's len samples."""
    refl = np.convolve(env.samples, ir)
    t = np.arange(refl.size) / refl.size
    return refl * np.exp(2j * np.pi * doppler * t)


def canvas_len(refl_len: int, grid_n: int) -> int:
    """Samples of a received pulse: an echo of ``refl_len`` samples placed at
    any of ``grid_n`` delays past the base offset, with a window's room on
    either side."""
    return refl_len + grid_n + 2 * WINDOW_HALF


def place(length: int, refl: np.ndarray, offset: int) -> np.ndarray:
    """``refl`` at ``offset`` on a zero canvas of ``length`` samples."""
    out = np.zeros(length, dtype=complex)
    out[offset : offset + refl.size] = refl
    return out


def simulator(config, inst, oracle_rng: np.random.Generator,
              noise_rng: np.random.Generator):
    """A ``TrackSimulator`` of ``inst`` under ``config``, from channel tables
    built for the config's first k catalog waveforms, its taps and its
    ``doppler``, with its oracle and pulse-noise streams."""
    tables = channel_tables(default_catalog(config.k), config.ir_taps, config.doppler)
    return TrackSimulator(config, inst, tables, oracle_rng, noise_rng)


def full_target_peak(tables, target_ir: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (K,) peak powers and (K,) output lags p0 of the target's
    responses, from each waveform's product of every window of its target
    row with the ramped taps: the first maximum of the magnitudes, its
    square, and its lag past ``_BASE``, or lag 0 where every magnitude is
    0."""
    sig, p0 = np.empty(len(tables.windows)), np.zeros(len(tables.windows), dtype=int)
    for i, windows in enumerate(tables.windows):
        mag = np.abs((windows[0] @ (tables.tap_ramp[i] * target_ir)[:, None])[:, 0])
        peak = int(np.argmax(mag))
        sig[i] = mag[peak] ** 2
        p0[i] = 0 if mag[peak] == 0.0 else _BASE + peak
    return sig, p0


def fsum_window_powers(config, inst, tables) -> np.ndarray:
    """The (grid_n, K) mean clutter power of every delay cell's window under
    each waveform of ``tables``, from the full responses: each waveform's
    one product of its windows with the ramped target taps and the clutter
    taps, both magnitudes laid at ``_BASE`` on a zero filter output with
    room for every window, the target's first peak p0, and |clutter|^2
    summed with ``math.fsum`` over the output's lags within WINDOW_HALF of
    p0 + delay, over their count."""
    out = np.empty((config.grid_n, len(tables.windows)))
    for i, windows in enumerate(tables.windows):
        taps = np.stack([tables.tap_ramp[i] * inst.target_ir, inst.clutter_ir])
        responses = (windows @ taps[:, :, None])[..., 0]
        n_resp = responses.shape[1]
        mag = np.zeros((2, n_resp + config.grid_n + 2 * WINDOW_HALF))
        mag[:, _BASE : _BASE + n_resp] = np.abs(responses)
        p0 = int(np.argmax(mag[0]))
        power = (mag[1] ** 2).tolist()
        for delay in range(config.grid_n):
            lo = max(p0 + delay - WINDOW_HALF, 0)
            hi = min(p0 + delay + WINDOW_HALF + 1, mag.shape[1])
            out[delay, i] = math.fsum(power[lo:hi]) / (hi - lo)
    return out


def unit_noise_gram(env) -> np.ndarray:
    """The noise window's Toeplitz covariance at unit ``noise_var`` plus the
    jitter 1e-12 I, from a fresh autocorrelation of the pulse."""
    width = 2 * WINDOW_HALF + 1
    acorr = np.correlate(env.samples, env.samples, mode="full")
    col = acorr[len(env) - 1 : len(env) - 1 + width]
    return toeplitz(col, np.conj(col)) + 1e-12 * np.eye(width)


def unit_noise_factor(env) -> np.ndarray:
    """The complex Cholesky factor L of the matched-filter noise covariance
    over the analysis window at unit ``noise_var``, with the jitter
    1e-12 I, from a fresh autocorrelation of the pulse."""
    return np.linalg.cholesky(unit_noise_gram(env))


def real_form(lg: np.ndarray) -> np.ndarray:
    """The real map of a complex factor acting on a circular normal:
    [[Re L, -Im L], [Im L, Re L]] / sqrt(2 width)."""
    width = lg.shape[0]
    return np.block([[lg.real, -lg.imag], [lg.imag, lg.real]]) / np.sqrt(2.0 * width)


def unit_noise_map(env) -> np.ndarray:
    """The real map R of the noise window's factor at unit ``noise_var``:
    ``noise_var`` |R x|^2 for x standard normal is the window's mean noise
    power, whose law the simulator draws in the eigenbasis of R^T R."""
    return real_form(unit_noise_factor(env))


def unit_noise_eigvals(env) -> np.ndarray:
    """The eigenvalues of R^T R for the real form R of ``unit_noise_factor``,
    one of each pair, largest first. R^T R is the real form of
    L^H L / (2 width), and L^H L has the eigenvalues of L L^H, the Toeplitz
    gram plus 1e-12 I, so they are that gram's over 2 width."""
    gram = unit_noise_gram(env)
    return np.linalg.eigvalsh(gram)[::-1] / (2.0 * gram.shape[0])


def eigen_oracle_noise(inst, catalog, rng: np.random.Generator,
                       n_draws: int) -> np.ndarray:
    """The (K, n_draws) cached noise powers of a ``TrackSimulator`` in the
    eigen form: per waveform in catalog order, a (draws, width) block of
    standard exponentials E, ``noise_var`` sum_i 2 lambda_i E_i per draw with
    the ``unit_noise_eigvals`` lambda, and the first-moment correction to the
    exact mean ``noise_var``."""
    out = np.empty((len(catalog), n_draws))
    for i, env in enumerate(catalog):
        lam = unit_noise_eigvals(env)
        p_hat = inst.noise_var * (rng.standard_exponential((n_draws, lam.size)) @ (2.0 * lam))
        p_hat = p_hat + (inst.noise_var - p_hat.mean())
        out[i] = np.clip(p_hat, 1e-18, None)
    return out


def pulse_noise_row(noise_var: float, eigvals: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """One pulse's noise powers under each of the K waveforms, in the eigen
    form: one (K, width) draw of standard exponentials E, then
    ``noise_var`` sum_i 2 lambda_i E_i per waveform for the (K, width)
    ``eigvals`` lambda, each sum formed as the simulator forms it, so the
    powers equal its table's to the bit."""
    draws = rng.standard_exponential(eigvals.shape)
    return np.einsum("pkw,kw->pk", draws[None], eigvals)[0] * (2.0 * noise_var)


def pulse_noise_table(inst, catalog, rng: np.random.Generator, n_cpis: int) -> np.ndarray:
    """The (n_cpis, K) pulse noise powers of a ``TrackSimulator`` of ``inst``,
    drawn one pulse at a time from its pulse-noise stream, with the
    ``unit_noise_eigvals`` of each catalog waveform."""
    eigvals = np.array([unit_noise_eigvals(env) for env in catalog])
    return np.array([pulse_noise_row(inst.noise_var, eigvals, rng) for _ in range(n_cpis)])


def single_step_walk(grid_n: int, n_cpis: int, rng: np.random.Generator) -> np.ndarray:
    """The 1-based delay cells of a target walk drawn one step at a time: the
    first delay cell, then n_cpis - 1 steps, each a single
    ``integers(-1, 2)`` call, the delay clipped to [1, grid_n]."""
    delay = int(rng.integers(1 + grid_n // 3, grid_n + 1))
    cells = np.empty(n_cpis, dtype=int)
    cells[0] = delay
    for i in range(1, n_cpis):
        delay = int(np.clip(delay + int(rng.integers(-1, 2)), 1, grid_n))
        cells[i] = delay
    return cells


def step_state(sp, history, rng: np.random.Generator) -> int:
    """The scene-chain step as a search of the row's running sums, computed
    afresh on every call, from one uniform. ``history`` holds past states,
    oldest first; the row is that of the last memory - 1, padded with
    state 0."""
    need = sp.transition.ndim - 1
    recent = tuple(int(s) for s in history[-need:]) if need else ()
    if len(recent) < need:
        recent = (0,) * (need - len(recent)) + recent
    row = sp.transition[recent]
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(row), u, side="right"))
    return min(idx, sp.n_states - 1)


def observe(sp, s: int, rng: np.random.Generator) -> int:
    """Noisy state reading from two uniforms, the observation draws of a
    scene-walk step: s if the first is at least eps, else the state the
    second picks, uniformly, among the other n_states - 1."""
    flip, pick = rng.random(), rng.random()
    if flip >= sp.obs_flip_prob:
        return int(s)
    other = int(pick * (sp.n_states - 1))
    return other + (other >= s)


def reference_track(env, prior, noise_var: float, n_cpis: int, k_arms: int,
                    rng: np.random.Generator, walk_rng: np.random.Generator,
                    noise_rng: np.random.Generator, explore: str = "ts",
                    inst=None) -> dict:
    """One track written out from array primitives: ``prior``, a pair (mean,
    var), as the arrays (mean, var I), a draw through the counted Cholesky
    factor of the covariance, ``np.clip`` and ``np.mean`` for the losses,
    ``np.outer`` for the update (under Thompson sampling only: a random
    track's posterior stays its prior) and the searching ``step_state``
    and ``observe`` above.

    Each purpose stream is drawn here, one pulse at a time: per pulse, the
    walk's three uniforms from ``walk_rng``, the selection's three normals
    or one ``integers(k_arms)`` from ``rng``, and the loss noise from
    ``noise_rng``, one standard normal in synthetic mode or, in physical
    mode, ``pulse_noise_row`` of the physical instance ``inst`` with the
    ``unit_noise_eigvals`` of the catalog. ``env`` is only read: the
    synthetic environment's ``theta_star`` or the physical one's simulator
    arrays. Returns the per-CPI arrays of ``TrackResult`` and the final
    learner state (``scored``, the chosen rows, ``post_mean``,
    ``post_cov``, ``stats``, ``agent_contexts``).
    """
    sp = env.state_proc
    n_obs = sp.n_states
    prior_mean, prior_var = prior
    mean = np.array(prior_mean, dtype=float)
    cov = prior_var * np.eye(3)
    stats = np.zeros((n_obs, k_arms, 4))
    stats[..., 3] = -np.inf
    table = np.empty((n_obs, k_arms, 3))
    table[...] = (COLD_MEAN, COLD_VAR, COLD_MAX)
    names = ("state", "obs", "waveform", "sinr", "loss", "oracle_loss",
             "regret_inc", "suboptimal")
    rows = {name: [] for name in names}
    rows["scored"] = []
    states: list[int] = []
    sim = getattr(env, "sim", None)
    if sim is not None:
        eigvals = np.array([unit_noise_eigvals(w) for w in default_catalog(k_arms)])

    for k in range(n_cpis):
        s = step_state(sp, states, walk_rng)
        states.append(s)
        o = observe(sp, s, walk_rng)
        phis = table[o]
        if explore == "random":
            idx = int(rng.integers(k_arms))
        else:
            theta = sample_gaussian(mean, cov, rng)
            idx = int(np.argmax(np.asarray(phis) @ np.asarray(theta)))
        phi = phis[idx].copy()
        if sim is None:
            expected = np.clip(phis @ env.theta_star, 0.0, 1.0)
            y = float(env.theta_star @ phi)
            y += float(np.sqrt(env.noise_var) * noise_rng.standard_normal())
            realized = float(np.clip(y, 0.0, 1.0))
            sinr = realized * env.sinr_target
        else:
            gain = 4.0 ** (s - 1)
            p_c = gain * sim._clutter[sim._delay[k]]
            ratio = np.minimum(sim._sig[:, None] / (p_c[:, None] + sim._noise), SINR_CAP)
            expected = np.mean(np.clip(ratio / env.sinr_target, 0.0, 1.0), axis=1)
            p_n = float(pulse_noise_row(inst.noise_var, eigvals, noise_rng)[idx])
            denom = gain * sim._clutter[sim._delay[k], idx] + p_n
            sinr = SINR_CAP if denom <= 0.0 else float(min(sim._sig[idx] / denom, SINR_CAP))
            realized = float(np.clip(sinr / env.sinr_target, 0.0, 1.0))
        best = float(np.max(expected))
        for name, value in zip(names, (
            s, o, idx, sinr, realized, best, best - float(expected[idx]),
            expected[idx] < best - TIE_TOL,
        )):
            rows[name].append(value)
        rows["scored"].append(phi)

        if explore != "random":
            kvec = cov @ phi
            gain_s = noise_var + float(phi @ kvec)
            mean = mean + kvec * ((realized - float(phi @ mean)) / gain_s)
            cov = cov - np.outer(kvec, kvec) / gain_s
        count, m, m2, mx = stats[o, idx].tolist()
        count += 1
        delta = realized - m
        m = m + delta / count
        m2 = m2 + delta * (realized - m)
        mx = max(mx, realized)
        stats[o, idx] = (count, m, m2, mx)
        table[o, idx] = (m, m2 / count if count >= 2 else COLD_VAR, mx)

    out = {
        "state": np.array(rows["state"], dtype=int),
        "obs": np.array(rows["obs"], dtype=int),
        "waveform": np.array(rows["waveform"], dtype=int),
        "sinr": np.array(rows["sinr"], dtype=float),
        "loss": np.array(rows["loss"], dtype=float),
        "oracle_loss": np.array(rows["oracle_loss"], dtype=float),
        "regret_inc": np.array(rows["regret_inc"], dtype=float),
        "suboptimal": np.array(rows["suboptimal"], dtype=bool),
        "scored": np.array(rows["scored"], dtype=float).reshape(n_cpis, -1),
        "post_mean": mean,
        "post_cov": cov,
        "stats": stats,
        "agent_contexts": table,
    }
    return out


def cpi_lines(policy: str, seed: int, track: int, record, sinr_db, outage) -> list:
    """The per-CPI file's lines of one track's (n,) record, one f-string
    per row, after the header for track 0: integers as formatted by the
    f-string and floats as ``repr(float(x))``."""
    lines = [PER_CPI_HEADER] if track == 0 else []
    for i in range(record.loss.size):
        lines.append(
            f"{policy},{seed},{track},{i},{record.state[i]},{record.obs[i]},"
            f"{record.waveform[i]},{float(sinr_db[i])!r},{float(record.loss[i])!r},"
            f"{float(record.oracle_loss[i])!r},{float(record.regret_inc[i])!r},"
            f"{int(record.suboptimal[i])},{int(outage[i])}"
        )
    return lines


#: The per-CPI file's integer and 0/1 flag columns; every other column but
#: the policy and the seed holds floats.
CPI_INT_COLUMNS = ("track", "cpi", "state", "obs", "waveform")
CPI_FLAG_COLUMNS = ("suboptimal", "outage_10db")


def read_cpi_table(path) -> dict:
    """The per-CPI file at ``path`` read back as (m, n) arrays keyed by
    column name, the policy and seed columns aside: ints, bools for the
    flags, and floats parsed by ``float`` from their ``repr``, which gives
    back every written float to the bit. The file's track and CPI columns
    must be the (m, n) index grid."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    assert header == PER_CPI_HEADER
    cells = list(zip(*(line.split(",")[2:] for line in rows)))
    m = int(cells[0][-1]) + 1
    table = {}
    for name, column in zip(PER_CPI_HEADER.split(",")[2:], cells):
        if name in CPI_FLAG_COLUMNS:
            assert set(column) <= {"0", "1"}, name
            values = np.array([c == "1" for c in column])
        else:
            values = np.array(list(map(int if name in CPI_INT_COLUMNS else float, column)))
        table[name] = values.reshape(m, -1)
    n = table["cpi"].shape[1]
    assert np.array_equal(table["track"], np.repeat(np.arange(m)[:, None], n, axis=1))
    assert np.array_equal(table["cpi"], np.tile(np.arange(n), (m, 1)))
    return table


def block_runs(config, mu_star, state_proc, policies: tuple, seed: int) -> list:
    """What ``meta.run_meta_experiment`` yields, gathered per policy in the
    order of ``policies``: (results, beliefs), each a list by track."""
    runs = {policy: ([], []) for policy in policies}
    for policy, track, result, mp in run_meta_experiment(
        config, mu_star, state_proc, policies, seed
    ):
        results, beliefs = runs[policy]
        assert track == len(results)
        results.append(result)
        beliefs.append(mp)
    return list(runs.values())


def waveform_lines(env) -> list:
    """The ``dump-waveform`` file's lines of an envelope, one f-string per
    row: the sample index, then the real and imaginary parts as
    ``repr(float(x))``."""
    lines = ["index,real,imag"]
    for i, v in enumerate(env.samples):
        lines.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    return lines
