"""Reference arithmetic the package computes inline, kept here as test
oracles."""

from __future__ import annotations

import numpy as np

from wavesel.bandit import COLD_MAX, COLD_MEAN, COLD_VAR, TIE_TOL
from wavesel.errors import IndexOutOfRange
from wavesel.fstc import SINR_CAP, observe
from wavesel.gaussmath import Gaussian, sample_gaussian
from wavesel.harness import PER_CPI_HEADER

#: The clutter gains of a four-state scene, 4 ** (s - 1), as the harness
#: builds them.
STATE_GAIN = (0.25, 1.0, 4.0, 16.0)


def regret_increment(expected_losses, chosen: int) -> float:
    """Gap between the best available expected loss and the chosen one."""
    expected = np.asarray(expected_losses, dtype=float)
    if not 0 <= chosen < expected.size:
        raise IndexOutOfRange(
            f"chosen index {chosen} outside {expected.size} waveforms"
        )
    return float(np.max(expected) - expected[chosen])


def step_state(sp, history, rng: np.random.Generator) -> int:
    """The scene-chain step as a search of the row's running sums, computed
    afresh on every call."""
    need = sp.memory - 1
    recent = tuple(int(s) for s in history[-need:]) if need else ()
    if len(recent) < need:
        recent = (0,) * (need - len(recent)) + recent
    row = sp.transition[recent]
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(row), u, side="right"))
    return min(idx, sp.n_states - 1)


def reference_track(env, prior, noise_var: float, n_cpis: int, k_arms: int,
                    rng: np.random.Generator, explore: str = "ts") -> dict:
    """One track written out from validated primitives: a ``Gaussian`` built
    and checked for every draw, ``np.clip`` and ``np.mean`` for the losses,
    ``np.outer`` for the update and the searching ``step_state`` above.

    ``env`` is only read: the synthetic environment's ``theta_star`` or the
    physical one's simulator arrays. Makes the same random draws in the same
    order as ``bandit.run_track``. Returns the per-CPI arrays of
    ``TrackResult`` and the final learner state (``post_mean``,
    ``post_cov``, ``stats``, ``agent_contexts``).
    """
    sp = env.state_proc
    n_obs = sp.n_states
    mean = np.array(prior.mean, dtype=float)
    cov = np.array(prior.cov, dtype=float)
    stats = np.zeros((n_obs, k_arms, 4))
    stats[..., 3] = -np.inf
    table = np.empty((n_obs, k_arms, 3))
    table[...] = (COLD_MEAN, COLD_VAR, COLD_MAX)
    names = ("state", "obs", "waveform", "sinr", "loss", "oracle_loss",
             "regret_inc", "suboptimal")
    rows = {name: [] for name in names}
    rows["contexts"] = []
    states: list[int] = []
    sim = getattr(env, "sim", None)

    for k in range(n_cpis):
        s = step_state(sp, states, rng)
        states.append(s)
        o = observe(sp, s, rng)
        phis = table[o]
        if explore == "random":
            idx = int(rng.integers(k_arms))
        else:
            theta = sample_gaussian(Gaussian(mean.copy(), cov.copy()), rng)
            idx = int(np.argmax(np.asarray(phis) @ np.asarray(theta)))
        phi = phis[idx].copy()
        if sim is None:
            expected = np.clip(phis @ env.theta_star, 0.0, 1.0)
            y = float(env.theta_star @ phi)
            if env.noise_var > 0:
                y += float(np.sqrt(env.noise_var) * rng.standard_normal())
            realized = float(np.clip(y, 0.0, 1.0))
            sinr = realized * env.sinr_target
        else:
            gain = float(sim.inst.state_gain[s])
            p_c = gain * sim._clutter[sim._delay[k]]
            ratio = np.minimum(sim._sig[:, None] / (p_c[:, None] + sim._noise), SINR_CAP)
            expected = np.mean(np.clip(ratio / env.sinr_target, 0.0, 1.0), axis=1)
            width = sim._lg.shape[1]
            z = (rng.standard_normal(width) + 1j * rng.standard_normal(width)) / np.sqrt(2.0)
            p_n = float(np.mean(np.abs(sim._lg[idx] @ z) ** 2))
            denom = gain * sim._clutter[sim._delay[k], idx] + p_n
            sinr = SINR_CAP if denom <= 0.0 else float(min(sim._sig[idx] / denom, SINR_CAP))
            realized = float(np.clip(sinr / env.sinr_target, 0.0, 1.0))
        best = float(np.max(expected))
        for name, value in zip(names, (
            s, o, idx, sinr, realized, best, best - float(expected[idx]),
            expected[idx] < best - TIE_TOL,
        )):
            rows[name].append(value)
        rows["contexts"].append(phi)

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
        "contexts": np.array(rows["contexts"], dtype=float).reshape(n_cpis, -1),
        "post_mean": mean,
        "post_cov": cov,
        "stats": stats,
        "agent_contexts": table,
    }
    return out


def cpi_lines(records: list) -> list:
    """The per-CPI file's lines, one f-string per row: integers as
    formatted by the f-string and floats as ``repr(float(x))``."""
    lines = [PER_CPI_HEADER]
    for rec in records:
        for i in range(len(rec)):
            lines.append(
                f"{rec.policy},{rec.seed},{rec.track},{i},{rec.state[i]},"
                f"{rec.obs[i]},{rec.waveform[i]},{float(rec.sinr_db[i])!r},"
                f"{float(rec.loss[i])!r},{float(rec.oracle_loss[i])!r},"
                f"{float(rec.regret_inc[i])!r},{int(rec.suboptimal[i])},"
                f"{int(rec.outage[i])}"
            )
    return lines
