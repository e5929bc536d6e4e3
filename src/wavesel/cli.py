"""Command-line entry point.

Subcommands: ``run`` executes an experiment from a config file (with flag
overrides), ``aggregate`` collapses per-seed outputs into mean/stderr
curves, ``dump-waveform`` writes one catalog envelope as CSV, and
``selftest`` exercises the closed-form implementations against small
independent oracles.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np
from scipy.stats import norm

from . import harness, meta, waveforms
from .bandit import COLD_MEAN, COLD_VAR, pick_argmax
from .errors import WaveselError
from .gaussmath import (
    Gaussian,
    blr_update,
    isotropic_gaussian,
    kl_gaussian,
    posterior_mean_cov,
    to_linear_posterior,
)


#: Config keys that ``run`` flags override; each flag's dest is its key.
_RUN_FLAG_KEYS = ("out_dir", "seeds", "policies", "mode")


def _cmd_run(args) -> int:
    if args.config:
        config = harness.load_config(args.config)
    else:
        config = harness.ExperimentConfig()
    # Flag values go through the config file's parser and checks.
    overrides = {
        key: harness._parse_value(key, getattr(args, key))
        for key in _RUN_FLAG_KEYS
        if getattr(args, key) is not None
    }
    config = harness._validate(replace(config, **overrides))
    summaries = harness.run_experiment(config)
    for s in summaries:
        print(
            f"{s.policy} seed {s.seed}: cumulative regret "
            f"{float(np.sum(s.cum_regret)):.3f}, wall {s.wall_time_ms:.0f} ms"
        )
    print(f"wrote {2 * len(summaries)} CSV files to {config.out_dir}")
    return 0


def _cmd_aggregate(args) -> int:
    paths = harness.aggregate_directory(args.in_dir, args.out)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_dump_waveform(args) -> int:
    env = waveforms.make_envelope(waveforms.catalog_spec(args.kind))
    lines = ["index,real,imag"]
    for i, v in enumerate(env.samples):
        lines.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    harness._write_lines(args.out, lines)
    print(f"wrote {len(env)} samples to {args.out}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAILED"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"selftest: {name} {status}{suffix}")
    return ok


def _cmd_selftest(_args) -> int:
    rng = np.random.default_rng(7)
    ok = True

    # Sequential conjugate updates against the batch normal equations.
    worst = 0.0
    for _ in range(20):
        prior_mean = rng.standard_normal(3)
        prior = isotropic_gaussian(prior_mean, 0.5)
        post = to_linear_posterior(prior, 0.05)
        X = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        for i in range(8):
            post = blr_update(post, X[i], y[i])
        mean, _ = posterior_mean_cov(post)
        prec = np.eye(3) / 0.5 + X.T @ X / 0.05
        direct = np.linalg.solve(prec, prior_mean / 0.5 + X.T @ y / 0.05)
        worst = max(worst, float(np.max(np.abs(mean - direct))))
    ok &= _check("sequential vs batch posterior", worst < 1e-10, f"gap {worst:.2e}")

    # KL divergence against the 1-d closed form written out by hand.
    q = Gaussian(np.array([0.3]), np.array([[0.7]]))
    p = Gaussian(np.array([-0.2]), np.array([[1.9]]))
    by_hand = 0.5 * (0.7 / 1.9 + 0.5**2 / 1.9 - 1.0 + np.log(1.9 / 0.7))
    gap = abs(kl_gaussian(q, p) - by_hand)
    ok &= _check("gaussian kl closed form", gap < 1e-12, f"gap {gap:.2e}")

    # Catalog invariants: unit energy and the two phase-code signatures.
    energies = []
    for name in waveforms.CATALOG_NAMES:
        env = waveforms.make_envelope(waveforms.catalog_spec(name))
        energies.append(abs(float(np.sum(np.abs(env.samples) ** 2)) - 1.0))
    ok &= _check("catalog unit energy", max(energies) < 1e-9, f"gap {max(energies):.2e}")
    zc = waveforms.make_envelope(waveforms.catalog_spec("zc-1024"))
    sidelobes = [
        abs(waveforms.cyclic_autocorrelation(zc, lag)) for lag in (1, 17, 511)
    ]
    ok &= _check("zadoff-chu cyclic sidelobes", max(sidelobes) < 1e-9)

    # One-pulse meta update in one dimension, worked out by hand.
    mp = meta.init_meta(1.0, 1, sigma0_sq=1.0, noise_var=1.0)
    mp = meta.meta_update(
        mp, meta.TrackData(np.array([[1.0]]), np.array([1.5]))
    )
    ok &= _check(
        "one-dimensional meta update",
        abs(mp.precision[0, 0] - 1.5) < 1e-12 and abs(mp.mu[0] - 0.5) < 1e-12,
    )

    # Thompson choice frequency vs the normal-CDF law on two fixed arms.
    contexts = np.array([[COLD_MEAN, COLD_VAR, COLD_MEAN], [0.9, 0.02, 0.95]])
    prior = isotropic_gaussian(np.zeros(3), 1.0)
    post = to_linear_posterior(prior, 0.05)
    mean, cov = posterior_mean_cov(post)
    delta = contexts[1] - contexts[0]
    p_arm1 = float(
        norm.cdf(float(delta @ mean) / np.sqrt(float(delta @ cov @ delta)))
    )
    draws = mean + rng.standard_normal((20000, 3)) @ np.linalg.cholesky(cov).T
    picked = np.array([pick_argmax(t, contexts) for t in draws])
    freq = float(np.mean(picked == 1))
    ok &= _check(
        "thompson selection law", abs(freq - p_arm1) < 0.02,
        f"freq {freq:.3f} vs {p_arm1:.3f}",
    )

    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavesel",
        description="Adaptive radar waveform selection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment")
    p_run.add_argument("--config", help="path to a key = value config file")
    p_run.add_argument("--out", dest="out_dir", help="output directory override")
    p_run.add_argument("--seeds", help="comma-separated seed list override")
    p_run.add_argument("--policies", help="comma-separated policy list override")
    p_run.add_argument("--mode", help="synthetic or physical")
    p_run.set_defaults(func=_cmd_run)

    p_agg = sub.add_parser("aggregate", help="aggregate per-seed outputs")
    p_agg.add_argument("--in", dest="in_dir", required=True)
    p_agg.add_argument("--out", required=True)
    p_agg.set_defaults(func=_cmd_aggregate)

    p_dump = sub.add_parser("dump-waveform", help="write one envelope as CSV")
    p_dump.add_argument(
        "--kind", required=True, choices=waveforms.CATALOG_NAMES
    )
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(func=_cmd_dump_waveform)

    p_self = sub.add_parser("selftest", help="run quick oracle checks")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WaveselError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
