"""Command-line entry point.

Subcommands: ``run`` executes an experiment from a config file (with flag
overrides), ``aggregate`` collapses per-seed outputs into mean/stderr
curves, and ``dump-waveform`` writes one catalog envelope as CSV. The
harness's CSV writer formats every value this module writes.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import harness, waveforms
from .errors import WaveselError


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
    config = replace(config, **overrides)
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
    env = waveforms.catalog_envelope(args.kind)
    columns = (np.arange(len(env)), env.samples.real, env.samples.imag)
    with harness._staged([args.out]) as (fh,):
        harness._write_lines(fh, harness._table_lines("index,real,imag", "", columns))
    print(f"wrote {len(env)} samples to {args.out}")
    return 0


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
