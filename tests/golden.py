"""Golden digests of the three session sweeps.

``golden_sweeps.json`` holds, for each sweep of ``SWEEPS``, the sha256 of
every per-CPI (``cpi_*``) and per-track (``track_*``) file the sweep writes,
and of every aggregate (``agg_*``) file ``aggregate_directory`` makes of
them, and a digest of each of the file's columns, with the numpy and
OpenBLAS versions it was recorded under. ``test_golden.py`` compares the
session fixtures' files, and their aggregates, with it.

Usage (from the repository root), to rewrite the file:

    PYTHONPATH=src python3 tests/golden.py

It runs and aggregates every sweep in a temporary directory and prints, per
sweep and file kind, the columns whose digests changed against the file it
replaces. A change that moves output bytes on purpose rewrites the file in
the same diff and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from wavesel.harness import ExperimentConfig, aggregate_directory, run_experiment

GOLDEN = Path(__file__).with_name("golden_sweeps.json")

#: The ``ExperimentConfig`` fields of each session sweep besides ``out_dir``.
SWEEPS = {
    "synthetic_sweep": {},
    "physical_sweep": {
        "mode": "physical",
        "policies": ("ts-uninformative", "ts-oracle", "meta-ts"),
    },
    # a memory-3 chain behind a noisy observation kernel: the scene walk's
    # two-state rows and its observation flips, at every policy
    "memory3_sweep": {
        "memory": 3,
        "obs_flip_prob": 0.4,
        "m": 10,
        "n": 100,
        "seeds": tuple(range(5)),
    },
}


def sweep_config(sweep: str, out_dir) -> ExperimentConfig:
    return ExperimentConfig(out_dir=str(out_dir), **SWEEPS[sweep])


def versions() -> dict:
    """The numpy and OpenBLAS builds the process runs under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _digest(data: bytes, size: int = 64) -> str:
    return hashlib.sha256(data).hexdigest()[:size]


def file_digests(out_dir) -> dict:
    """{file name: {"sha256": ..., "columns": {column: digest}}} of every
    ``cpi_*``, ``track_*`` and ``agg_*`` file in ``out_dir``; a column's
    digest is over its values as written, one a line."""
    out = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        if not path.name.startswith(("cpi_", "track_", "agg_")):
            continue
        data = path.read_bytes()
        header, *rows = (line.split(",") for line in data.decode().splitlines())
        out[path.name] = {
            "sha256": _digest(data),
            "columns": {
                name: _digest("\n".join(row[i] for row in rows).encode(), 16)
                for i, name in enumerate(header)
            },
        }
    return out


def sweep_digests(out_dir, agg_dir) -> dict:
    """``file_digests`` of a sweep's ``out_dir`` and of the aggregates
    ``aggregate_directory`` writes of it to ``agg_dir``."""
    aggregate_directory(str(out_dir), str(agg_dir))
    return {**file_digests(out_dir), **file_digests(agg_dir)}


def differences(recorded: dict, found: dict) -> list:
    """One line per file that is missing, unexpected or different, naming a
    different file's first differing column."""
    lines = []
    for name in sorted(recorded.keys() | found.keys()):
        if name not in found:
            lines.append(f"{name}: missing")
        elif name not in recorded:
            lines.append(f"{name}: not recorded")
        elif found[name]["sha256"] != recorded[name]["sha256"]:
            want, got = recorded[name]["columns"], found[name]["columns"]
            column = next(
                (c for c in got if want.get(c) != got[c]),
                "none (the header or the row count differs)",
            )
            lines.append(f"{name}: first differing column {column}")
    return lines


def change_report(recorded: dict, found: dict) -> list:
    """One line per sweep of ``found`` and file kind (``cpi_*``, ``track_*``,
    ``agg_*``): how many of its files changed, were added or went missing
    against ``recorded`` (both {sweep: file_digests}), and each changed
    column with the number of files it changed in."""
    lines = []
    for sweep, files in found.items():
        old = recorded.get(sweep, {})
        for kind in ("cpi_", "track_", "agg_"):
            names = sorted(n for n in old.keys() | files.keys() if n.startswith(kind))
            added = sum(n not in old for n in names)
            missing = sum(n not in files for n in names)
            changed, columns = 0, Counter()
            for name in names:
                if name in old and name in files and old[name] != files[name]:
                    changed += 1
                    want, got = old[name]["columns"], files[name]["columns"]
                    columns.update(c for c in {**want, **got} if want.get(c) != got.get(c))
            text = f"{changed} of {len(names)} files changed"
            if added or missing:
                text += f", {added} added, {missing} missing"
            if columns:
                text += ": " + ", ".join(f"{c} ({n})" for c, n in columns.items())
            lines.append(f"{sweep} {kind}*: {text}")
    return lines


def write(digests: dict) -> None:
    """Write ``digests`` ({sweep: file_digests}) to ``GOLDEN`` with the
    running versions, one file a line."""
    parts = [f' "versions": {json.dumps(versions(), sort_keys=True)}']
    for sweep in SWEEPS:
        entries = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(entry, separators=(',', ':'))}"
            for name, entry in digests[sweep].items()
        )
        parts.append(f" {json.dumps(sweep)}: {{\n{entries}\n }}")
    GOLDEN.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in SWEEPS:
            out = Path(tmp) / sweep
            out.mkdir()
            run_experiment(sweep_config(sweep, out))
            digests[sweep] = sweep_digests(out, Path(tmp) / f"{sweep}_agg")
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    write(digests)
    print(f"wrote {GOLDEN}: {sum(map(len, digests.values()))} files")
    print("\n".join(change_report(recorded, digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
