"""Golden digests of the three session sweeps.

``golden_sweeps.json`` holds, for each sweep of ``SWEEPS``, the sha256 of
every per-CPI (``cpi_*``) and per-track (``track_*``) file the sweep writes,
and of every aggregate (``agg_*``) file ``aggregate_directory`` makes of
them, and a digest of each of the file's columns, with the numpy and
OpenBLAS versions and the OpenBLAS kernel set it was recorded under.
``test_golden.py`` compares the session fixtures' files, and their
aggregates, with it.

Usage (from the repository root), to rewrite the file:

    PYTHONPATH=src python3 tests/golden.py [--against REV]

It runs and aggregates every sweep in a temporary directory and prints, per
sweep and file kind, the columns whose digests changed against the file it
replaces. It then runs the same sweeps with the package of the git revision
REV (default ``HEAD``; its ``src/`` taken by ``git archive``, in a child
process) and prints, per sweep and file kind, how many ``cpi_*`` files'
``waveform`` column changed and the largest absolute gap of each changed
float column against that revision's values. A change that moves output
bytes on purpose rewrites the file in the same diff and quotes that report.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
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
    # the target's Doppler cut apart from the clutter's correlation, on
    # 16-tap responses: the target peak search off the autocorrelation
    "doppler_sweep": {
        "mode": "physical",
        "doppler": 0.7,
        "ir_taps": 16,
        "m": 5,
        "n": 100,
        "seeds": tuple(range(5)),
    },
}


def sweep_config(sweep: str, out_dir) -> ExperimentConfig:
    return ExperimentConfig(out_dir=str(out_dir), **SWEEPS[sweep])


def blas_core():
    """Name of the kernel set the OpenBLAS bundled with numpy dispatched to on
    this CPU (``SkylakeX``, ``Haswell``, ...; ``OPENBLAS_CORETYPE`` picks
    another), or None where no such library is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            return getter().decode()
    return None


def versions() -> dict:
    """The numpy and OpenBLAS builds the process runs under, and the
    OpenBLAS kernel set, which the physical build's and the meta level's
    last bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": blas_core(),
    }


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


def read_columns(path) -> dict:
    """{column: its values as written, one string a row} of a CSV file."""
    header, *rows = (line.split(",") for line in Path(path).read_text().splitlines())
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def gap_report(before, after) -> list:
    """One line per sweep of ``SWEEPS`` and file kind, comparing the files
    ``run_sweeps`` wrote under ``before`` with those under ``after``: for
    ``cpi_*``, in how many files (and rows) the ``waveform`` column changed;
    for every kind, the largest absolute gap of each float column that
    changed, over the kind's files present in both with the same rows. A
    ``agg_*`` column is named with its metric, as ``regret.mean``."""
    lines = []
    for sweep in SWEEPS:
        dirs = [(Path(root) / sweep, Path(root) / f"{sweep}_agg") for root in (before, after)]
        found = {p.name: p for d in dirs[1] for p in sorted(d.glob("*.csv"))}
        old = {p.name: p for d in dirs[0] for p in sorted(d.glob("*.csv"))}
        for kind in ("cpi_", "track_", "agg_"):
            names = sorted(n for n in found.keys() & old.keys() if n.startswith(kind))
            gaps, flipped_files, flipped_rows, rows, unmatched = {}, 0, 0, 0, 0
            for name in names:
                a, b = read_columns(old[name]), read_columns(found[name])
                if a.keys() != b.keys() or len(a[next(iter(a))]) != len(b[next(iter(b))]):
                    unmatched += 1
                    continue
                for column, values in b.items():
                    was = a[column]
                    if column == "waveform":
                        rows += len(values)
                        flips = sum(x != y for x, y in zip(was, values))
                        flipped_files += flips > 0
                        flipped_rows += flips
                    if was == values or all(map(_is_int, values + was)):
                        continue
                    key = f"{name[4:-4]}.{column}" if kind == "agg_" else column
                    gap = max(
                        (abs(float(x) - float(y)) for x, y in zip(was, values) if x != y),
                        default=0.0,
                    )
                    gaps[key] = max(gaps.get(key, 0.0), 0.0 if math.isnan(gap) else gap)
            parts = []
            if kind == "cpi_":
                parts.append(
                    f"waveform changed in {flipped_files} of {len(names)} files "
                    f"({flipped_rows} of {rows} rows)"
                )
            parts.append(
                "largest absolute gap: "
                + (", ".join(f"{c} {g:.4g}" for c, g in gaps.items()) if gaps else "none")
            )
            if unmatched:
                parts.append(f"{unmatched} files with other columns or rows")
            lines.append(f"{sweep} {kind}*: " + "; ".join(parts))
    return lines


def run_sweeps(root) -> dict:
    """Run every sweep into ``root``/<sweep> and aggregate it into
    ``root``/<sweep>_agg; returns {sweep: its ``sweep_digests``}."""
    digests = {}
    for sweep in SWEEPS:
        out = Path(root) / sweep
        out.mkdir(parents=True)
        run_experiment(sweep_config(sweep, out))
        digests[sweep] = sweep_digests(out, Path(root) / f"{sweep}_agg")
    return digests


def run_revision_sweeps(rev: str, root) -> None:
    """Run every sweep into ``root`` with the package of git revision
    ``rev``: its ``src/`` from ``git archive``, extracted under ``root``,
    imported by a child process that runs this file's sweeps."""
    repo = Path(__file__).resolve().parents[1]
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", rev, "src"], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(Path(root) / "rev", filter="data")
    src = Path(root) / "rev" / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run(
        [sys.executable, __file__, "--run-into", str(Path(root) / "out")],
        env=env, check=True, capture_output=True, text=True,
    )
    imported = Path(child.stdout.strip())
    if src.resolve() not in imported.resolve().parents:
        raise OSError(f"the sweeps of {rev} imported the package from {imported}")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden digests.")
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="git revision whose values the gaps are taken against")
    # the child process of run_revision_sweeps: run the sweeps, write nothing else
    parser.add_argument("--run-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_into:
        run_sweeps(args.run_into)
        print(Path(sys.modules["wavesel"].__file__).parent)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_sweeps(Path(tmp) / "now")
        recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        write(digests)
        print(f"wrote {GOLDEN}: {sum(map(len, digests.values()))} files")
        print("\n".join(change_report(recorded, digests)))
        try:
            run_revision_sweeps(args.against, Path(tmp) / "before")
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"no value gaps against {args.against}: {exc}")
            return 0
        print(f"value gaps against {args.against}:")
        print("\n".join(gap_report(Path(tmp) / "before" / "out", Path(tmp) / "now")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
