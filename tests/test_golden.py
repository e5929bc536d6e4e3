"""The session sweeps, and their aggregates, write the bytes recorded in
``golden_sweeps.json``.

A change that moves output bytes on purpose rewrites the file with
``tests/golden.py`` in the same diff; any other difference fails here."""

from __future__ import annotations

import json

from golden import (
    GOLDEN,
    SWEEPS,
    change_report,
    differences,
    file_digests,
    gap_report,
    sweep_digests,
    versions,
)


def test_session_sweeps_match_golden_digests(
    synthetic_sweep, physical_sweep, memory3_sweep, doppler_sweep, tmp_path
):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    sweeps = {
        "synthetic_sweep": synthetic_sweep,
        "physical_sweep": physical_sweep,
        "memory3_sweep": memory3_sweep,
        "doppler_sweep": doppler_sweep,
    }
    assert sweeps.keys() == SWEEPS.keys()
    problems = [
        f"{name}/{line}"
        for name, sweep in sweeps.items()
        for line in differences(
            recorded[name], sweep_digests(sweep.config.out_dir, tmp_path / name)
        )
    ]
    if problems and recorded["versions"] != versions():
        problems.insert(0, (
            f"recorded under {recorded['versions']}, running under {versions()}: "
            "a different numpy or BLAS build may move the last bits"
        ))
    assert not problems, "\n".join(problems)


def test_golden_digests_name_the_first_differing_column(tmp_path):
    (tmp_path / "cpi_x_seed0.csv").write_text("a,b,c\n1,2,3\n4,5,6\n")
    (tmp_path / "track_x_seed0.csv").write_text("a,b\n1,2\n")
    recorded = file_digests(tmp_path)
    (tmp_path / "cpi_x_seed0.csv").write_text("a,b,c\n1,2,3\n4,5,7\n")
    (tmp_path / "track_x_seed0.csv").unlink()
    (tmp_path / "track_y_seed0.csv").write_text("a,b\n1,2\n")
    (tmp_path / "agg_loss.csv").write_text("a\n1\n")
    (tmp_path / "notes.csv").write_text("a\n1\n")
    assert differences(recorded, file_digests(tmp_path)) == [
        "agg_loss.csv: not recorded",
        "cpi_x_seed0.csv: first differing column c",
        "track_x_seed0.csv: missing",
        "track_y_seed0.csv: not recorded",
    ]
    assert differences(recorded, recorded) == []


def test_change_report_counts_changed_columns_per_kind(tmp_path):
    for seed in (0, 1):
        (tmp_path / f"cpi_x_seed{seed}.csv").write_text("a,b,c\n1,2,3\n")
        (tmp_path / f"track_x_seed{seed}.csv").write_text("a,b\n1,2\n")
    (tmp_path / "agg_loss.csv").write_text("a\n1\n")
    recorded = {"sweep": file_digests(tmp_path)}
    (tmp_path / "cpi_x_seed0.csv").write_text("a,b,c\n1,5,4\n")
    (tmp_path / "cpi_x_seed1.csv").write_text("a,b,c\n1,2,4\n")
    (tmp_path / "track_x_seed1.csv").unlink()
    (tmp_path / "agg_regret.csv").write_text("a\n1\n")
    found = {"sweep": file_digests(tmp_path), "new_sweep": file_digests(tmp_path)}
    assert change_report(recorded, found) == [
        "sweep cpi_*: 2 of 2 files changed: b (1), c (2)",
        "sweep track_*: 0 of 2 files changed, 0 added, 1 missing",
        "sweep agg_*: 0 of 2 files changed, 1 added, 0 missing",
        "new_sweep cpi_*: 0 of 2 files changed, 2 added, 0 missing",
        "new_sweep track_*: 0 of 1 files changed, 1 added, 0 missing",
        "new_sweep agg_*: 0 of 2 files changed, 2 added, 0 missing",
    ]
    assert change_report(found, found)[0] == "sweep cpi_*: 0 of 2 files changed"


def test_gap_report_counts_flips_and_the_largest_float_gaps(tmp_path):
    sweep = next(iter(SWEEPS))
    for root, rows in (("before", ("0,0.5,1", "1,0.25,2")), ("after", ("0,0.75,1", "3,0.25,7"))):
        out, agg = tmp_path / root / sweep, tmp_path / root / f"{sweep}_agg"
        out.mkdir(parents=True)
        agg.mkdir()
        (out / "cpi_x_seed0.csv").write_text("waveform,loss,state\n" + "\n".join(rows) + "\n")
        (out / "cpi_x_seed1.csv").write_text("waveform,loss,state\n0,0.5,1\n")
        (out / "track_x_seed0.csv").write_text("track,cum_regret\n0,1.5\n")
        (agg / "agg_regret.csv").write_text(f"policy,track,mean\nx,0,{len(root)}.0\n")
    report = gap_report(tmp_path / "before", tmp_path / "after")
    assert report[:3] == [
        f"{sweep} cpi_*: waveform changed in 1 of 2 files (1 of 3 rows); "
        "largest absolute gap: loss 0.25",
        f"{sweep} track_*: largest absolute gap: none",
        f"{sweep} agg_*: largest absolute gap: regret.mean 1",
    ]
    assert all(line.endswith("of 0 files (0 of 0 rows); largest absolute gap: none")
               for line in report[3::3])
