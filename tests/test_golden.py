"""The session sweeps write the bytes recorded in ``golden_sweeps.json``.

A change that moves output bytes on purpose rewrites the file with
``tests/golden.py`` in the same diff; any other difference fails here."""

from __future__ import annotations

import json

from golden import GOLDEN, SWEEPS, differences, file_digests, versions


def test_session_sweeps_match_golden_digests(synthetic_sweep, physical_sweep):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    sweeps = {"synthetic_sweep": synthetic_sweep, "physical_sweep": physical_sweep}
    assert sweeps.keys() == SWEEPS.keys()
    problems = [
        f"{name}/{line}"
        for name, sweep in sweeps.items()
        for line in differences(recorded[name], file_digests(sweep.config.out_dir))
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
    assert differences(recorded, file_digests(tmp_path)) == [
        "cpi_x_seed0.csv: first differing column c",
        "track_x_seed0.csv: missing",
        "track_y_seed0.csv: not recorded",
    ]
    assert differences(recorded, recorded) == []
