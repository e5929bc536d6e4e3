"""Shared fixtures: the expensive sweeps are session-scoped so the
acceptance tests and the trend tests read from one set of runs."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from wavesel.harness import (
    ExperimentConfig,
    read_track_table,
    run_experiment,
    track_csv_path,
)

from golden import sweep_config


@dataclass
class SweepResult:
    config: ExperimentConfig
    summaries: list
    elapsed_s: float

    def curves(self, policy: str, column: str) -> np.ndarray:
        """One per-track column stacked as an (n_seeds, m) matrix."""
        out = []
        for seed in self.config.seeds:
            rows = read_track_table(
                track_csv_path(self.config.out_dir, policy, seed)
            )
            rows = sorted(rows, key=lambda r: r["track"])
            out.append([r[column] for r in rows])
        return np.array(out)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    started = time.perf_counter()
    summaries = run_experiment(config)
    return SweepResult(config, summaries, time.perf_counter() - started)


@pytest.fixture(scope="session")
def synthetic_sweep(tmp_path_factory) -> SweepResult:
    out = tmp_path_factory.mktemp("synthetic_sweep")
    return run_sweep(sweep_config("synthetic_sweep", out))


@pytest.fixture(scope="session")
def physical_sweep(tmp_path_factory) -> SweepResult:
    out = tmp_path_factory.mktemp("physical_sweep")
    return run_sweep(sweep_config("physical_sweep", out))


@pytest.fixture(scope="session")
def memory3_sweep(tmp_path_factory) -> SweepResult:
    out = tmp_path_factory.mktemp("memory3_sweep")
    return run_sweep(sweep_config("memory3_sweep", out))


@pytest.fixture(scope="session")
def doppler_sweep(tmp_path_factory) -> SweepResult:
    out = tmp_path_factory.mktemp("doppler_sweep")
    return run_sweep(sweep_config("doppler_sweep", out))
