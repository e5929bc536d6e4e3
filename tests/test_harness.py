"""Config parsing, replicate execution, CSV plumbing, and the CLI."""

from __future__ import annotations

import hashlib
import math
import os
import string
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wavesel
from wavesel import cli, fstc, harness, meta
from wavesel.bandit import TrackResult
from wavesel.errors import (
    EmptyInput,
    InvalidInput,
    IoError,
    ParseError,
    ValidationError,
)
from wavesel.fstc import SINR_CAP, state_gains
from wavesel.harness import (
    AGG_HEADER,
    PER_CPI_HEADER,
    PER_TRACK_HEADER,
    PHYSICAL_KEYS,
    PHYSICAL_MU_STAR,
    SYNTHETIC_MU_STAR,
    ExperimentConfig,
    aggregate,
    aggregate_directory,
    build_scene,
    cpi_csv_path,
    load_config,
    parse_config,
    read_track_table,
    run,
    run_block,
    run_experiment,
    serialize_config,
    track_csv_path,
    worker_count,
    write_aggregates,
    _KEY_TYPES,
    _cpi_lines,
    _parse_value,
    _table_lines,
    _write_lines,
)
from wavesel.meta import POLICIES, init_meta, policy_index
from wavesel.metrics import OUTAGE_DB, kl_trace, sinr_to_db
from wavesel.waveforms import CATALOG_NAMES, catalog_envelope

import golden
import oracles


def _tiny_config(out_dir: str, **overrides) -> ExperimentConfig:
    base = dict(m=2, n=16, k=3, seeds=(0, 1), out_dir=out_dir)
    base.update(overrides)
    return replace(ExperimentConfig(), **base)


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_gives_defaults():
    config = parse_config("")
    assert config.m == 50
    assert config.n == 200
    assert config.k == 5
    assert config.seeds == tuple(range(20))
    assert config.policies == POLICIES
    assert config.mode == "synthetic"
    assert config.mu_star is None


def test_comments_and_blank_lines_are_skipped():
    text = "\n# full comment\n  \nm = 3  # trailing comment\n"
    assert parse_config(text).m == 3


def test_later_lines_win():
    assert parse_config("m = 3\nm = 7\n").m == 7


def test_m_zero_is_rejected_by_name():
    with pytest.raises(ValidationError) as info:
        parse_config("m = 0\n")
    assert info.value.field == "m"


def test_unknown_key_is_rejected():
    with pytest.raises(ValidationError) as info:
        parse_config("cadence = 4\n")
    assert info.value.field == "cadence"


def test_missing_equals_reports_line_and_column():
    with pytest.raises(ParseError) as info:
        parse_config("m = 3\njust words\n")
    assert info.value.line == 2
    assert info.value.column == 1


def test_missing_key_reports_column_one():
    with pytest.raises(ParseError) as info:
        parse_config(" = 5\n")
    assert info.value.line == 1
    assert info.value.column == 1


def test_missing_value_points_past_equals():
    with pytest.raises(ParseError) as info:
        parse_config("n =\n")
    assert info.value.line == 1
    assert info.value.column == 4


def test_bad_value_reports_location():
    with pytest.raises(ParseError) as info:
        parse_config("m = 3\nn = x\n")
    assert info.value.line == 2
    assert info.value.column == 4


@pytest.mark.parametrize(
    "bad,field",
    [
        ("sigma_q_sq = 0.0", "sigma_q_sq"),
        ("sigma_sq = -1.0", "sigma_sq"),
        ("obs_flip_prob = 1.5", "obs_flip_prob"),
        ("n_states = 1", "n_states"),
        ("mode = simulated", "mode"),
        ("policies = random,epsilon-greedy", "policies"),
        ("mu_star = 0.1,0.2", "mu_star"),
        ("out_dir =  ", None),
        ("sinr_target_db = nan", "sinr_target_db"),
        ("sigma_q_sq = inf", "sigma_q_sq"),
        ("doppler = -inf", "doppler"),
        ("mu_star = nan,0,0", "mu_star"),
        ("obs_flip_prob = 1.0", "obs_flip_prob"),
        ("d = 4", "d"),
        ("grid_m = 3", "grid_m"),
        ("clutter_power = -1.0", "clutter_power"),
        ("target_power = -1.0", "target_power"),
        ("target_power = 0", "target_power"),
        ("mode = physical\nk = 6", "k"),
        ("seeds = 0,-1", "seeds"),
        ("seeds = 0,0", "seeds"),
        ("policies = random,random", "policies"),
        # n_states ** memory transition entries above 2**18
        ("memory = 10", "memory"),
        ("n_states = 2\nmemory = 19", "memory"),
        ("memory = 1000000000", "memory"),
        ("n_states = 262145\nmemory = 1", "n_states"),
        # top state gain 4 ** (n_states - 2) times clutter_power above 1e300
        ("n_states = 514\nmemory = 1", "n_states"),
        ("n_states = 498\nmemory = 1", "n_states"),
        # the linear target 10 ** (x / 10) overflows, or falls under DB_FLOOR
        ("sinr_target_db = 4000", "sinr_target_db"),
        ("sinr_target_db = -4000", "sinr_target_db"),
        ("sinr_target_db = 300.0000001", "sinr_target_db"),
        ("mode = physical\ntarget_power = 0.0", "target_power"),
        ("grid_n = 8", "grid_n"),
        # values no config text can hold. A dict makes no readable id, so
        # each dict case pins the positional id it was first collected
        # under, and a case added above it renames none of them
        pytest.param({"m": 2.5}, "m", id="bad33-m"),
        pytest.param({"m": True}, "m", id="bad34-m"),
        pytest.param({"sigma_sq": "0.3"}, "sigma_sq", id="bad35-sigma_sq"),
        pytest.param({"sigma_sq": 10**400}, "sigma_sq", id="bad36-sigma_sq"),
        pytest.param({"seeds": [0]}, "seeds", id="bad37-seeds"),
        pytest.param({"seeds": (0, 1.5)}, "seeds", id="bad38-seeds"),
        pytest.param({"policies": "random"}, "policies", id="bad39-policies"),
        pytest.param({"mu_star": [0.1, 0.2, 0.3]}, "mu_star", id="bad40-mu_star"),
        pytest.param({"mode": None}, "mode", id="bad41-mode"),
        pytest.param({"out_dir": "a#b"}, "out_dir", id="bad42-out_dir"),
        pytest.param({"out_dir": ""}, "out_dir", id="bad43-out_dir"),
        # an int key holds what an int64 holds, and serialize_config can write
        pytest.param({"seeds": (2**63,)}, "seeds", id="bad44-seeds"),
        pytest.param({"m": 10**5000}, "m", id="bad45-m"),
        # the first value out of range of each bound; a physical key's in
        # physical mode, where only the bound can refuse it
        ("m = 0", "m"),
        ("n = 0", "n"),
        ("k = 0", "k"),
        ("sigma0_sq = 0.0", "sigma0_sq"),
        ("sigma_sq = 0.0", "sigma_sq"),
        ("mode = physical\nnoise_var = 0.0", "noise_var"),
        ("sinr_target_db = -300.0000001", "sinr_target_db"),
        ("obs_flip_prob = -5e-324", "obs_flip_prob"),
        ("memory = 0", "memory"),
        ("mode = physical\ngrid_n = 0", "grid_n"),
        ("mode = physical\nir_taps = 0", "ir_taps"),
        ("mode = physical\nn_oracle_draws = 0", "n_oracle_draws"),
        ("mode = physical\nir_kernel_scale = 0.0", "ir_kernel_scale"),
        ("mode = physical\nclutter_power = -5e-324", "clutter_power"),
        ("mu_star = 0,0,0,0", "mu_star"),
        pytest.param({"seeds": ()}, "seeds", id="bad61-seeds"),
        pytest.param({"policies": ()}, "policies", id="bad62-policies"),
        # the uninformative prior variance sigma_q_sq + sigma0_sq overflows
        ("sigma_q_sq = 1e308\nsigma0_sq = 1e308", "sigma_q_sq"),
        # a 200-pulse track's 200 pairs, or one pulse's 33 draws a waveform,
        # times k = 5 and the draws pass MAX_ORACLE_FLOATS = 2 ** 22
        ("mode = physical\nn_oracle_draws = 4195", "n_oracle_draws"),
        ("mode = physical\nn = 1\nn_oracle_draws = 25421", "n_oracle_draws"),
        ("mode = physical\nn_oracle_draws = 1000000000", "n_oracle_draws"),
        # the first delay grid and tap count over MAX_GRID_N = 2 ** 16 and
        # MAX_IR_TAPS = 2 ** 10, and oversized values that used to construct
        ("mode = physical\ngrid_n = 65537", "grid_n"),
        ("mode = physical\ngrid_n = 1000000000", "grid_n"),
        ("mode = physical\nir_taps = 1025", "ir_taps"),
        ("mode = physical\nir_taps = 1000000", "ir_taps"),
        # SeedSequence splits a seed of 2**32 or more into 32-bit words, so
        # such a seed's keys alias another seed's: this one's track-0 random
        # stream is seed 5's track-0 walk
        pytest.param("seeds = 4294967296", "seeds", id="seeds-2**32"),
        pytest.param("seeds = 0,4295134799724549", "seeds", id="seeds-aliasing-a-walk"),
        pytest.param({"seeds": (2**32,)}, "seeds", id="seeds-2**32-call"),
        # the first synthetic catalog over MAX_ARMS = 2 ** 10, and one that
        # used to construct; constructed only
        pytest.param("k = 1025", "k", id="k-2**10+1"),
        pytest.param("k = 1000000", "k", id="k-10**6"),
        pytest.param({"k": 10**6}, "k", id="k-10**6-call"),
        # a track over MAX_TRACK_ENTRIES = 2 ** 23 entries of n * (k + 32),
        # at k = 5 and at k = 2 ** 10, and a block over MAX_TRACKS = 2 ** 16
        # tracks; with the sizes that used to construct, constructed only
        pytest.param("n = 226720", "n", id="n-2**23-entries-at-k-5"),
        pytest.param("k = 1024\nn = 7944", "n", id="n-2**23-entries-at-k-2**10"),
        pytest.param("n = 1000000000", "n", id="n-10**9"),
        pytest.param({"n": 10**9}, "n", id="n-10**9-call"),
        pytest.param("m = 65537", "m", id="m-2**16+1"),
        pytest.param("m = 1000000000", "m", id="m-10**9"),
        pytest.param({"m": 10**9}, "m", id="m-10**9-call"),
    ],
)
def test_validation_failures_name_the_field(bad, field):
    """Config text, a call and ``replace`` each reject a bad value and name
    its field. An unknown key or a blank value is a fault of the text
    alone; a dict holds values no text can."""
    if isinstance(bad, dict):
        values = bad
    else:
        with pytest.raises(ParseError if field is None else ValidationError) as info:
            parse_config(bad + "\n")
        if field is None or field not in _KEY_TYPES:
            return
        assert info.value.field == field
        pairs = (line.split("=") for line in bad.splitlines())
        values = {k.strip(): _parse_value(k.strip(), v.strip()) for k, v in pairs}
    for build in (ExperimentConfig, partial(replace, ExperimentConfig())):
        with pytest.raises(ValidationError) as info:
            build(**values)
        assert info.value.field == field


def test_transition_table_limit_admits_2_to_the_18_entries():
    # parsed only: a table this size costs each replicate about 26 MB
    assert parse_config("n_states = 4\nmemory = 9\n").memory == 9
    assert parse_config("n_states = 2\nmemory = 18\n").memory == 18


def test_seed_limit_admits_2_to_the_32_minus_1():
    assert harness.MAX_SEED == 2**32
    assert parse_config("seeds = 0,4294967295\n").seeds == (0, 2**32 - 1)


def test_oracle_buffer_limit_admits_2_to_the_22_floats():
    # constructed only: at this size a track's expected losses take about
    # 32 MB and 40 ms
    assert harness.MAX_ORACLE_FLOATS == 2**22
    assert parse_config("mode = physical\nn_oracle_draws = 4194\n").n_oracle_draws == 4194
    one_pulse = parse_config("mode = physical\nn = 1\nn_oracle_draws = 25420\n")
    assert one_pulse.n_oracle_draws == 25420
    # the 10,000-draw scene of the receive Monte Carlo test: 64 pairs
    refined = ExperimentConfig(mode="physical", grid_n=16, n_oracle_draws=10_000)
    assert refined.n_oracle_draws == 10_000


def test_arm_limit_admits_2_to_the_10_arms():
    # constructed only: at this size a 200-pulse track takes about 9 MB
    assert harness.MAX_ARMS == 2**10
    assert parse_config("k = 1024\n").k == 1024


def test_track_limits_admit_2_to_the_23_entries_and_2_to_the_16_tracks():
    # constructed only: at the entry bound a track peaks near 150 MB
    assert (harness.MAX_TRACK_ENTRIES, harness.MAX_TRACKS) == (2**23, 2**16)
    assert parse_config("n = 226719\n").n == 226719
    assert parse_config("k = 1024\nn = 7943\n").n == 7943
    assert parse_config("mode = physical\nn = 226719\n").n == 226719
    assert parse_config("m = 65536\n").m == 65536
    # the default study, the golden sweeps and the benchmark's long track
    assert (ExperimentConfig().m, ExperimentConfig().n) == (50, 200)
    for sweep in golden.SWEEPS:
        golden.sweep_config(sweep, "out")
    assert parse_config("m = 1\nn = 2500\npolicies = meta-ts\n").n == 2500


def test_size_limits_admit_2_to_the_16_cells_and_2_to_the_10_taps():
    # constructed only: at these sizes a track's build takes about 20 MB
    # and 34 ms (grid_n) or 31 ms (ir_taps), and the tap root 24 MB
    assert (harness.MAX_GRID_N, harness.MAX_IR_TAPS) == (2**16, 2**10)
    config = parse_config("mode = physical\ngrid_n = 65536\nir_taps = 1024\n")
    assert (config.grid_n, config.ir_taps) == (65536, 1024)


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_largest_accepted_state_gain_runs(tmp_path, mode):
    # n_states = 497 is the largest accepted at the default clutter_power;
    # a RuntimeWarning (an overflow) fails the test
    config = parse_config(
        f"n_states = 497\nmemory = 1\nm = 1\nmode = {mode}\nout_dir = {tmp_path}\n"
    )
    for policy in POLICIES:
        summary = run(config, policy, 0)
        table = oracles.read_cpi_table(cpi_csv_path(str(tmp_path), policy, 0))
        assert table["loss"].shape == (1, 200)
        assert np.all(np.isfinite(table["sinr_db"]))
        assert all(math.isfinite(v) for v in summary.cum_regret)


# Values on and beyond each boundary; a config that passes validation must run.
_FIELD_VALUES = {
    "k": st.integers(1, 7),
    "sigma_q_sq": st.sampled_from(["0", "1e-30", "0.5", "12", "inf"]),
    "sigma0_sq": st.sampled_from(["1e-6", "0.35", "4", "nan"]),
    "sigma_sq": st.sampled_from(["0", "1e-3", "0.33", "10"]),
    "noise_var": st.sampled_from(["1e-6", "1e-3", "1", "-1"]),
    "sinr_target_db": st.sampled_from(["-40", "0", "12", "60", "nan"]),
    "obs_flip_prob": st.sampled_from(["0", "0.5", "0.999", "1.0", "1.5"]),
    "n_states": st.integers(1, 4),
    "memory": st.integers(0, 3),
    "ir_taps": st.integers(0, 4),
    "ir_kernel_scale": st.sampled_from(["0", "1e-3", "1.5", "1e6"]),
    "target_power": st.sampled_from(["-1", "0", "1", "100"]),
    "clutter_power": st.sampled_from(["-1", "0", "30"]),
    "doppler": st.sampled_from(["-3", "0", "0.5", "inf"]),
    "n_oracle_draws": st.integers(0, 3),
    "mu_star": st.sampled_from(["auto", "0.1,0.2", "1.2,0.4,0.6", "-2,0,2", "nan,0,0"]),
    "seeds": st.sampled_from(["0", "3,1", "-1"]),
    "policies": st.sets(st.sampled_from(POLICIES), min_size=1).map(",".join),
}


@given(
    st.sampled_from(["synthetic", "physical"]),
    st.sets(st.sampled_from(sorted(_FIELD_VALUES)), max_size=4).flatmap(
        lambda keys: st.fixed_dictionaries({k: _FIELD_VALUES[k] for k in keys})
    ),
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example("synthetic", {"obs_flip_prob": "1.0"})
@example("physical", {"target_power": "0"})
@example("physical", {"k": 6})
@example("synthetic", {"seeds": "-1"})
@example("synthetic", {"sinr_target_db": "-300"})
@example("physical", {"sinr_target_db": "-300"})
@example("synthetic", {"sinr_target_db": "300"})
@example("physical", {"sinr_target_db": "300"})
def test_accepted_config_runs(tmp_path, mode, values):
    """Whatever parse_config accepts also runs, so no replicate fails after
    it starts. A synthetic config rejects every physical key, so none is
    drawn there."""
    lines = {**values, "mode": mode}.items()
    text = "".join(
        f"{key} = {value}\n" for key, value in lines
        if mode == "physical" or key not in PHYSICAL_KEYS
    )
    try:
        config = parse_config(text)
    except ValidationError:
        return
    config = replace(config, m=1, n=1, seeds=config.seeds[:1], out_dir=str(tmp_path))
    if mode == "physical":
        config = replace(config, grid_n=4)
    summary = run(config, config.policies[0], config.seeds[0])
    table = oracles.read_cpi_table(cpi_csv_path(str(tmp_path), summary.policy, summary.seed))
    assert table["loss"].shape == (1, 1)
    assert all(math.isfinite(v) for v in summary.cum_regret)


# Keys that only say which replicates run and where their files go.
_RUN_KEYS = {"out_dir", "seeds", "policies", "mode"}

# A valid value other than the default for every other key.
_CHANGED_VALUES = {
    "m": 2,
    "n": 7,
    "k": 4,
    "sigma_q_sq": 3.0,
    "sigma0_sq": 0.1,
    "sigma_sq": 0.05,
    "noise_var": 1e-2,
    "sinr_target_db": 20.0,
    "obs_flip_prob": 0.6,
    "n_states": 3,
    "memory": 3,
    "grid_n": 8,
    "ir_taps": 3,
    "ir_kernel_scale": 0.5,
    "target_power": 4.0,
    "clutter_power": 3.0,
    "doppler": 0.7,
    "n_oracle_draws": 5,
    "mu_star": (0.5, -0.5, 1.0),
}


def _output_bytes(out_dir, mode: str, **overrides) -> bytes:
    """Every CSV of a run of all four policies, seed 0, m=1, n=6."""
    base = dict(m=1, n=6, seeds=(0,), mode=mode)
    config = replace(ExperimentConfig(), out_dir=str(out_dir), **{**base, **overrides})
    run_experiment(config)
    return b"".join(
        (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))
    )


@pytest.fixture(scope="module")
def default_physical_output(tmp_path_factory) -> bytes:
    return _output_bytes(tmp_path_factory.mktemp("physical"), "physical")


@pytest.mark.parametrize(
    "key", [f.name for f in fields(ExperimentConfig) if f.name not in _RUN_KEYS]
)
def test_every_config_key_changes_a_physical_run(tmp_path, default_physical_output, key):
    changed = _output_bytes(tmp_path, "physical", **{key: _CHANGED_VALUES[key]})
    assert changed != default_physical_output


@pytest.mark.parametrize("key", PHYSICAL_KEYS)
def test_physical_keys_leave_a_synthetic_run_unchanged(tmp_path, key):
    # a synthetic run would ignore the value, so the config refuses it
    with pytest.raises(ValidationError) as info:
        _output_bytes(tmp_path, "synthetic", **{key: _CHANGED_VALUES[key]})
    assert info.value.field == key
    assert list(tmp_path.iterdir()) == []


def test_readme_config_table_names_exactly_the_config_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Config files", 1)[1]
    section = section.split("\n## ", 1)[0]
    keys, physical = [], []
    for line in section.splitlines():
        if line.startswith("| ") and not line.startswith(("| key ", "| ---")):
            row = [k.strip() for k in line.split("|")[1].split(",")]
            keys.extend(row)
            if "physical mode only" in line:
                physical.extend(row)
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
    assert sorted(physical) == sorted(PHYSICAL_KEYS)


def test_mu_star_auto_means_unset():
    assert parse_config("mu_star = auto\n").mu_star is None
    assert parse_config("mu_star = 0.5,-0.25,1.0\n").mu_star == (0.5, -0.25, 1.0)


def test_serialize_round_trip_defaults():
    config = ExperimentConfig()
    assert parse_config(serialize_config(config)) == config


def test_serialize_round_trip_explicit_values():
    config = replace(
        ExperimentConfig(),
        m=7,
        sigma_sq=0.0625,
        mu_star=(0.1, -2.5, 0.75),
        seeds=(3, 11),
        policies=("meta-ts", "random"),
        mode="physical",
        out_dir="runs/a",
    )
    assert parse_config(serialize_config(config)) == config


_positive = st.floats(0, 1e6, exclude_min=True) | st.integers(1, 10)
_nonpositive = st.sampled_from([0.0, -0.0, 0, -5e-324])
_finite = st.floats(allow_nan=False, allow_infinity=False)

#: (in range, out of range) values of each key: a physical config accepts
#: the first kind, and each of the second fails a bound of the config,
#: mostly the first value past the bound.
_RANGES = {
    "m": (st.integers(1, 9), st.just(0)),
    "n": (st.integers(1, 9), st.just(0)),
    # one more waveform than the catalog holds is out of range in physical
    # mode only
    "k": (st.integers(1, len(CATALOG_NAMES)), st.sampled_from([0, len(CATALOG_NAMES) + 1])),
    "sigma_q_sq": (_positive, _nonpositive),
    "sigma0_sq": (_positive, _nonpositive),
    "sigma_sq": (_positive, _nonpositive),
    "noise_var": (_positive, _nonpositive),
    "sinr_target_db": (
        st.floats(-300, 300) | st.integers(-300, 300),
        st.sampled_from([math.nextafter(300.0, math.inf), math.nextafter(-300.0, -math.inf)]),
    ),
    "obs_flip_prob": (st.floats(0, 1, exclude_max=True), st.sampled_from([1.0, 1, -5e-324])),
    # in range: at most 9 ** 5 transition entries and a clutter scale of
    # 4 ** 7 * 1e6; out of range: a table or a clutter scale too large
    "n_states": (st.integers(2, 9), st.sampled_from([0, 1, 2**18 + 1, 600])),
    "memory": (st.integers(1, 5), st.sampled_from([0, 19])),
    "grid_n": (st.integers(1, 99), st.just(0)),
    "ir_taps": (st.integers(1, 99), st.just(0)),
    "ir_kernel_scale": (_positive, _nonpositive),
    "target_power": (_positive, _nonpositive),
    "clutter_power": (
        st.floats(0, 1e6) | st.integers(0, 10), st.sampled_from([-5e-324, 1e300])
    ),
    "doppler": (_finite | st.integers(-5, 5), st.sampled_from([math.inf, -math.inf, math.nan])),
    "n_oracle_draws": (st.integers(1, 99), st.just(0)),
    "mu_star": (
        st.none() | st.tuples(_finite, _finite, _finite),
        st.lists(_finite, max_size=5).filter(lambda v: len(v) != 3).map(tuple),
    ),
    "seeds": (
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True).map(tuple),
        st.just(()) | st.integers(0, 9).map(lambda s: (s, s)) | st.just((2**32,)),
    ),
    "policies": (
        st.lists(st.sampled_from(POLICIES), min_size=1, max_size=4, unique=True).map(tuple),
        st.just(()) | st.just(("greedy",)) | st.sampled_from(POLICIES).map(lambda p: (p, p)),
    ),
    "mode": (st.sampled_from(["synthetic", "physical"]), st.just("simulated")),
    "out_dir": (
        st.text(string.ascii_letters + string.digits + "._-/", min_size=1),
        st.sampled_from(["", "runs#1", " runs", "runs\n1"]),
    ),
}


def _key_values(key: str):
    """Values of the key: in eight draws of ten one in range (for a
    physical-only key, two times in three its default, all a synthetic
    config takes); in one, one out of range; in one, any value of the key's
    type, or of a wrong type."""
    in_range, out_of_range = _RANGES[key]
    if key in PHYSICAL_KEYS:
        default = st.just(getattr(ExperimentConfig(), key))
        in_range = st.sampled_from([default, default, in_range]).flatmap(lambda s: s)
    kind, is_list, optional = _KEY_TYPES[key]
    item = {
        int: st.integers(0, 9) | st.integers() | st.sampled_from([2**63 - 1, 2**63]),
        float: st.floats(0, 1) | st.floats() | st.integers(-2, 10),
        str: st.text(string.printable) | st.text(),
    }[kind]
    if key == "mode":
        item = st.sampled_from(["synthetic", "physical"]) | item
    if key == "policies":
        item = st.sampled_from(POLICIES) | item
    values = st.lists(item, max_size=4).map(tuple) if is_list else item
    wrong = st.none() | st.booleans() | st.lists(item, max_size=2)
    return st.sampled_from([in_range] * 8 + [out_of_range, values | wrong]).flatmap(
        lambda drawn: drawn
    )


@given(
    st.sets(st.sampled_from(sorted(_KEY_TYPES)), max_size=4).flatmap(
        lambda keys: st.fixed_dictionaries({k: _key_values(k) for k in keys})
    )
)
@settings(max_examples=300, deadline=None)
@example({"out_dir": "runs#1"})
@example({"out_dir": " runs"})
@example({"out_dir": "runs\t"})
@example({"out_dir": "runs\n1"})
@example({"out_dir": "runs\u20281"})
@example({"out_dir": "runs\x851"})
@example({"out_dir": "runs 1/a=b,c"})
@example({"mode": "physical", "doppler": -0.0, "sigma_sq": 5e-324, "k": 5})
@example({"mu_star": (1, -2.5, 1e300), "seeds": (2**32 - 1, 0)})
def test_accepted_config_survives_serialize_and_parse(values):
    try:
        config = ExperimentConfig(**values)
    except ValidationError as exc:
        assert exc.field in _KEY_TYPES
        return
    assert parse_config(serialize_config(config)) == config


@given(
    st.sampled_from(["synthetic", "physical"]),
    st.sets(st.sampled_from(sorted(_KEY_TYPES)), max_size=4).flatmap(
        lambda keys: st.fixed_dictionaries({k: _key_values(k) for k in keys})
    ),
)
@settings(max_examples=300, deadline=None)
# the edges in range, then the first value out of range of each bound
@example("synthetic", {"sinr_target_db": -300, "obs_flip_prob": 0.0})
@example("physical", {"sinr_target_db": 300, "k": 5, "n_states": 497, "memory": 1})
@example("physical", {"sinr_target_db": 4000.0})
@example("synthetic", {"sigma_sq": 0.0})
@example("synthetic", {"sigma0_sq": 0.0})
@example("synthetic", {"sigma_q_sq": 0.0})
@example("physical", {"noise_var": 0.0})
@example("synthetic", {"obs_flip_prob": 1.0})
@example("synthetic", {"m": 0})
@example("synthetic", {"n": 0})
@example("synthetic", {"k": 0})
@example("physical", {"k": 6})
@example("physical", {"grid_n": 0})
@example("physical", {"ir_taps": 0})
@example("synthetic", {"memory": 0})
@example("synthetic", {"n_states": 1})
@example("synthetic", {"mu_star": (1.0, 2.0)})
@example("synthetic", {"sigma_q_sq": 1e308, "sigma0_sq": 1e308})
@example("synthetic", {"sigma_q_sq": 1e307})
@example("synthetic", {"mu_star": (2e153, 0.0, 0.0)})
@example("synthetic", {"sigma_q_sq": 1e305, "mu_star": (1e152, 0.0, 0.0)})
def test_constructed_config_holds_what_the_layers_below_assume(mode, values):
    """The layers below the harness take a config's values as given; every
    config that constructs holds what they assume. Only the seed-0 scene
    is built, at memory 1: no run, no large table."""
    try:
        config = ExperimentConfig(**{"mode": mode, **values})
    except ValidationError:
        return
    target = 10 ** (config.sinr_target_db / 10)
    assert math.isfinite(target) and target > 0
    for name in ("sigma_sq", "sigma0_sq", "sigma_q_sq", "noise_var"):
        assert getattr(config, name) > 0, name
    assert math.isfinite(config.sigma_q_sq + config.sigma0_sq)
    assert 0 <= config.obs_flip_prob < 1
    for name in ("m", "n", "k", "grid_n", "ir_taps", "memory"):
        assert getattr(config, name) >= 1, name
    assert config.n_states >= 2
    if config.mode == "physical":
        assert config.k <= len(CATALOG_NAMES)
    mu_star, state_proc = build_scene(replace(config, memory=1), 0)
    assert mu_star.shape == (3,)
    assert state_proc.n_states == config.n_states
    if set(config.policies) != {"ts-oracle"}:
        # the flat belief's KL, which random and ts-uninformative write
        flat = init_meta(config.sigma_q_sq, sigma0_sq=config.sigma0_sq, sigma_sq=config.sigma_sq)
        assert math.isfinite(kl_trace(flat, mu_star))


def test_package_exports_only_the_harness_api():
    assert sorted(wavesel.__all__) == sorted(
        ["ExperimentConfig", "load_config", "run_experiment", "WaveselError", "__version__"]
    )
    assert all(hasattr(wavesel, name) for name in wavesel.__all__)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("m = 4\nseeds = 5\n", encoding="utf-8")
    config = load_config(str(path))
    assert config.m == 4
    assert config.seeds == (5,)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_config(str(tmp_path / "absent.cfg"))


# ---------------------------------------------------------------------------
# scene construction


def test_build_scene_state_gains_are_powers_of_four():
    _, state_proc = build_scene(ExperimentConfig(), 0)
    assert state_gains(state_proc.n_states) == [0.25, 1.0, 4.0, 16.0]


def test_build_scene_mode_picks_prior_mean():
    mu_syn, _ = build_scene(ExperimentConfig(), 0)
    mu_phy, _ = build_scene(replace(ExperimentConfig(), mode="physical"), 0)
    assert np.array_equal(mu_syn, np.array(SYNTHETIC_MU_STAR))
    assert np.array_equal(mu_phy, np.array(PHYSICAL_MU_STAR))


def test_build_scene_explicit_mu_star_wins():
    config = replace(ExperimentConfig(), mu_star=(0.9, 0.0, -0.4))
    mu_star, _ = build_scene(config, 0)
    assert np.array_equal(mu_star, np.array([0.9, 0.0, -0.4]))


def test_build_scene_transition_depends_on_seed_only():
    _, sp_a = build_scene(ExperimentConfig(), 3)
    _, sp_b = build_scene(replace(ExperimentConfig(), m=5, k=2), 3)
    _, sp_c = build_scene(ExperimentConfig(), 4)
    assert np.array_equal(sp_a.transition, sp_b.transition)
    assert not np.array_equal(sp_a.transition, sp_c.transition)


# ---------------------------------------------------------------------------
# replicate execution


def test_run_minimal_emits_one_cpi_row(tmp_path):
    config = _tiny_config(str(tmp_path), m=1, n=1, seeds=(0,))
    summary = run(config, "random", 0)
    assert summary.cum_regret.shape == (1,)
    cpi_lines = (
        (tmp_path / "cpi_random_seed0.csv").read_text(encoding="utf-8").splitlines()
    )
    track_lines = (
        (tmp_path / "track_random_seed0.csv").read_text(encoding="utf-8").splitlines()
    )
    assert cpi_lines[0] == PER_CPI_HEADER
    assert track_lines[0] == PER_TRACK_HEADER
    assert len(cpi_lines) == 2
    assert len(track_lines) == 2


def test_cpi_lines_equal_row_by_row_formatting(tmp_path, monkeypatch):
    # two simulated tracks, caught as run_block streams them, then a third
    # of edge values
    tracks = []
    original = harness.track_record
    monkeypatch.setattr(harness, "track_record", lambda r: tracks.append(r) or original(r))
    config = _tiny_config(str(tmp_path), m=2, n=7, seeds=(3,))
    run(config, "meta-ts", 3)
    assert len(tracks) == 2
    edge = np.array([-0.0, 0.0, 1e-300, 5e-324, 0.1 + 0.2, 1e16, -300.0])
    tracks.append(
        TrackResult(
            state=np.arange(7), obs=np.arange(7)[::-1], waveform=np.full(7, 4),
            sinr=np.array([0.0, 1.0, SINR_CAP, 1e-300, 5e-324, 0.1 + 0.2, 1e16]),
            loss=edge[::-1], oracle_loss=np.sqrt(np.abs(edge)),
            regret_inc=np.abs(edge), suboptimal=np.arange(7) % 2 == 0,
        )
    )
    lines = []
    for t, record in enumerate(tracks):
        track_lines = list(_cpi_lines("random", 12, t, record, *_derived(record)))
        assert track_lines == oracles.cpi_lines("random", 12, t, record, *_derived(record))
        lines += track_lines
    # only track 0 leads with the header; the third track restarts the CPI
    # count and reads the derived dB column
    assert [line == PER_CPI_HEADER for line in lines].count(True) == 1
    assert [line.split(",")[2:4] for line in lines[14:16]] == [["1", "6"], ["2", "0"]]
    assert [line.split(",")[7] for line in lines[15:18]] == ["-300.0", "0.0", "60.0"]
    # the streamed file is the tracks' lines, and reads back to their bits
    path = cpi_csv_path(str(tmp_path), "meta-ts", 3)
    streamed = list(_cpi_lines("meta-ts", 3, 0, tracks[0], *_derived(tracks[0])))
    streamed += _cpi_lines("meta-ts", 3, 1, tracks[1], *_derived(tracks[1]))
    assert Path(path).read_text(encoding="utf-8") == "\n".join(streamed) + "\n"
    table = oracles.read_cpi_table(path)
    for name in ("state", "obs", "waveform", "loss", "oracle_loss", "regret_inc", "suboptimal"):
        column = np.stack([getattr(r, name) for r in tracks[:2]])
        assert table[name].dtype == column.dtype and table[name].tobytes() == column.tobytes()


def _derived(record: TrackResult) -> tuple:
    """(sinr_db, outage) of one track's record, as run_block derives them."""
    sinr_db = sinr_to_db(record.sinr)
    return sinr_db, sinr_db < OUTAGE_DB


@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(0, 2**63 - 1),
            st.booleans(),
        ),
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
@example([(-0.0, 0, False), (5e-324, 2**63 - 1, True), (0.1 + 0.2, 1, False)])
@example([(-1.7976931348623157e308, 9, True), (1e16, 10, False), (-5e-324, 2**62, True)])
def test_table_lines_parse_back_to_the_same_values(rows):
    """Every finite float parses back with ``float`` to the same bits, and
    every int in [0, 2**63) and bool with ``int`` to the same value."""
    floats = np.array([r[0] for r in rows], dtype=float)
    ints = np.array([r[1] for r in rows], dtype=np.int64)
    flags = np.array([r[2] for r in rows], dtype=bool)
    lines = list(_table_lines("policy,x,i,b", "meta-ts,", (floats, ints, flags)))
    assert lines[0] == "policy,x,i,b"
    cells = [line.split(",") for line in lines[1:]]
    assert len(cells) == len(rows)
    assert all(c[0] == "meta-ts" for c in cells)
    back = np.array([float(c[1]) for c in cells], dtype=float)
    assert np.array_equal(back.view(np.int64), floats.view(np.int64))
    assert [int(c[2]) for c in cells] == [r[1] for r in rows]
    assert [int(c[3]) for c in cells] == [int(r[2]) for r in rows]


def one_track(monkeypatch, config) -> TrackResult:
    """The record of the one track of a one-track random replicate, caught
    as run_block streams it."""
    tracks = []
    original = harness.track_record
    monkeypatch.setattr(harness, "track_record", lambda r: tracks.append(r) or original(r))
    run(config, "random", config.seeds[0])
    monkeypatch.undo()
    (record,) = tracks
    return record


def cpi_write_peak(tmp_path, monkeypatch, n: int) -> tuple:
    """(tracemalloc peak of writing the per-CPI lines of a one-track random
    replicate of ``n`` pulses, the file's size in bytes), after checking
    that its lines stream and equal the row-by-row oracle's."""
    config = _tiny_config(str(tmp_path / f"run{n}"), m=1, n=n, seeds=(0,))
    record = one_track(monkeypatch, config)
    lines = _cpi_lines("random", 0, 0, record, *_derived(record))
    assert iter(lines) is lines
    expected = oracles.cpi_lines("random", 0, 0, record, *_derived(record))
    assert list(lines) == expected
    path = tmp_path / f"cpi{n}.csv"
    derived = _derived(record)
    tracemalloc.start()
    try:
        with harness._staged([str(path)]) as (fh,):
            _write_lines(fh, _cpi_lines("random", 0, 0, record, *derived))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == "\n".join(expected) + "\n"
    assert path.read_bytes() == Path(cpi_csv_path(config.out_dir, "random", 0)).read_bytes()
    return peak, path.stat().st_size


def test_cpi_lines_stream_so_a_write_holds_no_whole_file(tmp_path, monkeypatch):
    # ten times the pulses, past many WRITE_BLOCKs: the lines come one at a
    # time, and the write's peak stays that of the short file
    short_peak, short_size = cpi_write_peak(tmp_path, monkeypatch, 300)
    long_peak, long_size = cpi_write_peak(tmp_path, monkeypatch, 3000)
    assert long_size > 9 * short_size
    assert long_peak < 1.25 * short_peak
    assert long_peak < long_size / 2


@pytest.mark.parametrize("kind", CATALOG_NAMES)
def test_cli_dump_waveform_equals_row_by_row_formatting(tmp_path, kind):
    out = tmp_path / "env.csv"
    assert cli.main(["dump-waveform", "--kind", kind, "--out", str(out)]) == 0
    lines = oracles.waveform_lines(catalog_envelope(kind))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3000), (50, 200)])
def test_summary_axis_reductions_equal_per_track_calls_to_the_bit(tmp_path, m, n):
    # the summary columns are the per-track reductions of the file's rows
    config = _tiny_config(str(tmp_path), m=m, n=n, seeds=(0,))
    summary = run(config, "random", 0)
    table = oracles.read_cpi_table(cpi_csv_path(str(tmp_path), "random", 0))
    assert np.array_equal(table["outage_10db"], table["sinr_db"] < OUTAGE_DB)
    per_track = {
        "cum_regret": [float(np.sum(row)) for row in table["regret_inc"]],
        "mean_loss": [float(np.mean(row)) for row in table["loss"]],
        "outage_freq": [float(np.mean(row)) for row in table["outage_10db"]],
        "subopt_freq": [float(np.mean(row)) for row in table["suboptimal"]],
    }
    for name, expected in per_track.items():
        assert getattr(summary, name).tolist() == expected, name


@pytest.mark.parametrize(
    "policy,seed,field",
    [
        ("meta-ts", 0, "policies"),
        ("epsilon-greedy", 0, "policies"),
        ("random", 1.5, "seeds"),
        ("random", 1.0, "seeds"),
        ("random", True, "seeds"),
        ("random", -1, "seeds"),
        ("random", 2**70, "seeds"),
        ("random", 2, "seeds"),
    ],
)
def test_run_rejects_a_replicate_the_config_does_not_list(tmp_path, policy, seed, field):
    config = _tiny_config(str(tmp_path), policies=("random",))
    with pytest.raises(ValidationError) as info:
        run(config, policy, seed)
    assert info.value.field == field
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "listed,policies",
    [
        (("random",), ("random", "meta-ts")),
        (("random", "meta-ts"), ("meta-ts", "meta-ts")),
        (("random", "meta-ts"), ("random", "random")),
    ],
)
def test_run_block_rejects_a_policy_not_listed_once(tmp_path, listed, policies):
    # a second meta-ts would read the first one's belief and prior stream
    config = _tiny_config(str(tmp_path), policies=listed)
    with pytest.raises(ValidationError) as info:
        run_block(config, policies, 0)
    assert info.value.field == "policies"
    assert list(tmp_path.iterdir()) == []


def test_run_twice_is_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for out in (dir_a, dir_b):
        run(_tiny_config(str(out), seeds=(0,)), "meta-ts", 0)
    for name in ("cpi_meta-ts_seed0.csv", "track_meta-ts_seed0.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_run_oracle_reports_zero_kl(tmp_path):
    config = _tiny_config(str(tmp_path), seeds=(0,))
    summary = run(config, "ts-oracle", 0)
    assert np.array_equal(summary.kl_to_truth, np.zeros(config.m))


def write_staged(paths, lines) -> None:
    """Write ``lines`` to each of ``paths`` through one staging, as the
    package writes a block's or an aggregate's files."""
    with harness._staged([str(p) for p in paths]) as files:
        for fh in files:
            _write_lines(fh, lines)


def test_write_lines_is_all_or_nothing(tmp_path):
    # a staged write is whole or leaves every path as it was: a line that
    # fails in the second file removes the first file's temporary file too
    def failing_lines():
        yield "first"
        yield "second"
        raise RuntimeError("generator failed")

    absent, second = tmp_path / "absent.csv", tmp_path / "second.csv"
    with pytest.raises(RuntimeError):
        with harness._staged([str(absent), str(second)]) as (fh_a, fh_b):
            _write_lines(fh_a, ["header", "row"])
            _write_lines(fh_b, failing_lines())
    assert not absent.exists() and not second.exists()
    assert os.listdir(tmp_path) == []

    earlier = tmp_path / "earlier.csv"
    write_staged([earlier], ["header", "row"])
    with pytest.raises(RuntimeError):
        write_staged([earlier], failing_lines())
    assert earlier.read_text(encoding="utf-8") == "header\nrow\n"
    assert sorted(os.listdir(tmp_path)) == ["earlier.csv"]

    with pytest.raises(IoError):
        write_staged([tmp_path / "missing" / "x.csv"], ["a"])


def test_write_lines_removes_nothing_after_a_replace(tmp_path, monkeypatch):
    removed = []
    remove = os.remove
    monkeypatch.setattr(os, "remove", lambda path: (removed.append(path), remove(path)))
    target, other = tmp_path / "x.csv", tmp_path / "y.csv"
    write_staged([target], ["header", "row"])
    write_staged([target, other], ["header", "other"])
    assert removed == []
    assert target.read_text(encoding="utf-8") == "header\nother\n"
    assert other.read_text(encoding="utf-8") == "header\nother\n"
    assert sorted(os.listdir(tmp_path)) == ["x.csv", "y.csv"]


def test_write_lines_removes_its_temporary_file_when_the_replace_fails(
    tmp_path, monkeypatch
):
    target = tmp_path / "x.csv"
    write_staged([target], ["header", "row"])

    def failing_replace(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(IoError, match="cannot replace"):
        write_staged([target, tmp_path / "y.csv"], ["header", "other"])
    assert target.read_text(encoding="utf-8") == "header\nrow\n"
    assert sorted(os.listdir(tmp_path)) == ["x.csv"]


def test_csv_paths_follow_naming_scheme(tmp_path):
    out = str(tmp_path)
    assert cpi_csv_path(out, "random", 7) == os.path.join(out, "cpi_random_seed7.csv")
    assert track_csv_path(out, "meta-ts", 0) == os.path.join(
        out, "track_meta-ts_seed0.csv"
    )


def test_run_experiment_orders_by_policy_then_seed(tmp_path):
    config = _tiny_config(
        str(tmp_path), m=1, n=4, seeds=(1, 0), policies=("meta-ts", "random")
    )
    summaries = run_experiment(config)
    observed = [(s.policy, s.seed) for s in summaries]
    assert observed == [("random", 1), ("random", 0), ("meta-ts", 1), ("meta-ts", 0)]
    assert [policy_index(p) for p, _ in observed] == sorted(
        policy_index(p) for p, _ in observed
    )


def test_policy_streams_do_not_interact(tmp_path):
    """Dropping one policy leaves another policy's output bytes unchanged."""
    dir_pair = tmp_path / "pair"
    dir_solo = tmp_path / "solo"
    run_experiment(
        _tiny_config(str(dir_pair), seeds=(0,), policies=("random", "meta-ts"))
    )
    run_experiment(_tiny_config(str(dir_solo), seeds=(0,), policies=("meta-ts",)))
    for name in ("cpi_meta-ts_seed0.csv", "track_meta-ts_seed0.csv"):
        assert (dir_pair / name).read_bytes() == (dir_solo / name).read_bytes()


#: (owner, attribute) of each build a seed block shares: one episode draw
#: per track (``instance_rng``, the walk and noise streams, and in physical
#: mode the instance, its simulator and its expected losses), and the
#: scene, the flat belief, the meta-ts prior stream and the tap root once
#: per block; the channel tables are built once per process for each (k,
#: ir_taps, doppler)
SHARED_BUILDS = (
    (meta, "instance_rng"),
    (meta, "walk_rng"),
    (meta, "noise_rng"),
    (meta, "draw_instance"),
    (fstc.TrackSimulator, "__init__"),
    (fstc.TrackSimulator, "expected_losses"),
    (harness, "build_scene"),
    (meta, "init_meta"),
    (meta, "meta_prior_rng"),
    (meta, "channel_tables"),
    (meta, "tap_root"),
)


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_a_seed_block_builds_each_episode_once(tmp_path, monkeypatch, mode):
    calls = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for owner, name in SHARED_BUILDS:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    meta._cached_tables.cache_clear()
    m = 3
    instances, roots = (m, 1) if mode == "physical" else (0, 0)
    per_seed = {
        "instance_rng": m, "walk_rng": m, "noise_rng": m,
        "draw_instance": instances, "__init__": instances, "expected_losses": instances,
        "build_scene": 1, "init_meta": 1, "meta_prior_rng": 1, "tap_root": roots,
    }
    config = _tiny_config(str(tmp_path), m=m, n=4, mode=mode)
    assert len(config.policies) == 4 and len(config.seeds) == 2
    run_experiment(config)
    expected = {name: 2 * count for name, count in per_seed.items() if count}
    if mode == "physical":
        expected["channel_tables"] = 1
    assert dict(calls) == expected
    # the block of one makes the same builds for its one policy, and reads
    # the process's tables
    calls.clear()
    run(config, "meta-ts", 0)
    assert dict(calls) == {name: count for name, count in per_seed.items() if count}
    if mode == "physical":
        # another doppler builds its own tables, once
        for _ in range(2):
            run(replace(config, doppler=0.7), "meta-ts", 0)
        assert calls["channel_tables"] == 1


@pytest.mark.parametrize(
    "overrides",
    [
        dict(mode="synthetic"),
        dict(mode="physical"),
        dict(mode="physical", doppler=0.7),
        dict(mode="physical", policies=("meta-ts", "random")),
    ],
    ids=["synthetic", "physical", "doppler", "non-canonical"],
)
def test_a_seed_block_writes_each_policy_run_alone(tmp_path, overrides):
    config = _tiny_config(str(tmp_path / "block"), m=3, n=8, **overrides)
    summaries = run_experiment(config)
    for policy in config.policies:
        for seed in config.seeds:
            alone = replace(config, out_dir=str(tmp_path / f"{policy}_{seed}"))
            run(alone, policy, seed)
            for path in (cpi_csv_path, track_csv_path):
                block_bytes = Path(path(config.out_dir, policy, seed)).read_bytes()
                assert block_bytes == Path(path(alone.out_dir, policy, seed)).read_bytes()
    # each replicate's wall time runs to the write of its own files, which
    # follow each other in canonical policy order
    for seed in config.seeds:
        times = [s.wall_time_ms for s in summaries if s.seed == seed]
        assert times == sorted(times) and times[0] > 0.0


def test_a_block_failing_mid_track_writes_no_file_of_its_seed(tmp_path, monkeypatch, capsys):
    original, updates = meta.meta_update, []

    def failing_on_track_2(mp, data):
        updates.append(len(data))
        if len(updates) == 3:
            raise InvalidInput("meta update refused on track 2")
        return original(mp, data)

    monkeypatch.setattr(meta, "meta_update", failing_on_track_2)
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "runs"
    cfg.write_text(f"m = 4\nn = 8\nk = 3\nseeds = 0,1\nout_dir = {out}\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert "meta update refused on track 2" in capsys.readouterr().err
    assert len(updates) == 3
    # the other three policies had run tracks 0-2 when meta-ts's update of
    # track 2 failed; none of the block's files is written
    assert not out.exists() or not os.listdir(out)


def test_a_block_with_one_non_finite_summary_writes_no_file(tmp_path, monkeypatch):
    # ts-oracle's KL column is zeros, so only meta-ts's summary is non-finite
    monkeypatch.setattr(harness, "kl_trace", lambda mp, mu_star: math.nan)
    config = _tiny_config(str(tmp_path), seeds=(0,), policies=("ts-oracle", "meta-ts"))
    with pytest.raises(InvalidInput, match="kl_to_truth of meta-ts seed 0"):
        run_experiment(config)
    assert not os.listdir(tmp_path)


def test_a_block_whose_middle_track_raises_leaves_no_file(tmp_path, monkeypatch):
    # track 0's rows are in each replicate's temporary file when track 1 of
    # 3 raises; the block removes every one and writes nothing
    out = tmp_path / "block"
    config = _tiny_config(str(out), m=3, n=8, seeds=(0,), policies=("random", "meta-ts"))
    calls, staged, original = [], [], meta.run_track

    def failing_on_track_1(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            staged.extend(sorted(os.listdir(out)))
            raise InvalidInput("track 1 refused")
        return original(*args, **kwargs)

    monkeypatch.setattr(meta, "run_track", failing_on_track_1)
    with pytest.raises(InvalidInput, match="track 1 refused"):
        run_block(config, config.policies, 0)
    assert len(staged) == 4 and all(name.endswith(".tmp") for name in staged)
    assert os.listdir(out) == []


def block_peak(out: Path, m: int) -> int:
    """tracemalloc peak of a four-policy seed block of ``m`` 20-pulse tracks."""
    config = _tiny_config(str(out / f"m{m}"), m=m, n=20, seeds=(0,), policies=POLICIES)
    tracemalloc.start()
    try:
        run_block(config, POLICIES, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_block_peak_does_not_grow_with_the_track_count(tmp_path):
    # each track streams to its file and is dropped, and each new belief's
    # KL is taken as it arrives. What still grows is a (5, m) summary table
    # per policy, 160 B a track. From m = 5 the peak grew 10 KB at m = 40 and
    # 198 KB at m = 400 here: 63 KB of tables, the rest allocations inside
    # numpy that a later m = 800 block, peaking 32 KB lower, did not repeat.
    # Holding the tracks' records to stack them grew it 0.48 MB at m = 40,
    # and keeping every meta-ts belief to the block's end 384 KB at m = 400.
    block_peak(tmp_path, 1)
    peaks = {m: block_peak(tmp_path, m) for m in (5, 40, 400)}
    assert peaks[40] - peaks[5] < 64_000, peaks
    assert peaks[400] - peaks[5] < 256_000, peaks


def test_importing_the_harness_leaves_the_process_pool_out():
    # only run_experiment's parallel branch imports the pool's module
    script = (
        "import sys, wavesel.harness, wavesel.cli\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    src = str(Path(wavesel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_worker_count_defaults_to_one(monkeypatch):
    monkeypatch.delenv("WAVESEL_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count(10) == 1


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("WAVESEL_WORKERS", "3")
    assert worker_count(10) == 3
    monkeypatch.setenv("WAVESEL_WORKERS", "0")
    assert worker_count(10) == 1


def test_worker_count_is_clamped_to_jobs_and_cpus(monkeypatch):
    # Only the count is computed; no pool is started.
    monkeypatch.setenv("WAVESEL_WORKERS", "100000")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_count(80) == 4
    assert worker_count(3) == 3
    assert worker_count(1) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(80) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("WAVESEL_WORKERS", "-5")
    assert worker_count(80) == 1


def test_worker_count_rejects_garbage(monkeypatch):
    monkeypatch.setenv("WAVESEL_WORKERS", "many")
    with pytest.raises(InvalidInput):
        worker_count(10)


def test_worker_pool_writes_the_serial_bytes_in_the_serial_order(tmp_path, monkeypatch):
    # two workers on any host, so the pool is what runs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    files, summaries = {}, {}
    for workers in ("1", "2"):
        monkeypatch.setenv("WAVESEL_WORKERS", workers)
        assert worker_count(4) == int(workers)
        out = tmp_path / workers
        config = _tiny_config(str(out), policies=("random", "meta-ts"))
        summaries[workers] = run_experiment(config)
        files[workers] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
        }
    assert len(files["1"]) == 8
    assert files["2"] == files["1"]
    serial, pooled = summaries["1"], summaries["2"]
    assert [(s.policy, s.seed) for s in pooled] == [(s.policy, s.seed) for s in serial]
    for a, b in zip(serial, pooled):
        for name in ("cum_regret", "mean_loss", "outage_freq", "subopt_freq", "kl_to_truth"):
            np.testing.assert_array_equal(getattr(b, name), getattr(a, name))


# ---------------------------------------------------------------------------
# reading summaries back


def test_read_track_table_round_trip(tmp_path):
    config = _tiny_config(str(tmp_path), seeds=(0,))
    summary = run(config, "random", 0)
    rows = read_track_table(track_csv_path(str(tmp_path), "random", 0))
    assert len(rows) == config.m
    for t, row in enumerate(rows):
        assert row["policy"] == "random"
        assert row["seed"] == 0
        assert row["track"] == t
        assert row["cum_regret"] == float(summary.cum_regret[t])
        assert row["kl_to_truth"] == float(summary.kl_to_truth[t])


def test_read_track_table_rejects_wrong_header(tmp_path):
    path = tmp_path / "track_bad.csv"
    path.write_text("policy,seed\nrandom,0\n", encoding="utf-8")
    with pytest.raises(IoError):
        read_track_table(str(path))


def test_read_track_table_rejects_short_row(tmp_path):
    path = tmp_path / "track_bad.csv"
    path.write_text(PER_TRACK_HEADER + "\nrandom,0,0,1.0\n", encoding="utf-8")
    with pytest.raises(IoError):
        read_track_table(str(path))


@pytest.mark.parametrize(
    "row",
    [
        "random,0,0,1.0,0.5,0.0,0.0,abc",
        "random,zero,0,1.0,0.5,0.0,0.0,0.1",
        "random,0,1.5,1.0,0.5,0.0,0.0,0.1",
        "random,0,0,1.0,0.5,0.0,0.0,nan",
        "random,0,0,inf,0.5,0.0,0.0,0.1",
    ],
)
def test_read_track_table_rejects_bad_numbers(tmp_path, row):
    path = tmp_path / "track_bad.csv"
    path.write_text(PER_TRACK_HEADER + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(IoError) as info:
        read_track_table(str(path))
    assert str(path) in str(info.value)
    assert row in str(info.value)


def test_read_track_table_missing_file(tmp_path):
    with pytest.raises(IoError):
        read_track_table(str(tmp_path / "track_none.csv"))


# ---------------------------------------------------------------------------
# aggregation


def _row(policy, seed, track, **values):
    row = {
        "policy": policy,
        "seed": seed,
        "track": track,
        "cum_regret": 0.0,
        "mean_loss": 0.0,
        "outage_freq": 0.0,
        "subopt_freq": 0.0,
        "kl_to_truth": 0.0,
    }
    row.update(values)
    return row


def test_aggregate_single_seed_has_zero_stderr():
    rows = [_row("random", 0, 0, kl_to_truth=0.2), _row("random", 0, 1, kl_to_truth=0.4)]
    tables = aggregate([lambda: rows])
    assert tables["kl"] == [("random", 0, 0.2, 0.0), ("random", 1, 0.4, 0.0)]


def test_aggregate_two_seeds_mean_and_stderr():
    rows = [
        _row("random", 0, 0, kl_to_truth=0.2),
        _row("random", 1, 0, kl_to_truth=0.4),
    ]
    tables = aggregate([lambda: rows])
    ((policy, track, mean, stderr),) = tables["kl"]
    assert policy == "random"
    assert track == 0
    assert mean == pytest.approx(0.3, abs=1e-12)
    assert stderr == pytest.approx(0.1, abs=1e-12)


def test_aggregate_regret_accumulates_and_loss_running_means():
    rows = [
        _row("random", 0, 0, cum_regret=1.0, mean_loss=0.2, outage_freq=1.0),
        _row("random", 0, 1, cum_regret=2.0, mean_loss=0.4, outage_freq=0.0),
    ]
    tables = aggregate([lambda: rows])
    assert [r[2] for r in tables["regret"]] == [1.0, 3.0]
    assert [r[2] for r in tables["loss"]] == pytest.approx([0.2, 0.3])
    assert [r[2] for r in tables["outage"]] == pytest.approx([1.0, 0.5])


def test_aggregate_rejects_gap_in_track_indices():
    rows = [_row("random", 0, 0), _row("random", 0, 2)]
    with pytest.raises(InvalidInput):
        aggregate([lambda: rows])


def test_aggregate_rejects_track_count_disagreement():
    rows = [
        _row("random", 0, 0),
        _row("random", 1, 0),
        _row("random", 1, 1),
    ]
    with pytest.raises(InvalidInput):
        aggregate([lambda: rows])


def test_aggregate_rejects_empty_input():
    with pytest.raises(EmptyInput):
        aggregate([])


def test_aggregate_matches_recount_from_csv(tmp_path):
    config = _tiny_config(str(tmp_path), policies=("random", "ts-uninformative"))
    run_experiment(config)
    tables = aggregate([
        partial(read_track_table, track_csv_path(str(tmp_path), policy, seed))
        for policy in config.policies for seed in config.seeds
    ])
    # independent recomputation straight from the same CSV rows
    for policy in config.policies:
        per_seed = []
        for seed in config.seeds:
            table = read_track_table(track_csv_path(str(tmp_path), policy, seed))
            per_seed.append(np.cumsum([r["cum_regret"] for r in table]))
        stacked = np.stack(per_seed)
        expect_mean = stacked.mean(axis=0)
        expect_err = stacked.std(axis=0, ddof=1) / np.sqrt(len(config.seeds))
        got = [r for r in tables["regret"] if r[0] == policy]
        for t in range(config.m):
            assert got[t][2] == expect_mean[t]
            assert got[t][3] == expect_err[t]


def stacked_moments(rows, policy, column, transform):
    """mean(axis=0) and std(axis=0, ddof=1) / sqrt(seeds) of one column's
    (seeds, tracks) stack of ``policy``'s rows, seeds ascending, each row
    transformed along the track axis: the aggregate's definition."""
    seeds = sorted({r["seed"] for r in rows if r["policy"] == policy})
    stacked = np.array([
        transform(np.array([r[column] for r in sorted(
            (r for r in rows if r["policy"] == policy and r["seed"] == seed),
            key=lambda r: r["track"],
        )]))
        for seed in seeds
    ])
    if len(seeds) < 2:
        return stacked.mean(axis=0), np.zeros(stacked.shape[1])
    return stacked.mean(axis=0), stacked.std(axis=0, ddof=1) / np.sqrt(len(seeds))


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("n_seeds", [1, 2, 9, 12])
def test_aggregate_equals_the_stacked_moments_to_the_bit(m, n_seeds):
    # the aggregate holds one seed at a time; its means and errors are the
    # stack's, a single track's pairwise sums and signed zeros included
    rng = np.random.default_rng(m * 100 + n_seeds)
    rows = []
    for policy in ("random", "meta-ts"):
        for seed in rng.permutation(40)[:n_seeds].tolist():
            for track in rng.permutation(m).tolist():
                values = rng.standard_normal(5) * 10.0 ** rng.uniform(-6, 6, 5)
                values[rng.random(5) < 0.2] = -0.0
                rows.append(_row(policy, seed, track, **dict(zip(
                    ("cum_regret", "mean_loss", "outage_freq", "subopt_freq", "kl_to_truth"),
                    values.tolist(),
                ))))
    tables = aggregate([lambda: rows])
    for metric, (column, transform) in harness.AGG_METRICS.items():
        for policy in ("random", "meta-ts"):
            mean, stderr = stacked_moments(rows, policy, column, transform)
            got = [r for r in tables[metric] if r[0] == policy]
            assert [r[1] for r in got] == list(range(m))
            assert np.array([r[2] for r in got]).tobytes() == mean.tobytes()
            assert np.array([r[3] for r in got]).tobytes() == stderr.tobytes()


def test_aggregate_refuses_a_replicate_read_from_two_sources():
    rows = [_row("random", 0, 0), _row("random", 0, 1)]
    with pytest.raises(InvalidInput, match="random seed 0"):
        aggregate([lambda: rows[:1], lambda: rows[1:]])


def write_track_files(out: Path, seeds, m: int) -> None:
    """One track file of ``m`` tracks of uniform values per policy and seed."""
    rng = np.random.default_rng(len(seeds))
    for policy in POLICIES:
        for seed in seeds:
            lines = [PER_TRACK_HEADER] + [
                f"{policy},{seed},{track}," + ",".join(map(repr, values))
                for track, values in enumerate(rng.random((m, 5)).tolist())
            ]
            path = Path(track_csv_path(str(out), policy, seed))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def aggregate_peak(tmp_path: Path, n_seeds: int, m: int) -> int:
    """tracemalloc peak of aggregating four policies' files of ``n_seeds``
    seeds and ``m`` tracks."""
    src = tmp_path / f"seeds{n_seeds}"
    src.mkdir()
    write_track_files(src, range(n_seeds), m)
    tracemalloc.start()
    try:
        aggregate_directory(str(src), str(src / "agg"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_aggregate_peak_does_not_grow_with_the_seed_count(tmp_path):
    # one file's rows and one (5, m) table per policy are held at a time:
    # 4 seeds peak within 10% of 1 (holding every row peaked 2.0 times as
    # high at m = 2,000)
    one, four = aggregate_peak(tmp_path, 1, 1000), aggregate_peak(tmp_path, 4, 1000)
    assert four <= 1.1 * one


def test_write_aggregates_emits_one_file_per_metric(tmp_path):
    rows = [_row("random", 0, 0, kl_to_truth=0.25)]
    out = tmp_path / "agg"
    paths = write_aggregates(aggregate([lambda: rows]), str(out))
    assert sorted(os.path.basename(p) for p in paths) == [
        "agg_kl.csv",
        "agg_loss.csv",
        "agg_outage.csv",
        "agg_regret.csv",
        "agg_subopt.csv",
    ]
    lines = (out / "agg_kl.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == AGG_HEADER
    assert lines[1] == "random,0,0.25,0.0"


def test_aggregate_directory_requires_summaries(tmp_path):
    with pytest.raises(EmptyInput):
        aggregate_directory(str(tmp_path), str(tmp_path / "agg"))


def test_aggregate_directory_missing_dir(tmp_path):
    with pytest.raises(IoError):
        aggregate_directory(str(tmp_path / "absent"), str(tmp_path / "agg"))


# ---------------------------------------------------------------------------
# command line


def test_cli_run_and_aggregate(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "m = 2\nn = 16\nk = 3\nseeds = 0\npolicies = random\n", encoding="utf-8"
    )
    out = tmp_path / "runs"
    code = cli.main(
        ["run", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0
    assert (out / "cpi_random_seed0.csv").exists()
    assert (out / "track_random_seed0.csv").exists()
    captured = capsys.readouterr().out
    assert "wrote 2 CSV files" in captured

    agg = tmp_path / "agg"
    assert cli.main(["aggregate", "--in", str(out), "--out", str(agg)]) == 0
    assert (agg / "agg_regret.csv").exists()


def test_cli_flag_overrides_beat_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("m = 1\nn = 8\nk = 3\nseeds = 0,1\n", encoding="utf-8")
    out = tmp_path / "runs"
    code = cli.main(
        [
            "run",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--seeds",
            "2",
            "--policies",
            "ts-oracle",
        ]
    )
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["cpi_ts-oracle_seed2.csv", "track_ts-oracle_seed2.csv"]


def test_cli_bad_config_returns_two(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("m = 0\n", encoding="utf-8")
    code = cli.main(["run", "--config", str(cfg)])
    assert code == 2
    assert "ValidationError" in capsys.readouterr().err


def test_cli_config_not_utf8_returns_two_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"m = 4\nout_dir = r\xe9sultats\n")
    out = tmp_path / "runs"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"IoError: cannot read config {cfg}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,field",
    [
        ("--seeds", "abc", "seeds"),
        ("--seeds", "-1", "seeds"),
        ("--policies", "nope", "policies"),
        ("--mode", "simulated", "mode"),
    ],
)
def test_cli_bad_flag_returns_two_naming_the_field(tmp_path, capsys, flag, value, field):
    out = tmp_path / "runs"
    code = cli.main(["run", "--out", str(out), "--policies", "random", flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ValidationError: {field}: ")
    assert "line" not in err and "column" not in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["runs#1", "runs ", "runs\n1"])
def test_cli_out_dir_config_text_cannot_hold_returns_two(tmp_path, capsys, name):
    out = tmp_path / name
    code = cli.main(["run", "--out", str(out), "--policies", "random", "--seeds", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("ValidationError: out_dir: ")
    assert not out.exists()


def test_cli_synthetic_mode_flag_rejects_a_physical_key(tmp_path, capsys):
    cfg = tmp_path / "phys.cfg"
    cfg.write_text("mode = physical\ndoppler = 0.7\nm = 1\nn = 4\n", encoding="utf-8")
    out = tmp_path / "runs"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--mode", "synthetic"])
    assert code == 2
    assert capsys.readouterr().err.startswith("ValidationError: doppler: ")
    assert not out.exists()


def assert_finite_files(out_dir, policy: str, seed: int) -> None:
    """Both CSV files of the replicate exist, with rows, and every column
    but the policy name is a finite number."""
    for path in (cpi_csv_path(str(out_dir), policy, seed), track_csv_path(str(out_dir), policy, seed)):
        _, *rows = Path(path).read_text(encoding="utf-8").splitlines()
        values = [float(x) for row in rows for x in row.split(",")[1:]]
        assert rows and all(map(math.isfinite, values)), path


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
def test_cli_meta_update_at_a_huge_instance_spread_returns_zero(tmp_path, capsys, mode):
    # at sigma0_sq = 1e14 the precision-form update's d x d system
    # I + sigma0_sq G was singular to working precision; the root update
    # has no system to solve
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"mode = {mode}\nsigma0_sq = 1e14\nm = 10\nn = 200\nseeds = 0\n"
        "policies = meta-ts\n",
        encoding="utf-8",
    )
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert_finite_files(out, "meta-ts", 0)


def test_cli_huge_track_prior_variance_runs(tmp_path, capsys):
    # at sigma0_sq = 1e300 a covariance-form update of a ts-oracle track
    # overflows at its first CPI; the factor update stays finite, so both
    # policies run and write both files
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("sigma0_sq = 1e300\nm = 2\nn = 50\nseeds = 0\n", encoding="utf-8")
    out = tmp_path / "runs"
    for policy in ("ts-oracle", "random"):
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--policies", policy]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(out)) == [
        "cpi_random_seed0.csv", "cpi_ts-oracle_seed0.csv",
        "track_random_seed0.csv", "track_ts-oracle_seed0.csv",
    ]


@pytest.mark.parametrize(
    "text,policy",
    [
        ("sigma_q_sq = 1e16", "ts-uninformative"),
        ("sigma_q_sq = 1e50", "ts-uninformative"),
        ("sigma_q_sq = 1e300", "ts-uninformative"),
        ("sigma0_sq = 1e100", "ts-oracle"),
        ("sigma0_sq = 1e300", "ts-oracle"),
    ],
)
def test_huge_track_prior_variance_writes_finite_files(tmp_path, text, policy):
    # a covariance-form track update loses definiteness (or overflows) at
    # each of these prior variances; the factor update must not
    config = parse_config(f"{text}\nm = 2\nn = 20\nseeds = 0\nout_dir = {tmp_path}\n")
    run(config, policy, 0)
    assert_finite_files(tmp_path, policy, 0)


@pytest.mark.parametrize("mode", ["synthetic", "physical"])
@pytest.mark.parametrize(
    "text",
    ["sigma0_sq = 1e14\nm = 10\nn = 200", "sigma_q_sq = 1e300\nsigma0_sq = 1e100\nm = 2\nn = 1"],
    ids=["singular-system", "huge-variances"],
)
def test_meta_ts_runs_where_the_precision_form_update_stopped(tmp_path, mode, text):
    # the precision-form update stopped with NotPositiveDefinite at each:
    # its d x d system was singular, or its jittered factorization failed;
    # the root update folds each track in without a solve or a
    # factorization
    config = parse_config(f"mode = {mode}\n{text}\nseeds = 0\nout_dir = {tmp_path}\n")
    run(config, "meta-ts", 0)
    assert_finite_files(tmp_path, "meta-ts", 0)


@pytest.mark.parametrize(
    "text,policy,key",
    [
        ("mu_star = 2e153,0,0", "meta-ts", "mu_star"),
        ("sigma_q_sq = 1e307", "random", "sigma_q_sq"),
        ("sigma_q_sq = 1.7e308", "meta-ts", "sigma_q_sq"),
    ],
)
def test_config_refuses_a_non_finite_kl_column(text, policy, key):
    # the flat belief's kl_to_truth overflows, so no replicate could write
    # its track file; ts-oracle alone writes no KL and runs
    with pytest.raises(ValidationError) as info:
        parse_config(f"{text}\npolicies = {policy}\n")
    assert info.value.field == key
    parse_config(f"{text}\npolicies = ts-oracle\n")


def test_cli_aggregate_empty_dir_returns_two(tmp_path):
    assert cli.main(["aggregate", "--in", str(tmp_path), "--out", str(tmp_path)]) == 2


def test_cli_aggregate_malformed_summary_returns_two(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "track_random_seed0.csv").write_text(
        PER_TRACK_HEADER + "\nrandom,0,0,1.0,0.5,0.0,0.0,abc\n", encoding="utf-8"
    )
    code = cli.main(["aggregate", "--in", str(runs), "--out", str(tmp_path / "agg")])
    assert code == 2
    assert "IoError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [
        "foo,0,0,1.0,0.5,0.0,0.0,0.0",
        "random,-5,0,1.0,0.5,0.0,0.0,0.0",
        "random,9223372036854775808,0,1.0,0.5,0.0,0.0,0.0",
        "random,4294967296,0,1.0,0.5,0.0,0.0,0.0",
        "random,0,-1,1.0,0.5,0.0,0.0,0.0",
        "random,0,0,1.0,2.5,0.0,0.0,0.0",
        "random,0,0,1.0,0.5,-3.0,0.0,0.0",
        "random,0,0,1.0,0.5,0.0,7.0,0.0",
    ],
    ids=["policy", "seed", "seed-2**63", "seed-2**32", "track", "mean_loss", "outage_freq",
         "subopt_freq"],
)
def test_cli_aggregate_out_of_range_row_returns_two_naming_the_file(tmp_path, capsys, row):
    runs = tmp_path / "runs"
    runs.mkdir()
    track = runs / "track_random_seed0.csv"
    track.write_text(f"{PER_TRACK_HEADER}\n{row}\n", encoding="utf-8")
    out = tmp_path / "agg"
    assert cli.main(["aggregate", "--in", str(runs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"IoError: {track}: ")
    assert repr(row) in err
    assert not out.exists()


def test_cli_aggregate_summary_not_utf8_returns_two_naming_the_file(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    track = runs / "track_random_seed0.csv"
    track.write_bytes(PER_TRACK_HEADER.encode() + b"\nrandom,0,0,1.0,0.5,0.0,0.0,\xff\n")
    out = tmp_path / "agg"
    code = cli.main(["aggregate", "--in", str(runs), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"IoError: cannot read {track}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_dump_waveform(tmp_path):
    out = tmp_path / "zc.csv"
    assert cli.main(["dump-waveform", "--kind", "zc-1024", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,real,imag"
    assert len(lines) == 1025
    first = lines[1].split(",")
    assert int(first[0]) == 0
    energy = sum(
        abs(complex(float(p[1]), float(p[2]))) ** 2
        for p in (line.split(",") for line in lines[1:])
    )
    assert energy == pytest.approx(1.0, abs=1e-9)


def test_cli_dump_waveform_writes_whole_or_not_at_all(tmp_path, monkeypatch, capsys):
    out = tmp_path / "zc.csv"
    out.write_text("earlier\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    assert cli.main(["dump-waveform", "--kind", "zc-1024", "--out", str(out)]) == 2
    assert "IoError" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["zc.csv"]
    monkeypatch.undo()

    missing = tmp_path / "missing" / "zc.csv"
    assert cli.main(["dump-waveform", "--kind", "zc-1024", "--out", str(missing)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["zc.csv"]
