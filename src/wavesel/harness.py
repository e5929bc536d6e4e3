"""Experiment harness: configuration, replicate dispatch, CSV persistence,
and cross-seed aggregation.

Configuration files are flat UTF-8 ``key = value`` lines with ``#`` comments;
every key has a documented default, so an empty file runs the full default
study. One replicate is a (policy, seed) pair; replicates are independent
and may run in parallel (``WAVESEL_WORKERS`` environment variable), with
outputs merged in canonical (policy, seed) order regardless of worker count.

All floating-point CSV fields are written with ``repr`` of a Python float,
which round-trips exactly, so recomputing any metric from the files
reproduces the in-memory value bit for bit.
"""

import contextlib
import math
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .bandit import TrackResult
from .errors import EmptyInput, InvalidInput, IoError, ParseError, ValidationError
from .fstc import SceneConfig, StateProcess, TaskDistribution, random_transition
from .meta import POLICIES, policy_index, run_meta_experiment, scene_rng
from .metrics import DB_FLOOR, OUTAGE_DB, kl_trace, sinr_to_db, track_record
from .waveforms import CATALOG_NAMES

#: Fixed true prior mean for physical mode: positive weight on the running
#: mean and max of past losses makes the informed policies meaningful, and
#: the same vector gives sensible channel gains through the softplus links.
PHYSICAL_MU_STAR = (1.2, 0.4, 0.6)

#: Fixed true prior mean for synthetic mode. The running-mean feature feeds
#: back into the next loss, so its weight sets a feedback gain of
#: 1/(1 - w): a small negative weight keeps that loop damped and the
#: per-pair statistics identifiable, while the max feature carries most of
#: the signal. Weights near +1 make the loop self-confirming and leave the
#: learners chasing an unidentifiable target.
SYNTHETIC_MU_STAR = (-0.3, 0.2, 0.8)

PER_CPI_HEADER = (
    "policy,seed,track,cpi,state,obs,waveform,sinr_db,loss,oracle_loss,"
    "regret_inc,suboptimal,outage_10db"
)
PER_TRACK_HEADER = (
    "policy,seed,track,cum_regret,mean_loss,outage_freq,subopt_freq,kl_to_truth"
)
AGG_HEADER = "policy,track,mean,stderr"

#: Aggregate output metrics: the per-track column each one reads and the
#: across-track transform it applies.
AGG_METRICS = {
    "regret": ("cum_regret", "cumsum"),
    "loss": ("mean_loss", "running_mean"),
    "outage": ("outage_freq", "running_mean"),
    "subopt": ("subopt_freq", "running_mean"),
    "kl": ("kl_to_truth", "raw"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment parameterization; field names are the config keys and
    the annotations their types (see ``_KEY_TYPES``)."""

    m: int = 50
    n: int = 200
    k: int = 5
    sigma_q_sq: float = 12.0
    sigma0_sq: float = 0.35
    sigma_sq: float = 0.33
    noise_var: float = 1e-3
    sinr_target_db: float = 12.0
    obs_flip_prob: float = 0.1
    n_states: int = 4
    memory: int = 2
    grid_n: int = 64
    ir_taps: int = 8
    ir_kernel_scale: float = 1.5
    target_power: float = 1.0
    clutter_power: float = 30.0
    doppler: float = 0.0
    n_oracle_draws: int = 64
    mu_star: tuple[float, ...] | None = None
    seeds: tuple[int, ...] = tuple(range(20))
    policies: tuple[str, ...] = POLICIES
    mode: str = "synthetic"
    out_dir: str = "out"


#: Largest state-transition table, n_states ** memory entries, a config may
#: ask for. Every replicate draws the table and keeps the running sums of
#: each row; at this size that took about 0.2 s and 26 MB per replicate on
#: a 2-core machine, and each +2 in ``memory`` at 4 states multiplies both
#: by 16.
MAX_TRANSITION_ENTRIES = 2**18

#: Largest clutter scale, the top state gain 4 ** (n_states - 2) times
#: max(clutter_power, 1), a config may ask for. A track's clutter window
#: power measured at most 26 times ``clutter_power`` over 300 default
#: physical tracks (seeds 0-5), so the top state's clutter power stays
#: about 7 decades below the float range.
MAX_CLUTTER_SCALE = 1e300


def _key_type(annotation) -> tuple[type, bool, bool]:
    """(item type, is a list, may be None) of a config field annotated
    ``T`` or ``tuple[T, ...]``, either one optionally ``| None``."""
    optional = type(None) in typing.get_args(annotation)
    if optional:
        annotation = typing.get_args(annotation)[0]
    if typing.get_origin(annotation) is tuple:
        return typing.get_args(annotation)[0], True, optional
    return annotation, False, optional


#: key -> (item type, is a list, may be None), read from the
#: ``ExperimentConfig`` annotations. A list is written comma-separated and
#: None as ``auto``.
_KEY_TYPES = {f.name: _key_type(f.type) for f in fields(ExperimentConfig)}


def _items(key: str, value) -> tuple:
    """The items of one config value: none for ``auto``, else the list or
    the scalar alone."""
    if value is None:
        return ()
    return value if _KEY_TYPES[key][1] else (value,)


def _parse_value(key: str, text: str, line: int | None = None, column: int | None = None):
    """Parse the text of one value of ``key``. A bad value raises a
    ``ParseError`` at (line, column) when they are given, as for a config
    file line, else a ``ValidationError`` naming the key, as for a flag."""
    kind, is_list, optional = _KEY_TYPES[key]
    if optional and text == "auto":
        return None
    try:
        if is_list:
            return tuple(kind(p.strip()) for p in text.split(","))
        return kind(text)
    except ValueError:
        if line is None:
            raise ValidationError(key, f"bad value {text!r}") from None
        raise ParseError(f"bad value for {key}: {text!r}", line, column) from None


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    """Reject every value the model itself would reject, naming the field,
    before any replicate starts."""
    for key, (kind, _, _) in _KEY_TYPES.items():
        if kind is float and not all(map(math.isfinite, _items(key, getattr(config, key)))):
            raise ValidationError(key, "must be finite")
    for name in ("m", "n", "k"):
        if getattr(config, name) < 1:
            raise ValidationError(name, "must be at least 1")
    for name in ("sigma_q_sq", "sigma0_sq", "sigma_sq", "noise_var"):
        if getattr(config, name) <= 0:
            raise ValidationError(name, "variance must be strictly positive")
    # below -300 dB the linear target is under metrics.DB_FLOOR, the SINR the
    # CSVs write as -300 dB; from about 3083 dB 10 ** (x / 10) overflows
    limit = -10.0 * math.log10(DB_FLOOR)
    if abs(config.sinr_target_db) > limit:
        raise ValidationError("sinr_target_db", f"must lie in [{-limit:g}, {limit:g}] dB")
    if not 0.0 <= config.obs_flip_prob < 1.0:
        raise ValidationError("obs_flip_prob", "must lie in [0, 1)")
    if config.n_states < 2:
        raise ValidationError("n_states", "must be at least 2")
    if config.memory < 1:
        raise ValidationError("memory", "must be at least 1")
    # memory > 18 is over the limit for any n_states >= 2; testing it first
    # keeps the power small
    if config.memory > 18 or config.n_states ** config.memory > MAX_TRANSITION_ENTRIES:
        key = "memory" if config.memory > 1 else "n_states"
        raise ValidationError(
            key, f"n_states ** memory exceeds {MAX_TRANSITION_ENTRIES} transition "
            f"table entries; lower {key}"
        )
    for name in ("grid_n", "ir_taps", "n_oracle_draws"):
        if getattr(config, name) < 1:
            raise ValidationError(name, "must be at least 1")
    if config.ir_kernel_scale <= 0:
        raise ValidationError("ir_kernel_scale", "must be strictly positive")
    # A zero target echo gives SINR 0 under every waveform: zero loss and
    # zero regret at every CPI, which reads as a perfect learner.
    if config.target_power <= 0:
        raise ValidationError("target_power", "must be strictly positive")
    if config.clutter_power < 0:
        raise ValidationError("clutter_power", "must be nonnegative")
    # in log space: 4.0 ** (n_states - 2) itself overflows from n_states = 514
    log_scale = (config.n_states - 2) * math.log(4.0)
    log_scale += math.log(max(config.clutter_power, 1.0))
    if log_scale > math.log(MAX_CLUTTER_SCALE):
        raise ValidationError(
            "n_states", f"state gain 4 ** (n_states - 2) times "
            f"max(clutter_power, 1) exceeds {MAX_CLUTTER_SCALE:g}; lower n_states"
        )
    if not config.seeds:
        raise ValidationError("seeds", "at least one seed is required")
    if min(config.seeds) < 0:
        raise ValidationError("seeds", "seeds must be nonnegative")
    if len(set(config.seeds)) != len(config.seeds):
        raise ValidationError("seeds", "a seed is listed more than once")
    if not config.policies:
        raise ValidationError("policies", "at least one policy is required")
    for p in config.policies:
        if p not in POLICIES:
            raise ValidationError("policies", f"unknown policy {p!r}")
    if len(set(config.policies)) != len(config.policies):
        raise ValidationError("policies", "a policy is listed more than once")
    if config.mode not in ("synthetic", "physical"):
        raise ValidationError("mode", f"unknown mode {config.mode!r}")
    if config.mode == "physical" and config.k > len(CATALOG_NAMES):
        raise ValidationError(
            "k", f"physical mode has a catalog of {len(CATALOG_NAMES)} waveforms"
        )
    if config.mu_star is not None and len(config.mu_star) != 3:
        raise ValidationError("mu_star", "the context model uses exactly 3 features")
    # serialize_config must write it back: the parser splits the text at
    # line breaks, cuts each line at "#" and strips the value
    out = config.out_dir
    if not out or "#" in out or out != out.strip() or len(out.splitlines()) > 1:
        raise ValidationError("out_dir", "must be nonempty, with no '#', no line "
                              "break and no space at either end")
    return config


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys are rejected, later lines win."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", lineno, 1)
        eq = line.index("=")
        key = line[:eq].strip()
        if not key:
            raise ParseError("missing key before `=`", lineno, 1)
        if key not in _KEY_TYPES:
            raise ValidationError(key, "unknown configuration key")
        value_text = line[eq + 1 :].strip()
        if not value_text:
            raise ParseError(f"missing value for {key}", lineno, eq + 2)
        values[key] = _parse_value(key, value_text, lineno, eq + 2)
    return _validate(ExperimentConfig(**values))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Emit config text that parses back to an equal config."""
    lines = []
    for key, (kind, _, _) in _KEY_TYPES.items():
        value = getattr(config, key)
        text = "auto" if value is None else ",".join(
            repr(float(v)) if kind is float else str(v) for v in _items(key, value)
        )
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# replicate execution


def build_scene(config: ExperimentConfig, seed: int) -> tuple[TaskDistribution, SceneConfig]:
    """Seed-level scene draw, shared by every policy under the seed.

    Only the state-transition table is random here; the true prior mean
    defaults to a fixed per-mode constant so that runs across seeds probe
    one task distribution rather than a different one per seed.
    """
    rng = scene_rng(seed)
    transition = random_transition(config.n_states, config.memory, rng)
    if config.mu_star is not None:
        mu = np.asarray(config.mu_star, dtype=float)
    elif config.mode == "synthetic":
        mu = np.asarray(SYNTHETIC_MU_STAR, dtype=float)
    else:
        mu = np.asarray(PHYSICAL_MU_STAR, dtype=float)
    state_gain = tuple(4.0 ** (i - 1) for i in range(config.n_states))
    scene = SceneConfig(
        state_proc=StateProcess(transition, config.obs_flip_prob),
        state_gain=state_gain,
        noise_var=config.noise_var,
        grid_n=config.grid_n,
        doppler=config.doppler,
        target_power=config.target_power,
        clutter_power=config.clutter_power,
    )
    task_dist = TaskDistribution(
        mu_star=mu,
        sigma0_sq=config.sigma0_sq,
        ir_kernel_scale=config.ir_kernel_scale,
        ir_taps=config.ir_taps,
    )
    return task_dist, scene


@dataclass
class RunSummary:
    """Per-track summary rows of one replicate, plus wall time (not persisted)."""

    policy: str
    seed: int
    cum_regret: np.ndarray
    mean_loss: np.ndarray
    outage_freq: np.ndarray
    subopt_freq: np.ndarray
    kl_to_truth: np.ndarray
    wall_time_ms: float


def _fmt(x) -> str:
    return repr(float(x))


def _write_lines(path: str, lines) -> None:
    """Write ``lines`` to ``path`` whole or not at all.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` only after the last line is written; on any failure the
    temporary file is removed and an earlier ``path`` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _cpi_lines(policy: str, seed: int, record, sinr_db, outage) -> list:
    """The per-CPI file's lines of one replicate's stacked record, with its
    derived (m, n) ``sinr_db`` and ``outage`` columns. Each column is
    formatted once for the whole replicate, integers with ``str`` and
    floats with ``repr`` as ``_fmt`` does, then the rows are joined."""
    m, n = record.loss.shape
    columns = (
        [t for t in map(str, range(m)) for _ in range(n)],
        list(map(str, range(n))) * m,
        map(str, record.state.ravel().tolist()),
        map(str, record.obs.ravel().tolist()),
        map(str, record.waveform.ravel().tolist()),
        map(repr, sinr_db.ravel().tolist()),
        map(repr, record.loss.ravel().tolist()),
        map(repr, record.oracle_loss.ravel().tolist()),
        map(repr, record.regret_inc.ravel().tolist()),
        map(str, record.suboptimal.ravel().astype(int).tolist()),
        map(str, outage.ravel().astype(int).tolist()),
    )
    prefix = f"{policy},{seed},"
    return [PER_CPI_HEADER, *(prefix + ",".join(row) for row in zip(*columns))]


def _track_lines(summary: RunSummary) -> list:
    lines = [PER_TRACK_HEADER]
    for t in range(summary.cum_regret.size):
        lines.append(
            f"{summary.policy},{summary.seed},{t},{_fmt(summary.cum_regret[t])},"
            f"{_fmt(summary.mean_loss[t])},{_fmt(summary.outage_freq[t])},"
            f"{_fmt(summary.subopt_freq[t])},{_fmt(summary.kl_to_truth[t])}"
        )
    return lines


def cpi_csv_path(out_dir: str, policy: str, seed: int) -> str:
    return os.path.join(out_dir, f"cpi_{policy}_seed{seed}.csv")


def track_csv_path(out_dir: str, policy: str, seed: int) -> str:
    return os.path.join(out_dir, f"track_{policy}_seed{seed}.csv")


def run(
    config: ExperimentConfig, policy: str, seed: int
) -> tuple[TrackResult, RunSummary]:
    """Execute one replicate and persist its two CSV files; returns the
    replicate's stacked per-CPI record and its per-track summary.

    Deterministic given (config, policy, seed): the CSVs are byte-identical
    across repeated calls.
    """
    started = time.perf_counter()
    task_dist, scene = build_scene(config, seed)
    results, history = run_meta_experiment(
        task_dist,
        scene,
        config.m,
        config.n,
        policy,
        config.mode,
        seed,
        k_arms=config.k,
        sigma_q_sq=config.sigma_q_sq,
        sigma_sq=config.sigma_sq,
        sinr_target_db=config.sinr_target_db,
        n_oracle_draws=config.n_oracle_draws,
    )
    record = track_record(results)
    sinr_db = sinr_to_db(record.sinr)
    outage = sinr_db < OUTAGE_DB
    if policy == "ts-oracle":
        # The oracle is handed the true prior; its divergence from truth is
        # zero by construction rather than via a belief update.
        kl = np.zeros(config.m)
    else:
        kl = kl_trace(history, task_dist)
    summary = RunSummary(
        policy=policy,
        seed=seed,
        cum_regret=record.regret_inc.sum(axis=1),
        mean_loss=record.loss.mean(axis=1),
        outage_freq=outage.mean(axis=1),
        subopt_freq=record.suboptimal.mean(axis=1),
        kl_to_truth=kl,
        wall_time_ms=0.0,
    )
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {config.out_dir}: {exc}") from exc
    _write_lines(
        cpi_csv_path(config.out_dir, policy, seed),
        _cpi_lines(policy, seed, record, sinr_db, outage),
    )
    _write_lines(track_csv_path(config.out_dir, policy, seed), _track_lines(summary))
    summary.wall_time_ms = (time.perf_counter() - started) * 1e3
    return record, summary


def _run_job(args) -> RunSummary:
    config, policy, seed = args
    return run(config, policy, seed)[1]


def worker_count(n_jobs: int) -> int:
    """Worker processes for n_jobs replicates: ``WAVESEL_WORKERS`` (default
    1), clamped to [1, min(n_jobs, os.cpu_count())]."""
    raw = os.environ.get("WAVESEL_WORKERS", "1")
    try:
        requested = int(raw)
    except ValueError:
        raise InvalidInput(f"WAVESEL_WORKERS must be an integer, got {raw!r}") from None
    return max(1, min(requested, n_jobs, os.cpu_count() or 1))


def run_experiment(config: ExperimentConfig) -> list:
    """Run every (policy, seed) replicate; returns summaries in canonical
    (policy, seed) order independent of the worker count."""
    jobs = [
        (config, policy, seed)
        for policy in sorted(config.policies, key=policy_index)
        for seed in config.seeds
    ]
    workers = worker_count(len(jobs))
    if workers == 1:
        return [_run_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))


# ---------------------------------------------------------------------------
# aggregation


def read_track_table(path: str) -> list:
    """Parse one per-track summary CSV back into row dicts."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != PER_TRACK_HEADER:
        raise IoError(f"{path} is not a per-track summary file")
    rows = []
    names = PER_TRACK_HEADER.split(",")
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise IoError(f"{path}: malformed row {line!r}")
        try:
            seed, track = int(parts[1]), int(parts[2])
            values = [float(part) for part in parts[3:]]
        except ValueError:
            raise IoError(f"{path}: malformed row {line!r}") from None
        if not all(map(math.isfinite, values)):
            raise IoError(f"{path}: non-finite value in row {line!r}")
        row = {"policy": parts[0], "seed": seed, "track": track}
        row.update(zip(names[3:], values))
        rows.append(row)
    return rows


def _transform(values: np.ndarray, how: str) -> np.ndarray:
    if how == "cumsum":
        return np.cumsum(values)
    if how == "running_mean":
        return np.cumsum(values) / np.arange(1, values.size + 1)
    return values


def aggregate(rows: list) -> dict:
    """Collapse per-track rows into per-policy mean and standard-error curves.

    For each metric the per-seed track sequence is first transformed to the
    reported cumulative form (cumulative regret, running-mean frequencies,
    raw KL), then averaged across seeds per track index. Standard error uses
    the n-1 normalization and is 0 for a single seed.
    """
    if not rows:
        raise EmptyInput("no summary rows to aggregate")
    by_policy: dict = {}
    for row in rows:
        by_policy.setdefault(row["policy"], {}).setdefault(row["seed"], []).append(row)
    out: dict = {metric: [] for metric in AGG_METRICS}
    for policy in sorted(by_policy, key=policy_index):
        seeds = by_policy[policy]
        per_seed = {}
        m = None
        for seed, seed_rows in seeds.items():
            seed_rows = sorted(seed_rows, key=lambda r: r["track"])
            if [r["track"] for r in seed_rows] != list(range(len(seed_rows))):
                raise InvalidInput(
                    f"track indices of {policy} seed {seed} are not contiguous"
                )
            if m is None:
                m = len(seed_rows)
            elif len(seed_rows) != m:
                raise InvalidInput(f"seeds of {policy} disagree on track count")
            per_seed[seed] = seed_rows
        for metric, (column, how) in AGG_METRICS.items():
            stacked = np.stack(
                [
                    _transform(
                        np.array([r[column] for r in per_seed[seed]]), how
                    )
                    for seed in sorted(per_seed)
                ]
            )
            mean = stacked.mean(axis=0)
            if stacked.shape[0] >= 2:
                stderr = stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0])
            else:
                stderr = np.zeros(m)
            for t in range(m):
                out[metric].append((policy, t, float(mean[t]), float(stderr[t])))
    return out


def write_aggregates(tables: dict, out_dir: str) -> list:
    """Write one agg_<metric>.csv per metric; returns the paths written."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    paths = []
    for metric in AGG_METRICS:
        path = os.path.join(out_dir, f"agg_{metric}.csv")
        lines = [AGG_HEADER]
        for policy, track, mean, stderr in tables[metric]:
            lines.append(f"{policy},{track},{_fmt(mean)},{_fmt(stderr)}")
        _write_lines(path, lines)
        paths.append(path)
    return paths


def aggregate_directory(in_dir: str, out_dir: str) -> list:
    """Aggregate every per-track summary CSV found in ``in_dir``."""
    try:
        names = sorted(os.listdir(in_dir))
    except OSError as exc:
        raise IoError(f"cannot list {in_dir}: {exc}") from exc
    rows = []
    for name in names:
        if name.startswith("track_") and name.endswith(".csv"):
            rows.extend(read_track_table(os.path.join(in_dir, name)))
    if not rows:
        raise EmptyInput(f"no per-track summary files in {in_dir}")
    return write_aggregates(aggregate(rows), out_dir)
