"""Experiment harness: configuration, replicate dispatch, CSV persistence,
and cross-seed aggregation.

Configuration files are flat UTF-8 ``key = value`` lines with ``#`` comments;
every key has a documented default, so an empty file runs the full default
study. One replicate is a (policy, seed) pair; a job is a seed block, every
listed policy under one seed, sharing each (seed, track) episode. Blocks are
independent and may run in parallel (``WAVESEL_WORKERS`` environment
variable), with outputs merged in canonical (policy, seed) order regardless
of worker count.

A block streams: each finished track's rows go to its replicate's temporary
file and only five summary values a track are kept, so its memory is flat
in the track count. The temporary files replace their targets at the
block's end, or are all removed: a file is whole or absent.

Every CSV file the package writes is a header and its columns, whose rows
one function, ``_table_lines``, yields one at a time, so a file is never
held whole. A float is written as ``repr`` of a Python float, which
round-trips exactly, and an int in decimal, so recomputing any metric from
the files reproduces the in-memory value bit for bit.
"""

import contextlib
import functools
import math
import os
import time
import typing
from dataclasses import dataclass, fields
from itertools import chain, islice, repeat

import numpy as np

from .bandit import TrackResult
from .errors import EmptyInput, InvalidInput, IoError, ParseError, ValidationError
from .fstc import WINDOW_HALF, StateProcess, random_transition
from .gaussmath import kl_gaussian
from .meta import POLICIES, policy_index, run_meta_experiment, scene_rng
from .metrics import DB_FLOOR, KL_REFERENCE_VAR, OUTAGE_DB, kl_trace, sinr_to_db, track_record
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

#: Config keys only the physical channel reads. A synthetic run would ignore
#: them, so a synthetic config rejects any value but the default.
PHYSICAL_KEYS = (
    "noise_var", "grid_n", "ir_taps", "ir_kernel_scale", "target_power",
    "clutter_power", "doppler", "n_oracle_draws",
)

PER_CPI_HEADER = (
    "policy,seed,track,cpi,state,obs,waveform,sinr_db,loss,oracle_loss,"
    "regret_inc,suboptimal,outage_10db"
)
PER_TRACK_HEADER = (
    "policy,seed,track,cum_regret,mean_loss,outage_freq,subopt_freq,kl_to_truth"
)
AGG_HEADER = "policy,track,mean,stderr"

#: Lines per write call, about 7 KB: one write of a whole file raised peak RSS.
WRITE_BLOCK = 64


def _running_mean(values: np.ndarray) -> np.ndarray:
    """Running mean along the track axis of a (seeds, tracks) array."""
    return np.cumsum(values, axis=1) / np.arange(1, values.shape[1] + 1)


#: Aggregate output metrics: the per-track column each one reads and the
#: transform it applies along the track axis of a (seeds, tracks) array.
AGG_METRICS = {
    "regret": ("cum_regret", functools.partial(np.cumsum, axis=1)),
    "loss": ("mean_loss", _running_mean),
    "outage": ("outage_freq", _running_mean),
    "subopt": ("subopt_freq", _running_mean),
    "kl": ("kl_to_truth", lambda values: values),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment parameterization; field names are the config keys and
    the annotations their types (see ``_KEY_TYPES``).

    Valid by construction: built from config text, from CLI flags, by a
    call or by ``replace``, a config checks every value and raises a
    ``ValidationError`` naming the first bad field. A list key takes a
    tuple, an int key an int in [0, 2**63) but no bool (a seed one under
    ``MAX_SEED``), and a float key a float or an int, which it holds as a
    float. In synthetic mode each of ``PHYSICAL_KEYS`` keeps its default.
    The modules below the harness take a constructed config's values as
    given and do not check them again.
    """

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

    def __post_init__(self):
        for key in _KEY_TYPES:
            object.__setattr__(self, key, _typed(key, getattr(self, key)))
        for name in ("m", "n", "k"):
            if getattr(self, name) < 1:
                raise ValidationError(name, "must be at least 1")
        for name in ("sigma_q_sq", "sigma0_sq", "sigma_sq", "noise_var"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "variance must be strictly positive")
        # the prior variance of random and ts-uninformative tracks
        if not math.isfinite(self.sigma_q_sq + self.sigma0_sq):
            raise ValidationError("sigma_q_sq", "sigma_q_sq + sigma0_sq must be finite")
        # below -300 dB the linear target is under metrics.DB_FLOOR, the SINR the
        # CSVs write as -300 dB; from about 3083 dB 10 ** (x / 10) overflows
        limit = -10.0 * math.log10(DB_FLOOR)
        if abs(self.sinr_target_db) > limit:
            raise ValidationError(
                "sinr_target_db", f"must lie in [{-limit:g}, {limit:g}] dB"
            )
        if not 0.0 <= self.obs_flip_prob < 1.0:
            raise ValidationError("obs_flip_prob", "must lie in [0, 1)")
        if self.n_states < 2:
            raise ValidationError("n_states", "must be at least 2")
        if self.memory < 1:
            raise ValidationError("memory", "must be at least 1")
        # memory > 18 is over the limit for any n_states >= 2; testing it first
        # keeps the power small
        if self.memory > 18 or self.n_states ** self.memory > MAX_TRANSITION_ENTRIES:
            key = "memory" if self.memory > 1 else "n_states"
            raise ValidationError(
                key, f"n_states ** memory exceeds {MAX_TRANSITION_ENTRIES} transition "
                f"table entries; lower {key}"
            )
        for name in ("grid_n", "ir_taps", "n_oracle_draws"):
            if getattr(self, name) < 1:
                raise ValidationError(name, "must be at least 1")
        for name, limit in (("k", MAX_ARMS), ("grid_n", MAX_GRID_N), ("ir_taps", MAX_IR_TAPS)):
            if getattr(self, name) > limit:
                raise ValidationError(name, f"must be at most {limit}")
        if self.ir_kernel_scale <= 0:
            raise ValidationError("ir_kernel_scale", "must be strictly positive")
        # A zero target echo gives SINR 0 under every waveform: zero loss and
        # zero regret at every CPI, which reads as a perfect learner.
        if self.target_power <= 0:
            raise ValidationError("target_power", "must be strictly positive")
        if self.clutter_power < 0:
            raise ValidationError("clutter_power", "must be nonnegative")
        # in log space: 4.0 ** (n_states - 2) itself overflows from n_states = 514
        log_scale = (self.n_states - 2) * math.log(4.0)
        log_scale += math.log(max(self.clutter_power, 1.0))
        if log_scale > math.log(MAX_CLUTTER_SCALE):
            raise ValidationError(
                "n_states", f"state gain 4 ** (n_states - 2) times "
                f"max(clutter_power, 1) exceeds {MAX_CLUTTER_SCALE:g}; lower n_states"
            )
        if not self.seeds:
            raise ValidationError("seeds", "at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seeds", "a seed is listed more than once")
        if max(self.seeds) >= MAX_SEED:
            raise ValidationError("seeds", f"must lie in [0, {MAX_SEED})")
        if not self.policies:
            raise ValidationError("policies", "at least one policy is required")
        for p in self.policies:
            if p not in POLICIES:
                raise ValidationError("policies", f"unknown policy {p!r}")
        if len(set(self.policies)) != len(self.policies):
            raise ValidationError("policies", "a policy is listed more than once")
        if self.mode not in ("synthetic", "physical"):
            raise ValidationError("mode", f"unknown mode {self.mode!r}")
        if self.mode == "synthetic":
            for f in fields(self):
                if f.name in PHYSICAL_KEYS and getattr(self, f.name) != f.default:
                    raise ValidationError(f.name, "only physical mode reads it; a "
                                          "synthetic config takes the default")
        if self.mode == "physical" and self.k > len(CATALOG_NAMES):
            raise ValidationError(
                "k", f"physical mode has a catalog of {len(CATALOG_NAMES)} waveforms"
            )
        # a track's oracle draws, and expected_losses' buffer over its
        # distinct (state, delay cell) pairs
        if self.mode == "physical" and self.n_oracle_draws * self.k * max(
            2 * WINDOW_HALF + 1, min(self.n, self.n_states * self.grid_n)
        ) > MAX_ORACLE_FLOATS:
            raise ValidationError(
                "n_oracle_draws", f"an oracle buffer exceeds {MAX_ORACLE_FLOATS} floats: "
                "n_oracle_draws * k * max(33, min(n, n_states * grid_n)); lower "
                "n_oracle_draws"
            )
        if self.mu_star is not None and len(self.mu_star) != 3:
            raise ValidationError("mu_star", "the context model uses exactly 3 features")
        # the KL column of every policy but ts-oracle starts at the flat
        # belief's divergence from the reference, which random and
        # ts-uninformative keep; the CSVs cannot hold a non-finite value
        if set(self.policies) != {"ts-oracle"}:
            mu_star = np.asarray(true_prior_mean(self), dtype=float)
            if not math.isfinite(_flat_kl(self.sigma_q_sq, mu_star)):
                at_zero = _flat_kl(self.sigma_q_sq, np.zeros(3))
                key = "mu_star" if math.isfinite(at_zero) else "sigma_q_sq"
                raise ValidationError(key, "the flat belief's kl_to_truth overflows")
        # serialize_config must write it back: the parser splits the text at
        # line breaks, cuts each line at "#" and strips the value
        out = self.out_dir
        if not out or "#" in out or out != out.strip() or len(out.splitlines()) > 1:
            raise ValidationError("out_dir", "must be nonempty, with no '#', no line "
                                  "break and no space at either end")


def _flat_kl(sigma_q_sq: float, mu_star: np.ndarray) -> float:
    """kl_to_truth of the flat meta belief N(0, sigma_q_sq I), from the
    roots ``meta.init_meta`` and ``metrics.kl_trace`` use; inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return kl_gaussian(
            (np.zeros(3), math.sqrt(sigma_q_sq) * np.eye(3)),
            (mu_star, math.sqrt(KL_REFERENCE_VAR) * np.eye(3)),
        )


#: Bound on seeds: ``SeedSequence`` splits a larger key item into 32-bit
#: words, so seed 5 + 2**32 * ``meta.WALK_TAG``'s track-0 ``random`` stream
#: would be seed 5's track-0 walk (a key is zero-padded to four words).
MAX_SEED = 2**32

#: Largest state-transition table, n_states ** memory entries, a config may
#: ask for. Every replicate draws the table and keeps the running sums of
#: each row; at this size that took about 0.2 s and 26 MB per replicate on
#: a 2-core machine, and each +2 in ``memory`` at 4 states multiplies both
#: by 16.
MAX_TRANSITION_ENTRIES = 2**18

#: Largest oracle buffer, in floats, a physical config may ask for: a
#: track's (k, n_oracle_draws, 33) exponential draws, or ``expected_losses``'
#: (pairs, k, n_oracle_draws) losses with pairs at most
#: min(n, n_states * grid_n). On a 2-core machine one build and one
#: ``expected_losses`` call over every pair raised peak RSS by 8.3 MB at
#: 10**6 loss floats, 31 MB at 4 * 10**6 and 77 MB at 10**7, and the call
#: took 12, 37 and 86 ms; each seed block's worker holds its own. The
#: default of 64 draws needs 64,000.
MAX_ORACLE_FLOATS = 2**22

#: Largest catalog, in ``k`` arms, a config may ask for; physical mode
#: holds 5 waveforms. Each synthetic track's agent keeps n_states * k
#: Welford cells and n * k snapshot references, and each pulse scores every
#: arm. On a 2-core machine a replicate of one 200-pulse meta-ts track took
#: 4.3 ms at 5 arms, 48 ms at 1,024 and 182 ms at 4,096 (untraced, best of
#: 3), and peaked at 0.13, 9.3 and 42 MB under tracemalloc; both grow as
#: n * k.
MAX_ARMS = 2**10

#: Largest delay grid, in ``grid_n`` cells, a physical config may ask for.
#: Each track's simulator build sums the k * grid_n clutter windows and
#: keeps their (grid_n, k) table and its list mirror. On a 2-core machine a
#: build at the defaults took 0.59 ms at 64 cells, 2.3 ms at 4,096 and 34 ms
#: at 65,536 (untraced, best of 5), and peaked at 0.38, 1.6 and 20 MB under
#: tracemalloc; at 262,144 cells it took 0.16 s and peaked at 80 MB.
MAX_GRID_N = 2**16

#: Longest impulse response, in ``ir_taps`` taps, a physical config may ask
#: for. Each seed block eigendecomposes the (ir_taps, ir_taps) tap
#: covariance, and each track draws through its root and convolves every
#: waveform's correlations with the taps. On a 2-core machine the root took
#: 14 ms at 256 taps, 0.50 s at 1,024 and 2.7 s at 2,048, peaking at 1.6 MB
#: at 256 and 24 MB at 1,024 under tracemalloc; a track's build took 6.7 ms
#: at 256 and 31 ms at 1,024, against 0.6 ms at the default 8.
MAX_IR_TAPS = 2**10

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


def _accepts(kind: type, item) -> bool:
    """Whether ``item`` may stand for a config value of type ``kind``: a bool
    is no int, and an int may stand for a float."""
    if isinstance(item, bool):
        return False
    return isinstance(item, kind) or kind is float and isinstance(item, int)


def _typed(key: str, value):
    """``value`` checked against the type ``_KEY_TYPES`` gives ``key``, with
    int items in [0, 2**63) and float items made floats; a bad value raises
    a ``ValidationError``."""
    kind, is_list, optional = _KEY_TYPES[key]
    if value is None and optional:
        return None
    items = value if is_list else (value,)
    if not isinstance(items, tuple) or not all(_accepts(kind, v) for v in items):
        raise ValidationError(key, f"must be {'a tuple of ' if is_list else ''}{kind.__name__}")
    # every int key is a count or a seed: an int64 holds it, and its text
    # stays far under Python's limit on int-to-str conversion
    if kind is int and not all(0 <= v < 2**63 for v in items):
        raise ValidationError(key, "must lie in [0, 2**63)")
    if kind is float:
        try:
            items = tuple(map(float, items))
        except OverflowError:
            raise ValidationError(key, "must be finite") from None
        if not all(map(math.isfinite, items)):
            raise ValidationError(key, "must be finite")
    return items if is_list else items[0]


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
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(config: ExperimentConfig) -> str:
    """Emit config text that parses back to an equal config."""
    lines = []
    for key, (kind, is_list, _) in _KEY_TYPES.items():
        value = getattr(config, key)
        text = "auto" if value is None else ",".join(
            repr(float(v)) if kind is float else str(v)
            for v in (value if is_list else (value,))
        )
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# replicate execution


def build_scene(config: ExperimentConfig, seed: int) -> tuple[np.ndarray, StateProcess]:
    """Seed-level scene, shared by every policy under the seed: the true
    prior mean and the hidden-state process. Every other scene value is read
    from ``config`` where it is used.

    Only the state-transition table is random here; the true prior mean
    defaults to a fixed per-mode constant so that runs across seeds probe
    one task distribution rather than a different one per seed.
    """
    transition = random_transition(config.n_states, config.memory, scene_rng(seed))
    mu = np.asarray(true_prior_mean(config), dtype=float)
    return mu, StateProcess(transition, config.obs_flip_prob)


def true_prior_mean(config: ExperimentConfig) -> tuple:
    """The configured ``mu_star``, or the mode's fixed default."""
    if config.mu_star is not None:
        return config.mu_star
    return SYNTHETIC_MU_STAR if config.mode == "synthetic" else PHYSICAL_MU_STAR


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


def _write_lines(fh, lines) -> None:
    """Write ``lines`` to the open text file ``fh``, ``WRITE_BLOCK`` joined
    lines per call."""
    lines = iter(lines)
    while block := list(islice(lines, WRITE_BLOCK)):
        fh.write("\n".join(block) + "\n")


@contextlib.contextmanager
def _staged(paths):
    """Yield an open temporary file beside each of ``paths``, in order. If
    the ``with`` body ends normally, each replaces its path; if the body, a
    write or a replace fails, every one left is removed, so each path is
    whole or as it was. An ``OSError`` raises an ``IoError``."""
    tmps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(t, "w", encoding="utf-8", newline="\n")) for t in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {exc.filename or paths[0]}: {exc}") from exc
        raise


def _cells(column):
    """A column's items as written: a numpy array's items through ``tolist``
    (a bool as 0 or 1), an int in decimal and a float as its ``repr``,
    converted ``WRITE_BLOCK`` items at a time. Any other column holds
    strings, taken as written."""
    if not isinstance(column, np.ndarray):
        return column
    flat = column.ravel()
    if flat.dtype == bool:
        flat = flat.view(np.uint8)
    return chain.from_iterable(
        map(repr, flat[i : i + WRITE_BLOCK].tolist()) for i in range(0, flat.size, WRITE_BLOCK)
    )


def _table_lines(header: str | None, prefix: str, columns):
    """A CSV file's lines, yielded one at a time: ``header``, unless it is
    None, then one line per row, ``prefix`` followed by the comma-joined
    items of the equal-length ``columns``."""
    if header is not None:
        yield header
    for row in zip(*map(_cells, columns)):
        yield prefix + ",".join(row)


def _cpi_lines(policy: str, seed: int, track: int, record: TrackResult, sinr_db, outage):
    """The per-CPI file's lines of one track's record, with its derived
    ``sinr_db`` and ``outage`` columns, yielded one at a time: the file's
    header before track 0's rows."""
    columns = (
        map(str, range(record.loss.size)), record.state, record.obs, record.waveform,
        sinr_db, record.loss, record.oracle_loss, record.regret_inc, record.suboptimal, outage,
    )
    header = PER_CPI_HEADER if track == 0 else None
    return _table_lines(header, f"{policy},{seed},{track},", columns)


def _track_lines(summary: RunSummary):
    """The per-track file's lines of one replicate's summary, yielded one at
    a time."""
    columns = (
        np.arange(summary.cum_regret.size), summary.cum_regret, summary.mean_loss,
        summary.outage_freq, summary.subopt_freq, summary.kl_to_truth,
    )
    return _table_lines(PER_TRACK_HEADER, f"{summary.policy},{summary.seed},", columns)


def cpi_csv_path(out_dir: str, policy: str, seed: int) -> str:
    return os.path.join(out_dir, f"cpi_{policy}_seed{seed}.csv")


def track_csv_path(out_dir: str, policy: str, seed: int) -> str:
    return os.path.join(out_dir, f"track_{policy}_seed{seed}.csv")


def run_block(config: ExperimentConfig, policies: tuple, seed: int) -> list[RunSummary]:
    """Execute the seed block of ``policies`` under ``seed`` and persist each
    replicate's two CSV files; returns each replicate's per-track summary,
    in the order of ``policies``.

    Each track's rows go to its replicate's temporary per-CPI file as
    ``run_meta_experiment`` yields it, and its record is then dropped. The
    files replace their targets only once every track has run and every
    summary is finite; otherwise the block leaves no file. A replicate's
    wall time runs from the block's start to the write of its track file,
    and its CSVs are byte-identical across repeated calls and across
    blocks. A seed or policy the config does not list, or a policy listed
    twice, raises a ``ValidationError`` naming ``seeds`` or ``policies``.
    """
    for policy in policies:
        if policy not in config.policies:
            raise ValidationError("policies", f"{policy!r} is not listed")
    if len(set(policies)) != len(policies):
        raise ValidationError("policies", "a policy is listed more than once")
    if not _accepts(int, seed) or seed not in config.seeds:
        raise ValidationError("seeds", f"{seed!r} is not listed")
    started = time.perf_counter()
    mu_star, state_proc = build_scene(config, seed)
    # per policy: its summary columns as the rows of a (5, m) table, holding
    # per-track sums until the block's end, and its last belief with that
    # belief's KL, so each distinct belief's KL is taken once as it arrives:
    # meta-ts's after every track, the flat one once for the block
    tables = {policy: np.zeros((5, config.m)) for policy in policies}
    last = {}
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {config.out_dir}: {exc}") from exc
    paths = [cpi_csv_path(config.out_dir, p, seed) for p in policies]
    paths += [track_csv_path(config.out_dir, p, seed) for p in policies]
    with _staged(paths) as files:
        cpi_files = dict(zip(policies, files))
        for policy, t, result, mp in run_meta_experiment(
            config, mu_star, state_proc, policies, seed
        ):
            record = track_record(result)
            sinr_db = sinr_to_db(record.sinr)
            outage = sinr_db < OUTAGE_DB
            _write_lines(cpi_files[policy], _cpi_lines(policy, seed, t, record, sinr_db, outage))
            columns = (record.regret_inc, record.loss, outage, record.suboptimal)
            tables[policy][:4, t] = [column.sum() for column in columns]
            # The oracle is handed the true prior; its divergence from truth
            # is zero by construction rather than via a belief update, so its
            # KL row keeps its zeros.
            if policy != "ts-oracle":
                kl = next((kl for belief, kl in last.values() if belief is mp), None)
                last[policy] = mp, kl_trace((mp,), mu_star)[0] if kl is None else kl
                tables[policy][4, t] = last[policy][1]
        for policy, table in tables.items():
            table[1:4] /= config.n  # mean loss and the two frequencies
            # read_track_table refuses a non-finite value, so no file is written
            for column, values in zip(PER_TRACK_HEADER.split(",")[3:], table):
                if not np.all(np.isfinite(values)):
                    raise InvalidInput(f"{column} of {policy} seed {seed} is not finite")
        summaries = [RunSummary(p, seed, *tables[p], wall_time_ms=0.0) for p in policies]
        for summary, fh in zip(summaries, files[len(policies) :]):
            _write_lines(fh, _track_lines(summary))
            summary.wall_time_ms = (time.perf_counter() - started) * 1e3
    return summaries


def run(config: ExperimentConfig, policy: str, seed: int) -> RunSummary:
    """Execute one replicate, the seed block of one (see ``run_block``)."""
    return run_block(config, (policy,), seed)[0]


def worker_count(n_jobs: int) -> int:
    """Worker processes for n_jobs seed blocks: ``WAVESEL_WORKERS`` (default
    1), clamped to [1, min(n_jobs, os.cpu_count())]."""
    raw = os.environ.get("WAVESEL_WORKERS", "1")
    try:
        requested = int(raw)
    except ValueError:
        raise InvalidInput(f"WAVESEL_WORKERS must be an integer, got {raw!r}") from None
    return max(1, min(requested, n_jobs, os.cpu_count() or 1))


def run_experiment(config: ExperimentConfig) -> list:
    """Run one seed block per seed; returns the summaries, in canonical
    (policy, seed) order independent of the worker count."""
    policies = tuple(sorted(config.policies, key=policy_index))
    workers = worker_count(len(config.seeds))
    if workers == 1:
        blocks = [run_block(config, policies, seed) for seed in config.seeds]
    else:
        # imported here: the pool's module adds about 2 MB to a serial process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run_block, repeat(config), repeat(policies), config.seeds))
    return [summary for per_policy in zip(*blocks) for summary in per_policy]


# ---------------------------------------------------------------------------
# aggregation


def read_track_table(path: str) -> list:
    """Parse one per-track summary CSV back into row dicts. A row whose
    policy is unknown, whose seed lies outside [0, ``MAX_SEED``), whose
    track is negative or whose mean loss or frequency lies outside [0, 1]
    raises an ``IoError`` naming the file and the row."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        in_range = {
            "policy": row["policy"] in POLICIES,
            "seed": 0 <= seed < MAX_SEED,
            "track": track >= 0,
            **{c: 0.0 <= row[c] <= 1.0 for c in ("mean_loss", "outage_freq", "subopt_freq")},
        }
        bad = [name for name, ok in in_range.items() if not ok]
        if bad:
            raise IoError(f"{path}: {bad[0]} out of range in row {line!r}")
        rows.append(row)
    return rows


def aggregate(rows: list) -> dict:
    """Collapse per-track rows into per-policy mean and standard-error curves.

    For each policy and metric the (seeds, tracks) block of the metric's
    column is first transformed along the track axis to the reported form
    (cumulative regret, running-mean frequencies, raw KL), then averaged
    across seeds per track index. Standard error uses the n-1
    normalization and is 0 for a single seed.
    """
    if not rows:
        raise EmptyInput("no summary rows to aggregate")
    by_policy: dict = {}
    for row in rows:
        by_policy.setdefault(row["policy"], {}).setdefault(row["seed"], []).append(row)
    out: dict = {metric: [] for metric in AGG_METRICS}
    for policy in sorted(by_policy, key=policy_index):
        seeds = by_policy[policy]
        # (seeds, tracks) rows, seeds in ascending order
        block = [sorted(seeds[seed], key=lambda r: r["track"]) for seed in sorted(seeds)]
        for seed, seed_rows in zip(sorted(seeds), block):
            if [r["track"] for r in seed_rows] != list(range(len(seed_rows))):
                raise InvalidInput(
                    f"track indices of {policy} seed {seed} are not contiguous"
                )
        m = len(block[0])
        if any(len(seed_rows) != m for seed_rows in block):
            raise InvalidInput(f"seeds of {policy} disagree on track count")
        for metric, (column, transform) in AGG_METRICS.items():
            stacked = transform(np.array([[r[column] for r in b] for b in block]))
            mean = stacked.mean(axis=0)
            if len(block) >= 2:
                stderr = stacked.std(axis=0, ddof=1) / np.sqrt(len(block))
            else:
                stderr = np.zeros(m)
            out[metric].extend(zip([policy] * m, range(m), mean.tolist(), stderr.tolist()))
    return out


def write_aggregates(tables: dict, out_dir: str) -> list:
    """Write one agg_<metric>.csv per metric, all of them or none; returns
    the paths written."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    paths = [os.path.join(out_dir, f"agg_{metric}.csv") for metric in AGG_METRICS]
    with _staged(paths) as files:
        for metric, fh in zip(AGG_METRICS, files):
            policy, track, mean, stderr = zip(*tables[metric])
            columns = (policy, np.array(track), np.array(mean), np.array(stderr))
            _write_lines(fh, _table_lines(AGG_HEADER, "", columns))
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
