"""wavesel benchmark: named workloads run through the public harness API.

Usage (from the repository root):

    python3 bench/run.py --workload synthetic-sweep --seed 0 --seconds 15 --trace 0

One run times the package's set-up in fresh interpreters, then runs the
workload's replicates serially with ``wavesel.harness.run`` followed by
``aggregate_directory``, as timed passes, until ``--seconds`` of calls have
been measured. With ``--trace 0`` the checkout's package and a frozen copy
of it (``bench/baseline``) run in two like worker processes, and each call
goes to one and then the other; set-up is timed for both copies too. The
end-to-end metrics are built on the ratios of the two, which cancel the
host's drifting speed. Every replicate's CSVs are checked, and a second
run of the same replicate must give identical bytes. The last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, both in this process,
and it holds the per-layer metrics instead. ``bench/README.md``
lists every metric.

The process exits with code 2 and prints no result when the package sources
are missing, set-up fails or the baseline cannot run.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import worker

# numpy is imported inside functions only: OpenBLAS reads its thread count
# at import, and configure_env must set it first.

BENCH_DIR = Path(__file__).resolve().parent
SRC = worker.PACKAGES["checkout"]
OUT = BENCH_DIR / "out"

#: Set-up is timed this many times per run for each copy of the package,
#: each time in a fresh interpreter, alternating the copies.
SETUP_PAIRS = 4
PROBE_TIMEOUT_S = 120

#: A regret increment below this is a check failure (the program's own
#: tolerance for round-off in the expected-loss gap).
REGRET_FLOOR = -1e-12

POLICIES = ("random", "ts-uninformative", "ts-oracle", "meta-ts")


@dataclass(frozen=True)
class Workload:
    mode: str
    policies: tuple
    m: int
    n: int
    #: modules whose self time should exceed half the traced wall time
    predicted: tuple
    #: throughput and set-up time of the frozen baseline on the reference
    #: host (see bench/README.md); they turn the ratios to the baseline
    #: into CPIs per second and seconds
    nominal_cpi_per_s: float = 1.0
    nominal_setup_s: float = 1.0


# Why these three: the synthetic sweep is the default study's hot path
# (per-CPI Python around 3x3 algebra in gaussmath and bandit); the physical
# sweep adds the channel simulator and matched filtering, so fstc and
# waveforms dominate while the bandit path is the same; the long track is
# the only workload dominated by an O(n^3) layer, the n x n meta update.
# A pass takes one to two seconds per copy, so a run holds several
# identical passes and reports medians over them: on a shared host the
# speed of the same code varies from second to second, and a median over
# many short passes resists a slow burst better than a few long ones.
WORKLOADS = {
    "synthetic-sweep": Workload("synthetic", POLICIES, 5, 200, ("gaussmath", "bandit"),
                                4700.0, 1.6),
    "physical-sweep": Workload("physical", POLICIES, 3, 200, ("fstc", "waveforms"),
                               2000.0, 1.7),
    "long-track": Workload("synthetic", ("meta-ts",), 1, 2500, ("meta",),
                           1500.0, 1.6),
}

WORKER_EXIT_TIMEOUT_S = 60

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpi_per_s_calibrated": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Pass:
    """One timed run of a workload's replicates (and its aggregate step)."""

    label: str
    #: summed time of the timed calls
    wall_s: float
    traced: bool
    operations: int = 0
    failures: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    csv_bytes: int = 0
    #: seconds of each timed call, by operation
    call_s: dict = field(default_factory=dict)
    #: seconds of the same call made by the frozen baseline
    baseline_s: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# environment


def configure_env() -> int:
    """One busy thread at a time: no wavesel worker pool, one BLAS thread.

    A second BLAS thread busy-waits between calls and competes for the
    host's cores, which makes the timing less steady. The worker processes
    inherit these settings. Must run before numpy is imported. Returns nproc.
    """
    os.environ.pop("WAVESEL_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_wavesel():
    """Import the package from this checkout's sources, and nowhere else."""
    if not (SRC / "wavesel" / "__init__.py").is_file():
        raise BenchError(f"no wavesel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wavesel
    import wavesel.harness

    if Path(wavesel.__file__).resolve().parent != SRC / "wavesel":
        raise BenchError(f"imported wavesel from {wavesel.__file__}, not {SRC}")
    return wavesel


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy bundles, if found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def machine_facts(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# the two copies of the package


class Worker:
    """One copy of the package in a worker process (bench/worker.py) that
    answers one call at a time. ``package`` is ``checkout`` or ``baseline``."""

    def __init__(self, package: str):
        self.package = package
        self.peak_rss_mb = 0.0
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), package],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def wait_ready(self) -> None:
        """Wait until the worker has imported its package."""
        self._read()

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError(f"the {self.package} worker ended early")
        return json.loads(line)

    def call(self, request: dict):
        """(seconds, error text or None) of one request."""
        try:
            self._proc.stdin.write(json.dumps(request) + "\n")
            self._proc.stdin.flush()
        except OSError as exc:
            raise BenchError(f"the {self.package} worker is gone: {exc}") from exc
        reply = self._read()
        self.peak_rss_mb = reply["peak_rss_mb"]
        return reply["seconds"], reply["error"]

    def close(self) -> None:
        """Close its input, which ends it, and wait for it to exit."""
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=WORKER_EXIT_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()


class InProcess:
    """Runs requests with the package imported in this process, where the
    tracer can wrap it."""

    def __init__(self, harness):
        self._harness = harness

    def call(self, request: dict):
        return worker.perform(self._harness, request)


# ---------------------------------------------------------------------------
# running


def config_text(wl: Workload, seed: int, out_dir: Path) -> str:
    return (
        f"mode = {wl.mode}\nm = {wl.m}\nn = {wl.n}\nseeds = {seed}\n"
        f"policies = {','.join(wl.policies)}\nout_dir = {out_dir}\n"
    )


def time_setup(text: str) -> list:
    """Set-up reports of ``SETUP_PAIRS`` fresh interpreters for each copy of
    the package, alternating which goes first; ``setup_s`` is from process
    start to the end of set-up."""
    reports = []
    for i in range(SETUP_PAIRS):
        for package in ("checkout", "baseline")[:: 1 if i % 2 == 0 else -1]:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), package, text],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise BenchError(f"{package} set-up probe failed:\n{proc.stderr}")
            report = json.loads(proc.stdout.splitlines()[-1])
            report["setup_s"] = report.pop("done") - started
            report["package"] = package
            reports.append(report)
    return reports


def median_of(reports, key: str, package: str) -> float:
    return statistics.median(r[key] for r in reports if r["package"] == package)


def request(wl: Workload, seed: int, out_dir: Path, policy) -> dict:
    """The worker request for one replicate, or for the aggregate step of
    ``out_dir`` when ``policy`` is None."""
    if policy is None:
        return {"call": "aggregate", "in_dir": str(out_dir), "out_dir": str(out_dir / "agg")}
    return {"call": "run", "config": config_text(wl, seed, out_dir), "policy": policy, "seed": seed}


def run_pass(live, baseline, wl, seed, out_dir: Path, replicates, *, aggregate: bool,
             traced: bool, baseline_first: bool = False) -> Pass:
    """Run ``replicates`` and, if asked, the aggregate step with ``live``;
    only these calls are timed. Unless ``baseline`` is None, it makes each
    call too, right before or after ``live``, writing under
    ``<out_dir>-baseline``. An operation that raises is recorded, and the
    pass goes on."""
    base_dir = out_dir.with_name(out_dir.name + "-baseline")
    ops = [(f"{policy} seed {s}", policy, s) for policy, s in replicates]
    if aggregate:
        ops.append(("aggregate", None, seed))
    p = Pass(out_dir.name, 0.0, traced, len(ops))
    sides = [(live, out_dir, p.call_s)]
    if baseline is not None:
        sides.insert(0 if baseline_first else 1, (baseline, base_dir, p.baseline_s))
    for op, policy, s in ops:
        for runner, directory, times in sides:
            times[op], error = runner.call(request(wl, s, directory, policy))
            if error is None:
                continue
            if runner is baseline:
                raise BenchError(f"the baseline failed on {op}:\n{error}")
            p.failures[op] = error
    p.wall_s = sum(p.call_s.values())
    shutil.rmtree(base_dir, ignore_errors=True)
    return p


# ---------------------------------------------------------------------------
# output checks


def read_table(path: Path, header: str):
    """(column index by name, numeric columns as a float array) of a CSV
    whose first column is the policy name."""
    import numpy as np

    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(names) for r in rows):
        raise ValueError(f"{path.name}: a row does not have {len(names)} fields")
    values = np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), len(names) - 1)
    return {name: i - 1 for i, name in enumerate(names) if i}, values


def check_replicate(harness, out_dir: Path, policy: str, seed: int, wl: Workload) -> list:
    """Problems with one replicate's two CSVs; empty when they pass."""
    import numpy as np

    problems = []
    cpi_path = Path(harness.cpi_csv_path(str(out_dir), policy, seed))
    track_path = Path(harness.track_csv_path(str(out_dir), policy, seed))
    for path, header, rows in (
        (cpi_path, harness.PER_CPI_HEADER, wl.m * wl.n),
        (track_path, harness.PER_TRACK_HEADER, wl.m),
    ):
        try:
            cols, values = read_table(path, header)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        if values.shape[0] != rows:
            problems.append(f"{path.name}: {values.shape[0]} rows, expected {rows}")
        if not np.all(np.isfinite(values)):
            problems.append(f"{path.name}: non-finite values")
        if path == cpi_path:
            loss = values[:, cols["loss"]]
            if np.any((loss < 0.0) | (loss > 1.0)):
                problems.append(f"{path.name}: loss outside [0, 1]")
            if np.any(values[:, cols["regret_inc"]] < REGRET_FLOOR):
                problems.append(f"{path.name}: regret_inc below {REGRET_FLOOR}")
    return problems


def check_aggregates(harness, out_dir: Path, wl: Workload) -> list:
    import numpy as np

    problems = []
    for metric in harness.AGG_METRICS:
        path = out_dir / "agg" / f"agg_{metric}.csv"
        try:
            _, values = read_table(path, harness.AGG_HEADER)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        if values.shape[0] != len(wl.policies) * wl.m:
            problems.append(f"{path.name}: {values.shape[0]} rows")
        if not np.all(np.isfinite(values)):
            problems.append(f"{path.name}: non-finite values")
    return problems


def hash_outputs(p: Pass, out_dir: Path) -> None:
    for path in sorted(out_dir.rglob("*.csv")):
        data = path.read_bytes()
        p.hashes[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
        p.csv_bytes += len(data)


def check_pass(harness, p: Pass, out_dir: Path, wl: Workload, replicates, reference) -> None:
    """Check every output of a pass, and that its bytes equal ``reference``'s."""
    hash_outputs(p, out_dir)
    for policy, seed in replicates:
        op = f"{policy} seed {seed}"
        if op in p.failures:
            continue
        problems = check_replicate(harness, out_dir, policy, seed, wl)
        if reference is not None:
            for path in (harness.cpi_csv_path("", policy, seed), harness.track_csv_path("", policy, seed)):
                if p.hashes.get(path) != reference.hashes.get(path):
                    problems.append(f"{path}: bytes differ from {reference.label}")
        if problems:
            p.failures[op] = "; ".join(problems)
    if p.operations > len(replicates) and "aggregate" not in p.failures:
        problems = check_aggregates(harness, out_dir, wl)
        if reference is not None:
            for path, digest in p.hashes.items():
                if path.startswith("agg") and reference.hashes.get(path) != digest:
                    problems.append(f"{path}: bytes differ from {reference.label}")
        if problems:
            p.failures["aggregate"] = "; ".join(problems)


def quality(harness, out_dir: Path, wl: Workload, seed: int) -> dict:
    """Result-quality figures from the track CSVs; deterministic per seed."""
    rows = {
        policy: harness.read_track_table(harness.track_csv_path(str(out_dir), policy, seed))
        for policy in ("ts-oracle", "meta-ts") if policy in wl.policies
    }
    out = {}
    if len(rows) == 2:
        oracle = sum(r["cum_regret"] for r in rows["ts-oracle"])
        if oracle > 0.0:
            meta = sum(r["cum_regret"] for r in rows["meta-ts"])
            out["meta_regret_ratio"] = (meta / oracle, "ratio")
    if "meta-ts" in rows:
        out["kl_final"] = (rows["meta-ts"][-1]["kl_to_truth"], "nats")
    return out


# ---------------------------------------------------------------------------
# main


def run_passes(harness, live, baseline, wl, seed, workdir, replicates, seconds, passes,
               tracer=None, package=None) -> None:
    """Append passes to ``passes`` until ``seconds`` of them, the baseline's
    calls included, are measured. Every other pass the baseline goes first.
    With a tracer, passes come in pairs, the second traced with ``tracer``
    installed on ``package``. Each pass is checked, and compared byte for
    byte with the first."""
    measured = 0.0
    while True:
        for traced in (False, True) if tracer is not None else (False,):
            out_dir = workdir / f"pass{len(passes)}"
            if traced:
                tracer.install(package)
            try:
                p = run_pass(live, baseline, wl, seed, out_dir, replicates, aggregate=True,
                             traced=traced, baseline_first=len(passes) % 2 == 1)
            finally:
                if traced:
                    tracer.uninstall()
            check_pass(harness, p, out_dir, wl, replicates, passes[0] if passes else None)
            passes.append(p)
            measured += p.wall_s + sum(p.baseline_s.values())
        if measured >= seconds:
            return


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--m", type=int, help="override the track count (smoke tests)")
    parser.add_argument("--n", type=int, help="override the CPIs per track (smoke tests)")
    return parser.parse_args(argv)


def print_report(args, wl, facts, checked, result, digest, quality_figures, speed, metrics, tracing):
    attempted, failed = result["attempted"], result["failed"]
    replicates = len(wl.policies)
    print(f"workload {args.workload}: seed {args.seed}, trace {args.trace}, {replicates} "
          f"replicates of m={wl.m} n={wl.n} ({wl.mode}), {replicates * wl.m * wl.n} CPIs per pass")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    print("passes: " + ", ".join(
        f"{p.label}{' traced' if p.traced else ''} {p.wall_s:.3f} s" for p in checked))
    print(f"checks: {attempted} operations checked, {failed} failed")
    for p in checked:
        for op, reason in p.failures.items():
            print(f"  FAILED {p.label} {op}: {reason.strip().splitlines()[-1]}")
    print(f"error_frac = {failed / attempted} ({failed} of {attempted})")
    print(f"csv_sha256 = {digest}")
    for name, (value, unit) in quality_figures.items():
        print(f"{name} = {value:.6g} {unit} (lower is better; quality, deterministic per seed)")
    for name, (value, unit, note) in speed.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    if args.trace:
        print(tracing.prediction(args.workload, wl.predicted, metrics))
    for name, (value, unit) in metrics.items():
        note = ""
        if name in END_TO_END:
            note = f" ({END_TO_END[name][1]} is better)"
        elif name.endswith(".tail"):
            n = metrics[name[: -len(".tail")] + ".n"][0]
            note = f" (p{tracing.tail_percentile(n):g} of {n})"
        print(f"{name} = {value:.6g} {unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    wl = replace(wl, m=args.m or wl.m, n=args.n or wl.n)
    nproc = configure_env()
    try:
        wavesel = import_wavesel()
        import tracing

        harness = wavesel.harness
        workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        probes = time_setup(config_text(wl, args.seed, workdir))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    replicates = [(p, args.seed) for p in wl.policies]
    cpis = len(replicates) * wl.m * wl.n
    passes: list[Pass] = []
    here = InProcess(harness)
    peak_rss_mb = None
    if args.trace:
        # per-layer metrics only, all in this process: untraced and traced
        # passes alternate, so that both see the same host speed
        tracer = tracing.Tracer()
        run_passes(harness, here, None, wl, args.seed, workdir, replicates, 2 * args.seconds,
                   passes, tracer, wavesel)
    else:
        # end-to-end metrics: the checkout and the baseline in like workers
        workers = []
        try:
            for package in ("checkout", "baseline"):
                workers.append(Worker(package))
            for w in workers:
                w.wait_ready()
            run_passes(harness, *workers, wl, args.seed, workdir, replicates, args.seconds,
                       passes)
        except (BenchError, OSError) as exc:
            print(f"benchmark cannot run: {exc}", file=sys.stderr)
            return 2
        finally:
            for w in workers:
                w.close()
        peak_rss_mb = workers[0].peak_rss_mb
    untraced = [p for p in passes if not p.traced]
    checked = list(passes)
    if len(passes) == 1:
        # the byte-identity check needs a second run: the first replicate
        # once more, outside the timed passes
        rerun = run_pass(here, None, wl, args.seed, workdir / "rerun", replicates[:1],
                         aggregate=False, traced=False)
        check_pass(harness, rerun, workdir / "rerun", wl, replicates[:1], passes[0])
        checked.append(rerun)

    quality_figures = {}
    if not passes[0].failures:
        quality_figures = quality(harness, workdir / "pass0", wl, args.seed)
    digest = hashlib.sha256(
        "".join(f"{k}\0{v}\n" for k, v in sorted(passes[0].hashes.items())).encode()
    ).hexdigest()

    pass_s = statistics.median(p.wall_s for p in untraced)
    speed = {"cpi_per_s": (cpis / pass_s, "1/s", "measured on this host, not calibrated")}
    setup_s = median_of(probes, "setup_s", "checkout")
    setup_ratio = setup_s / median_of(probes, "setup_s", "baseline")
    speed["setup_s_measured"] = (setup_s, "s", "measured on this host, not calibrated")
    speed["setup_vs_baseline"] = (setup_ratio, "ratio", "checkout set-up time over the baseline's")
    if args.trace:
        traced = [p.wall_s for p in passes if p.traced]
        metrics = tracing.layer_metrics(tracer, len(traced), cpis * len(traced), sum(traced))
        metrics["setup.import_s"] = (median_of(probes, "import_s", "checkout"), "s")
        metrics["harness.csv_bytes"] = (passes[0].csv_bytes, "B")
        overhead = statistics.median(traced) - pass_s
        metrics["trace.untraced_pass_s"] = (pass_s, "s")
        metrics["trace.traced_pass_s"] = (statistics.median(traced), "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / pass_s, "ratio")
    else:
        speedup = statistics.median(sum(p.baseline_s.values()) / p.wall_s for p in untraced)
        speed["speedup_vs_baseline"] = (speedup, "ratio", "baseline pass time over the "
                                        "checkout's, median over the passes")
        metrics = {
            "setup_s": (wl.nominal_setup_s * setup_ratio, "s"),
            "cpi_per_s_calibrated": (wl.nominal_cpi_per_s * speedup, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = sum(p.operations for p in checked)
    failed = sum(len(p.failures) for p in checked)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    facts = machine_facts(nproc)
    print_report(args, wl, facts, checked, result, digest, quality_figures, speed, metrics,
                 tracing)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workload_size": {"mode": wl.mode, "m": wl.m, "n": wl.n, "replicates": replicates},
        "machine": facts,
        "setup_probes": probes,
        "passes": [{"label": p.label, "traced": p.traced, "wall_s": p.wall_s,
                    "call_s": p.call_s, "baseline_s": p.baseline_s, "operations": p.operations,
                    "failures": p.failures} for p in checked],
        "speed": {k: {"value": v, "unit": u} for k, (v, u, _) in speed.items()},
        "error_frac": failed / attempted,
        "csv_sha256": digest,
        "csv_files": passes[0].hashes,
        "quality": {k: {"value": v, "unit": u} for k, (v, u) in quality_figures.items()},
        "result": result,
    }
    for p in checked:
        shutil.rmtree(workdir / p.label, ignore_errors=True)
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
