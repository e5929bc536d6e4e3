"""Span tracing of wavesel from outside the package.

The tracer replaces module attributes with timing wrappers, so every span is
recorded at a call into one of the package's modules without editing the
package. A wrapper has to sit in the namespace the caller looks the name up
in: ``meta`` imports ``run_track`` directly, so ``wavesel.meta.run_track`` is
wrapped rather than ``wavesel.bandit.run_track``. Methods are wrapped on
their class.

Spans stay in memory as flat arrays (name, parent, start, end) and are only
reduced after the traced passes end. A span's self time is its duration
minus the durations of its direct children; spans nest strictly because the
program is single-threaded, so the children never overlap.
"""

import functools
import time
from array import array
from collections import Counter

import numpy as np

#: Standard percentiles, highest first; a timing reports the highest one that
#: leaves at least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
TAIL_BEYOND = 10

MODULES = ("gaussmath", "waveforms", "fstc", "bandit", "meta", "metrics", "harness")

# (metric name, span name, scale to the unit, unit, statistic)
# statistic: "incl" is the span's whole duration per call, "self" its self
# time per call, "per_replicate" the sum of the span's durations under each
# ``harness.run`` span.
TIMINGS = (
    ("gaussmath.posterior_gaussian.us", "gaussmath.posterior_gaussian", 1e6, "us", "incl"),
    ("gaussmath.sample_gaussian.us", "gaussmath.sample_gaussian", 1e6, "us", "incl"),
    ("gaussmath.blr_update.us", "gaussmath.blr_update", 1e6, "us", "incl"),
    ("bandit.run_track.self_s", "bandit.run_track", 1.0, "s", "self"),
    ("bandit.agent_contexts.us", "bandit.agent_contexts", 1e6, "us", "incl"),
    ("bandit.record.us", "bandit.record", 1e6, "us", "incl"),
    ("bandit.pick_argmax.us", "bandit.pick_argmax", 1e6, "us", "incl"),
    ("fstc.step_scene.us", "fstc.step_scene", 1e6, "us", "incl"),
    ("fstc.draw_instance.ms", "fstc.draw_instance", 1e3, "ms", "incl"),
    ("fstc.TrackSimulator.init_ms", "fstc.TrackSimulator.init", 1e3, "ms", "incl"),
    ("fstc.TrackSimulator.expected_losses.us", "fstc.TrackSimulator.expected_losses", 1e6, "us", "incl"),
    ("fstc.TrackSimulator.step.us", "fstc.TrackSimulator.step", 1e6, "us", "incl"),
    ("waveforms.matched_filter.us", "waveforms.matched_filter", 1e6, "us", "incl"),
    ("waveforms.default_catalog.ms", "waveforms.default_catalog", 1e3, "ms", "incl"),
    ("meta.meta_update.ms", "meta.meta_update", 1e3, "ms", "incl"),
    ("meta.sample_instance_prior.us", "meta.sample_instance_prior", 1e6, "us", "incl"),
    ("metrics.track_record.us", "metrics.track_record", 1e6, "us", "incl"),
    ("metrics.kl_trace.ms", "metrics.kl_trace", 1e3, "ms", "incl"),
    ("harness.run.s", "harness.run", 1.0, "s", "incl"),
    ("harness.csv_write.ms", "harness.csv_write", 1e3, "ms", "per_replicate"),
    ("harness.aggregate_directory.ms", "harness.aggregate_directory", 1e3, "ms", "incl"),
)

# Calls counted per traced pass: (metric name, span or counter name).
CALLS = (
    ("gaussmath.kl_gaussian.calls", "gaussmath.kl_gaussian"),
    ("waveforms.matched_filter.calls", "waveforms.matched_filter"),
    ("meta.meta_update.calls", "meta.meta_update"),
)


def _wrap_points(wavesel):
    """(owner, attribute, span name) for every traced call site."""
    harness, meta, bandit, fstc, metrics = (
        wavesel.harness, wavesel.meta, wavesel.bandit, wavesel.fstc, wavesel.metrics
    )
    return (
        (harness, "run", "harness.run"),
        (harness, "aggregate_directory", "harness.aggregate_directory"),
        (harness, "_cpi_lines", "harness.csv_write"),
        (harness, "_track_lines", "harness.csv_write"),
        (harness, "_write_lines", "harness.csv_write"),
        (harness, "run_meta_experiment", "meta.run_meta_experiment"),
        (harness, "track_record", "metrics.track_record"),
        (harness, "kl_trace", "metrics.kl_trace"),
        (metrics, "kl_gaussian", "gaussmath.kl_gaussian"),
        (meta, "run_track", "bandit.run_track"),
        (meta, "meta_update", "meta.meta_update"),
        (meta, "sample_instance_prior", "meta.sample_instance_prior"),
        (meta, "draw_instance", "fstc.draw_instance"),
        (meta, "default_catalog", "waveforms.default_catalog"),
        (fstc.TrackSimulator, "__init__", "fstc.TrackSimulator.init"),
        (fstc.TrackSimulator, "expected_losses", "fstc.TrackSimulator.expected_losses"),
        (fstc.TrackSimulator, "step", "fstc.TrackSimulator.step"),
        (fstc, "matched_filter", "waveforms.matched_filter"),
        # step_state plus observe: the scene walk, on either environment
        (bandit.SyntheticTrackEnv, "step_scene", "fstc.step_scene"),
        (fstc.PhysicalTrackEnv, "step_scene", "fstc.step_scene"),
        (bandit, "agent_contexts", "bandit.agent_contexts"),
        (bandit, "pick_argmax", "bandit.pick_argmax"),
        (bandit, "record", "bandit.record"),
        (bandit, "posterior_gaussian", "gaussmath.posterior_gaussian"),
        (bandit, "sample_gaussian", "gaussmath.sample_gaussian"),
        (bandit, "blr_update", "gaussmath.blr_update"),
    )


class Tracer:
    """Records spans and counts at wavesel call sites while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches = []
        self._reduced = None

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _patch(self, owner, attr, wrapper, original):
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so every call records one span."""
        original = getattr(owner, attr)
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        self._patch(owner, attr, wrapper, original)

    def count(self, owner, attr: str, name: str, weight=None) -> None:
        """Wrap ``owner.attr`` so every call adds 1, or ``weight(*args)``,
        to ``counts[name]``."""
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1 if weight is None else weight(*args, **kwargs)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper, original)

    def install(self, wavesel) -> None:
        for owner, attr, name in _wrap_points(wavesel):
            self.span(owner, attr, name)
        for owner in (wavesel.gaussmath, wavesel.meta):
            self.count(owner, "cholesky", "gaussmath.cholesky")
        self.count(
            wavesel.meta, "meta_update", "meta.meta_update.bytes_computed",
            weight=lambda mp, data: 8 * len(data) ** 2,
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reduction

    def arrays(self):
        """(name ids, parents, durations, self times) as numpy arrays."""
        if self._reduced is None or self._reduced[0].size != len(self.name_id):
            ids = np.array(self.name_id, dtype=np.int32)
            parent = np.array(self.parent, dtype=np.int32)
            dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
            nested = parent >= 0
            child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
            self._reduced = (ids, parent, dur, dur - child)
        return self._reduced

    def samples(self, span_name: str, statistic: str) -> np.ndarray:
        ids, parent, dur, self_time = self.arrays()
        if span_name not in self._name_ids:
            return np.empty(0)
        mine = ids == self._name_ids[span_name]
        if statistic == "incl":
            return dur[mine]
        if statistic == "self":
            return self_time[mine]
        # per_replicate: sum under each harness.run span
        run_id = self._name_ids.get("harness.run", -1)
        under_run = mine & (parent >= 0)
        under_run[under_run] = ids[parent[under_run]] == run_id
        runs, per_run = np.unique(parent[under_run], return_inverse=True)
        return np.bincount(per_run, weights=dur[under_run], minlength=runs.size)

    def calls(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            return 0
        return int(np.count_nonzero(self.arrays()[0] == self._name_ids[span_name]))

    def module_self_seconds(self) -> dict:
        ids, _, _, self_time = self.arrays()
        per_name = np.bincount(ids, weights=self_time, minlength=len(self.names))
        out = dict.fromkeys(MODULES, 0.0)
        for name, seconds in zip(self.names, per_name):
            out[name.split(".", 1)[0]] += float(seconds)
        return out


def tail_percentile(n: int) -> float:
    """Highest of ``TAIL_LADDER`` with at least ``TAIL_BEYOND`` of ``n``
    samples beyond it; 50 (the median) when there are too few samples."""
    return next(
        (p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9), 50.0
    )


def summarize(samples: np.ndarray) -> tuple[float, float, int]:
    """(median, tail value at ``tail_percentile``, sample count); zeros when
    there are no samples."""
    n = int(samples.size)
    if n == 0:
        return 0.0, 0.0, 0
    median, tail = np.percentile(samples, [50.0, tail_percentile(n)])
    return float(median), float(tail), n


def layer_metrics(tracer: Tracer, passes: int, cpis: int, wall_s: float) -> dict:
    """Per-layer metrics of ``passes`` traced passes that simulated ``cpis``
    CPIs in ``wall_s`` seconds: {name: (value, unit)}."""
    out = {}
    for name, span_name, scale, unit, statistic in TIMINGS:
        median, tail, n = summarize(tracer.samples(span_name, statistic))
        out[name] = (median * scale, unit)
        out[name + ".tail"] = (tail * scale, unit)
        out[name + ".n"] = (n, "count")
    for name, span_name in CALLS:
        out[name] = (tracer.calls(span_name) / passes, "count")
    out["gaussmath.cholesky.per_cpi"] = (tracer.counts["gaussmath.cholesky"] / cpis, "count")
    updates = tracer.calls("meta.meta_update")
    out["meta.meta_update.bytes_computed"] = (
        tracer.counts["meta.meta_update.bytes_computed"] / updates if updates else 0.0,
        "B",
    )
    for module, seconds in tracer.module_self_seconds().items():
        out[module + ".share"] = (seconds / wall_s, "ratio")
    return out


def prediction(workload: str, predicted: tuple, metrics: dict) -> str:
    """One line saying whether the ``predicted`` modules took more than half
    of the traced wall time, with the largest other module for contrast."""
    shares = {m: metrics[m + ".share"][0] for m in MODULES}
    share = sum(shares[m] for m in predicted)
    others = {m: s for m, s in shares.items() if m not in predicted}
    top = max(others, key=others.get)
    verdict = "met" if share > 0.5 else "NOT MET"
    return (
        f"prediction: {'+'.join(predicted)} take over half of {workload} traced "
        f"wall time: {verdict} (share {share:.3f}; largest other module {top} "
        f"{others[top]:.3f})"
    )
