"""The benchmark's tracer wraps package call sites by name; a renamed or
bypassed hook would otherwise surface only in the benchmark's trace run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import wavesel
from wavesel import harness

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: The track posterior's spans: built once per track, updated per CPI.
LEARNER_SPANS = ("posterior_gaussian", "blr_update")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("wavesel_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves(tracing):
    points = tracing._wrap_points(wavesel)
    assert points
    for owner, attr, _ in points:
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr}"
    for owner in (wavesel.gaussmath, wavesel.meta):
        assert callable(getattr(owner, "cholesky", None)), f"{owner!r}.cholesky"


def test_every_wrapped_call_site_is_called(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install(wavesel)
    # (posterior_gaussian, blr_update) calls made by each replicate
    learner_calls = {}
    try:
        for mode in ("synthetic", "physical"):
            out = tmp_path / mode
            # only a Doppler-ramped target reaches the matched filter: its
            # Doppler cut, once per waveform per replicate
            doppler = "doppler = 0.7\n" if mode == "physical" else ""
            config = harness.parse_config(
                f"mode = {mode}\nm = 2\nn = 4\nk = 3\nseeds = 0\n{doppler}"
                f"policies = random,meta-ts\nout_dir = {out}\n"
            )
            for policy in config.policies:
                before = [tracer.calls(f"gaussmath.{f}") for f in LEARNER_SPANS]
                harness.run(config, policy, 0)
                learner_calls[mode, policy] = tuple(
                    tracer.calls(f"gaussmath.{f}") - b for f, b in zip(LEARNER_SPANS, before)
                )
            harness.aggregate_directory(str(out), str(out / "agg"))
    finally:
        tracer.uninstall()
    for _, _, name in tracing._wrap_points(wavesel):
        assert tracer.calls(name) > 0, name
    # one factorization per replicate, the flat meta root, so
    # gaussmath.cholesky.per_cpi is replicates over CPIs
    assert tracer.counts["gaussmath.cholesky"] == len(learner_calls)
    # what the per-layer spans now time: posterior_gaussian once per track
    # (m = 2), blr_update once per CPI of a Thompson track (n = 4), and
    # none for the random policy
    for mode in ("synthetic", "physical"):
        assert learner_calls[mode, "random"] == (2, 0)
        assert learner_calls[mode, "meta-ts"] == (2, 8)
