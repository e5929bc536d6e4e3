"""Run one copy of wavesel on request, one call at a time.

Usage: python3 bench/worker.py {checkout,baseline}  (started by bench/run.py)

``checkout`` imports the package from ``src/`` of the checkout; ``baseline``
imports the frozen copy in ``bench/baseline``, the package as it was when
the benchmark was defined. ``bench/run.py`` starts one worker of each kind
and sends every timed call to both, one after the other, so the two copies
run in like processes at the same host speed.

Requests are JSON lines on standard input:

    {"call": "run", "config": CONFIG_TEXT, "policy": P, "seed": S}
    {"call": "aggregate", "in_dir": DIR, "out_dir": DIR}

Each reply is one JSON line, {"seconds": T, "error": null or TEXT,
"peak_rss_mb": M}, where T times the call alone and M is the worker's peak
resident memory so far. The first reply, {"ready": true}, is sent once the
package is imported. The worker exits when its standard input closes.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PACKAGES = {"checkout": BENCH_DIR.parent / "src", "baseline": BENCH_DIR / "baseline"}


def perform(harness, request: dict):
    """Make one request with ``harness``: (seconds of the call alone, error
    text or None)."""
    if request["call"] == "run":
        config = harness.parse_config(request["config"])
        call, args = harness.run, (config, request["policy"], request["seed"])
    else:
        call, args = harness.aggregate_directory, (request["in_dir"], request["out_dir"])
    started = time.perf_counter()
    try:
        call(*args)
    except Exception:
        return time.perf_counter() - started, traceback.format_exc()
    return time.perf_counter() - started, None


def main() -> int:
    root = PACKAGES[sys.argv[1]]
    replies = sys.stdout
    # anything the package prints must not mix with the replies
    sys.stdout = sys.stderr
    sys.path.insert(0, str(root))
    import wavesel.harness as harness

    if Path(harness.__file__).resolve().parent != root / "wavesel":
        print(f"imported wavesel from {harness.__file__}, not {root}", file=sys.stderr)
        return 2

    def reply(message) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    reply({"ready": True})
    for line in sys.stdin:
        seconds, error = perform(harness, json.loads(line))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reply({"seconds": seconds, "error": error, "peak_rss_mb": peak})
    return 0


if __name__ == "__main__":
    sys.exit(main())
