"""Time wavesel's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py {checkout,baseline} CONFIG_TEXT

Set-up is what a run pays before its first replicate: importing the package
(``scipy.signal`` dominates), ``parse_config`` and, in physical mode,
building the waveform catalog, with the checkout's package or the frozen
baseline copy (see bench/worker.py). Prints one JSON line whose ``done`` stamp is
on the system-wide monotonic clock, so the parent can time from the moment
it started this process.
"""

import json
import sys
import time
from pathlib import Path

from worker import PACKAGES


def main() -> None:
    t0 = time.monotonic()
    root = PACKAGES[sys.argv[1]]
    sys.path.insert(0, str(root))
    import wavesel.harness
    import wavesel.waveforms

    t1 = time.monotonic()
    config = wavesel.harness.parse_config(sys.argv[2])
    t2 = time.monotonic()
    if config.mode == "physical":
        wavesel.waveforms.default_catalog(k=config.k)
    t3 = time.monotonic()
    if Path(wavesel.__file__).resolve().parent != root / "wavesel":
        raise RuntimeError(f"imported wavesel from {wavesel.__file__}, not {root}")
    print(json.dumps({
        "done": t3,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "catalog_s": t3 - t2,
    }))


if __name__ == "__main__":
    main()
