"""Reference arithmetic the package computes inline, kept here as test
oracles."""

from __future__ import annotations

import numpy as np

from wavesel.errors import IndexOutOfRange

#: The clutter gains of a four-state scene, 4 ** (s - 1), as the harness
#: builds them.
STATE_GAIN = (0.25, 1.0, 4.0, 16.0)


def regret_increment(expected_losses, chosen: int) -> float:
    """Gap between the best available expected loss and the chosen one."""
    expected = np.asarray(expected_losses, dtype=float)
    if not 0 <= chosen < expected.size:
        raise IndexOutOfRange(
            f"chosen index {chosen} outside {expected.size} waveforms"
        )
    return float(np.max(expected) - expected[chosen])
