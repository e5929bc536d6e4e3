"""Radar waveform catalog: five fixed pulses and matched filtering.

The catalog is an LFM chirp, two exponential-FM chirps, a Zadoff-Chu code
and a Frank code, always in the order of ``CATALOG_NAMES``. Chirps follow
the generalized FM template exp(j 2 pi b xi(t / t_r)) with a normalized
phase shape xi on [0, 1], sampled on ``N_SAMPLES`` points of the unit pulse
interval with the quarter-band sweep b = N_SAMPLES / 4. Phase-coded pulses
are constant-modulus chip sequences, each chip held for
floor(N_SAMPLES / code length) samples, keeping only whole chips. Every
envelope is normalized to unit energy so matched-filter outputs are
directly comparable across the catalog. The matched filter and each
envelope's autocorrelation are one numpy primitive, ``np.correlate``.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import EmptyInput, InvalidInput

N_SAMPLES = 1024


@dataclass(frozen=True)
class ComplexEnvelope:
    """Unit-energy complex baseband samples of one pulse, copied from the
    input and kept read-only, since one catalog serves a whole process."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @cached_property
    def autocorrelation(self) -> np.ndarray:
        """The matched filter of the pulse against itself, computed on first
        use and kept (read-only): the zero lag sits at index len - 1."""
        acorr = matched_filter(self, self.samples)
        acorr.flags.writeable = False
        return acorr


def _chirp(phase_shape) -> np.ndarray:
    x = np.arange(N_SAMPLES) / N_SAMPLES
    return np.exp(2j * np.pi * (N_SAMPLES / 4) * phase_shape(x))


def _expfm_shape(alpha: float):
    return lambda x: (np.exp(alpha * x) - 1.0) / (np.exp(alpha) - 1.0)


def _held(chips: np.ndarray) -> np.ndarray:
    return np.repeat(chips, N_SAMPLES // chips.size)


def _zadoff_chu_chips(length: int) -> np.ndarray:
    """Root-1 Zadoff-Chu code of even length."""
    n = np.arange(length)
    return np.exp(-1j * np.pi * n * n / length)


def _frank_chips(m: int) -> np.ndarray:
    """Frank code of length m * m."""
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.exp(2j * np.pi * (i * j) / m).ravel()


#: Unnormalized samples of each catalog entry, in catalog order.
_PULSES = {
    "lfm": lambda: _chirp(lambda x: x**2),
    "expfm-2.8": lambda: _chirp(_expfm_shape(2.8)),
    "expfm-5": lambda: _chirp(_expfm_shape(5.0)),
    "zc-1024": lambda: _held(_zadoff_chu_chips(1024)),
    "frank-144": lambda: _held(_frank_chips(12)),
}

#: Catalog order is fixed; waveform indices in experiment output refer to it.
CATALOG_NAMES = tuple(_PULSES)


@cache
def catalog_envelope(name: str) -> ComplexEnvelope:
    """The unit-energy envelope of one named catalog entry, built on first
    request and then shared by every call in the process, so its
    autocorrelation is computed once; envelopes are read-only, so no caller
    can change what a later replicate reads."""
    if name not in _PULSES:
        raise InvalidInput(f"unknown catalog waveform {name!r}")
    samples = _PULSES[name]()
    return ComplexEnvelope(samples / np.sqrt(np.sum(np.abs(samples) ** 2)))


def default_catalog(k: int = len(CATALOG_NAMES)) -> list[ComplexEnvelope]:
    """The first k catalog envelopes in fixed order."""
    if not 1 <= k <= len(CATALOG_NAMES):
        raise InvalidInput(f"catalog holds {len(CATALOG_NAMES)} waveforms")
    return [catalog_envelope(name) for name in CATALOG_NAMES[:k]]


def matched_filter(tx: ComplexEnvelope, rx: np.ndarray) -> np.ndarray:
    """Direct O(len(rx) * len(tx)) cross-correlation of rx against the pulse.

    The same as convolving rx with the filter conj(tx(-t)); output length
    is len(rx) + len(tx) - 1 and the zero-delay response of an echo of the
    pulse itself lands at index len(tx) - 1.
    """
    rx = np.asarray(rx, dtype=complex)
    if tx.samples.size == 0 or rx.size == 0:
        raise EmptyInput("matched filter needs non-empty tx and rx")
    return np.correlate(rx, tx.samples, mode="full")
