"""Radar waveform catalog: generalized FM chirps and polyphase pulse codes.

Chirps follow the generalized FM template a(t) exp(j 2 pi b xi(t / t_r))
with a rectangular amplitude a(t) and a normalized phase shape xi on [0, 1].
Phase-coded pulses are constant-modulus chip sequences, zero-order-held to
an integer number of samples per chip. Every envelope is normalized to unit
energy so matched-filter outputs are directly comparable across the catalog.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy import signal

from .errors import EmptyInput, UnsupportedLength

KIND_LFM = "lfm"
KIND_EXPFM = "expfm"
KIND_ZADOFF_CHU = "zadoff-chu"
KIND_FRANK = "frank"

DEFAULT_N_SAMPLES = 1024

#: Catalog order is fixed; waveform indices in experiment output refer to it.
CATALOG_NAMES = ("lfm", "expfm-2.8", "expfm-5", "zc-1024", "frank-144")


@dataclass(frozen=True)
class WaveformSpec:
    """Parameters selecting one waveform family member.

    Exactly the fields relevant to ``kind`` may be set: ``fm_rate`` for LFM,
    ``alpha`` for exponential FM, ``code_length`` (plus ``root`` for
    Zadoff-Chu) for the phase codes.
    """

    kind: str
    fm_rate: float | None = None
    alpha: float | None = None
    code_length: int | None = None
    root: int | None = None

    def __post_init__(self):
        if self.kind == KIND_LFM:
            self._require(fm_rate=True)
        elif self.kind == KIND_EXPFM:
            self._require(alpha=True)
            if self.alpha <= 0:
                raise UnsupportedLength("ExpFM alpha must be positive")
        elif self.kind == KIND_ZADOFF_CHU:
            self._require(code_length=True, root=True)
            if self.code_length < 1:
                raise UnsupportedLength("Zadoff-Chu length must be positive")
            if math.gcd(self.root, self.code_length) != 1:
                raise UnsupportedLength(
                    f"Zadoff-Chu root {self.root} is not coprime with "
                    f"length {self.code_length}"
                )
        elif self.kind == KIND_FRANK:
            self._require(code_length=True)
            m = math.isqrt(self.code_length)
            if m * m != self.code_length:
                raise UnsupportedLength(
                    f"Frank length {self.code_length} is not a perfect square"
                )
        else:
            raise UnsupportedLength(f"unknown waveform kind {self.kind!r}")

    def _require(self, **wanted):
        fields = {"fm_rate", "alpha", "code_length", "root"}
        for name in fields:
            value = getattr(self, name)
            if wanted.get(name, False) and value is None:
                raise UnsupportedLength(f"{self.kind} requires {name}")
            if not wanted.get(name, False) and value is not None:
                raise UnsupportedLength(f"{self.kind} does not take {name}")


@dataclass(frozen=True)
class ComplexEnvelope:
    """Unit-energy complex baseband samples of one pulse, copied from the
    input and kept read-only, since one catalog serves a whole process."""

    samples: np.ndarray
    duration: float = 1.0

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @cached_property
    def autocorrelation(self) -> np.ndarray:
        """``np.correlate(samples, samples, "full")``, computed on first use
        and kept (read-only): the zero lag sits at index len - 1."""
        acorr = np.correlate(self.samples, self.samples, mode="full")
        acorr.flags.writeable = False
        return acorr


def _normalize(samples: np.ndarray) -> np.ndarray:
    return samples / np.sqrt(np.sum(np.abs(samples) ** 2))


def _chirp(phase_shape: np.ndarray, sweep: float) -> np.ndarray:
    return _normalize(np.exp(2j * np.pi * sweep * phase_shape))


def _zadoff_chu_chips(length: int, root: int) -> np.ndarray:
    n = np.arange(length)
    cf = length % 2
    return np.exp(-1j * np.pi * root * n * (n + cf) / length)


def _frank_chips(length: int) -> np.ndarray:
    m = math.isqrt(length)
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.exp(2j * np.pi * (i * j) / m).ravel()


def make_envelope(spec: WaveformSpec, n_samples: int = DEFAULT_N_SAMPLES) -> ComplexEnvelope:
    """Sample one pulse of the requested waveform.

    Chirps are sampled on n_samples points of the unit pulse interval; the
    LFM sweep constant is the spec's ``fm_rate`` while ExpFM uses the default
    quarter-band sweep n_samples / 4. Phase codes hold each chip for
    floor(n_samples / code_length) samples and keep only the held chips, so
    the result stays constant modulus; its length is then
    code_length * floor(n_samples / code_length).
    """
    if n_samples < 1:
        raise EmptyInput("n_samples must be at least 1")
    x = np.arange(n_samples) / n_samples
    if spec.kind == KIND_LFM:
        samples = _chirp(x**2, spec.fm_rate)
    elif spec.kind == KIND_EXPFM:
        shape = (np.exp(spec.alpha * x) - 1.0) / (np.exp(spec.alpha) - 1.0)
        samples = _chirp(shape, n_samples / 4)
    elif spec.kind in (KIND_ZADOFF_CHU, KIND_FRANK):
        if n_samples < spec.code_length:
            raise UnsupportedLength(
                f"n_samples={n_samples} is below code length {spec.code_length}"
            )
        if spec.kind == KIND_ZADOFF_CHU:
            chips = _zadoff_chu_chips(spec.code_length, spec.root)
        else:
            chips = _frank_chips(spec.code_length)
        hold = n_samples // spec.code_length
        samples = _normalize(np.repeat(chips, hold))
    else:  # pragma: no cover - kinds are validated at construction
        raise UnsupportedLength(f"unknown waveform kind {spec.kind!r}")
    return ComplexEnvelope(samples)


def matched_filter(tx: ComplexEnvelope, rx: np.ndarray) -> np.ndarray:
    """Full cross-correlation of rx against the pulse.

    Equivalent to convolving rx with the filter conj(tx(-t)); output length
    is len(rx) + len(tx) - 1 and the zero-delay response of an echo of the
    pulse itself lands at index len(tx) - 1.
    """
    pulse = tx.samples
    rx = np.asarray(rx, dtype=complex)
    if pulse.size == 0 or rx.size == 0:
        raise EmptyInput("matched filter needs non-empty tx and rx")
    return signal.convolve(rx, np.conj(pulse[::-1]), mode="full", method="auto")


def catalog_spec(name: str, n_samples: int = DEFAULT_N_SAMPLES) -> WaveformSpec:
    """Spec for one named catalog entry (see ``CATALOG_NAMES``)."""
    if name == "lfm":
        return WaveformSpec(KIND_LFM, fm_rate=n_samples / 4)
    if name == "expfm-2.8":
        return WaveformSpec(KIND_EXPFM, alpha=2.8)
    if name == "expfm-5":
        return WaveformSpec(KIND_EXPFM, alpha=5.0)
    if name == "zc-1024":
        return WaveformSpec(KIND_ZADOFF_CHU, code_length=1024, root=1)
    if name == "frank-144":
        return WaveformSpec(KIND_FRANK, code_length=144)
    raise UnsupportedLength(f"unknown catalog waveform {name!r}")


@cache
def _catalog_envelope(name: str, n_samples: int) -> ComplexEnvelope:
    return make_envelope(catalog_spec(name, n_samples), n_samples)


def default_catalog(
    n_samples: int = DEFAULT_N_SAMPLES, k: int = len(CATALOG_NAMES)
) -> list[ComplexEnvelope]:
    """First k catalog envelopes in fixed order.

    Each envelope is built on first request and then shared by every call
    in the process, so its autocorrelation is computed once; envelopes are
    read-only, so no caller can change what a later replicate reads.
    """
    if not 1 <= k <= len(CATALOG_NAMES):
        raise UnsupportedLength(f"catalog holds {len(CATALOG_NAMES)} waveforms")
    return [_catalog_envelope(name, n_samples) for name in CATALOG_NAMES[:k]]
