from __future__ import annotations

import numpy as np
import pytest

from wavesel.errors import EmptyInput, UnsupportedLength
from wavesel.waveforms import (
    CATALOG_NAMES,
    KIND_FRANK,
    KIND_LFM,
    KIND_ZADOFF_CHU,
    ComplexEnvelope,
    WaveformSpec,
    catalog_spec,
    default_catalog,
    make_envelope,
    matched_filter,
)

from oracles import cyclic_autocorrelation


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_foreign_fields():
    with pytest.raises(UnsupportedLength):
        WaveformSpec(KIND_LFM, fm_rate=8.0, alpha=2.0)


def test_spec_rejects_missing_fields():
    with pytest.raises(UnsupportedLength):
        WaveformSpec(KIND_LFM)


def test_zadoff_chu_root_must_be_coprime():
    with pytest.raises(UnsupportedLength):
        WaveformSpec(KIND_ZADOFF_CHU, code_length=1024, root=2)


def test_frank_length_must_be_square():
    with pytest.raises(UnsupportedLength):
        WaveformSpec(KIND_FRANK, code_length=10)


def test_phase_code_needs_enough_samples():
    spec = WaveformSpec(KIND_FRANK, code_length=144)
    with pytest.raises(UnsupportedLength):
        make_envelope(spec, 100)


# ---------------------------------------------------------------------------
# envelope generation


def test_frank_chip_phases_match_formula():
    env = make_envelope(WaveformSpec(KIND_FRANK, code_length=144), 144)
    i, j = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
    expected = np.exp(2j * np.pi * i * j / 12).ravel() / 12.0
    np.testing.assert_allclose(env.samples, expected, atol=1e-12)
    assert np.all(np.angle(env.samples[:12]) == 0.0)


def test_zadoff_chu_constant_modulus():
    env = make_envelope(WaveformSpec(KIND_ZADOFF_CHU, code_length=1024, root=1))
    mags = np.abs(env.samples)
    assert np.max(mags) - np.min(mags) < 1e-12


def test_lfm_instantaneous_frequency_is_affine():
    # Sampled at four times the swept band so consecutive phase steps stay
    # below pi and unwrapping is exact; the phase sweep itself is
    # pi * 1024 over the pulse.
    n = 4096
    env = make_envelope(WaveformSpec(KIND_LFM, fm_rate=512.0), n)
    phase = np.unwrap(np.angle(env.samples))
    freq = np.diff(phase)
    assert np.max(freq) < np.pi
    assert np.ptp(np.diff(freq)) < 1e-6
    assert freq[-1] > freq[0]


def test_all_catalog_envelopes_unit_energy():
    for env in default_catalog():
        assert abs(np.sum(np.abs(env.samples) ** 2) - 1.0) < 1e-9


def test_phase_coded_catalog_entries_constant_modulus():
    for name in ("zc-1024", "frank-144"):
        env = make_envelope(catalog_spec(name))
        mags = np.abs(env.samples)
        assert np.max(mags) - np.min(mags) < 1e-12


def test_default_catalog_is_five_distinct_pulses():
    catalog = default_catalog()
    assert len(catalog) == len(CATALOG_NAMES) == 5
    for a in range(5):
        for b in range(a + 1, 5):
            ea, eb = catalog[a].samples, catalog[b].samples
            size = min(ea.size, eb.size)
            assert not np.allclose(ea[:size], eb[:size])


def test_default_catalog_rejects_bad_count():
    with pytest.raises(UnsupportedLength):
        default_catalog(k=6)


# ---------------------------------------------------------------------------
# cyclic autocorrelation


def test_autocorrelation_zero_lag_is_energy():
    for env in default_catalog():
        assert abs(cyclic_autocorrelation(env, 0) - 1.0) < 1e-9


def test_zadoff_chu_sidelobes_vanish():
    env = make_envelope(WaveformSpec(KIND_ZADOFF_CHU, code_length=1024, root=1))
    assert abs(cyclic_autocorrelation(env, 17)) < 1e-9


def test_frank_autocorrelation_matches_double_loop():
    env = make_envelope(WaveformSpec(KIND_FRANK, code_length=144), 144)
    s = env.samples
    n = s.size
    direct = sum(s[k] * np.conj(s[(k + 1) % n]) for k in range(n))
    assert abs(cyclic_autocorrelation(env, 1) - direct) < 1e-12


# ---------------------------------------------------------------------------
# matched filter


def test_matched_filter_peak_at_zero_lag():
    env = make_envelope(catalog_spec("lfm"))
    out = matched_filter(env, env.samples)
    peak = int(np.argmax(np.abs(out)))
    assert peak == len(env) - 1
    assert abs(out[peak] - 1.0) < 1e-9


def test_matched_filter_peak_tracks_delay():
    env = make_envelope(catalog_spec("zc-1024"))
    delay = 37
    rx = np.concatenate([np.zeros(delay, dtype=complex), env.samples])
    out = matched_filter(env, rx)
    assert int(np.argmax(np.abs(out))) == len(env) - 1 + delay


def test_matched_filter_matches_naive_oracle():
    rng = np.random.default_rng(23)
    tx = make_envelope(WaveformSpec(KIND_FRANK, code_length=16), 32)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    rx = np.convolve(tx.samples, h)
    out = matched_filter(tx, rx)
    pulse = tx.samples
    naive = np.zeros(rx.size + pulse.size - 1, dtype=complex)
    for i in range(naive.size):
        acc = 0.0 + 0.0j
        for k in range(pulse.size):
            j = i - (pulse.size - 1) + k
            if 0 <= j < rx.size:
                acc += rx[j] * np.conj(pulse[k])
        naive[i] = acc
    np.testing.assert_allclose(out, naive, atol=1e-10)


def test_matched_filter_swap_conjugate_symmetry():
    a = make_envelope(catalog_spec("lfm"))
    b = make_envelope(catalog_spec("expfm-5"))
    ab = matched_filter(a, b.samples)
    ba = matched_filter(b, a.samples)
    np.testing.assert_allclose(ab, np.conj(ba)[::-1], atol=1e-10)


def test_matched_filter_rejects_empty_input():
    env = make_envelope(catalog_spec("lfm"))
    with pytest.raises(EmptyInput):
        matched_filter(env, np.array([], dtype=complex))


def test_autocorrelation_is_np_correlate_computed_once():
    for env in default_catalog():
        acorr = env.autocorrelation
        expected = np.correlate(env.samples, env.samples, mode="full")
        assert acorr.tobytes() == expected.tobytes()
        assert env.autocorrelation is acorr
        assert not acorr.flags.writeable


def test_catalog_envelopes_are_read_only_and_copy_their_input():
    for env in default_catalog():
        with pytest.raises(ValueError):
            env.samples[0] = 0.0
        with pytest.raises(ValueError):
            env.autocorrelation[0] = 0.0
    source = np.ones(4, dtype=complex)
    env = ComplexEnvelope(source)
    source[0] = 2.0
    assert env.samples[0] == 1.0
    assert source.flags.writeable


def test_default_catalog_serves_one_envelope_per_waveform():
    full = default_catalog()
    again = default_catalog()
    assert again is not full
    assert all(a is b for a, b in zip(full, again))
    assert all(a is b for a, b in zip(default_catalog(k=2), full))
