from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import wavesel
from wavesel.errors import EmptyInput, InvalidInput
from wavesel.waveforms import (
    CATALOG_NAMES,
    ComplexEnvelope,
    catalog_envelope,
    default_catalog,
    matched_filter,
)

from oracles import (
    canvas_len,
    cyclic_autocorrelation,
    place,
    reflected,
    scipy_matched_filter,
)


# ---------------------------------------------------------------------------
# envelope generation

#: sha256 of each catalog envelope's ``samples.tobytes()``.
CATALOG_SHA256 = {
    "lfm": "e364e76241163fe824a47a26cb105565bc01e9ba65a4c9213e7486d20286c32d",
    "expfm-2.8": "71b42296bd4ca1d322e241ca4dc366b525883b8cbb1fcd15428db207a8238ee7",
    "expfm-5": "a8fb09a802e998d6e8d125d71c81d1bde8d5f8cfba6cb889bce44b7800e58ee7",
    "zc-1024": "f034c65f0080c593d9b8073c819ea33866e66e82f14249e1869190316ca76267",
    "frank-144": "c19db5b67a79fc1a0f4788976b3ca2b23b441707d815e1c64cf8720a8e114959",
}


def test_catalog_envelopes_keep_their_bytes():
    assert tuple(CATALOG_SHA256) == CATALOG_NAMES
    for name, digest in CATALOG_SHA256.items():
        samples = catalog_envelope(name).samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest, name


def test_catalog_envelope_rejects_unknown_name():
    with pytest.raises(InvalidInput):
        catalog_envelope("frank-16")


def test_frank_chip_phases_match_formula():
    env = catalog_envelope("frank-144")
    hold = 1024 // 144
    assert len(env) == 144 * hold == 1008
    held = env.samples.reshape(144, hold)
    assert np.all(held == held[:, :1])
    i, j = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
    expected = np.exp(2j * np.pi * i * j / 12).ravel()
    np.testing.assert_allclose(env.samples[::hold] * np.sqrt(1008), expected, atol=1e-12)
    assert np.all(np.angle(env.samples[: 12 * hold]) == 0.0)


def test_zadoff_chu_constant_modulus():
    # one sample per chip, so each of the 1024 unit-energy samples has
    # modulus 1 / 32
    mags = np.abs(catalog_envelope("zc-1024").samples)
    np.testing.assert_allclose(mags, 1.0 / 32.0, atol=1e-12)


def test_lfm_instantaneous_frequency_is_affine():
    # The quarter-band sweep keeps every phase step below pi (3.137 at the
    # end of the pulse), so unwrapping is exact.
    phase = np.unwrap(np.angle(catalog_envelope("lfm").samples))
    freq = np.diff(phase)
    assert np.max(freq) < np.pi
    assert np.ptp(np.diff(freq)) < 1e-9
    assert freq[-1] > freq[0]


def test_all_catalog_envelopes_unit_energy():
    for env in default_catalog():
        assert abs(np.sum(np.abs(env.samples) ** 2) - 1.0) < 1e-9


def test_phase_coded_catalog_entries_constant_modulus():
    for name in ("zc-1024", "frank-144"):
        env = catalog_envelope(name)
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
    for k in (0, 6):
        with pytest.raises(InvalidInput):
            default_catalog(k=k)


# ---------------------------------------------------------------------------
# cyclic autocorrelation


def test_autocorrelation_zero_lag_is_energy():
    for env in default_catalog():
        assert abs(cyclic_autocorrelation(env, 0) - 1.0) < 1e-9


def test_zadoff_chu_sidelobes_vanish():
    env = catalog_envelope("zc-1024")
    assert abs(cyclic_autocorrelation(env, 17)) < 1e-9


def test_frank_autocorrelation_matches_double_loop():
    env = catalog_envelope("frank-144")
    s = env.samples
    n = s.size
    direct = sum(s[k] * np.conj(s[(k + 1) % n]) for k in range(n))
    assert abs(cyclic_autocorrelation(env, 1) - direct) < 1e-12


# ---------------------------------------------------------------------------
# matched filter


def test_matched_filter_peak_at_zero_lag():
    env = catalog_envelope("lfm")
    out = matched_filter(env, env.samples)
    peak = int(np.argmax(np.abs(out)))
    assert peak == len(env) - 1
    assert abs(out[peak] - 1.0) < 1e-9


def test_matched_filter_peak_tracks_delay():
    env = catalog_envelope("zc-1024")
    delay = 37
    rx = np.concatenate([np.zeros(delay, dtype=complex), env.samples])
    out = matched_filter(env, rx)
    assert int(np.argmax(np.abs(out))) == len(env) - 1 + delay


def test_matched_filter_matches_naive_oracle():
    rng = np.random.default_rng(23)
    tx = ComplexEnvelope(rng.standard_normal(32) + 1j * rng.standard_normal(32))
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
    a = catalog_envelope("lfm")
    b = catalog_envelope("expfm-5")
    ab = matched_filter(a, b.samples)
    ba = matched_filter(b, a.samples)
    np.testing.assert_allclose(ab, np.conj(ba)[::-1], atol=1e-10)


def test_matched_filter_rejects_empty_input():
    env = catalog_envelope("lfm")
    with pytest.raises(EmptyInput):
        matched_filter(env, np.array([], dtype=complex))


@pytest.mark.parametrize("doppler", [0.0, 0.7, -2.3, 5.0])
def test_matched_filter_equals_scipy_direct_convolution_to_the_bit(doppler):
    # the inputs the package passes: each catalog pulse against its own
    # Doppler-ramped copy, with the ramp of an 8-tap echo as the channel
    # tables build it
    for env in default_catalog():
        echo_len = len(env) + 7
        ramp = np.exp(2j * np.pi * doppler * (np.arange(echo_len) / echo_len))
        rx = ramp[: len(env)] * env.samples
        expected = scipy_matched_filter(env, rx)
        assert matched_filter(env, rx).tobytes() == expected.tobytes()


def test_matched_filter_of_a_placed_echo_equals_scipy_to_the_bit():
    rng = np.random.default_rng(31)
    env = catalog_envelope("expfm-2.8")
    ir = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    refl = reflected(env, ir, 0.7)
    rx = place(canvas_len(refl.size, 16), refl, 21)
    assert matched_filter(env, rx).tobytes() == scipy_matched_filter(env, rx).tobytes()


def test_matched_filtering_imports_no_scipy_signal(tmp_path):
    # a fresh process imports the package and its command line, then runs
    # one physical replicate whose Doppler cut goes through matched_filter
    script = textwrap.dedent(f"""
        import sys
        import wavesel, wavesel.cli
        from wavesel import harness
        config = harness.parse_config(
            "mode = physical\\ndoppler = 0.7\\nm = 1\\nn = 4\\nk = 2\\n"
            "out_dir = {tmp_path.as_posix()}\\n"
        )
        harness.run(config, "meta-ts", 0)
        print(sorted(name for name in sys.modules if name.startswith("scipy.signal")))
    """)
    src = str(Path(wavesel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
