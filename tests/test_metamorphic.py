"""Metamorphic relations of the extraction pipeline, through ``Extraction().rows``.

Each relation transforms a WAV file and states how the feature rows must
move. The oracles check single functions; these check that no channel
order, payload format or sample rate leaks into the rows when the design
says it cannot.

Exact (bit for bit) relations run under hypothesis over small generated
recordings: uniform int16 noise long enough for one 4 s segment, with a
quieter stretch that silence removal drops. They hold exactly because
every step is exact or sees the same values: a stereo mix adds two
channels, which commutes; 1/32768 is a power of two, so a PCM16 sample
and the float32 holding its value decode to the same float64; and at
48 kHz the stride path reads every third frame, with no interpolation.

The gain relation has a tolerance and runs on one pinned synth speaker,
not on noise, whose near-empty mel bands could meet the 1e-10 log floor
and stop shifting with the gain.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalscreen.audio_io import DEFAULT_SAMPLE_RATE, load_wav
from vocalscreen.features import FEATURE_COLUMNS, N_MFCC, Extraction, FeatureConfig
from vocalscreen.synth import CohortSpec, default_profiles, generate_cohort

RATE = DEFAULT_SAMPLE_RATE
SEGMENT = 4 * RATE  # samples in one segment


def wav_bytes(samples: np.ndarray, sample_rate: int = RATE) -> bytes:
    """A WAV of an int16 (PCM16) or float32 array of shape (frames,) or (frames, channels)."""
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    block_align = samples.itemsize * channels
    body = samples.astype(samples.dtype.newbyteorder("<")).tobytes()
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(body), b"WAVE", b"fmt ", 16,
                       1 if samples.dtype.kind == "i" else 3, channels, sample_rate,
                       sample_rate * block_align, block_align, 8 * samples.itemsize,
                       b"data", len(body)) + body


def rows_of(tmp_path, samples: np.ndarray, sample_rate: int = RATE):
    """``Extraction().rows`` of ``samples`` written as a WAV: (rows as one array, voiced s)."""
    path = tmp_path / "recording.wav"
    path.write_bytes(wav_bytes(samples, sample_rate))
    rows, voiced = Extraction().rows(path)
    return np.asarray(rows), voiced


def assert_same_bits(got, want) -> None:
    (got_rows, got_voiced), (want_rows, want_voiced) = got, want
    assert len(want_rows) >= 1  # every generated recording holds a segment
    assert got_rows.shape == want_rows.shape and got_rows.tobytes() == want_rows.tobytes()
    assert got_voiced == want_voiced


@st.composite
def recordings(draw, channels):
    """int16 noise of shape (frames, channels): at least one segment of it at a drawn
    amplitude, and a drawn stretch at a fortieth of it, below the 0.1 RMS threshold."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    loud = draw(st.integers(1000, 32767))
    voiced = draw(st.integers(SEGMENT + RATE // 10, SEGMENT + RATE // 2))
    quiet = draw(st.integers(0, RATE // 2))
    at = draw(st.integers(0, voiced))
    rng = np.random.default_rng(seed)
    noise = rng.integers(-loud, loud, (voiced + quiet, channels), endpoint=True)
    noise[at:at + quiet] //= 40
    return noise.astype(np.int16)


def as_float32(pcm: np.ndarray) -> np.ndarray:
    """The float32 samples holding PCM16's values (exact: each is a multiple of 2^-15)."""
    return (pcm / 32768.0).astype(np.float32)


@settings(max_examples=40, deadline=None)
@given(pcm=recordings(channels=2), float32=st.booleans())
def test_swapping_the_channels_leaves_the_rows(tmp_path_factory, pcm, float32):
    """Exact: the mix adds the two channels, and addition commutes, in int32 for PCM16
    and in float64 for float32."""
    tmp_path = tmp_path_factory.mktemp("swap")
    stereo = as_float32(pcm) if float32 else pcm
    assert_same_bits(rows_of(tmp_path, np.ascontiguousarray(stereo[:, ::-1])),
                     rows_of(tmp_path, stereo))


@settings(max_examples=40, deadline=None)
@given(pcm=st.integers(1, 2).flatmap(lambda channels: recordings(channels)))
def test_a_float32_wav_of_pcm16_values_gives_the_pcm16_rows(tmp_path_factory, pcm):
    """Exact: PCM16 decodes as v / 32768 and float32 as it is, the same float64 values,
    and a stereo mix of them, (L + R) * 2^-16 or (L + R + 0.0) / 2, is exact either way."""
    tmp_path = tmp_path_factory.mktemp("float32")
    assert_same_bits(rows_of(tmp_path, as_float32(pcm)), rows_of(tmp_path, pcm))


@settings(max_examples=40, deadline=None)
@given(pcm=st.integers(1, 2).flatmap(lambda channels: recordings(channels)),
       float32=st.booleans())
def test_a_48khz_wav_repeating_each_sample_three_times_gives_the_16khz_rows(
        tmp_path_factory, pcm, float32):
    """Exact: 48 kHz is a whole multiple of 16 kHz, so load_mono keeps every third frame,
    frame 3i for output i, and interpolates nothing; 3n frames give n outputs."""
    tmp_path = tmp_path_factory.mktemp("stride")
    samples = as_float32(pcm) if float32 else pcm
    assert_same_bits(rows_of(tmp_path, np.repeat(samples, 3, axis=0), 3 * RATE),
                     rows_of(tmp_path, samples))


@pytest.fixture(scope="module")
def synth_speaker(tmp_path_factory) -> np.ndarray:
    """The 20 s control speaker of ``synth --seed 42`` (4 segments), as float32 samples."""
    out = tmp_path_factory.mktemp("speaker")
    generate_cohort(CohortSpec(speakers_per_class=1, seconds_per_speaker=20.0, seed=42,
                               class_profiles={"control": default_profiles()["control"]}), out)
    return load_wav(out / "control_s00.wav").samples.astype(np.float32)


def test_halving_the_gain_moves_only_mfcc0(tmp_path, synth_speaker):
    """A gain g scales every power by g^2, which shifts every log mel band by 20 log10(g)
    dB wherever no band meets the log floor; the orthonormal DCT-II turns that shift into
    mfcc0 alone, by 20 log10(g) sqrt(n_mels). The sums round differently, so the MFCCs
    hold within a tolerance. Halving is exact in float32 and scales the powers by 1/4,
    a power of two, so the centroid (a ratio of sums of powers) and the zero-crossing
    rate (signs) are exactly equal; complexity compares dB values shifted alike, and
    equal counts are pinned on this speaker."""
    whole, whole_voiced = rows_of(tmp_path, synth_speaker)
    half, half_voiced = rows_of(tmp_path, synth_speaker * np.float32(0.5))
    assert whole.shape == (4, len(FEATURE_COLUMNS)) and half_voiced == whole_voiced
    shift = 20 * np.log10(0.5) * np.sqrt(FeatureConfig().n_mels)
    assert np.abs(half[:, 0] - whole[:, 0] - shift).max() < 1e-9
    assert np.abs(half[:, 1:N_MFCC] - whole[:, 1:N_MFCC]).max() < 1e-12
    assert half[:, N_MFCC:].tobytes() == whole[:, N_MFCC:].tobytes()
