import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vocalscreen import audio_io
from vocalscreen.audio_io import (
    AudioClip,
    MalformedWav,
    UnsupportedFormat,
    decode_wav,
    encode_wav,
    load_mono,
    resample,
    to_mono,
)
from vocalscreen.errors import VocalScreenError
from vocalscreen.rng import round_half_up

# Sub-format GUID of WAVE_FORMAT_EXTENSIBLE: format code, then a fixed tail.
GUID_TAIL = bytes.fromhex("000010008000" "00aa00389b71")


# Former definitions of the ingest steps, kept as the exact reference.

def former_pcm16(ints):
    return ints.astype(np.float64) / 32768


def former_to_mono(samples):
    return samples.mean(axis=1)


def former_resample(samples, source_rate, target_rate):
    n = len(samples)
    m = round_half_up(n * target_rate / source_rate)
    positions = np.arange(m) * (source_rate / target_rate)
    return np.interp(positions, np.arange(n), samples)


def assert_identical(got, want):
    """Equal values, shapes and dtypes, with the sign of every zero."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# Samples in [-1, 1] weighted towards the values where exactness breaks first.
samples_in_range = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
    st.floats(-1.0, 1.0),
)


def make_wav(body: bytes, format_code=1, channels=1, rate=16000, bits=16,
             extra_chunk: bytes = b"") -> bytes:
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_code, channels, rate, rate * block_align,
                      block_align, bits)
    chunks = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra_chunk
              + b"data" + struct.pack("<I", len(body)) + body)
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_decode_pcm16_scaling():
    body = struct.pack("<3h", 16384, -32768, 0)
    clip = decode_wav(make_wav(body))
    assert clip.sample_rate == 16000
    assert clip.samples.tolist() == [0.5, -1.0, 0.0]


def test_decode_float32():
    body = struct.pack("<2f", 0.25, -0.75)
    clip = decode_wav(make_wav(body, format_code=3, bits=32))
    np.testing.assert_allclose(clip.samples, [0.25, -0.75], atol=1e-7)


def test_decode_stereo_preserves_channels():
    body = struct.pack("<4h", 32767, 0, -16384, 16384)
    clip = decode_wav(make_wav(body, channels=2))
    assert clip.channels == 2
    assert clip.samples.shape == (2, 2)


def test_decode_skips_unknown_chunks():
    junk = b"LIST" + struct.pack("<I", 5) + b"hello" + b"\x00"
    clip = decode_wav(make_wav(struct.pack("<h", 16384), extra_chunk=junk))
    assert clip.samples.tolist() == [0.5]


def test_decode_rejects_bad_magic():
    with pytest.raises(MalformedWav):
        decode_wav(b"RIFX" + b"\x00" * 40)
    with pytest.raises(MalformedWav):
        decode_wav(b"RIFF" + struct.pack("<I", 4) + b"AIFF")


def test_decode_rejects_truncated_data_chunk():
    good = make_wav(struct.pack("<4h", 1, 2, 3, 4))
    with pytest.raises(MalformedWav):
        decode_wav(good[:-3])


def test_decode_rejects_unsupported():
    with pytest.raises(UnsupportedFormat):
        decode_wav(make_wav(b"\x00\x00", format_code=2))  # ADPCM
    with pytest.raises(UnsupportedFormat):
        decode_wav(make_wav(b"\x00", bits=8))
    with pytest.raises(UnsupportedFormat):
        # 3 channels
        body = struct.pack("<3h", 0, 0, 0)
        decode_wav(make_wav(body, channels=3))


def test_decode_rejects_out_of_range_float():
    for value in (1.5, -1.5, np.inf, -np.inf, np.nan, -np.nan):
        body = struct.pack("<3f", 0.5, value, -0.5)
        with pytest.raises(MalformedWav):
            decode_wav(make_wav(body, format_code=3, bits=32))


def extensible_fmt(code_or_guid, channels=1, rate=16000, bits=16) -> bytes:
    """A 40-byte WAVE_FORMAT_EXTENSIBLE fmt chunk body."""
    guid = (struct.pack("<I", code_or_guid) + GUID_TAIL
            if isinstance(code_or_guid, int) else code_or_guid)
    block_align = channels * bits // 8
    return (struct.pack("<HHIIHH", 0xFFFE, channels, rate, rate * block_align, block_align,
                        bits)
            + struct.pack("<HHI", 22, bits, 0x3 if channels == 2 else 0x4) + guid)


def with_fmt(wav: bytes, fmt: bytes) -> bytes:
    """``wav`` (16-byte fmt chunk first) with its fmt chunk body replaced."""
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + wav[36:]
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.mark.parametrize("code, bits, body", [
    (1, 16, struct.pack("<4h", 16384, -32768, 0, 7)),
    (3, 32, struct.pack("<4f", 0.25, -0.75, -0.0, 1.0)),
], ids=["pcm16", "float32"])
def test_decode_extensible_pcm_and_float(code, bits, body):
    plain = make_wav(body, format_code=code, channels=2, rate=44100, bits=bits)
    clip = decode_wav(with_fmt(plain, extensible_fmt(code, channels=2, rate=44100, bits=bits)))
    want = decode_wav(plain)
    assert clip.sample_rate == 44100 and clip.channels == 2
    assert_identical(clip.samples, want.samples)


def test_decode_extensible_rejects_other_subformats():
    wav = make_wav(struct.pack("<2h", 1, 2))
    for guid in (struct.pack("<I", 6) + GUID_TAIL,  # A-law
                 struct.pack("<I", 1) + bytes(12),  # PCM code, foreign GUID
                 bytes(range(16))):
        with pytest.raises(UnsupportedFormat):
            decode_wav(with_fmt(wav, extensible_fmt(guid)))
    with pytest.raises(MalformedWav):  # extensible code without the extension
        decode_wav(with_fmt(wav, extensible_fmt(1)[:18]))


def test_decode_rejects_missing_chunks():
    header = b"RIFF" + struct.pack("<I", 4) + b"WAVE"
    with pytest.raises(MalformedWav):
        decode_wav(header)


def test_roundtrip_pcm16_exact():
    rng = np.random.default_rng(1)
    ints = rng.integers(-32768, 32768, size=500)
    clip = AudioClip(samples=ints / 32768.0, sample_rate=8000)
    back = decode_wav(encode_wav(clip))
    assert back.sample_rate == 8000
    assert np.array_equal(back.samples, clip.samples)


def test_roundtrip_stereo():
    rng = np.random.default_rng(2)
    ints = rng.integers(-32768, 32768, size=(100, 2))
    clip = AudioClip(samples=ints / 32768.0, sample_rate=44100)
    back = decode_wav(encode_wav(clip))
    assert back.channels == 2
    assert np.array_equal(back.samples, clip.samples)


def former_encode_pcm16(samples, sample_rate):
    """PCM16 WAV bytes as first written: three full-size float temporaries."""
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    ints = np.clip(np.round(samples.reshape(-1) * 32768.0), -32768, 32767)
    return make_wav(ints.astype("<i2").tobytes(), channels=channels, rate=sample_rate)


# the round-half-to-even cases and the two clip edges
half_steps = st.sampled_from([0.5 / 32768, -0.5 / 32768, 1.5 / 32768, -1.5 / 32768,
                              32767.5 / 32768, -32767.5 / 32768, 1.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(samples=arrays(np.float64, st.one_of(st.integers(0, 33),
                                            st.tuples(st.integers(0, 17), st.integers(1, 3))),
                      elements=st.one_of(samples_in_range, half_steps)))
@example(samples=np.array([1.0, -1.0, 0.5 / 32768]))  # odd sample count
@example(samples=np.array([[1.0, -0.5 / 32768], [-1.0, 0.5 / 32768], [-0.0, 1.5 / 32768]]))
def test_encode_pcm16_equals_former(samples):
    kept = samples.copy()
    clip = AudioClip(samples=samples, sample_rate=22050)
    assert encode_wav(clip) == former_encode_pcm16(kept, 22050)
    assert_identical(clip.samples, kept)  # scaled in a temporary, not in place


def test_to_mono_averages():
    clip = AudioClip(samples=np.array([[1.0, 0.0], [-0.5, 0.5]]), sample_rate=16000)
    mono = to_mono(clip)
    assert mono.samples.tolist() == [0.5, 0.0]


def test_to_mono_identity_and_empty():
    mono = AudioClip(samples=np.array([0.1, 0.2]), sample_rate=16000)
    assert to_mono(mono) is mono
    empty = AudioClip(samples=np.zeros((0, 2)), sample_rate=16000)
    assert len(to_mono(empty)) == 0


def test_to_mono_length_matches_frames():
    rng = np.random.default_rng(3)
    for channels in (1, 2):
        shape = (37,) if channels == 1 else (37, 2)
        clip = AudioClip(samples=rng.uniform(-1, 1, shape), sample_rate=16000)
        assert len(to_mono(clip)) == 37


def test_resample_same_rate_is_identity():
    clip = AudioClip(samples=np.array([0.0, 1.0]), sample_rate=16000)
    assert resample(clip, 16000) is clip


def test_resample_hand_case():
    # positions 0, 0.5, 1, 1.5 against inputs at 0, 1 with endpoint hold
    clip = AudioClip(samples=np.array([0.0, 1.0]), sample_rate=2)
    out = resample(clip, 4)
    assert out.sample_rate == 4
    assert out.samples.tolist() == [0.0, 0.5, 1.0, 1.0]


def test_resample_preserves_duration():
    rng = np.random.default_rng(4)
    clip = AudioClip(samples=rng.uniform(-1, 1, 48000), sample_rate=48000)
    out = resample(clip, 16000)
    assert abs(out.duration_seconds - 1.0) <= 1.0 / 16000


def test_resample_roundtrip_duration():
    rng = np.random.default_rng(5)
    for r1, r2 in ((16000, 22050), (8000, 16000), (44100, 16000)):
        n = int(rng.integers(1000, 5000))
        clip = AudioClip(samples=rng.uniform(-1, 1, n), sample_rate=r1)
        back = resample(resample(clip, r2), r1)
        assert abs(back.duration_seconds - clip.duration_seconds) <= 2.0 / r1


@settings(max_examples=200, deadline=None)
@given(ints=arrays(np.int16, st.integers(0, 64)), stereo=st.booleans())
def test_decode_pcm16_equals_former_scaling(ints, stereo):
    if stereo:
        ints = ints[: len(ints) // 2 * 2].reshape(-1, 2)
    clip = decode_wav(make_wav(ints.astype("<i2").tobytes(), channels=2 if stereo else 1))
    assert_identical(clip.samples, former_pcm16(ints))


@settings(max_examples=200, deadline=None)
@given(samples=arrays(np.float64, st.tuples(st.integers(0, 64), st.integers(1, 3)),
                      elements=samples_in_range))
@example(samples=np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-1.0, 1.0]]))
def test_to_mono_equals_mean(samples):
    assert_identical(to_mono(AudioClip(samples=samples, sample_rate=8000)).samples,
                     former_to_mono(samples))


RATES = [1, 2, 3, 4, 7, 8000, 16000, 22050, 44100, 48000]


@settings(max_examples=300, deadline=None)
@given(samples=arrays(np.float64, st.integers(1, 200), elements=samples_in_range),
       source=st.sampled_from(RATES), target=st.sampled_from(RATES))
@example(samples=np.array([-0.0]), source=16000, target=48000)  # n = 1, upsampled
@example(samples=np.array([-0.0, 0.5, -0.0, -0.0, 1.0]), source=48000, target=16000)
@example(samples=np.array([0.25, -0.0, -1.0, -0.0]), source=2, target=7)  # past the end
@example(samples=np.array([1.0, -1.0, 0.5]), source=44100, target=16000)
def test_resample_equals_interp(samples, source, target):
    clip = AudioClip(samples=samples, sample_rate=source)
    if source == target:
        assert resample(clip, target) is clip
        return
    assert_identical(resample(clip, target).samples, former_resample(samples, source, target))


@settings(max_examples=200, deadline=None)
@given(samples=arrays(np.float64, st.integers(0, 8),
                      elements=st.one_of(samples_in_range,
                                         st.sampled_from([1.0000000000000002, -1.5, np.inf,
                                                          -np.inf, np.nan]))))
def test_clip_range_check_equals_former(samples):
    former_rejects = samples.size > 0 and np.max(np.abs(samples)) > 1.0
    try:
        AudioClip(samples=samples, sample_rate=16000)
        rejected = False
    except ValueError:
        rejected = True
    assert rejected == former_rejects


def plain_fmt(code, channels, rate, bits):
    return struct.pack("<HHIIHH", code, channels, rate, 0, channels * bits // 8, bits)


# fmt bodies a decoder accepts, then ones with any field wrong
accepted_fmt = st.builds(lambda builder, code_bits, channels, rate: builder(
                             code_bits[0], channels=channels, rate=rate, bits=code_bits[1]),
                         st.sampled_from([plain_fmt, extensible_fmt]),
                         st.sampled_from([(1, 16), (3, 32)]), st.integers(1, 2),
                         st.sampled_from([8000, 44100]))
any_fmt = st.one_of(
    st.builds(lambda code, channels, rate, align, bits: struct.pack(
                  "<HHIIHH", code, channels, rate, 0, align, bits),
              st.sampled_from([1, 3, 0xFFFE, 2]), st.integers(0, 3),
              st.integers(0, 2**32 - 1) | st.sampled_from([0, 16000]), st.integers(0, 8),
              st.sampled_from([8, 16, 32, 24])),
    st.builds(extensible_fmt, st.sampled_from([1, 3, 6]) | st.binary(min_size=16, max_size=16),
              st.integers(1, 2), st.sampled_from([16000, 48000]), st.sampled_from([16, 32])),
    st.binary(max_size=48),
)
data_chunk = st.tuples(st.just(b"data"), st.binary(max_size=64) | arrays(
    "<f4", st.integers(0, 8), elements=st.floats(-1, 1, width=32) | st.floats(width=32),
).map(lambda a: a.tobytes()))
chunk_lists = st.one_of(
    st.tuples(st.tuples(st.just(b"fmt "), accepted_fmt), data_chunk).map(list),
    st.lists(st.one_of(
        st.tuples(st.just(b"fmt "), accepted_fmt | any_fmt),
        data_chunk,
        st.tuples(st.sampled_from([b"LIST", b"junk", b"\x00" * 4]), st.binary(max_size=9)),
    ), max_size=4),
)


def riff(parts, cut, size_skew):
    """RIFF bytes of (chunk id, body) parts, with the last chunk's size skewed
    and ``cut`` bytes taken off the end."""
    body = b""
    for i, (cid, data) in enumerate(parts):
        size = max(0, len(data) + (size_skew if i == len(parts) - 1 else 0))
        body += cid + struct.pack("<I", size) + data + b"\x00" * (len(data) & 1)
    wav = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    return wav[: len(wav) - cut]


@settings(max_examples=500, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=64),
    st.builds(riff, chunk_lists, st.sampled_from([0, 0, 0, 1, 3]),
              st.sampled_from([0, 0, 0, 1, -1, 1000])),
))
def test_decode_wav_fuzz_raises_only_vocalscreen_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "in.wav"
    path.write_bytes(data)
    try:
        clip = decode_wav(data)
    except VocalScreenError as exc:
        with pytest.raises(type(exc)):
            load_mono(path)
        return
    assert isinstance(clip, AudioClip)
    assert clip.channels in (1, 2)
    assert np.all(np.abs(clip.samples) <= 1.0)
    assert_identical(load_mono(path).samples, resample(to_mono(clip), 16000).samples)


def wav_of(samples, code, rate, extensible) -> bytes:
    """WAV bytes of a (frames, channels) int16 or float32 array."""
    channels, bits = samples.shape[1], samples.dtype.itemsize * 8
    wav = make_wav(samples.astype(samples.dtype.newbyteorder("<")).tobytes(), format_code=code,
                   channels=channels, rate=rate, bits=bits)
    return with_fmt(wav, extensible_fmt(code, channels, rate, bits)) if extensible else wav


@st.composite
def payloads(draw):
    """(frames, channels) PCM16 or float32 samples, 0 to 200 frames, and their format code."""
    code = draw(st.sampled_from([1, 3]))
    shape = st.tuples(st.integers(0, 200) | st.sampled_from([0, 1, 2]), st.integers(1, 2))
    if code == 1:
        return draw(arrays(np.int16, shape)), code
    return draw(arrays(np.float32, shape, elements=st.floats(-1, 1, width=32))), code


@settings(max_examples=300, deadline=None)
@given(payload=payloads(), rate=st.sampled_from([8000, 16000, 22050, 44100, 48000]),
       extensible=st.booleans())
def test_load_mono_equals_reference(tmp_path_factory, payload, rate, extensible):
    samples, code = payload
    data = wav_of(samples, code, rate, extensible)
    path = tmp_path_factory.mktemp("mono") / "in.wav"
    path.write_bytes(data)
    want = resample(to_mono(decode_wav(data)), 16000)
    with mock.patch.object(audio_io, "_BLOCK", 8):  # up to 50 blocks per file
        got = load_mono(path)
    assert got.sample_rate == 16000
    assert_identical(got.samples, want.samples)


@pytest.mark.parametrize("rate, dtype, channels", [
    (48000, np.float32, 2), (44100, np.int16, 2), (16000, np.int16, 1), (16000, np.float32, 2),
])
def test_load_mono_equals_reference_over_full_blocks(tmp_path, rate, dtype, channels):
    rng = np.random.default_rng(rate + channels)
    frames = 3 * audio_io._BLOCK * rate // 16000 + 7  # three output blocks and a part
    samples = rng.uniform(-1, 1, (frames, channels))
    samples[::5] = -0.0
    if dtype == np.int16:
        samples = np.round(samples * 32767)
    path = tmp_path / "in.wav"
    path.write_bytes(wav_of(samples.astype(dtype), 1 if dtype == np.int16 else 3, rate, False))
    assert_identical(load_mono(path).samples,
                     resample(to_mono(audio_io.load_wav(path)), 16000).samples)


@pytest.mark.parametrize("frame", [3 * 20 + 2, 299])
def test_load_mono_rejects_nan_on_any_frame(tmp_path, frame):
    # at 48 kHz output i reads frames 3i and 3i + 1 only; 299 is the last frame
    samples = np.zeros((300, 2), dtype=np.float32)
    samples[frame, 1] = np.nan
    path = tmp_path / "nan.wav"
    path.write_bytes(wav_of(samples, 3, 48000, False))
    with pytest.raises(MalformedWav, match="float sample NaN"):
        load_mono(path)


def test_clip_invariants():
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros(4), sample_rate=0)
    with pytest.raises(ValueError):
        AudioClip(samples=np.array([1.5]), sample_rate=16000)
    clip = AudioClip(samples=np.zeros(8000), sample_rate=16000)
    assert clip.duration_seconds == 0.5
