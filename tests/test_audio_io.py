import re
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
    _ClipBlocks,
    decode_wav,
    encode_wav,
    load_mono,
    load_wav,
    max_wav_frames,
    resample,
    save_wav,
    to_mono,
)
from vocalscreen.errors import VocalScreenError
from vocalscreen.rng import round_half_up

from conftest import traced_peak

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


def riff_wave(*chunks) -> bytes:
    """A RIFF/WAVE container of (chunk id, body) pairs, each padded to an even size."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + bytes(len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


PCM_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)


@pytest.mark.parametrize("data, error, message", [
    (b"RIFF\x04\x00\x00\x00WAV", MalformedWav, "file shorter than a RIFF header"),
    (b"RIFX" + bytes(40), MalformedWav, "missing RIFF magic"),
    (b"RIFF" + struct.pack("<I", 4) + b"AIFF", MalformedWav, "missing WAVE form type"),
    (b"RIFF" + struct.pack("<I", 8) + b"WAVEfmt ", MalformedWav, "truncated chunk header"),
    (make_wav(struct.pack("<4h", 1, 2, 3, 4))[:-3], MalformedWav,
     "chunk b'data' truncated: declared 8 bytes"),
    (riff_wave((b"fmt ", PCM_FMT[:15]), (b"data", b"\x00\x00")), MalformedWav,
     "fmt chunk shorter than 16 bytes"),
    (riff_wave(), MalformedWav, "missing fmt chunk"),
    (riff_wave((b"data", b"\x00\x00")), MalformedWav, "missing fmt chunk"),
    (riff_wave((b"fmt ", PCM_FMT)), MalformedWav, "missing data chunk"),
    (make_wav(b"\x00\x00", format_code=2), UnsupportedFormat,  # ADPCM
     "format code 2 (want PCM or IEEE float)"),
    (make_wav(bytes(6), channels=3), UnsupportedFormat, "3 channels (want 1 or 2)"),
    (make_wav(b"\x00\x00", rate=0), MalformedWav, "non-positive sample rate in fmt chunk"),
    (make_wav(b"\x00", bits=8), UnsupportedFormat, "8-bit PCM (want 16)"),
    (make_wav(b"\x00\x00", format_code=3, bits=16), UnsupportedFormat, "16-bit float (want 32)"),
    (riff_wave((b"fmt ", PCM_FMT[:12] + struct.pack("<HH", 4, 16)), (b"data", b"\x00\x00")),
     MalformedWav, "block align 4 != 2"),
    (make_wav(b"\x00\x00\x00"), MalformedWav, "data chunk is not a whole number of frames"),
    (riff_wave((b"fmt ", extensible_fmt(1)[:39]), (b"data", b"\x00\x00")),
     MalformedWav, "WAVE_FORMAT_EXTENSIBLE fmt chunk shorter than 40 bytes"),
    (riff_wave((b"fmt ", extensible_fmt(struct.pack("<I", 6) + GUID_TAIL)),
               (b"data", b"\x00\x00")),
     UnsupportedFormat,
     "extensible sub-format 0600000000001000800000aa00389b71 (want PCM or IEEE float)"),
    # the format code is all four leading bytes: 0x01000001, not PCM
    (riff_wave((b"fmt ", extensible_fmt(struct.pack("<I", 1 + (1 << 24)) + GUID_TAIL)),
               (b"data", b"\x00\x00")),
     UnsupportedFormat,
     "extensible sub-format 0100000100001000800000aa00389b71 (want PCM or IEEE float)"),
    (make_wav(struct.pack("<2f", 0.5, np.nan), format_code=3, bits=32), MalformedWav,
     "float sample NaN or outside [-1, 1]"),
])
def test_decoders_name_each_fault_alike(tmp_path, data, error, message):
    """Each container or payload fault raises its own error, the same from the
    bytes decoder and from the block reader of a file."""
    path = tmp_path / "bad.wav"
    path.write_bytes(data)
    for decode, arg in ((decode_wav, data), (load_mono, path)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            decode(arg)


def test_roundtrip_pcm16_exact():
    rng = np.random.default_rng(1)
    ints = rng.integers(-32768, 32768, size=500)
    clip = AudioClip(samples=ints / 32768.0, sample_rate=8000)
    back = decode_wav(encode_wav(clip))
    assert back.sample_rate == 8000 and back.channels == 1
    assert np.array_equal(back.samples, clip.samples)


def test_roundtrip_stereo():
    rng = np.random.default_rng(2)
    ints = rng.integers(-32768, 32768, size=(100, 2))
    clip = AudioClip(samples=ints / 32768.0, sample_rate=44100)
    back = decode_wav(encode_wav(clip))
    assert back.channels == 2
    assert np.array_equal(back.samples, clip.samples)


def former_encode(samples, sample_rate, bit_depth=16):
    """WAV bytes as first written, from whole-array temporaries: PCM16 or float32."""
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    interleaved = samples.reshape(-1)
    if bit_depth == 32:
        return make_wav(interleaved.astype("<f4").tobytes(), format_code=3,
                        channels=channels, rate=sample_rate, bits=32)
    ints = np.clip(np.round(interleaved * 32768.0), -32768, 32767)
    return make_wav(ints.astype("<i2").tobytes(), channels=channels, rate=sample_rate)


# the round-half-to-even cases and the two clip edges
half_steps = st.sampled_from([0.5 / 32768, -0.5 / 32768, 1.5 / 32768, -1.5 / 32768,
                              32767.5 / 32768, -32767.5 / 32768, 1.0, -1.0])


@settings(max_examples=300, deadline=None)
@given(samples=arrays(np.float64, st.one_of(st.integers(0, 33),
                                            st.tuples(st.integers(0, 17), st.integers(1, 2))),
                      elements=st.one_of(samples_in_range, half_steps)))
@example(samples=np.array([1.0, -1.0, 0.5 / 32768]))  # odd sample count
@example(samples=np.array([[1.0, -0.5 / 32768], [-1.0, 0.5 / 32768], [-0.0, 1.5 / 32768]]))
def test_encode_pcm16_equals_former(samples):
    kept = samples.copy()
    clip = AudioClip(samples=samples, sample_rate=22050)
    assert encode_wav(clip) == former_encode(kept, 22050)
    assert_identical(clip.samples, kept)  # scaled in a temporary, not in place


@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), stereo=st.booleans(), column_major=st.booleans(),
       bit_depth=st.sampled_from([16, 32]))
def test_block_writer_equals_former(tmp_path_factory, block, data, stereo, column_major,
                                    bit_depth):
    """save_wav's file, encode_wav's bytes and the whole-array definition agree
    for every clip length around the block edges, in either memory order."""
    frames = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 2]))
    samples = data.draw(arrays(np.float64, (frames, 2) if stereo else frames,
                               elements=st.one_of(samples_in_range, half_steps)))
    if column_major:
        samples = np.asfortranarray(samples)
    clip = AudioClip(samples=samples, sample_rate=22050)
    path = tmp_path_factory.mktemp("writer") / "clip.wav"
    with mock.patch.object(audio_io, "_BLOCK", block):
        save_wav(path, clip, bit_depth)
        encoded = encode_wav(clip, bit_depth)
    assert path.read_bytes() == encoded == former_encode(samples, 22050, bit_depth)


def _unchecked_clip(samples, sample_rate=16000):
    """A clip whose samples skip AudioClip's range check, so a zero-stride view
    can stand for more frames than memory holds."""
    clip = AudioClip(samples=np.zeros(1), sample_rate=sample_rate)
    object.__setattr__(clip, "samples", samples)
    return clip


@pytest.mark.parametrize("clip, bit_depth, field", [
    (AudioClip(samples=np.zeros((4, 3)), sample_rate=16000), 16, "channels"),
    # the RIFF size is 36 bytes plus the body, one frame past the limit
    pytest.param(_unchecked_clip(np.broadcast_to(0.0, (max_wav_frames(1, 16) + 1,))), 16,
                 r"^RIFF size 4294967296 \(2147483630 frames of 2 bytes\) overflows 32 bits$",
                 id="clip3-16-RIFF size"),
    pytest.param(_unchecked_clip(np.broadcast_to(0.0, (max_wav_frames(2, 32) + 1, 2))), 32,
                 r"^RIFF size 4294967300 \(536870908 frames of 8 bytes\) overflows 32 bits$",
                 id="clip4-32-RIFF size"),
    # struct.error escaped for these two
    pytest.param(AudioClip(samples=np.zeros(4), sample_rate=2 ** 31), 16, "byte rate",
                 id="clip5-16-byte rate"),
    pytest.param(AudioClip(samples=np.zeros((4, 2)), sample_rate=2 ** 29), 32, "byte rate",
                 id="clip6-32-byte rate"),
    pytest.param(AudioClip(samples=np.zeros(4), sample_rate=16000), 24,
                 "bit_depth must be 16 or 32", id="clip7-24-bit_depth must be 16 or 32"),
])
def test_writer_rejects_what_a_wav_cannot_hold(tmp_path, clip, bit_depth, field):
    with pytest.raises(ValueError, match=field):
        encode_wav(clip, bit_depth)
    path = tmp_path / "out.wav"
    with pytest.raises(ValueError, match=field):
        save_wav(path, clip, bit_depth)
    assert not path.exists()


def test_writer_limits_are_exact():
    assert max_wav_frames(1, 16) == 2_147_483_629  # 36 + 2 n <= 2^32 - 1
    assert max_wav_frames(2, 32) == (2 ** 32 - 1 - 36) // 8
    # the header of a clip at the frame limit is accepted; its body is not written
    audio_io._wav_writer((max_wav_frames(1, 16),), 16000, 16)
    back = decode_wav(encode_wav(AudioClip(samples=np.zeros(3), sample_rate=2 ** 31 - 1)))
    assert back.sample_rate == 2 ** 31 - 1  # byte rate 2^32 - 2
    back = decode_wav(encode_wav(AudioClip(samples=np.zeros((3, 2)), sample_rate=2 ** 29 - 1), 32))
    assert back.sample_rate == 2 ** 29 - 1 and back.channels == 2
    assert decode_wav(encode_wav(AudioClip(samples=np.zeros(3), sample_rate=1))).sample_rate == 1


def refilled(blocks):
    """``blocks`` yielded as views of one buffer, refilled in place for each."""
    buffer = np.empty(max(map(len, blocks), default=0))
    for block in blocks:
        view = buffer[:len(block)]
        view[:] = block
        yield view


@settings(max_examples=100, deadline=None)
@given(samples=arrays(np.float64, st.integers(0, 40),
                      elements=st.one_of(samples_in_range, half_steps)),
       cuts=st.lists(st.integers(0, 40)), bit_depth=st.sampled_from([16, 32]))
def test_save_wav_of_blocks_equals_encode_wav(tmp_path_factory, samples, cuts, bit_depth):
    """A _ClipBlocks writes the bytes of the clip its blocks join into, wherever the blocks
    are cut (empty blocks too) and whether or not they share one buffer."""
    blocks = np.split(samples, sorted(cuts))
    expected = encode_wav(AudioClip(samples=samples, sample_rate=22050), bit_depth)
    path = tmp_path_factory.mktemp("blocks") / "clip.wav"
    for given_blocks in (iter(blocks), refilled(blocks)):
        save_wav(path, _ClipBlocks(given_blocks, len(samples), 22050), bit_depth)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("frames", [2, 4])
def test_save_wav_rejects_blocks_short_or_long_of_their_frames(tmp_path, frames):
    # the header declares ``frames``; a WAV whose body says otherwise would misread
    with pytest.raises(ValueError, match=f"^blocks held 3 frames, the header declares {frames}$"):
        save_wav(tmp_path / "a.wav",
                 _ClipBlocks(iter([np.zeros(2), np.zeros(1)]), frames, 16000))


@pytest.mark.parametrize("frames, sample_rate, field", [
    (max_wav_frames(1, 16) + 1, 16000, "RIFF size"),
    (4, 2 ** 31, "byte rate"),
])
def test_save_wav_checks_the_header_of_blocks_before_opening(tmp_path, frames, sample_rate,
                                                             field):
    path = tmp_path / "out.wav"
    with pytest.raises(ValueError, match=field):
        save_wav(path, _ClipBlocks(iter([]), frames, sample_rate))
    assert not path.exists()


@pytest.mark.parametrize("channels", [1, 2])
def test_save_wav_holds_one_block(tmp_path, channels):
    """Writing a 20 s clip allocates block-sized buffers, not a copy of the clip."""
    t = np.arange(20 * 16000) / 16000
    samples = 0.5 * np.sin(2 * np.pi * 220 * t)
    clip = AudioClip(samples=samples if channels == 1 else np.stack([samples, samples], 1),
                     sample_rate=16000)
    del t, samples
    assert traced_peak(save_wav, tmp_path / "long.wav", clip) < 1_000_000
    assert traced_peak(save_wav, tmp_path / "long32.wav", clip, 32) < 1_000_000


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


@pytest.mark.parametrize("target_rate", [8000.0, True])
def test_resample_rejects_a_target_rate_that_is_not_an_int(monkeypatch, target_rate):
    # rejected before any interpolation, naming the argument, as AudioClip names sample_rate
    monkeypatch.setattr(audio_io, "_resampled", None)
    clip = AudioClip(samples=np.zeros(8), sample_rate=16000)
    with pytest.raises(ValueError, match=rf"^target_rate must be an integer, got {target_rate!r}$"):
        resample(clip, target_rate)


def test_resample_rejects_a_rate_below_one_and_a_stereo_clip():
    with pytest.raises(ValueError, match="^target_rate must be positive$"):
        resample(AudioClip(samples=np.zeros(8), sample_rate=16000), 0)
    with pytest.raises(ValueError, match="^resample expects a mono clip; call to_mono first$"):
        resample(AudioClip(samples=np.zeros((8, 2)), sample_rate=16000), 8000)


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
    # as before, but NaN is rejected too: it no longer passes as silence
    former_rejects = not np.all(np.abs(samples) <= 1.0)
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
@given(payload=payloads(),
       rate=st.sampled_from([8000, 16000, 22050, 32000, 44100, 48000, 96000]),
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


@pytest.mark.parametrize("dtype, channels", [
    (np.int16, 1), (np.int16, 2), (np.float32, 1), (np.float32, 2),
])
def test_load_mono_equals_reference_upsampling_5512(tmp_path, dtype, channels):
    # 8 outputs from 5512 Hz span 2.4 frames, so a block can read all 3 spare frames
    # of load_mono's buffer of int(8 * 5512 / 16000) + 3
    samples = np.random.default_rng(channels).uniform(-1, 1, (200, channels))
    if dtype == np.int16:
        samples = np.round(samples * 32767)
    path = tmp_path / "in.wav"
    path.write_bytes(wav_of(samples.astype(dtype), 1 if dtype == np.int16 else 3, 5512, False))
    want = resample(to_mono(audio_io.load_wav(path)), 16000)
    with mock.patch.object(audio_io, "_BLOCK", 8):
        got = load_mono(path)
    assert_identical(got.samples, want.samples)


@pytest.mark.parametrize("rate, dtype, channels", [
    (48000, np.float32, 2), (44100, np.int16, 2), (16000, np.int16, 1), (16000, np.float32, 2),
])
def test_load_mono_equals_reference_over_full_blocks(tmp_path, monkeypatch, rate, dtype,
                                                     channels):
    if rate % 16000 == 0:  # every output falls on a frame, so nothing is interpolated
        monkeypatch.setattr(audio_io, "_interpolate", None)
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


@pytest.mark.parametrize("frame, rate, block", [
    pytest.param(3 * 20 + 2, 48000, None, id="62"),
    pytest.param(299, 48000, None, id="299"),
    # the last output reads frame 297, so frames 298 and 299 are read after it
    pytest.param(298, 48000, None, id="298"),
    pytest.param(3 * 20 + 2, 44100, None, id="44100-62"),
    # with 8 outputs a block, block k reads frames 24k..24k + 21: frame 80 inside the
    # fourth, frame 22 between the first two, which is read and checked on its own
    pytest.param(80, 48000, 8, id="block8-80"),
    pytest.param(22, 48000, 8, id="block8-22"),
    # at 8 kHz block k reads frames 4k..4k + 4, so each shares its first frame with
    # the last block: frame 6 is one of the second block's own
    pytest.param(6, 8000, 8, id="block8-8000-6"),
])
def test_load_mono_rejects_nan_on_any_frame(tmp_path, frame, rate, block):
    # at 48 kHz output i reads frame 3i only; 299 is the last frame
    samples = np.zeros((300, 2), dtype=np.float32)
    samples[frame, 1] = np.nan
    path = tmp_path / "nan.wav"
    path.write_bytes(wav_of(samples, 3, rate, False))
    with mock.patch.object(audio_io, "_BLOCK", block or audio_io._BLOCK):
        with pytest.raises(MalformedWav, match="float sample NaN"):
            load_mono(path)


@st.composite
def edge_samples(draw, dtype, channels):
    """(frames, channels) samples at and within 3 steps of +1 or -1, or +-0.0, their
    signs drawn or alternating frame by frame (each step then spans almost 2)."""
    if dtype == np.int16:
        high, low = [32767, 32766, 32765, 32764, 0], [-32768, -32767, -32766, -32765, 0]
    else:
        high = [dtype(1.0)]
        for _ in range(3):
            high.append(np.nextafter(high[-1], dtype(0.0)))
        low = [-v for v in high] + [dtype(-0.0)]
        high.append(dtype(0.0))
    shape = (draw(st.integers(1, 60)), channels)
    pick = draw(arrays(np.intp, shape, elements=st.integers(0, 4)))
    if draw(st.booleans()):
        positive = np.arange(shape[0])[:, None] % 2 == 0
    else:
        positive = draw(arrays(bool, shape))
    return np.where(positive, np.array(high, dtype)[pick], np.array(low, dtype)[pick])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.int16]),
       channels=st.integers(1, 2), rate=st.sampled_from([5512, 8000, 44100, 48000]))
def test_resample_and_load_mono_stay_in_range_at_the_edges(tmp_path_factory, data, dtype,
                                                           channels, rate):
    """Nothing checks resampled values again, so they must stay in [-1, 1]."""
    mono = data.draw(edge_samples(np.float64, 1))[:, 0]
    resampled = resample(AudioClip(samples=mono, sample_rate=rate), 16000).samples
    assert np.all(np.abs(resampled) <= 1.0)
    path = tmp_path_factory.mktemp("edge") / "in.wav"
    path.write_bytes(wav_of(data.draw(edge_samples(dtype, channels)),
                            1 if dtype == np.int16 else 3, rate, False))
    with mock.patch.object(audio_io, "_BLOCK", 8):
        assert np.all(np.abs(load_mono(path).samples) <= 1.0)


@pytest.mark.parametrize("rate, dtype", [(48000, np.float32), (44100, np.int16),
                                         (16000, np.int16)])
def test_load_mono_holds_one_block(tmp_path, rate, dtype):
    """Reading a 20 s stereo file allocates the clip and block-sized buffers, not the file."""
    samples = np.zeros((20 * rate, 2), dtype=dtype)
    path = tmp_path / "long.wav"
    path.write_bytes(wav_of(samples, 1 if dtype == np.int16 else 3, rate, False))
    del samples
    clip_bytes = 20 * 16000 * 8
    assert traced_peak(load_mono, path) < clip_bytes + 2_000_000


@pytest.mark.parametrize("rate, dtype, channels", [
    (16000, np.int16, 1), (48000, np.float32, 2), (32000, np.float32, 1),
    (44100, np.float32, 2), (22050, np.float32, 1), (8000, np.int16, 1),
])
def test_load_mono_reads_each_payload_byte_once(tmp_path, monkeypatch, rate, dtype, channels):
    """Payload bytes that load_mono reads, against the payload's size: at a whole multiple
    of 16 kHz each byte once, exactly. Otherwise a read may take again the one frame its
    block shares with the block before, so the bound allows one frame per read after the
    first, 4 or 5 frames here (measured: 0 at 44.1 kHz, 2 at 22.05 kHz and 4 at 8 kHz,
    each at least 1 frame under its bound). Float frames are range-checked, so each is
    read at least once; PCM16 skips only frames after the last output's neighbour."""
    frames = 3 * audio_io._BLOCK * rate // 16000 + 7  # three output blocks and a part
    samples = np.zeros((frames, channels), dtype=dtype)
    path = tmp_path / "in.wav"
    path.write_bytes(wav_of(samples, 1 if dtype == np.int16 else 3, rate, False))
    read = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def readinto(self, buffer):
            read.append(self.fh.readinto(buffer))
            return read[-1]

    monkeypatch.setattr(audio_io, "open", lambda *args: Counting(open(*args)), raising=False)
    load_mono(path)
    frame_bytes = samples.itemsize * channels
    skipped = 0 if dtype == np.float32 else 2 * rate // 16000 + 2
    assert samples.nbytes - skipped * frame_bytes <= sum(read)
    assert sum(read) <= samples.nbytes + (len(read) - 1) * frame_bytes
    if rate % 16000 == 0:
        assert sum(read) == samples.nbytes


@pytest.mark.parametrize("rate, dtype", [(48000, np.float32), (44100, np.int16)])
@pytest.mark.parametrize("loader", [load_mono, audio_io.load_wav])
def test_read_of_a_file_shrunk_after_its_header_walk_raises(tmp_path, rate, dtype, loader):
    # float32 at 48 kHz comes short in a stride block, PCM16 at 44.1 kHz in an
    # interpolation block
    samples = np.full((3 * rate, 2), 0.25, dtype=dtype)
    path = tmp_path / "in.wav"
    path.write_bytes(wav_of(samples, 1 if dtype == np.int16 else 3, rate, False))
    parse_wav = audio_io._parse_wav

    def parse_then_truncate(fh):
        payload = parse_wav(fh)
        with open(path, "r+b") as out:
            out.truncate(payload.offset + samples.nbytes // 2 + 3)
        return payload

    with mock.patch.object(audio_io, "_parse_wav", parse_then_truncate):
        with pytest.raises(MalformedWav, match="file truncated: read"):
            loader(path)


# a scalar clip made encode_wav raise IndexError; a (4, 2, 2) one made to_mono
# return garbage
@pytest.mark.parametrize("shape, accepted", [
    ((0,), True), ((4,), True), ((0, 2), True), ((4, 1), True), ((4, 3), True),
    ((), False), ((4, 0), False), ((0, 0), False), ((4, 2, 2), False), ((1, 1, 1), False),
])
def test_clip_shape_is_mono_or_frames_by_channels(shape, accepted):
    if accepted:
        assert AudioClip(samples=np.zeros(shape), sample_rate=16000).samples.shape == shape
        return
    with pytest.raises(ValueError, match=re.escape(
            f"samples must have shape (n,) or (n, channels), got {shape}")):
        AudioClip(samples=np.zeros(shape), sample_rate=16000)


@pytest.mark.parametrize("samples, dtype", [
    (np.array([0.5 + 0.5j]), "complex128"),  # kept its real part with a ComplexWarning
    (np.array(["0.5"]), "<U3"),  # read as 0.5
    (np.array([0.5], dtype=object), "object"),
    (np.array([0], dtype="datetime64[s]"), "datetime64[s]"),
])
def test_clip_rejects_samples_that_are_not_real_numbers(samples, dtype):
    message = f"samples must hold real numbers, got dtype {dtype}"
    with pytest.raises(ValueError, match=re.escape(message)):
        AudioClip(samples=samples, sample_rate=16000)


@pytest.mark.parametrize("samples", [
    np.array([True, False]), np.array([1, 0, -1], dtype=np.int8),
    np.array([0, 1], dtype=np.uint16), np.array([0.5, -0.25], dtype=np.float32),
    [0.5, -0.25], [1, 0],
])
def test_clip_takes_bool_integer_and_float_samples_as_float64(samples):
    clip = AudioClip(samples=samples, sample_rate=16000)
    assert clip.samples.dtype == np.float64
    assert clip.samples.tolist() == [float(x) for x in samples]


def test_clip_invariants():
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros(4), sample_rate=0)
    with pytest.raises(ValueError):
        AudioClip(samples=np.array([1.5]), sample_rate=16000)
    # a rate the WAV header cannot pack raised struct.error only when the clip was written
    for rate in (16000.5, 16000.0, True):
        with pytest.raises(ValueError, match="sample_rate must be an integer"):
            AudioClip(samples=np.zeros(4), sample_rate=rate)
    clip = AudioClip(samples=np.zeros(8000), sample_rate=16000)
    assert clip.duration_seconds == 0.5


def test_clip_samples_cannot_change_after_the_check(tmp_path):
    # a write through the array the clip kept put NaN into a checked clip
    x = np.array([0.5, 0.25, -0.25])
    clip = AudioClip(samples=x, sample_rate=16000)
    assert clip.samples is x  # kept, not copied
    with pytest.raises(ValueError, match="read-only"):
        x[1] = np.nan
    assert clip.samples.tolist() == [0.5, 0.25, -0.25]
    # an array the check rejects is left as the caller had it
    bad = np.array([0.5, 1.5])
    with pytest.raises(ValueError, match=r"\[-1.0, 1.0\]"):
        AudioClip(samples=bad, sample_rate=16000)
    bad[1] = 0.0
    save_wav(tmp_path / "a.wav", AudioClip(samples=np.zeros((4, 2)), sample_rate=48000))
    for made in (load_mono(tmp_path / "a.wav"), to_mono(load_wav(tmp_path / "a.wav")),
                 resample(clip, 8000)):
        with pytest.raises(ValueError, match="read-only"):
            made.samples[0] = 0.0
