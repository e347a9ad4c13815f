"""WAV decoding, channel mixdown, and resampling.

Everything downstream works on mono clips at the canonical pipeline rate
(16 kHz), so ingestion is: ``decode_wav`` -> ``to_mono`` -> ``resample``.
Only RIFF/WAVE containers (plain or WAVE_FORMAT_EXTENSIBLE) with PCM
16-bit or IEEE float 32-bit payloads, finite samples and one or two
channels are accepted; rejecting anything else beats silently misreading
it.

Each step writes its result into one new array and allocates no
temporary the size of its input: the decoder reads the payload in place
from the file bytes, and ``resample`` gathers the two neighbours of each
output position instead of building an input-length abscissa. Each step
equals its plain numpy definition bit for bit (``astype(float64) /
32768``, ``mean(axis=1)``, ``np.interp`` over ``arange(n)``), signed
zeros included.
"""

from dataclasses import dataclass
import struct

import numpy as np

from .errors import VocalScreenError

# Canonical pipeline rate. All frequency constants downstream (mel range,
# FFT bin spacing) assume clips were resampled to this on ingestion.
DEFAULT_SAMPLE_RATE = 16000

# 16-bit ints scale by 1/32768 (not 32767) so -32768 maps exactly to -1.0.
INT16_SCALE = 32768.0

FORMAT_PCM = 1
FORMAT_IEEE_FLOAT = 3
FORMAT_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_{PCM,IEEE_FLOAT} GUIDs are the format code (4 bytes,
# little-endian) followed by these 12 bytes.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("0000 1000 8000 00aa00389b71")


class MalformedWav(VocalScreenError):
    """Container violates the RIFF/WAVE contract (bad magic, truncation...)."""


class UnsupportedFormat(VocalScreenError):
    """Valid container but a payload this pipeline does not accept."""


@dataclass(frozen=True)
class AudioClip:
    """A sample buffer with its rate.

    ``samples`` is float64 in [-1.0, 1.0]; shape ``(n,)`` for mono or
    ``(n, channels)`` straight out of the decoder. All processing beyond
    ``to_mono`` expects mono.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.size and (self.samples.max() > 1.0 or self.samples.min() < -1.0):
            raise ValueError("samples must lie in [-1.0, 1.0]")

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def _read_chunks(data: bytes):
    """Yield (chunk_id, payload) for every chunk after the RIFF header.

    Payloads are memoryview slices of ``data``, not copies.
    """
    data = memoryview(data)
    if len(data) < 12:
        raise MalformedWav("file shorter than a RIFF header")
    if data[0:4] != b"RIFF":
        raise MalformedWav("missing RIFF magic")
    if data[8:12] != b"WAVE":
        raise MalformedWav("missing WAVE form type")
    pos = 12
    while pos < len(data):
        if pos + 8 > len(data):
            raise MalformedWav("truncated chunk header")
        chunk_id = bytes(data[pos : pos + 4])
        (size,) = struct.unpack_from("<I", data, pos + 4)
        start = pos + 8
        if start + size > len(data):
            raise MalformedWav(f"chunk {chunk_id!r} truncated: declared {size} bytes")
        yield chunk_id, data[start : start + size]
        # chunks are word-aligned; odd sizes carry one pad byte
        pos = start + size + (size & 1)


def decode_wav(data: bytes) -> AudioClip:
    """Decode WAV bytes into an AudioClip (mono or stereo).

    Integer samples are scaled by 1/32768; float samples are taken as-is
    and must already lie in [-1, 1] (NaN is rejected). Unknown chunks are
    skipped. WAVE_FORMAT_EXTENSIBLE is read by its sub-format GUID.

    Raises MalformedWav for container damage or an out-of-range float
    sample and UnsupportedFormat for codecs, bit depths, or channel counts
    outside PCM16/float32 x {1,2}.
    """
    fmt = None
    payload = None
    for chunk_id, body in _read_chunks(data):
        if chunk_id == b"fmt " and fmt is None:
            if len(body) < 16:
                raise MalformedWav("fmt chunk shorter than 16 bytes")
            fmt = body
        elif chunk_id == b"data" and payload is None:
            payload = body
    if fmt is None:
        raise MalformedWav("missing fmt chunk")
    if payload is None:
        raise MalformedWav("missing data chunk")

    format_code, channels, sample_rate, _byte_rate, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0)
    if format_code == FORMAT_EXTENSIBLE:
        format_code = _subformat_code(fmt)
    if format_code not in (FORMAT_PCM, FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"format code {format_code} (want PCM or IEEE float)")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{channels} channels (want 1 or 2)")
    if sample_rate <= 0:
        raise MalformedWav("non-positive sample rate in fmt chunk")

    if format_code == FORMAT_PCM:
        if bits != 16:
            raise UnsupportedFormat(f"{bits}-bit PCM (want 16)")
        sample_bytes = 2
    else:
        if bits != 32:
            raise UnsupportedFormat(f"{bits}-bit float (want 32)")
        sample_bytes = 4

    frame_bytes = sample_bytes * channels
    if block_align != frame_bytes:
        raise MalformedWav(f"block align {block_align} != {frame_bytes}")
    if len(payload) % frame_bytes:
        raise MalformedWav("data chunk is not a whole number of frames")

    if format_code == FORMAT_PCM:
        # 1/32768 is a power of two, so this product equals the division
        raw = np.multiply(np.frombuffer(payload, dtype="<i2"), 1.0 / INT16_SCALE,
                          dtype=np.float64)
    else:
        floats = np.frombuffer(payload, dtype="<f4")
        # negated comparisons: max()/min() propagate NaN, which fails both
        if floats.size and not (floats.max() <= 1.0 and floats.min() >= -1.0):
            raise MalformedWav("float sample NaN or outside [-1, 1]")
        raw = floats.astype(np.float64)

    if channels == 2:
        raw = raw.reshape(-1, 2)
    return AudioClip(samples=raw, sample_rate=int(sample_rate))


def _subformat_code(fmt) -> int:
    """Format code named by a WAVE_FORMAT_EXTENSIBLE fmt chunk.

    The 16 plain fmt bytes are followed by cbSize, valid bits and channel
    mask (8 bytes), then the 16-byte sub-format GUID; only the PCM and
    IEEE float GUIDs are understood.
    """
    if len(fmt) < 40:
        raise MalformedWav("WAVE_FORMAT_EXTENSIBLE fmt chunk shorter than 40 bytes")
    guid = bytes(fmt[24:40])
    code = int.from_bytes(guid[:4], "little")
    if guid[4:] != _SUBFORMAT_GUID_TAIL or code not in (FORMAT_PCM, FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"extensible sub-format {guid.hex()} (want PCM or IEEE float)")
    return code


def _wav_parts(clip: AudioClip, bit_depth: int) -> tuple:
    """The 44-byte header of a clip's WAV file and its sample body array.

    The body is little-endian ``<i2`` (PCM16) or ``<f4`` (float32),
    interleaved frame by frame: the file is the header, then the body.
    """
    interleaved = clip.samples.reshape(-1)
    if bit_depth == 16:
        scaled = np.multiply(interleaved, INT16_SCALE)  # the one float temporary
        np.clip(np.round(scaled, out=scaled), -32768, 32767, out=scaled)
        body, format_code = scaled.astype("<i2"), FORMAT_PCM
    elif bit_depth == 32:
        body, format_code = interleaved.astype("<f4"), FORMAT_IEEE_FLOAT
    else:
        raise ValueError(f"bit_depth must be 16 or 32, got {bit_depth}")
    # the RIFF size counts "WAVE", the 24-byte fmt chunk and the 8-byte data chunk
    # header (36 bytes), then the body; 2- and 4-byte samples make an even body,
    # so the data chunk needs no pad byte
    block_align = clip.channels * bit_depth // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + body.nbytes, b"WAVE",
                         b"fmt ", 16, format_code, clip.channels, clip.sample_rate,
                         clip.sample_rate * block_align, block_align, bit_depth,
                         b"data", body.nbytes)
    return header, body


def encode_wav(clip: AudioClip, bit_depth: int = 16) -> bytes:
    """Serialize a clip to WAV bytes (PCM16 or float32).

    PCM16 encoding rounds ``sample * 32768`` to the nearest integer and
    clamps to the int16 range, so decode(encode(decode(x))) is lossless.
    """
    header, body = _wav_parts(clip, bit_depth)
    return header + body.tobytes()


def to_mono(clip: AudioClip) -> AudioClip:
    """Mix down to mono by averaging channels; mono input passes through.

    Adds the channel columns into one output array, ``(L + R + 0.0) / 2``
    for stereo. That is ``mean(axis=1)`` bit for bit for fewer than eight
    channels: mean sums from a +0.0 identity, so all channels -0.0 average
    to +0.0.
    """
    if clip.samples.ndim == 1:
        return clip
    first, *rest = clip.samples.T
    mono = first + rest[0] if rest else first.copy()
    for channel in rest[1:]:
        mono += channel
    mono += 0.0
    mono /= clip.channels
    return AudioClip(samples=mono, sample_rate=clip.sample_rate)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resample of a mono clip.

    Output length is round(len * target/source), half up. Output i sits at
    input position x = i * source/target; with j = floor(x) it is
    ``(y[j+1] - y[j]) * (x - j) + y[j]``, or ``y[j]`` itself when x == j,
    and positions at or past the last input sample hold the endpoint
    value. That is ``np.interp(x, arange(n), y)`` bit for bit, computed by
    gathering the two neighbours of each position, without an input-length
    abscissa.
    """
    from .rng import round_half_up

    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if clip.samples.ndim != 1:
        raise ValueError("resample expects a mono clip; call to_mono first")
    if target_rate == clip.sample_rate:
        return clip
    n = len(clip.samples)
    m = round_half_up(n * target_rate / clip.sample_rate)
    if n == 0 or m == 0:
        return AudioClip(samples=np.zeros(0), sample_rate=target_rate)
    y = clip.samples
    positions = np.arange(m, dtype=np.float64)
    positions *= clip.sample_rate / target_rate
    inner = int(np.searchsorted(positions, n - 1))  # positions before the last sample
    j = positions[:inner].astype(np.intp)
    frac = positions[:inner]
    frac -= j
    left = y[j]
    out = np.empty(m)
    head = out[:inner]
    np.take(y[1:], j, out=head, mode="clip")  # j < n - 1; "clip" skips a buffered copy
    head -= left
    head *= frac
    head += left
    np.copyto(head, left, where=frac == 0.0)  # keeps y[j]'s sign when it is a zero
    out[inner:] = y[-1]
    return AudioClip(samples=out, sample_rate=target_rate)


def load_wav(path) -> AudioClip:
    """Read a WAV file from disk and decode it."""
    with open(path, "rb") as fh:
        return decode_wav(fh.read())


def save_wav(path, clip: AudioClip, bit_depth: int = 16) -> None:
    """Write a clip as a WAV file, the bytes of encode_wav, without joining them in memory."""
    header, body = _wav_parts(clip, bit_depth)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)
