"""WAV decoding, channel mixdown, and resampling.

Everything downstream works on mono clips at the canonical pipeline rate
(16 kHz). Ingest is one pass over blocks, ``load_mono``: it parses the
container once and checks every float sample, then, for each block of
2^14 output samples, converts only the input frames that block reads,
mixes them to mono and interpolates, in block-sized buffers. A file
already at 16 kHz skips the interpolation. Only RIFF/WAVE containers
(plain or WAVE_FORMAT_EXTENSIBLE) with PCM 16-bit or IEEE float 32-bit
payloads, finite samples and one or two channels are accepted; rejecting
anything else beats silently misreading it.

The public steps ``decode_wav`` (or ``load_wav``) -> ``to_mono`` ->
``resample`` remain the reference: ``load_mono(path)`` is byte-identical
to ``resample(to_mono(load_wav(path)), 16000)``, because both run the
same private kernels (``_parse_wav``, ``_to_float``, ``_mix_down``,
``_interpolate``) on the same values. Each step equals its plain numpy
definition bit for bit (``astype(float64) / 32768``, ``mean(axis=1)``,
``np.interp`` over ``arange(n)``), signed zeros included.
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

# Output samples per block of load_mono and resample: a block's buffers (the
# input frames it reads as float64, positions, indices) take about 1.7 MB
# for 48 kHz stereo input, so they stay in a 2 MB L2 cache.
_BLOCK = 1 << 14

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


def _parse_wav(data: bytes) -> tuple:
    """Validate a WAV container -> (payload as a (frames, channels) view, sample rate).

    The view is ``<i2`` (PCM16) or ``<f4`` (float32) over ``data`` itself,
    not a copy. Every float sample is checked to lie in [-1, 1] here, so a
    caller that converts only some frames still rejects a bad one anywhere.
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
        dtype = np.dtype("<i2")
    else:
        if bits != 32:
            raise UnsupportedFormat(f"{bits}-bit float (want 32)")
        dtype = np.dtype("<f4")

    frame_bytes = dtype.itemsize * channels
    if block_align != frame_bytes:
        raise MalformedWav(f"block align {block_align} != {frame_bytes}")
    if len(payload) % frame_bytes:
        raise MalformedWav("data chunk is not a whole number of frames")

    samples = np.frombuffer(payload, dtype=dtype)
    # negated comparisons: max()/min() propagate NaN, which fails both
    if format_code == FORMAT_IEEE_FLOAT and samples.size and not (
            samples.max() <= 1.0 and samples.min() >= -1.0):
        raise MalformedWav("float sample NaN or outside [-1, 1]")
    return samples.reshape(-1, channels), int(sample_rate)


def _to_float(raw: np.ndarray) -> np.ndarray:
    """Payload samples as float64: PCM16 scaled by 1/32768, float32 as they are.

    1/32768 is a power of two and float32 -> float64 is exact, so the one
    product equals ``astype(float64) / 32768`` and ``astype(float64)``.
    """
    scale = 1.0 / INT16_SCALE if raw.dtype.kind == "i" else 1.0
    return np.multiply(raw, scale, dtype=np.float64)


def decode_wav(data: bytes) -> AudioClip:
    """Decode WAV bytes into an AudioClip (mono or stereo).

    Integer samples are scaled by 1/32768; float samples are taken as-is
    and must already lie in [-1, 1] (NaN is rejected). Unknown chunks are
    skipped. WAVE_FORMAT_EXTENSIBLE is read by its sub-format GUID.

    Raises MalformedWav for container damage or an out-of-range float
    sample and UnsupportedFormat for codecs, bit depths, or channel counts
    outside PCM16/float32 x {1,2}.
    """
    raw, sample_rate = _parse_wav(data)
    samples = _to_float(raw)
    return AudioClip(samples=samples[:, 0] if raw.shape[1] == 1 else samples,
                     sample_rate=sample_rate)


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


def _mix_down(frames: np.ndarray) -> np.ndarray:
    """Mean of each row of a (frames, channels) array.

    Adds the channel columns, then ``+ 0.0`` and ``/ channels``: for stereo
    ``(L + R + 0.0) / 2``. That is ``mean(axis=1)`` bit for bit for fewer
    than eight channels: mean sums from a +0.0 identity, so all channels
    -0.0 average to +0.0.
    """
    first, *rest = frames.T
    out = np.add(first, rest[0]) if rest else first.copy()
    for channel in rest[1:]:
        out += channel
    out += 0.0
    out /= frames.shape[1]
    return out


def _interpolate(y: np.ndarray, j: np.ndarray, frac: np.ndarray, out: np.ndarray) -> None:
    """``out = (y[j+1] - y[j]) * frac + y[j]``, or ``y[j]`` itself where frac == 0.

    Every j is below len(y) - 1. Keeping y[j] where frac is 0 keeps the
    sign of a zero sample, as np.interp does at a grid point.
    """
    left = y[j]
    np.take(y[1:], j, out=out, mode="clip")  # "clip" skips a buffered copy
    out -= left
    out *= frac
    out += left
    np.copyto(out, left, where=frac == 0.0)


def _resampled(mono, n: int, source_rate: int, target_rate: int) -> np.ndarray:
    """``resample``'s interpolation of n mono frames, one block of output positions at a time.

    ``mono(lo, hi)`` returns frames lo..hi-1 as float64; each block asks
    only for the frames its positions read.
    """
    from .rng import round_half_up

    m = round_half_up(n * target_rate / source_rate)
    if n == 0 or m == 0:
        return np.zeros(0)
    step = source_rate / target_rate
    out = np.empty(m)
    for start in range(0, m, _BLOCK):
        # arange from an integer start yields the same float64 integers as a
        # full-length arange, so these positions equal arange(m) * step
        positions = np.arange(start, min(start + _BLOCK, m), dtype=np.float64)
        positions *= step
        inner = int(np.searchsorted(positions, n - 1))  # positions before the last frame
        if inner:
            j = positions[:inner].astype(np.intp)
            frac = positions[:inner]
            frac -= j
            first = int(j[0])
            y = mono(first, int(j[-1]) + 2)
            j -= first
            _interpolate(y, j, frac, out[start:start + inner])
        if inner < len(positions):  # every later position is past the last frame too
            out[start + inner:] = mono(n - 1, n)[0]
            break
    return out


def to_mono(clip: AudioClip) -> AudioClip:
    """Mix down to mono by averaging channels (``mean(axis=1)`` bit for bit);
    mono input passes through."""
    if clip.samples.ndim == 1:
        return clip
    return AudioClip(samples=_mix_down(clip.samples), sample_rate=clip.sample_rate)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resample of a mono clip.

    Output length is round(len * target/source), half up. Output i sits at
    input position x = i * source/target; with j = floor(x) it is
    ``(y[j+1] - y[j]) * (x - j) + y[j]``, or ``y[j]`` itself when x == j,
    and positions at or past the last input sample hold the endpoint
    value. That is ``np.interp(x, arange(n), y)`` bit for bit, computed in
    blocks of output positions by gathering the two neighbours of each,
    without an input-length abscissa or output-length temporaries.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if clip.samples.ndim != 1:
        raise ValueError("resample expects a mono clip; call to_mono first")
    if target_rate == clip.sample_rate:
        return clip
    y = clip.samples
    return AudioClip(samples=_resampled(lambda lo, hi: y[lo:hi], len(y), clip.sample_rate,
                                        target_rate),
                     sample_rate=target_rate)


def load_wav(path) -> AudioClip:
    """Read a WAV file from disk and decode it."""
    with open(path, "rb") as fh:
        return decode_wav(fh.read())


def load_mono(path, target_rate: int = DEFAULT_SAMPLE_RATE) -> AudioClip:
    """Read a WAV file as a mono clip at target_rate, in one pass over blocks.

    Byte for byte ``resample(to_mono(load_wav(path)), target_rate)``, with
    the same errors: the container is parsed and every float sample
    checked first, then each block of output samples converts, mixes and
    interpolates only the input frames it reads, in block-sized buffers.
    A file already at target_rate skips the interpolation.
    """
    with open(path, "rb") as fh:
        raw, source_rate = _parse_wav(fh.read())
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")

    def mono(lo, hi):
        if raw.shape[1] == 1:
            return _to_float(raw[lo:hi, 0])
        return _mix_down(_to_float(raw[lo:hi]))

    if source_rate == target_rate:
        samples = mono(0, len(raw))
    else:
        samples = _resampled(mono, len(raw), source_rate, target_rate)
    return AudioClip(samples=samples, sample_rate=target_rate)


def save_wav(path, clip: AudioClip, bit_depth: int = 16) -> None:
    """Write a clip as a WAV file, the bytes of encode_wav, without joining them in memory."""
    header, body = _wav_parts(clip, bit_depth)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)
