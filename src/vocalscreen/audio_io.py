"""WAV decoding and writing, channel mixdown, and resampling.

Everything downstream works on mono clips at the canonical pipeline rate
(16 kHz). Ingest, ``load_mono``, makes one pass over the payload and
never holds all of it: one parser, ``_parse_wav``, walks the chunk
headers of the open file; then, for each block of 2^14 output samples,
the frames that block needs are read into one buffer, converted, mixed
to mono and interpolated. At a whole multiple of 16 kHz (16, 32, 48 or
96 kHz) every output sample falls on a frame, so a block converts only
every n-th frame, straight into the clip, and interpolates nothing.

A clip's samples are finite and lie in [-1, 1], and that is checked
only where samples enter, by one predicate (``_in_range``): the public
``AudioClip(...)`` (ValueError) and each float payload block as it is
read (``_check_range``, MalformedWav; PCM16 cannot leave the range).
Every value made from checked samples stays in range (see ``_mix_down``
and ``_resampled``), so decoding, mixing, resampling and silence
removal build their clips with ``AudioClip._from_checked`` and scan
nothing again.

Only RIFF/WAVE containers (plain or WAVE_FORMAT_EXTENSIBLE) with PCM
16-bit or IEEE float 32-bit payloads, finite samples and one or two
channels are accepted; rejecting anything else beats silently misreading
it.

Writing is one block writer, ``_wav_writer``, behind both ``save_wav``
(to a file) and ``encode_wav`` (to bytes). It checks the header first,
so a clip no WAV can hold (not one or two channels, or a RIFF size or
byte rate past 32 bits) raises ValueError before any byte is written.
It then encodes and writes the body one block at a time: a clip's
blocks of 2^14 frames, or the blocks a private ``_ClipBlocks`` yields
(unscanned, like ``_from_checked``), so writing holds one block's
buffers beside the clip, and ``save_wav`` can write a clip never held.

The public steps ``decode_wav`` (or ``load_wav``) -> ``to_mono`` ->
``resample`` remain the reference: ``load_mono(path)`` is byte-identical
to ``resample(to_mono(load_wav(path)), 16000)``, because both run the
same private kernels (``_parse_wav``, ``_to_float``, ``_mix_down``,
``_resampled``) on the same values. ``decode_wav`` runs the same parser
on its bytes wrapped in ``io.BytesIO``. Each step equals its plain numpy
definition bit for bit (``astype(float64) / 32768``, ``mean(axis=1)``,
``np.interp`` over ``arange(n)``), signed zeros included.
"""

from collections.abc import Iterable
from dataclasses import dataclass
import io
import struct

import numpy as np

from .errors import VocalScreenError, integer, real
from .rng import round_half_up

# Canonical pipeline rate. All frequency constants downstream (mel range,
# FFT bin spacing) assume clips were resampled to this on ingestion.
DEFAULT_SAMPLE_RATE = 16000

# 16-bit ints scale by 1/32768 (not 32767) so -32768 maps exactly to -1.0.
INT16_SCALE = 32768.0

# Output samples per block of load_mono and resample: a block's buffers (the
# payload frames it reads, their float64 mix, positions, indices) take at
# most about 1.3 MB (44.1 kHz stereo PCM16 input), so they stay in a 2 MB
# L2 cache; 48 kHz stereo float32 reads 393 KB of frames and mixes them
# straight into the clip. The WAV writer encodes this many frames per
# block: 160 KB of buffers for mono PCM16.
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


def _in_range(samples: np.ndarray) -> bool:
    """Whether every sample is finite and in [-1, 1] (none, if empty)."""
    # negated comparisons: max()/min() propagate NaN, which fails both
    return not samples.size or (samples.max() <= 1.0 and samples.min() >= -1.0)


@dataclass(frozen=True)
class AudioClip:
    """A sample buffer with its rate.

    ``samples`` is float64, converted from bool, integer or float values
    (any other dtype is rejected), finite and in [-1.0, 1.0] (NaN is rejected),
    of shape ``(n,)`` for mono or ``(n, channels)``, channels >= 1,
    straight out of the decoder. All processing beyond ``to_mono``
    expects mono. ``AudioClip(...)`` checks the shape and scans every
    sample; ``_from_checked`` builds a clip from values derived from
    checked samples (see the module docstring), without that scan.

    Both keep the array they are given, without a copy, and mark it
    read-only, so a later write through it raises ValueError instead of
    putting an unchecked value into a checked clip. A view of that array
    taken before construction is still writable and still aliases it.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", real(self.samples, "samples"))
        if integer(self.sample_rate, "sample_rate") <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        shape = self.samples.shape
        if not (len(shape) == 1 or len(shape) == 2 and shape[1] >= 1):
            raise ValueError(f"samples must have shape (n,) or (n, channels), got {shape}")
        if not _in_range(self.samples):
            raise ValueError("samples must be finite and lie in [-1.0, 1.0]")
        self.samples.flags.writeable = False

    @classmethod
    def _from_checked(cls, samples: np.ndarray, sample_rate: int) -> "AudioClip":
        """A clip of float64 ``samples`` of a valid shape, each derived from
        checked samples, at a valid ``sample_rate``: built without a scan."""
        clip = object.__new__(cls)
        samples.flags.writeable = False
        object.__setattr__(clip, "samples", samples)
        object.__setattr__(clip, "sample_rate", sample_rate)
        return clip

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class _ClipBlocks:
    """A mono clip as the blocks of its samples, for ``save_wav`` to write without holding it.

    ``blocks`` yields 1-d float64 arrays whose lengths sum to ``frames``;
    each is encoded before the next is drawn, so a producer may yield one
    buffer refilled in place. Unchecked, like ``AudioClip._from_checked``:
    no sample is scanned, so they must be finite and in [-1, 1], derived
    from values known to be (``synth`` scales its speakers by a finite peak).
    """

    blocks: Iterable
    frames: int
    sample_rate: int


@dataclass(frozen=True)
class _Payload:
    """Where a WAV file's samples lie and how they are laid out, from ``_parse_wav``."""

    offset: int  # byte offset of frame 0 in the file
    frames: int
    channels: int
    dtype: np.dtype  # <i2 (PCM16) or <f4 (float32)
    sample_rate: int

    def read(self, fh, lo: int, out: np.ndarray) -> np.ndarray:
        """Read frames lo..lo + len(out) - 1 of ``fh`` into ``out``, a (k, channels) array.

        A short read (the file shrank after its chunks were walked) raises
        MalformedWav, so no unread byte of ``out`` is ever returned.
        """
        fh.seek(self.offset + lo * out.itemsize * self.channels)
        got = fh.readinto(out)
        if got != out.nbytes:
            raise MalformedWav(f"file truncated: read {got} of {out.nbytes} bytes"
                               f" at frame {lo} of the data chunk")
        return out


def _parse_wav(fh) -> _Payload:
    """Walk the chunk headers of a seekable WAV file object and validate its format.

    Reads only the chunk headers and the fmt chunk; every chunk is checked
    to fit in the file, in file order, before the format is judged.
    Samples are not read, so float samples are checked by the caller
    (``_check_range``) as it reads them.
    """
    size = fh.seek(0, io.SEEK_END)
    if size < 12:
        raise MalformedWav("file shorter than a RIFF header")
    fh.seek(0)
    head = fh.read(12)
    if head[0:4] != b"RIFF":
        raise MalformedWav("missing RIFF magic")
    if head[8:12] != b"WAVE":
        raise MalformedWav("missing WAVE form type")
    fmt = None
    payload = None
    pos = 12
    while pos < size:
        if pos + 8 > size:
            raise MalformedWav("truncated chunk header")
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
        start = pos + 8
        if start + chunk_size > size:
            raise MalformedWav(f"chunk {chunk_id!r} truncated: declared {chunk_size} bytes")
        if chunk_id == b"fmt " and fmt is None:
            if chunk_size < 16:
                raise MalformedWav("fmt chunk shorter than 16 bytes")
            fmt = fh.read(min(chunk_size, 40))  # a sub-format GUID ends at byte 40
        elif chunk_id == b"data" and payload is None:
            payload = (start, chunk_size)
        # chunks are word-aligned; odd sizes carry one pad byte
        pos = start + chunk_size + (chunk_size & 1)
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
    offset, data_size = payload
    if data_size % frame_bytes:
        raise MalformedWav("data chunk is not a whole number of frames")
    return _Payload(offset, data_size // frame_bytes, channels, dtype, int(sample_rate))


def _check_range(raw: np.ndarray) -> None:
    """Reject a float payload block holding a sample that is NaN or outside [-1, 1]."""
    if raw.dtype.kind == "f" and not _in_range(raw):
        raise MalformedWav("float sample NaN or outside [-1, 1]")


def _to_float(raw: np.ndarray, out=None) -> np.ndarray:
    """Payload samples as float64, into ``out`` if given: PCM16 scaled by 1/32768,
    float32 as they are.

    1/32768 is a power of two and float32 -> float64 is exact, so the one
    product equals ``astype(float64) / 32768`` and ``astype(float64)``.
    """
    scale = 1.0 / INT16_SCALE if raw.dtype.kind == "i" else 1.0
    return np.multiply(raw, scale, out=out, dtype=np.float64)


def _decode(fh) -> AudioClip:
    """``decode_wav`` of an open WAV file object: the whole payload in one read."""
    payload = _parse_wav(fh)
    raw = payload.read(fh, 0, np.empty((payload.frames, payload.channels), payload.dtype))
    _check_range(raw)
    samples = _to_float(raw)
    return AudioClip._from_checked(samples[:, 0] if payload.channels == 1 else samples,
                                   payload.sample_rate)


def decode_wav(data: bytes) -> AudioClip:
    """Decode WAV bytes into an AudioClip (mono or stereo).

    Integer samples are scaled by 1/32768; float samples are taken as-is
    and must already lie in [-1, 1] (NaN is rejected). Unknown chunks are
    skipped. WAVE_FORMAT_EXTENSIBLE is read by its sub-format GUID.

    Raises MalformedWav for container damage or an out-of-range float
    sample and UnsupportedFormat for codecs, bit depths, or channel counts
    outside PCM16/float32 x {1,2}.
    """
    return _decode(io.BytesIO(data))


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


def max_wav_frames(channels: int, bit_depth: int) -> int:
    """Most frames a WAV file of this layout can hold.

    The RIFF size field is 32 bits and counts "WAVE", the 24-byte fmt
    chunk and the 8-byte data chunk header (36 bytes), then the body:
    2,147,483,629 frames for mono PCM16.
    """
    return (0xFFFFFFFF - 36) // (channels * bit_depth // 8)


def _wav_writer(shape: tuple, sample_rate: int, bit_depth: int):
    """Check the WAV header of samples of ``shape`` and return a function that writes the
    file to ``fh`` from an iterable of blocks of those samples.

    Every header field is checked here, before anything is written:
    ``bit_depth`` 16 or 32, a shape of ``(frames,)`` or ``(frames, 1 or 2)``
    (what ``decode_wav`` reads), and a RIFF size and byte rate that fit
    their 32-bit fields; each failure is a ValueError naming the field.
    The writer then writes the 44-byte header and the body, little-endian
    ``<i2`` (PCM16) or ``<f4`` (float32) interleaved frame by frame, each
    block encoded into block-sized arrays and written from them; blocks
    that hold other than ``frames`` frames in all raise ValueError once
    they run out. 2- and 4-byte samples make an even body, so the data
    chunk needs no pad byte.
    """
    if bit_depth not in (16, 32):
        raise ValueError(f"bit_depth must be 16 or 32, got {bit_depth}")
    frames, channels = shape[0], 1 if len(shape) == 1 else shape[1]
    if channels not in (1, 2):
        raise ValueError(f"channels must be 1 or 2, got samples of shape {shape}")
    block_align = channels * bit_depth // 8
    body_bytes = frames * block_align
    if frames > max_wav_frames(channels, bit_depth):
        raise ValueError(f"RIFF size {36 + body_bytes} ({frames} frames of {block_align}"
                         " bytes) overflows 32 bits")
    byte_rate = sample_rate * block_align
    if byte_rate > 0xFFFFFFFF:
        raise ValueError(f"byte rate {byte_rate} ({sample_rate} Hz x {block_align}"
                         " bytes per frame) overflows 32 bits")
    format_code, sample_type = ((FORMAT_PCM, "<i2") if bit_depth == 16
                                else (FORMAT_IEEE_FLOAT, "<f4"))
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + body_bytes, b"WAVE",
                         b"fmt ", 16, format_code, channels, sample_rate, byte_rate,
                         block_align, bit_depth, b"data", body_bytes)

    def write(fh, blocks) -> None:
        fh.write(header)
        written = 0
        for block in blocks:
            written += len(block)
            if bit_depth == 16:
                block = np.multiply(block, INT16_SCALE)  # the block's one float temporary
                np.clip(np.round(block, out=block), -32768, 32767, out=block)
            # frame by frame, so a column-major stereo clip is interleaved too
            fh.write(block.astype(sample_type, order="C"))
        if written != frames:
            raise ValueError(f"blocks held {written} frames, the header declares {frames}")

    return write


def _clip_blocks(samples: np.ndarray):
    """A clip's samples as views of ``_BLOCK`` frames each."""
    return (samples[lo:lo + _BLOCK] for lo in range(0, len(samples), _BLOCK))


def encode_wav(clip: AudioClip, bit_depth: int = 16) -> bytes:
    """Serialize a clip to WAV bytes (PCM16 or float32), in blocks (see save_wav).

    PCM16 encoding rounds ``sample * 32768`` to the nearest integer and
    clamps to the int16 range, so decode(encode(decode(x))) is lossless.
    """
    write = _wav_writer(clip.samples.shape, clip.sample_rate, bit_depth)
    buffer = io.BytesIO()
    write(buffer, _clip_blocks(clip.samples))
    return buffer.getvalue()


def _mix_down(frames: np.ndarray, out=None) -> np.ndarray:
    """Mean of each row of a (frames, channels) payload or float array, as float64.

    Float samples: the first column is converted into ``out`` (a new array
    if None), the others are added, then ``+ 0.0`` and ``/ channels``: for
    stereo ``(L + R + 0.0) / 2``. That is ``mean(axis=1)`` of
    ``_to_float(frames)`` bit for bit for fewer than eight channels: mean
    sums from a +0.0 identity, so all channels -0.0 average to +0.0.

    A PCM16 block (stereo: ``_mono`` takes mono) is mixed as
    ``(L + R) * 2^-16``, the sum taken in int32: every step is exact and no
    int makes -0.0, so the bits are the same, without numpy's buffered
    per-column casts to float64. Rounding is monotonic, so means of
    samples in [-1, 1] stay there.
    """
    if frames.dtype.kind == "i":
        total = np.add(frames[:, 0], frames[:, 1], dtype=np.int32)
        return np.multiply(total, 0.5 / INT16_SCALE, out=out)
    first, *rest = frames.T
    out = _to_float(first, out)
    for channel in rest:
        out += channel  # float32 samples convert exactly inside the add
    out += 0.0
    out /= frames.shape[1]
    return out


def _mono(frames: np.ndarray, out=None) -> np.ndarray:
    """A (frames, channels) block as mono float64: its one channel, or the channels' mean."""
    if frames.shape[1] == 1:
        return _to_float(frames[:, 0], out)
    return _mix_down(frames, out)


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


def _resampled(frames, n: int, source_rate: int, target_rate: int) -> np.ndarray:
    """``resample``'s interpolation of n frames mixed to mono, one block of outputs at a time.

    ``frames(lo, hi)`` returns frames lo..hi-1 as a (k, channels) array;
    each block asks only for the frames its positions read, in file order,
    and converts them with ``_mono``. When ``source_rate`` is a whole
    multiple of ``target_rate`` (the same rate included), output i is frame
    ``i * stride`` exactly, where interpolation would return ``y[j]``
    itself, so a block converts only every stride-th frame it read,
    straight into the output, and interpolates nothing.

    Outputs of samples in [-1, 1] stay there, so nothing checks them: each
    is a sample or ``fl(y0 + fl(fl(y1 - y0) * f))``, f in [0, 1), which
    monotonic rounding keeps between y0 and ``fl(y0 + fl(y1 - y0))``; that
    sum is within 2^-53 of y1, so it rounds into [-1, 1] (ties to even at 1).
    """
    m = round_half_up(n * target_rate / source_rate)  # 0 when n is 0: then no block runs
    out = np.empty(m)
    if source_rate % target_rate == 0:
        stride = source_rate // target_rate
        # m rounds n / stride half up, so (m - 1) * stride <= n - 1: every
        # position is a frame, none past the last
        for start in range(0, m, _BLOCK):
            end = min(start + _BLOCK, m)
            _mono(frames(start * stride, (end - 1) * stride + 1)[::stride], out[start:end])
        return out
    step = source_rate / target_rate
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
            y = _mono(frames(first, int(j[-1]) + 2))
            j -= first
            _interpolate(y, j, frac, out[start:start + inner])
        if inner < len(positions):  # every later position is past the last frame too
            out[start + inner:] = _mono(frames(n - 1, n))[0]
            break
    return out


def to_mono(clip: AudioClip) -> AudioClip:
    """Mix down to mono by averaging channels (``mean(axis=1)`` bit for bit);
    mono input passes through."""
    if clip.samples.ndim == 1:
        return clip
    return AudioClip._from_checked(_mix_down(clip.samples), clip.sample_rate)


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
    if integer(target_rate, "target_rate") <= 0:
        raise ValueError("target_rate must be positive")
    if clip.samples.ndim != 1:
        raise ValueError("resample expects a mono clip; call to_mono first")
    if target_rate == clip.sample_rate:
        return clip
    y = clip.samples
    return AudioClip._from_checked(
        _resampled(lambda lo, hi: y[lo:hi, None], len(y), clip.sample_rate, target_rate),
        target_rate)


def load_wav(path) -> AudioClip:
    """Read a WAV file from disk and decode it (see ``decode_wav``)."""
    with open(path, "rb") as fh:
        return _decode(fh)


def load_mono(path) -> AudioClip:
    """Read a WAV file as a mono clip at DEFAULT_SAMPLE_RATE, in blocks.

    Byte for byte ``resample(to_mono(load_wav(path)), DEFAULT_SAMPLE_RATE)``,
    with the same errors, in one pass over the payload and never holding
    the whole file: the chunk headers are walked, then each block of 2^14
    output samples reads only the frames it needs into one buffer,
    converts and mixes them and interpolates. At a whole multiple of
    DEFAULT_SAMPLE_RATE (16, 32, 48 or 96 kHz) a block converts and mixes
    only every n-th frame, straight into the clip, and interpolates
    nothing.

    Each float payload frame is range-checked once, as it is read, in
    file order: a block also reads the frames since the last one it
    checked (between stride blocks no output reads them), and the frames
    after the last output are read at the end. PCM16 is never scanned,
    and nor is the clip (see ``_resampled``).
    """
    with open(path, "rb") as fh:
        payload = _parse_wav(fh)
        # a block reads at most _BLOCK * step frames from the first it needs or has
        # not checked, plus 3 for floors and the right-hand neighbour; the tail is
        # under 1.5 * step
        step = payload.sample_rate / DEFAULT_SAMPLE_RATE
        buffer = np.empty((min(int(_BLOCK * step) + 3, payload.frames), payload.channels),
                          payload.dtype)
        checked = 0 if payload.dtype.kind == "f" else payload.frames  # PCM16 needs no check

        def frames(lo, hi):
            """Frames lo..hi-1, read from ``checked`` if that is before lo; the frames
            past ``checked`` are checked (an interpolation block may share one)."""
            nonlocal checked
            start = min(lo, checked)
            block = payload.read(fh, start, buffer[:hi - start])
            _check_range(block[checked - start:])
            checked = max(checked, hi)
            return block[lo - start:]

        samples = _resampled(frames, payload.frames, payload.sample_rate, DEFAULT_SAMPLE_RATE)
        frames(checked, payload.frames)
    return AudioClip._from_checked(samples, DEFAULT_SAMPLE_RATE)


def save_wav(path, clip, bit_depth: int = 16) -> None:
    """Write an AudioClip as a WAV file, one block of frames at a time.

    A clip is written as the bytes of encode_wav. The header is checked
    before the file is opened, so a clip no WAV can hold raises ValueError
    and leaves no file behind. Beyond the clip, the writer holds one
    block's buffers (2^14 frames), however long the clip. The private,
    unchecked ``_ClipBlocks`` is written as its blocks come, never held.
    """
    if isinstance(clip, _ClipBlocks):
        shape, blocks = (clip.frames,), clip.blocks
    else:
        shape, blocks = clip.samples.shape, _clip_blocks(clip.samples)
    write = _wav_writer(shape, clip.sample_rate, bit_depth)
    with open(path, "wb") as fh:
        write(fh, blocks)
