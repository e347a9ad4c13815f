"""Silence removal and fixed-length cropping.

A recording is reduced to its voiced samples by frame-RMS thresholding,
then cut into consecutive non-overlapping segments of a fixed duration
(SEGMENT_SECONDS in the screening pipeline); the trailing remainder is
discarded so every segment frames identically downstream.
"""

from dataclasses import dataclass, fields

import numpy as np

from .audio_io import DEFAULT_SAMPLE_RATE, AudioClip
from .errors import number
from .rng import round_half_up

SEGMENT_SECONDS = 4.0  # the screening pipeline's segment length


def sample_count(seconds: float, name: str, sample_rate: int = DEFAULT_SAMPLE_RATE) -> int:
    """Whole samples in ``seconds`` at ``sample_rate``, rounded half up.

    Raises InvalidValue, naming the duration ``name``, unless ``seconds`` is a
    number, and ValueError unless the count is finite and at least one.
    """
    samples = number(seconds, name) * sample_rate
    if not 0.5 <= samples < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {seconds}"
                         f" ({samples:g} samples at {sample_rate} Hz)")
    return round_half_up(samples)


@dataclass(frozen=True)
class SilenceParams:
    """Frame-energy silence detector parameters.

    A frame is voiced when its RMS reaches ``threshold_ratio`` times the
    loudest frame's RMS. Defaults: 50 ms frames, 25 ms hop, ratio 0.1.
    The hop is positive and at most the frame, and each holds a finite,
    nonzero number of samples at DEFAULT_SAMPLE_RATE.
    """

    frame_seconds: float = 0.05
    hop_seconds: float = 0.025
    threshold_ratio: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            number(getattr(self, f.name), f.name)
        if not 0 < self.hop_seconds <= self.frame_seconds < np.inf:
            raise ValueError("need 0 < hop_seconds <= frame_seconds < inf")
        if not 0 < self.threshold_ratio < 1:
            raise ValueError("threshold_ratio must be in (0, 1)")
        sample_count(self.frame_seconds, "frame_seconds")
        sample_count(self.hop_seconds, "hop_seconds")


@dataclass(frozen=True)
class SegmentSet:
    """Ordered fixed-length segments cut from one recording."""

    segments: tuple

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


def _frame_rms(samples: np.ndarray, frame_len: int, hop_len: int) -> np.ndarray:
    """RMS of every complete frame (partial trailing frame excluded)."""
    n = len(samples)
    if n < frame_len:
        return np.zeros(0)
    n_frames = 1 + (n - frame_len) // hop_len
    # cumulative sum of squares gives each frame's energy in O(n)
    csq = np.empty(n + 1)
    csq[0] = 0.0
    np.multiply(samples, samples, out=csq[1:])
    np.cumsum(csq[1:], out=csq[1:])
    energies = csq[frame_len::hop_len][:n_frames] - csq[::hop_len][:n_frames]
    return np.sqrt(np.maximum(energies, 0.0) / frame_len)


def remove_silence(clip: AudioClip, params: SilenceParams = SilenceParams()) -> AudioClip:
    """Drop silent stretches, keeping voiced samples in their original order.

    Every complete frame is scored by RMS; a sample survives if it lies in
    at least one frame whose RMS >= threshold_ratio * max frame RMS. An
    all-silent clip (max RMS 0) comes back empty, as does any clip shorter
    than one frame. The voiced clip holds samples of the input clip, so
    it is built without a scan (``AudioClip._from_checked``).
    """
    if len(clip) == 0:
        raise ValueError("remove_silence needs a non-empty clip")
    if clip.samples.ndim != 1:
        raise ValueError("remove_silence expects a mono clip")

    frame_len = sample_count(params.frame_seconds, "frame_seconds", clip.sample_rate)
    hop_len = sample_count(params.hop_seconds, "hop_seconds", clip.sample_rate)
    rms = _frame_rms(clip.samples, frame_len, hop_len)
    if len(rms) == 0 or (peak := rms.max()) == 0.0:
        return AudioClip._from_checked(np.zeros(0), clip.sample_rate)

    # frames first..last of a run cover [first * hop, last * hop + frame); hi grows with the
    # run, so a run that starts no later than the previous one ends extends its stretch
    voiced = np.concatenate(([False], rms >= params.threshold_ratio * peak, [False]))
    edges = np.flatnonzero(voiced[1:] != voiced[:-1])
    lo, hi = edges[::2] * hop_len, (edges[1::2] - 1) * hop_len + frame_len
    opens = np.concatenate(([True], lo[1:] > hi[:-1]))
    stretches = zip(lo[opens], hi[np.append(opens[1:], True)])
    return AudioClip._from_checked(np.concatenate([clip.samples[a:b] for a, b in stretches]),
                                   clip.sample_rate)


def segment(clip: AudioClip, segment_seconds: float = SEGMENT_SECONDS) -> SegmentSet:
    """Cut a clip into consecutive non-overlapping windows of fixed length.

    The trailing remainder shorter than one window is discarded. A clip
    shorter than one window yields an empty SegmentSet. Segments are
    slices of the clip, built without a scan (``AudioClip._from_checked``).
    """
    seg_len = sample_count(segment_seconds, "segment_seconds", clip.sample_rate)
    if clip.samples.ndim != 1:
        raise ValueError("segment expects a mono clip")
    count = len(clip) // seg_len
    segments = tuple(
        AudioClip._from_checked(clip.samples[i * seg_len : (i + 1) * seg_len], clip.sample_rate)
        for i in range(count)
    )
    return SegmentSet(segments=segments)
