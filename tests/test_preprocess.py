import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vocalscreen.audio_io import AudioClip
from vocalscreen.preprocess import SilenceParams, _frame_rms, remove_silence, segment

RATE = 16000


def clip_of(samples):
    return AudioClip(samples=np.asarray(samples, dtype=float), sample_rate=RATE)


def literal_voiced_mask(samples, frame_len, hop_len, ratio):
    """Hand-applied frame-RMS thresholding, written independently."""
    n = len(samples)
    rms = []
    start = 0
    while start + frame_len <= n:
        frame = samples[start : start + frame_len]
        rms.append((start, float(np.sqrt(np.mean(frame**2)))))
        start += hop_len
    peak = max((r for _, r in rms), default=0.0)
    mask = np.zeros(n, dtype=bool)
    if peak == 0.0:
        return mask
    for start, r in rms:
        if r >= ratio * peak:
            mask[start : start + frame_len] = True
    return mask


# Former definitions, kept as the exact reference for the rewritten steps.

def former_frame_rms(samples, frame_len, hop_len):
    n = len(samples)
    if n < frame_len:
        return np.zeros(0)
    n_frames = 1 + (n - frame_len) // hop_len
    csq = np.concatenate(([0.0], np.cumsum(samples * samples)))
    starts = np.arange(n_frames) * hop_len
    energies = csq[starts + frame_len] - csq[starts]
    return np.sqrt(np.maximum(energies, 0.0) / frame_len)


def former_remove_silence(samples, frame_len, hop_len, ratio):
    """One slice assignment per voiced frame."""
    rms = former_frame_rms(samples, frame_len, hop_len)
    if len(rms) == 0 or rms.max() == 0.0:
        return np.zeros(0)
    keep = np.zeros(len(samples), dtype=bool)
    for idx in np.nonzero(rms >= ratio * rms.max())[0]:
        start = idx * hop_len
        keep[start : start + frame_len] = True
    return samples[keep]


def run_merge_remove_silence(samples, frame_len, hop_len, ratio):
    """The former run merge of remove_silence: each voiced run's [lo, hi) joins the last
    kept stretch when it starts no later than that stretch ends; the reference for the
    masks that took its place."""
    rms = former_frame_rms(samples, frame_len, hop_len)
    if len(rms) == 0 or rms.max() == 0.0:
        return np.zeros(0)
    voiced = np.concatenate(([False], rms >= ratio * rms.max(), [False]))
    edges = np.flatnonzero(voiced[1:] != voiced[:-1])
    runs = []
    for first, stop in zip(edges[::2], edges[1::2]):
        lo, hi = first * hop_len, (stop - 1) * hop_len + frame_len
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return np.concatenate([samples[lo:hi] for lo, hi in runs])


@settings(max_examples=300, deadline=None)
@given(samples=arrays(np.float64, st.integers(1, 300),
                      elements=st.sampled_from([0.0, -0.0, 1e-4, -0.002]) | st.floats(-1, 1)),
       frame_len=st.integers(1, 24), hop_fraction=st.floats(0.01, 1.0),
       ratio=st.floats(0.01, 0.99))
@example(samples=np.r_[np.zeros(10), np.full(7, 0.5), np.zeros(9), np.full(3, -0.5), np.zeros(20)],
         frame_len=5, hop_fraction=0.4, ratio=0.5)  # hop 2: frame_len not a multiple of it
# hop 1, frame 4: the voiced runs at 0 and 2 overlap because a frame spans over two hops
@example(samples=np.array([1., 0, 0, 0, 0, 1]), frame_len=4, hop_fraction=0.25, ratio=0.5)
# the third of three runs overlaps the second, not the first
@example(samples=np.array([1., 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]), frame_len=4,
         hop_fraction=0.25, ratio=0.5)
# hop 2, frame 4: runs at frames 0 and 2 touch, the first ending where the second starts
@example(samples=np.array([1., 1, 0, 0, 0, 0, 1, 1]), frame_len=4, hop_fraction=0.5, ratio=0.5)
# a single run, in frames of 5 that are not a multiple of the hop of 2
@example(samples=np.r_[np.zeros(9), np.ones(6), np.zeros(9)], frame_len=5, hop_fraction=0.4,
         ratio=0.5)
def test_remove_silence_equals_slice_loop(samples, frame_len, hop_fraction, ratio):
    hop_len = max(1, round(frame_len * hop_fraction))
    rate = 1000
    params = SilenceParams(frame_seconds=frame_len / rate, hop_seconds=hop_len / rate,
                           threshold_ratio=ratio)
    rms = _frame_rms(samples, frame_len, hop_len)
    want_rms = former_frame_rms(samples, frame_len, hop_len)
    assert rms.shape == want_rms.shape and np.array_equal(rms, want_rms)
    out = remove_silence(AudioClip(samples=samples, sample_rate=rate), params).samples
    want = former_remove_silence(samples, frame_len, hop_len, ratio)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))
    assert out.tobytes() == run_merge_remove_silence(samples, frame_len, hop_len, ratio).tobytes()


def test_silence_params_invariants():
    with pytest.raises(ValueError):
        SilenceParams(frame_seconds=0.05, hop_seconds=0.06)
    for ratio in (1.0, 0.0):
        with pytest.raises(ValueError, match=r"^threshold_ratio must be in \(0, 1\)$"):
            SilenceParams(threshold_ratio=ratio)
    for hop in (0.0, -0.01):
        with pytest.raises(ValueError, match="^need 0 < hop_seconds <= frame_seconds < inf$"):
            SilenceParams(hop_seconds=hop)
    # an infinite frame would overflow the sample count taken from it
    for frame, hop in ((np.inf, 1.0), (np.inf, np.inf), (np.nan, 0.025)):
        with pytest.raises(ValueError, match="hop_seconds <= frame_seconds < inf"):
            SilenceParams(frame_seconds=frame, hop_seconds=hop)
    # so would a finite one too long for 16 kHz; a hop of 0 samples divided by zero
    for frame, hop, name in ((1e305, 1e305, "frame_seconds"), (0.05, 1e-6, "hop_seconds")):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SilenceParams(frame_seconds=frame, hop_seconds=hop)
    # True passed every range check as 1 s
    for frame, hop, name in ((True, True, "frame_seconds"), (2.0, True, "hop_seconds")):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got True$"):
            SilenceParams(frame_seconds=frame, hop_seconds=hop)


def test_remove_silence_tone_after_silence():
    t = np.arange(RATE) / RATE
    samples = np.concatenate([np.zeros(RATE), 0.5 * np.sin(2 * np.pi * 440 * t)])
    out = remove_silence(clip_of(samples))

    expected_mask = literal_voiced_mask(samples, 800, 400, 0.1)
    np.testing.assert_array_equal(out.samples, samples[expected_mask])
    # output covers the tone, give or take one analysis frame
    assert abs(out.duration_seconds - 1.0) <= 0.05


def test_remove_silence_all_zero():
    out = remove_silence(clip_of(np.zeros(RATE)))
    assert len(out) == 0


def test_remove_silence_constant_signal():
    # 2000 samples: frames at 0,400,800,1200 cover everything
    samples = np.full(2000, 0.3)
    out = remove_silence(clip_of(samples))
    np.testing.assert_array_equal(out.samples, samples)
    # one extra sample falls past the last complete frame and is dropped
    out2 = remove_silence(clip_of(np.full(2001, 0.3)))
    assert len(out2) == 2000


def test_remove_silence_shorter_than_frame():
    out = remove_silence(clip_of(np.full(100, 0.5)))
    assert len(out) == 0


def test_remove_silence_empty_rejected():
    with pytest.raises(ValueError):
        remove_silence(clip_of([]))


def test_remove_silence_is_ordered_subsequence():
    rng = np.random.default_rng(11)
    samples = rng.uniform(-1, 1, 5000)
    samples[1000:2600] *= 0.001  # quiet middle
    out = remove_silence(clip_of(samples))
    assert out.duration_seconds <= 5000 / RATE
    # every output value appears in the input in the same order
    pos = 0
    for value in out.samples:
        while samples[pos] != value:
            pos += 1
    assert pos < len(samples)


def test_remove_silence_and_segment_reject_a_stereo_clip():
    stereo = AudioClip(samples=np.full((2000, 2), 0.3), sample_rate=RATE)
    with pytest.raises(ValueError, match="^remove_silence expects a mono clip$"):
        remove_silence(stereo)
    with pytest.raises(ValueError, match="^segment expects a mono clip$"):
        segment(stereo, 0.05)


def test_segment_counts():
    ten_seconds = clip_of(np.full(10 * RATE, 0.1))
    segs = segment(ten_seconds, 4.0)
    assert len(segs) == 2
    assert all(len(s) == 4 * RATE for s in segs)

    assert len(segment(clip_of(np.full(4 * RATE, 0.1)), 4.0)) == 1
    assert len(segment(clip_of(np.full(int(3.9 * RATE), 0.1)), 4.0)) == 0


def test_segment_concat_is_leading_prefix():
    rng = np.random.default_rng(12)
    samples = rng.uniform(-1, 1, 10 * RATE + 1234)
    segs = segment(clip_of(samples), 4.0)
    joined = np.concatenate([s.samples for s in segs])
    assert len(segs) == len(samples) // (4 * RATE)
    np.testing.assert_array_equal(joined, samples[: len(joined)])


def test_segment_rejects_bad_duration():
    # 1e305 s overflows its sample count; 1e-6 s rounds to 0 samples, a window of none
    for seconds in (0.0, -1.0, np.nan, np.inf, 1e305, 1e-6):
        with pytest.raises(ValueError, match="segment_seconds must be positive and finite"):
            segment(clip_of(np.zeros(10)), seconds)
    for seconds in (True, False):  # not 1 s and 0 s
        with pytest.raises(ValueError, match=f"^segment_seconds must be a number, got {seconds}$"):
            segment(clip_of(np.zeros(10)), seconds)


def test_segment_set_shares_rate_and_exact_length():
    segs = segment(clip_of(np.full(9 * RATE, 0.2)), 2.5)
    assert len(segs) == 3
    assert {s.sample_rate for s in segs} == {RATE}
    assert all(len(s) == int(2.5 * RATE) for s in segs)


def test_voiced_audio_and_segments_are_read_only():
    clip = clip_of(np.r_[np.zeros(RATE), np.full(2 * RATE, 0.5)])
    voiced = remove_silence(clip)
    for made in (voiced, *segment(voiced, 1.0)):
        with pytest.raises(ValueError, match="read-only"):
            made.samples[0] = 0.0
