import errno
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocalscreen import synth
from vocalscreen.audio_io import (
    DEFAULT_SAMPLE_RATE,
    AudioClip,
    encode_wav,
    load_wav,
    max_wav_frames,
    resample,
    to_mono,
)
from vocalscreen.errors import InvalidValue
from vocalscreen.evaluation import PipelineCandidate, grid_select
from vocalscreen.features import extract_features
from vocalscreen.preprocess import remove_silence, segment
from vocalscreen.rng import round_half_up
from vocalscreen.synth import (
    BLOCK,
    N_HARMONICS,
    ClassProfile,
    CohortSpec,
    IoFailure,
    _speaker_blocks,
    default_profiles,
    generate_cohort,
)

from conftest import traced_peak


def tiny_spec(seed=5, speakers=2, seconds=10.0):
    return CohortSpec(speakers_per_class=speakers, seconds_per_speaker=seconds, seed=seed)


def speaker_clip(profile, seconds, rng) -> AudioClip:
    """One speaker as a clip: the generator's blocks joined, then scaled to peak 0.9 as
    generate_cohort scales them."""
    mix = np.concatenate([block.copy() for block in _speaker_blocks(profile, seconds, rng)])
    peak = max(mix.max(), -mix.min())
    if peak > 0:
        mix *= 0.9 / peak
    return AudioClip(samples=mix, sample_rate=DEFAULT_SAMPLE_RATE)


def test_generate_cohort_cardinality(tmp_path):
    manifest = generate_cohort(tiny_spec(), tmp_path)
    assert len(manifest) == 4
    wavs = sorted(p.name for p in tmp_path.glob("*.wav"))
    assert wavs == ["control_s00.wav", "control_s01.wav",
                    "depression_s00.wav", "depression_s01.wav"]
    # the scratch file a speaker passes through has no name, so it leaves no file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "cohort.json", *wavs]
    assert (tmp_path / "cohort.csv").exists()
    assert manifest.label_counts() == {"control": 2, "depression": 2}


def test_generate_cohort_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_cohort(tiny_spec(), a_dir)
    generate_cohort(tiny_spec(), b_dir)
    for name in ("control_s00.wav", "depression_s01.wav", "cohort.csv", "cohort.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_cohort_sidecar_marks_synthetic(tmp_path):
    generate_cohort(tiny_spec(), tmp_path)
    sidecar = json.loads((tmp_path / "cohort.json").read_text())
    assert sidecar["synthetic"] is True
    assert "non-clinical" in sidecar["note"]
    assert set(sidecar["profiles"]) == {"control", "depression"}


def test_speaker_clip_never_clips():
    for label, profile in default_profiles().items():
        rng = np.random.default_rng([1, 2, 3])
        clip = speaker_clip(profile, 15.0, rng)
        assert np.max(np.abs(clip.samples)) <= 0.9 + 1e-12


def former_speaker_clip(profile, seconds, rng, sample_rate=DEFAULT_SAMPLE_RATE):
    """A speaker's clip as first written, one full-length array per step: the reference."""
    n = round_half_up(seconds * sample_rate)
    t = np.arange(n) / sample_rate

    f0 = profile.f0_hz + rng.uniform(-profile.f0_spread_hz, profile.f0_spread_hz)
    vibrato_rate = rng.uniform(4.0, 6.5)
    vibrato_depth = rng.uniform(0.005, 0.02)
    vibrato_phase = rng.uniform(0, 2 * np.pi)
    inst_f0 = f0 * (1.0 + vibrato_depth * np.sin(2 * np.pi * vibrato_rate * t + vibrato_phase))
    base_phase = 2 * np.pi * np.cumsum(inst_f0) / sample_rate

    voiced = np.zeros(n)
    for h in range(1, N_HARMONICS + 2):
        amp = 10.0 ** (profile.tilt_db_per_octave * np.log2(h) / 20.0)
        voiced += amp * np.sin(h * base_phase + rng.uniform(0, 2 * np.pi))

    env_rate = rng.uniform(0.2, 0.6)
    env_phase = rng.uniform(0, 2 * np.pi)
    voiced *= 1.0 + 0.15 * np.sin(2 * np.pi * env_rate * t + env_phase)

    n_pauses = rng.poisson(profile.pauses_per_minute * seconds / 60.0)
    for _ in range(n_pauses):
        duration = rng.uniform(0.3, 0.8)
        start = rng.uniform(0.0, max(seconds - duration, 0.0))
        lo = round_half_up(start * sample_rate)
        hi = min(lo + round_half_up(duration * sample_rate), n)
        voiced[lo:hi] = 0.0

    mix = voiced + rng.normal(0.0, 10.0 ** (profile.noise_floor_db / 20.0), n)
    peak = np.max(np.abs(mix))
    if peak > 0:
        mix *= 0.9 / peak
    return AudioClip(samples=mix, sample_rate=sample_rate)


# 1 sample, the block edges, and several blocks plus a tail
CLIP_SAMPLES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 4321]
profiles = st.builds(
    ClassProfile,
    f0_hz=st.floats(60.0, 400.0), f0_spread_hz=st.floats(0.0, 40.0),
    tilt_db_per_octave=st.floats(-18.0, 0.0), noise_floor_db=st.floats(-70.0, -20.0),
    # dense pauses overlap block edges and, in clips shorter than a pause, the end
    pauses_per_minute=st.one_of(st.floats(0.0, 30.0), st.floats(300.0, 6000.0)),
)
DENSE = ClassProfile(f0_hz=150.0, f0_spread_hz=10.0, tilt_db_per_octave=-8.0,
                     noise_floor_db=-45.0, pauses_per_minute=3000.0)


@settings(max_examples=60, deadline=None)
@given(profile=profiles, samples=st.one_of(st.sampled_from(CLIP_SAMPLES),
                                           st.integers(1, 4 * BLOCK)),
       seed=st.integers(0, 2**32 - 1))
@example(profile=DENSE, samples=3 * BLOCK + 4321, seed=3)  # about 170 pauses over 4 blocks
@example(profile=DENSE, samples=8000, seed=4)  # 0.5 s: every pause runs to the end
def test_speaker_clip_bytes_equal_former(profile, samples, seed):
    seconds = samples / DEFAULT_SAMPLE_RATE
    clip = speaker_clip(profile, seconds, np.random.default_rng(seed))
    former = former_speaker_clip(profile, seconds, np.random.default_rng(seed))
    assert len(clip.samples) == samples
    assert clip.samples.tobytes() == former.samples.tobytes()


def test_default_cohort_wavs_pinned(tmp_path):
    """Every WAV of a small default cohort keeps the bytes the whole-array synthesis wrote."""
    generate_cohort(CohortSpec(speakers_per_class=2, seconds_per_speaker=10.0), tmp_path)
    pinned = json.loads((Path(__file__).parent / "sidecars" / "cohort_wavs.sha256.json").read_text())
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*.wav"))}
    assert written == pinned


def assert_cohort_equals_former(spec, out):
    """Each WAV of a generated cohort holds the whole-array chain's clip, PCM16-encoded."""
    for class_idx, label in enumerate(sorted(spec.class_profiles)):
        for speaker_idx in range(spec.speakers_per_class):
            former = former_speaker_clip(spec.class_profiles[label], spec.seconds_per_speaker,
                                         np.random.default_rng([spec.seed, class_idx, speaker_idx]))
            assert (out / f"{label}_s{speaker_idx:02d}.wav").read_bytes() == encode_wav(former)


@pytest.mark.parametrize("block", [7, 1000])
def test_small_blocks_write_the_former_cohort(tmp_path, block):
    """With BLOCK patched small, a speaker of 8005 samples spans many blocks and a tail,
    on both passes through the scratch file, and still writes the former bytes. Dense
    pauses silence the whole of these speakers, leaving noise with a peak far below 1
    (scaled up to 0.9) and, with no noise, a peak of 0 (written as silence)."""
    silent = ClassProfile(f0_hz=150.0, f0_spread_hz=10.0, tilt_db_per_octave=-8.0,
                          noise_floor_db=float("-inf"), pauses_per_minute=3000.0)
    for i, profiles in enumerate((default_profiles(), {"control": DENSE, "depression": silent})):
        spec = CohortSpec(speakers_per_class=1, seconds_per_speaker=8005 / DEFAULT_SAMPLE_RATE,
                          class_profiles=profiles, seed=5)
        out = tmp_path / str(i)
        with mock.patch.object(synth, "BLOCK", block):
            generate_cohort(spec, out)
        assert_cohort_equals_former(spec, out)
    assert not load_wav(out / "depression_s00.wav").samples.any()


def test_a_full_disk_raises_before_the_speakers_wav_is_opened(tmp_path, monkeypatch):
    """A speaker shorter than the scratch file's buffer reaches the disk only when pass 1
    rewinds; a full disk raises there, before the speaker's WAV is opened."""
    class FullDisk(io.RawIOBase):
        def readable(self):
            return True

        def writable(self):
            return True

        def seekable(self):
            return True

        def seek(self, offset, whence=0):
            return 0

        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kwargs: io.BufferedRandom(FullDisk()))
    samples = io.DEFAULT_BUFFER_SIZE // 8 // 2  # float64 samples filling half the buffer
    spec = tiny_spec(speakers=1, seconds=samples / DEFAULT_SAMPLE_RATE)
    with pytest.raises(IoFailure, match=f"{os.strerror(errno.ENOSPC)}$"):
        generate_cohort(spec, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_each_speaker_passes_through_the_scratch_file_once_each_way(tmp_path, monkeypatch):
    """Pass 1 writes a speaker's 8-byte float64 samples to the scratch file once, and pass 2
    reads them back once: 8 x samples bytes each way per speaker. Exact, no headroom: a
    change that writes or reads the scratch file more changes this test."""
    moved = []  # (speaker, from 1, "write" or "read", bytes): each speaker rewinds twice
    make_scratch = tempfile.TemporaryFile

    class Counting:
        def __init__(self, **kwargs):
            self.fh, self.rewinds = make_scratch(**kwargs), 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def seek(self, offset, whence=0):
            self.rewinds += 1
            return self.fh.seek(offset, whence)

        def write(self, data):
            moved.append(((self.rewinds + 1) // 2, "write", memoryview(data).nbytes))
            return self.fh.write(data)

        def readinto(self, buffer):
            got = self.fh.readinto(buffer)
            moved.append((self.rewinds // 2, "read", got))
            return got

    monkeypatch.setattr(tempfile, "TemporaryFile", Counting)
    manifest = generate_cohort(tiny_spec(speakers=2, seconds=2.3), tmp_path)
    samples = [load_wav(tmp_path / row.path).samples.size for row in manifest]
    assert samples == [36800] * 4
    for way in ("write", "read"):
        per_speaker = [sum(n for speaker, kind, n in moved if (speaker, kind) == (i + 1, way))
                       for i in range(len(samples))]
        assert per_speaker == [8 * n for n in samples]


def test_an_unwritable_out_dir_is_an_io_failure(tmp_path):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "cohort"
    with pytest.raises(IoFailure, match=f"^cannot write cohort to {re.escape(str(out))}: "):
        generate_cohort(tiny_spec(speakers=1, seconds=1.0), out)


def test_a_speaker_not_finite_raises_before_its_wav_is_opened(tmp_path):
    # the whole-speaker AudioClip rejected a NaN sample; a peak folded with Python's max
    # would have dropped it and written a WAV
    profile = ClassProfile(f0_hz=float("nan"), f0_spread_hz=5.0, tilt_db_per_octave=-9.0,
                           noise_floor_db=-44.0, pauses_per_minute=9.0)
    spec = CohortSpec(speakers_per_class=1, seconds_per_speaker=2.5,
                      class_profiles={"control": default_profiles()["control"],
                                      "depression": profile})
    with pytest.raises(ValueError, match=r"^depression_s00.wav: samples must be finite,"
                                         r" got peak nan$"):
        generate_cohort(spec, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["control_s00.wav"]


@pytest.mark.parametrize("rate", [-1.0, float("nan")])
def test_a_pause_rate_no_poisson_draw_takes_is_refused_when_the_profile_is_built(rate):
    # numpy's bare "lam < 0 or lam is NaN" came only once control_s00.wav was written
    with pytest.raises(InvalidValue, match=f"^pauses_per_minute must be >= 0, got {rate}$"):
        ClassProfile(f0_hz=150.0, f0_spread_hz=5.0, tilt_db_per_octave=-9.0,
                     noise_floor_db=-44.0, pauses_per_minute=rate)


def test_pause_density_measured_by_silence_remover():
    profile = ClassProfile(f0_hz=150.0, f0_spread_hz=10.0, tilt_db_per_octave=-8.0,
                           noise_floor_db=-45.0, pauses_per_minute=10.0)
    rng = np.random.default_rng([9, 0, 0])
    clip = speaker_clip(profile, 120.0, rng)
    voiced = remove_silence(clip)
    removed = clip.duration_seconds - voiced.duration_seconds
    gaps_estimate = removed / 0.55  # pauses draw uniform 0.3..0.8 s
    assert 10 <= gaps_estimate <= 30  # Poisson(20) gaps, some may overlap


def test_default_spec_is_the_readme_cohort():
    # the README's workflow: 24 speakers of 120 s, seed 0
    assert (CohortSpec().speakers_per_class, CohortSpec().seconds_per_speaker,
            CohortSpec().seed) == (12, 120.0, 0)


def test_profiles_must_differ():
    profile = ClassProfile(f0_hz=100.0, f0_spread_hz=5.0, tilt_db_per_octave=-6.0,
                           noise_floor_db=-40.0, pauses_per_minute=5.0)
    with pytest.raises(ValueError):
        CohortSpec(class_profiles={"depression": profile, "control": profile})
    CohortSpec(class_profiles={"control": profile})  # one class has none to differ from
    with pytest.raises(ValueError):
        CohortSpec(speakers_per_class=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\^64\), got {seed}$"):
            CohortSpec(seed=seed)


def test_class_labels_are_checked_before_any_wav_is_written(tmp_path):
    # an 'anxious' class wrote anxious_s00.wav and control_s00.wav, then failed on the
    # manifest's label check and wrote no cohort.csv
    control = default_profiles()["control"]
    profile = ClassProfile(f0_hz=150.0, f0_spread_hz=5.0, tilt_db_per_octave=-9.0,
                           noise_floor_db=-44.0, pauses_per_minute=9.0)
    out = tmp_path / "cohort"
    for profiles, got in (({"anxious": profile, "control": control}, "'anxious', 'control'"),
                          ({}, "")):
        with pytest.raises(ValueError, match=re.escape(
                f"class_profiles must be keyed by one or more of ('control', 'depression'),"
                f" got [{got}]")):
            generate_cohort(CohortSpec(speakers_per_class=1, seconds_per_speaker=1.0,
                                       class_profiles=profiles), out)
    assert list(tmp_path.iterdir()) == []


# 1e305 s is finite, but its sample count overflows float64
# 1e7 s is 1.6e11 samples, more than a mono PCM16 WAV holds; True is not a number of seconds
@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), 1e305, 1e7, -1.0, 0.0, 0.00003,
                                     True])
def test_seconds_per_speaker_must_give_a_sample(seconds):
    with pytest.raises(ValueError, match="seconds_per_speaker"):
        CohortSpec(seconds_per_speaker=seconds)
    CohortSpec(seconds_per_speaker=1 / 32000)  # rounds half up to one sample


def test_seconds_per_speaker_limit_is_exact():
    """A speaker is one mono PCM16 WAV, whose 32-bit RIFF size caps it at
    2,147,483,629 samples (about 37.3 h at 16 kHz)."""
    limit = max_wav_frames(1, 16)
    CohortSpec(seconds_per_speaker=limit / DEFAULT_SAMPLE_RATE)
    with pytest.raises(ValueError, match=f"seconds_per_speaker .* more than the {limit}"):
        CohortSpec(seconds_per_speaker=(limit + 1) / DEFAULT_SAMPLE_RATE)


def test_generate_cohort_holds_one_speaker(tmp_path):
    """Two 20 s speakers: neither is held whole, so the traced peak stays under 1.5 clips."""
    one_clip = 20 * DEFAULT_SAMPLE_RATE * 8  # float64 bytes
    peak = traced_peak(generate_cohort, tiny_spec(speakers=1, seconds=20.0), tmp_path)
    assert peak < 1.5 * one_clip


def test_generate_cohort_memory_does_not_grow_with_length(tmp_path):
    """A 30 s speaker takes the traced memory of a 2 s one, within one block's four
    buffers; the whole-speaker array added 28 s of float64 samples, 3.6 MB."""
    short = traced_peak(generate_cohort, tiny_spec(speakers=1, seconds=2.0), tmp_path / "a")
    long = traced_peak(generate_cohort, tiny_spec(speakers=1, seconds=30.0), tmp_path / "b")
    assert long - short < 4 * BLOCK * 8


def _cohort_cv_accuracy(gap_hz: float, seed: int, tmp_path) -> float:
    base = dict(f0_spread_hz=25.0, tilt_db_per_octave=-8.0,
                noise_floor_db=-42.0, pauses_per_minute=8.0)
    profiles = {
        "depression": ClassProfile(f0_hz=140.0, **base),
        "control": ClassProfile(f0_hz=140.0 + gap_hz, **base),
    }
    spec = CohortSpec(speakers_per_class=2, seconds_per_speaker=20.0,
                      class_profiles=profiles, seed=seed)
    out = tmp_path / f"gap{gap_hz:g}_seed{seed}"
    manifest = generate_cohort(spec, out)
    features, labels = [], []
    for row in manifest:
        clip = resample(to_mono(load_wav(out / row.path)), DEFAULT_SAMPLE_RATE)
        for seg in segment(remove_silence(clip), 4.0):
            features.append(extract_features(seg))
            labels.append(row.label)
    return grid_select([PipelineCandidate(k=3)], np.array(features), labels,
                       folds=2, seed=seed)["best"]["mean_cv_score"]


def test_wider_f0_gap_does_not_hurt_accuracy(tmp_path):
    seeds = range(5)
    averages = [
        np.mean([_cohort_cv_accuracy(gap, seed, tmp_path) for seed in seeds])
        for gap in (5.0, 40.0, 110.0)
    ]
    assert averages[0] <= averages[1] + 1e-9
    assert averages[1] <= averages[2] + 1e-9
