import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocalscreen.audio_io import DEFAULT_SAMPLE_RATE, AudioClip, load_wav, resample, to_mono
from vocalscreen.evaluation import PipelineCandidate, cross_validate
from vocalscreen.features import extract_features
from vocalscreen.preprocess import remove_silence, segment
from vocalscreen.rng import round_half_up
from vocalscreen.synth import (
    BLOCK,
    N_HARMONICS,
    ClassProfile,
    CohortSpec,
    _speaker_clip,
    default_profiles,
    generate_cohort,
)


def tiny_spec(seed=5, speakers=2, seconds=10.0):
    return CohortSpec(speakers_per_class=speakers, seconds_per_speaker=seconds, seed=seed)


def test_generate_cohort_cardinality(tmp_path):
    manifest = generate_cohort(tiny_spec(), tmp_path)
    assert len(manifest) == 4
    wavs = sorted(p.name for p in tmp_path.glob("*.wav"))
    assert wavs == ["control_s00.wav", "control_s01.wav",
                    "depression_s00.wav", "depression_s01.wav"]
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
        clip = _speaker_clip(profile, 15.0, rng)
        assert np.max(np.abs(clip.samples)) <= 0.9 + 1e-12


def former_speaker_clip(profile, seconds, rng, sample_rate=DEFAULT_SAMPLE_RATE):
    """_speaker_clip as first written, one full-length array per step: the reference."""
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
    clip = _speaker_clip(profile, seconds, np.random.default_rng(seed))
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


def test_pause_density_measured_by_silence_remover():
    profile = ClassProfile(f0_hz=150.0, f0_spread_hz=10.0, tilt_db_per_octave=-8.0,
                           noise_floor_db=-45.0, pauses_per_minute=10.0)
    rng = np.random.default_rng([9, 0, 0])
    clip = _speaker_clip(profile, 120.0, rng)
    voiced = remove_silence(clip)
    removed = clip.duration_seconds - voiced.duration_seconds
    gaps_estimate = removed / 0.55  # pauses draw uniform 0.3..0.8 s
    assert 10 <= gaps_estimate <= 30  # Poisson(20) gaps, some may overlap


def test_profiles_must_differ():
    profile = ClassProfile(f0_hz=100.0, f0_spread_hz=5.0, tilt_db_per_octave=-6.0,
                           noise_floor_db=-40.0, pauses_per_minute=5.0)
    with pytest.raises(ValueError):
        CohortSpec(class_profiles={"depression": profile, "control": profile})
    with pytest.raises(ValueError):
        CohortSpec(speakers_per_class=0)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0, 0.0, 0.00003])
def test_seconds_per_speaker_must_give_a_sample(seconds):
    with pytest.raises(ValueError, match="seconds_per_speaker"):
        CohortSpec(seconds_per_speaker=seconds)
    CohortSpec(seconds_per_speaker=1 / 32000)  # rounds half up to one sample


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
    scores = cross_validate(PipelineCandidate(k=3), np.array(features), labels,
                            folds=2, seed=seed)
    return float(scores.mean())


def test_wider_f0_gap_does_not_hurt_accuracy(tmp_path):
    seeds = range(5)
    averages = [
        np.mean([_cohort_cv_accuracy(gap, seed, tmp_path) for seed in seeds])
        for gap in (5.0, 40.0, 110.0)
    ]
    assert averages[0] <= averages[1] + 1e-9
    assert averages[1] <= averages[2] + 1e-9
