"""Synthetic voice-like cohort generation.

Real clinical recordings cannot ship with the code, so the end-to-end
pipeline is exercised on generated stand-ins: per speaker, a harmonic
stack (f0 plus 8 harmonics under a per-class spectral tilt) with slow
per-speaker jitter, Poisson-placed silent pauses, and additive white
noise. Class profiles differ in fundamental frequency, tilt, noise floor,
and pause density, which is exactly the surface the 16 features measure.

Every output is labeled synthetic and non-clinical; scores obtained on
this cohort say nothing about clinical screening accuracy.
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import DEFAULT_SAMPLE_RATE, AudioClip, save_wav
from .dataset import DatasetManifest, ManifestRow, save_manifest, write_json
from .errors import VocalScreenError
from .rng import round_half_up

NON_CLINICAL_NOTE = (
    "synthetic non-clinical audio generated for pipeline testing; "
    "not evidence of screening performance on real speech"
)

N_HARMONICS = 8  # partials above f0


class IoFailure(VocalScreenError):
    pass


@dataclass(frozen=True)
class ClassProfile:
    """Signal-model knobs for one class of speakers."""

    f0_hz: float
    f0_spread_hz: float
    tilt_db_per_octave: float
    noise_floor_db: float
    pauses_per_minute: float


def default_profiles() -> dict:
    """Two well-separated profiles keyed by the pipeline's class labels."""
    return {
        "depression": ClassProfile(
            f0_hz=115.0, f0_spread_hz=15.0, tilt_db_per_octave=-12.0,
            noise_floor_db=-38.0, pauses_per_minute=12.0,
        ),
        "control": ClassProfile(
            f0_hz=195.0, f0_spread_hz=15.0, tilt_db_per_octave=-6.0,
            noise_floor_db=-50.0, pauses_per_minute=6.0,
        ),
    }


@dataclass(frozen=True)
class CohortSpec:
    speakers_per_class: int = 12
    seconds_per_speaker: float = 120.0
    class_profiles: dict = field(default_factory=default_profiles)
    seed: int = 0

    def __post_init__(self):
        if self.speakers_per_class < 1:
            raise ValueError("speakers_per_class must be >= 1")
        if self.seconds_per_speaker <= 0:
            raise ValueError("seconds_per_speaker must be positive")
        profiles = list(self.class_profiles.values())
        if len(profiles) >= 2 and all(p == profiles[0] for p in profiles[1:]):
            raise ValueError("class profiles must differ in at least one parameter")


def _speaker_clip(profile: ClassProfile, seconds: float, rng: np.random.Generator,
                  sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioClip:
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

    # slow loudness drift so segments within a speaker are not clones
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
        mix *= 0.9 / peak  # never clips: |sample| <= 0.9
    return AudioClip(samples=mix, sample_rate=sample_rate)


def generate_cohort(spec: CohortSpec, out_dir) -> DatasetManifest:
    """Write one WAV per speaker plus cohort.csv and cohort.json.

    Deterministic for a fixed spec: each speaker draws from a generator
    seeded by (seed, class index, speaker index), so reruns are
    byte-identical and speakers are independent of generation order.
    Manifest paths are relative to the output directory.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = []
        for class_idx, label in enumerate(sorted(spec.class_profiles)):
            profile = spec.class_profiles[label]
            for speaker_idx in range(spec.speakers_per_class):
                rng = np.random.default_rng([spec.seed, class_idx, speaker_idx])
                clip = _speaker_clip(profile, spec.seconds_per_speaker, rng)
                name = f"{label}_s{speaker_idx:02d}.wav"
                save_wav(out_dir / name, clip)
                rows.append(ManifestRow(path=name, label=label, participant=f"{label}_s{speaker_idx:02d}"))
        manifest = DatasetManifest(rows=rows)
        save_manifest(out_dir / "cohort.csv", manifest)
        sidecar = {"synthetic": True, "note": NON_CLINICAL_NOTE, **asdict(spec)}
        sidecar["profiles"] = sidecar.pop("class_profiles")
        write_json(out_dir / "cohort.json", sidecar)
    except OSError as exc:
        raise IoFailure(f"cannot write cohort to {out_dir}: {exc}") from exc
    return manifest
