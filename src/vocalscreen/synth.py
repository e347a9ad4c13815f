"""Synthetic voice-like cohort generation.

Real clinical recordings cannot ship with the code, so the end-to-end
pipeline is exercised on generated stand-ins: per speaker, a harmonic
stack (f0 plus 8 harmonics under a per-class spectral tilt) with slow
per-speaker jitter, Poisson-placed silent pauses, and additive white
noise. Class profiles differ in fundamental frequency, tilt, noise floor,
and pause density, which is exactly the surface the 16 features measure.

A speaker's random scalars are drawn first; its samples are then filled
in fixed blocks of BLOCK samples, each running the whole signal chain in
a few cache-sized buffers instead of a dozen full-length arrays. The
blocked chain keeps every operation and its association, so each WAV is
byte-identical to the one the whole-array chain writes (see
``_speaker_clip``). ``generate_cohort`` holds one speaker's float64
samples at a time and ``save_wav`` writes each WAV in blocks, so peak
memory is one clip plus one block, however many speakers there are.

Every output is labeled synthetic and non-clinical; scores obtained on
this cohort say nothing about clinical screening accuracy.
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import DEFAULT_SAMPLE_RATE, AudioClip, max_wav_frames, save_wav
from .dataset import LABELS, DatasetManifest, ManifestRow, save_manifest, write_json
from .errors import VocalScreenError
from .preprocess import sample_count
from .rng import round_half_up

NON_CLINICAL_NOTE = (
    "synthetic non-clinical audio generated for pipeline testing; "
    "not evidence of screening performance on real speech"
)

N_HARMONICS = 8  # partials above f0
BLOCK = 1 << 14  # samples per synthesis block: its four float64 buffers take 512 KB


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
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        samples = sample_count(self.seconds_per_speaker, "seconds_per_speaker")
        limit = max_wav_frames(1, 16)  # each speaker is one mono PCM16 WAV
        if samples > limit:
            raise ValueError(f"seconds_per_speaker {self.seconds_per_speaker} gives {samples}"
                             f" samples at {DEFAULT_SAMPLE_RATE} Hz, more than the {limit}"
                             " a mono PCM16 WAV holds")
        if not self.class_profiles or not set(self.class_profiles) <= set(LABELS):
            raise ValueError(f"class_profiles must be keyed by one or more of {LABELS},"
                             f" got {sorted(self.class_profiles)}")
        profiles = list(self.class_profiles.values())
        if len(profiles) >= 2 and all(p == profiles[0] for p in profiles[1:]):
            raise ValueError("class profiles must differ in at least one parameter")


def _speaker_clip(profile: ClassProfile, seconds: float, rng: np.random.Generator) -> AudioClip:
    """One speaker's DEFAULT_SAMPLE_RATE clip, filled block by block and normalised to peak 0.9.

    Every random scalar is drawn first, in a fixed order: f0, vibrato rate,
    depth and phase, one phase per partial, envelope rate and phase, the
    pause count, then each pause's duration and start. Each BLOCK-sample
    block then runs the signal chain in block-sized buffers: time axis,
    vibrato, running phase (cumsum carried over from the previous block),
    partials, loudness envelope, pauses, and its share of the noise draw.

    The samples equal those of the whole-array chain bit for bit: each
    product keeps its association (``((2 pi rate) t)``), cumsum is a
    sequential accumulate, a Generator draws normals in sequence however
    they are split, and np.sin of an element does not depend on where the
    block edges fall. ``tests/test_synth.py`` keeps the whole-array chain
    as the reference and compares the bytes.
    """
    n = round_half_up(seconds * DEFAULT_SAMPLE_RATE)
    two_pi = 2 * np.pi
    f0 = profile.f0_hz + rng.uniform(-profile.f0_spread_hz, profile.f0_spread_hz)
    vibrato_rate = rng.uniform(4.0, 6.5)
    vibrato_depth = rng.uniform(0.005, 0.02)
    vibrato_phase = rng.uniform(0, two_pi)
    partials = [(h, 10.0 ** (profile.tilt_db_per_octave * np.log2(h) / 20.0),
                 rng.uniform(0, two_pi)) for h in range(1, N_HARMONICS + 2)]
    # slow loudness drift so segments within a speaker are not clones
    env_rate = rng.uniform(0.2, 0.6)
    env_phase = rng.uniform(0, two_pi)
    pauses = []
    for _ in range(rng.poisson(profile.pauses_per_minute * seconds / 60.0)):
        duration = rng.uniform(0.3, 0.8)
        start = rng.uniform(0.0, max(seconds - duration, 0.0))
        first = round_half_up(start * DEFAULT_SAMPLE_RATE)
        pauses.append((first, min(first + round_half_up(duration * DEFAULT_SAMPLE_RATE), n)))
    noise_sd = 10.0 ** (profile.noise_floor_db / 20.0)

    mix = np.empty(n)
    t_buf, phase_buf, partial_buf = np.empty((3, min(BLOCK, n)))
    phase_sum = 0.0  # cumsum of the instantaneous f0 up to the block start
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        m = hi - lo
        t, phase, partial, voiced = t_buf[:m], phase_buf[:m], partial_buf[:m], mix[lo:hi]
        np.divide(np.arange(lo, hi), DEFAULT_SAMPLE_RATE, out=t)
        # inst_f0 = f0 * (1 + depth * sin(2 pi rate t + phase))
        np.multiply(two_pi * vibrato_rate, t, out=phase)
        np.add(phase, vibrato_phase, out=phase)
        np.sin(phase, out=phase)
        np.multiply(vibrato_depth, phase, out=phase)
        np.add(1.0, phase, out=phase)
        np.multiply(f0, phase, out=phase)
        # base phase = 2 pi cumsum(inst_f0) / DEFAULT_SAMPLE_RATE
        phase[0] += phase_sum
        np.cumsum(phase, out=phase)
        phase_sum = phase[-1]
        np.multiply(two_pi, phase, out=phase)
        np.divide(phase, DEFAULT_SAMPLE_RATE, out=phase)
        voiced.fill(0.0)
        for h, amp, partial_phase in partials:
            np.multiply(h, phase, out=partial)
            np.add(partial, partial_phase, out=partial)
            np.sin(partial, out=partial)
            np.multiply(amp, partial, out=partial)
            np.add(voiced, partial, out=voiced)
        # voiced *= 1 + 0.15 * sin(2 pi env_rate t + env_phase)
        np.multiply(two_pi * env_rate, t, out=t)
        np.add(t, env_phase, out=t)
        np.sin(t, out=t)
        np.multiply(0.15, t, out=t)
        np.add(1.0, t, out=t)
        np.multiply(voiced, t, out=voiced)
        for start, stop in pauses:
            voiced[max(start - lo, 0):max(stop - lo, 0)] = 0.0
        np.add(voiced, rng.normal(0.0, noise_sd, m), out=voiced)
    peak = max(mix.max(), -mix.min())
    if peak > 0:
        mix *= 0.9 / peak  # never clips: |sample| <= 0.9
    return AudioClip(samples=mix, sample_rate=DEFAULT_SAMPLE_RATE)


def generate_cohort(spec: CohortSpec, out_dir) -> DatasetManifest:
    """Write one WAV per speaker plus cohort.csv and cohort.json.

    Deterministic for a fixed spec: each speaker draws from a generator
    seeded by (seed, class index, speaker index), so reruns are
    byte-identical and speakers are independent of generation order.
    Manifest paths are relative to the output directory. One speaker's
    float64 samples are held at a time, and each WAV is written in blocks,
    so memory does not grow with the number of speakers.
    """
    out_dir = Path(out_dir)
    try:
        rows = []
        for class_idx, label in enumerate(sorted(spec.class_profiles)):
            profile = spec.class_profiles[label]
            for speaker_idx in range(spec.speakers_per_class):
                rng = np.random.default_rng([spec.seed, class_idx, speaker_idx])
                name = f"{label}_s{speaker_idx:02d}.wav"
                clip = _speaker_clip(profile, spec.seconds_per_speaker, rng)
                if not rows:  # made after the first clip, so a clip too large leaves no directory
                    out_dir.mkdir(parents=True, exist_ok=True)
                save_wav(out_dir / name, clip)
                del clip  # freed before the next speaker's clip is made
                rows.append(ManifestRow(path=name, label=label, participant=f"{label}_s{speaker_idx:02d}"))
        manifest = DatasetManifest(rows=rows)
        save_manifest(out_dir / "cohort.csv", manifest)
        sidecar = {"synthetic": True, "note": NON_CLINICAL_NOTE, **asdict(spec)}
        sidecar["profiles"] = sidecar.pop("class_profiles")
        write_json(out_dir / "cohort.json", sidecar)
    except OSError as exc:
        raise IoFailure(f"cannot write cohort to {out_dir}: {exc}") from exc
    return manifest
