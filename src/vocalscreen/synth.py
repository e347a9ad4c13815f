"""Synthetic voice-like cohort generation.

Real clinical recordings cannot ship with the code, so the end-to-end
pipeline is exercised on generated stand-ins: per speaker, a harmonic
stack (f0 plus 8 harmonics under a per-class spectral tilt) with slow
per-speaker jitter, Poisson-placed silent pauses, and additive white
noise. Class profiles differ in fundamental frequency, tilt, noise floor,
and pause density, which is exactly the surface the 16 features measure.

A speaker's random scalars are drawn first; its samples are then made
in fixed blocks of BLOCK samples, each running the whole signal chain in
four cache-sized buffers instead of a dozen full-length arrays
(``_speaker_blocks``). The blocked chain keeps every operation and its
association, so each WAV is byte-identical to the one the whole-array
chain writes. A speaker is never held whole: ``generate_cohort`` spills
its unscaled blocks to one unnamed scratch file in the output directory
while it folds them into the peak, then reads them back, scales them to
peak 0.9 and has ``save_wav`` encode each as it is read. Peak memory is
a few blocks, however long and however many the speakers; the disk
holds one speaker's float64 samples beside the WAVs.

Every output is labeled synthetic and non-clinical; scores obtained on
this cohort say nothing about clinical screening accuracy.
"""

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
import tempfile

import numpy as np

from .audio_io import DEFAULT_SAMPLE_RATE, _ClipBlocks, max_wav_frames, save_wav
from .dataset import LABELS, DatasetManifest, ManifestRow, save_manifest, write_json
from .errors import InvalidValue, VocalScreenError, integer, number
from .preprocess import sample_count
from .rng import check_seed, round_half_up

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
    """Signal-model knobs for one class of speakers, each a number; pauses_per_minute, a
    Poisson rate, is neither negative nor NaN (a noise_floor_db of -inf is noise-free)."""

    f0_hz: float
    f0_spread_hz: float
    tilt_db_per_octave: float
    noise_floor_db: float
    pauses_per_minute: float

    def __post_init__(self):
        for f in fields(self):
            number(getattr(self, f.name), f.name)
        if not self.pauses_per_minute >= 0:
            raise InvalidValue(f"pauses_per_minute must be >= 0, got {self.pauses_per_minute!r}")


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
        if integer(self.speakers_per_class, "speakers_per_class") < 1:
            raise ValueError("speakers_per_class must be >= 1")
        check_seed(self.seed)  # the one seed rule of every seeded stage
        samples = sample_count(self.seconds_per_speaker, "seconds_per_speaker")
        limit = max_wav_frames(1, 16)  # each speaker is one mono PCM16 WAV
        if samples > limit:
            raise ValueError(f"seconds_per_speaker {self.seconds_per_speaker} gives {samples}"
                             f" samples at {DEFAULT_SAMPLE_RATE} Hz, more than the {limit}"
                             " a mono PCM16 WAV holds")
        if not self.class_profiles or not set(self.class_profiles) <= set(LABELS):
            raise ValueError(f"class_profiles must be keyed by one or more of {LABELS},"
                             f" got {sorted(self.class_profiles)}")
        for label, profile in self.class_profiles.items():  # _speaker_blocks draws this mean
            pauses = profile.pauses_per_minute * self.seconds_per_speaker / 60.0
            if pauses > samples:
                raise ValueError(f"class {label!r}: pauses_per_minute {profile.pauses_per_minute}"
                                 f" expects {pauses:g} pauses, more than its {samples} samples")
        profiles = list(self.class_profiles.values())
        if len(profiles) >= 2 and all(p == profiles[0] for p in profiles[1:]):
            raise ValueError("class profiles must differ in at least one parameter")


def _pauses_by_block(pauses, n: int) -> list:
    """Each BLOCK-sample block's list of the (start, stop) sample spans in ``pauses`` it overlaps.

    A span is listed under every block from the one holding its first sample
    to the one holding its last, so a block zeroes only its own pauses and a
    speaker costs O(blocks + pauses) visits, not O(blocks x pauses); a pause
    of at most 0.8 s, shorter than a BLOCK, is listed under at most two.
    """
    by_block = [[] for _ in range(0, n, BLOCK)]
    for start, stop in pauses:
        for block in range(start // BLOCK, -(-stop // BLOCK)):
            by_block[block].append((start, stop))
    return by_block


def _speaker_blocks(profile: ClassProfile, seconds: float, rng: "np.random.Generator"):
    """Yield one speaker's DEFAULT_SAMPLE_RATE samples, unscaled, in blocks of BLOCK samples.

    Every random scalar is drawn first, in a fixed order: f0, vibrato rate,
    depth and phase, one phase per partial, envelope rate and phase, the
    pause count, then each pause's duration and start. Each block then runs
    the signal chain in block-sized buffers: time axis, vibrato, running
    phase (cumsum carried over from the previous block), partials, loudness
    envelope, pauses, and its share of the noise draw. Each yielded block is
    one buffer, refilled in place for the next block.

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

    t_buf, phase_buf, partial_buf, voiced_buf = np.empty((4, min(BLOCK, n)))
    phase_sum = 0.0  # cumsum of the instantaneous f0 up to the block start
    for lo, block_pauses in zip(range(0, n, BLOCK), _pauses_by_block(pauses, n)):
        hi = min(lo + BLOCK, n)
        m = hi - lo
        t, phase, partial, voiced = t_buf[:m], phase_buf[:m], partial_buf[:m], voiced_buf[:m]
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
        for start, stop in block_pauses:
            voiced[max(start - lo, 0):stop - lo] = 0.0
        np.add(voiced, rng.normal(0.0, noise_sd, m), out=voiced)
        yield voiced


def _save_speaker(path: Path, blocks, scratch) -> None:
    """Write a speaker's blocks to ``path`` as a WAV normalised to peak 0.9, in two passes.

    Pass 1 writes each unscaled block to ``scratch`` (a buffered file,
    rewound here, so one serves every speaker) and folds its largest
    magnitude into the peak. np.maximum carries a NaN through, so a
    speaker whose samples are not all finite raises ValueError, and a full
    disk OSError (the rewind flushes the buffer), before its WAV is opened.
    Pass 2 reads the blocks back and has ``save_wav`` write each scaled by
    ``0.9 / peak`` (the whole-array chain's product, so never past 0.9).
    """
    scratch.seek(0)
    frames, peak = 0, 0.0
    for block in blocks:
        frames += len(block)
        peak = np.maximum(peak, np.maximum(block.max(), -block.min()))
        scratch.write(block)  # a buffered write takes every byte or raises
    if not np.isfinite(peak):
        raise ValueError(f"{path.name}: samples must be finite, got peak {peak}")
    scale = 0.9 / peak if peak > 0 else 1.0
    scratch.seek(0)

    def scaled():
        buffer = np.empty(min(BLOCK, frames))
        for lo in range(0, frames, BLOCK):
            block = buffer[:min(BLOCK, frames - lo)]
            scratch.readinto(block)  # a regular file reads short only at its end
            yield np.multiply(block, scale, out=block)

    save_wav(path, _ClipBlocks(scaled(), frames, DEFAULT_SAMPLE_RATE))


def generate_cohort(spec: CohortSpec, out_dir) -> DatasetManifest:
    """Write one WAV per speaker plus cohort.csv and cohort.json.

    Deterministic for a fixed spec: each speaker draws from a generator
    seeded by (seed, class index, speaker index), so reruns are
    byte-identical and speakers are independent of generation order.
    Manifest paths are relative to the output directory. Each speaker's
    samples pass through one unnamed scratch file in the output directory,
    opened once for the cohort and gone when it is closed, so memory grows
    neither with a speaker's length nor with the number of speakers.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = []
        with tempfile.TemporaryFile(dir=out_dir) as scratch:
            for class_idx, label in enumerate(sorted(spec.class_profiles)):
                profile = spec.class_profiles[label]
                for speaker_idx in range(spec.speakers_per_class):
                    rng = np.random.default_rng([spec.seed, class_idx, speaker_idx])
                    name = f"{label}_s{speaker_idx:02d}.wav"
                    _save_speaker(out_dir / name,
                                  _speaker_blocks(profile, spec.seconds_per_speaker, rng), scratch)
                    rows.append(ManifestRow(path=name, label=label,
                                            participant=f"{label}_s{speaker_idx:02d}"))
        manifest = DatasetManifest(rows=rows)
        save_manifest(out_dir / "cohort.csv", manifest)
        sidecar = {"synthetic": True, "note": NON_CLINICAL_NOTE, **asdict(spec)}
        sidecar["profiles"] = sidecar.pop("class_profiles")
        write_json(out_dir / "cohort.json", sidecar)
    except OSError as exc:
        raise IoFailure(f"cannot write cohort to {out_dir}: {exc}") from exc
    return manifest
