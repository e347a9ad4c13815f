"""Seeded inputs and CLI stage sequences of the four benchmark workloads.

The generators here share no code with ``vocalscreen``: the audio is
synthesised by wavetable lookup and written by a RIFF writer of this
file, and the model2k table is drawn directly in feature space. A change
to ``vocalscreen.synth`` or ``vocalscreen.audio_io`` therefore leaves the
inputs of cohort16k, ingest48k and model2k byte-for-byte unchanged.

Input sizes do not depend on the seed: pauses have a fixed count and
length and only their placement is random, so every seed yields the same
number of voiced samples, segments and rows, wall times are comparable
across seeds, and the allocator sees the same sequence of array sizes
(an earlier version whose voiced lengths varied by a few hops read
342 MB peak RSS for one seed and 521 MB for others on ingest48k).
"""

import csv
import struct
from pathlib import Path

import numpy as np

FEATURE_HEADER = (["segment_id", "label"] + [f"mfcc{i}" for i in range(13)]
                  + ["centroid", "complexity", "zcr"])
MANIFEST_HEADER = ["path", "label", "participant"]
LABELS = ("control", "depression")

# Per-class voice model: f0 (Hz), spectral tilt (dB/octave), noise floor (dBFS).
VOICE = {
    "control": (200.0, -6.0, -52.0),
    "depression": (120.0, -12.0, -40.0),
}
TABLE_LEN = 4096
HARMONICS = 9
HOP_S = 0.025  # hop of the program's default silence detector

COHORT_SPEAKERS = 24           # 12 per class, the shape of the acceptance cohort
COHORT_SECONDS = 60.0
COHORT_PAUSES = (9, 0.6)       # 9 pauses of 0.6 s: 9 % of each recording
INGEST_SPEAKERS = 6            # 3 at 48 kHz float32, 3 at 44.1 kHz PCM16, all stereo
INGEST_SECONDS = 120.0
INGEST_PAUSES = (60, 1.0)      # one 1 s pause per 2 s: half is silence
MODEL_SPEAKERS = 72            # 36 per class
MODEL_ROWS_PER_SPEAKER = 28    # 2016 rows
SYNTH_SPEAKERS_PER_CLASS = 3
SYNTH_SECONDS = 120.0


def _wav_bytes(samples: np.ndarray, rate: int, float32: bool) -> bytes:
    """RIFF/WAVE bytes of float samples in [-1, 1], shape (n,) or (n, channels)."""
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    if float32:
        body = samples.astype("<f4").tobytes()
        code, bits = 3, 32
    else:
        body = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
        code, bits = 1, 16
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", code, channels, rate, rate * align, align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _voice(rng: np.random.Generator, label: str, seconds: float, rate: int,
           pauses: tuple) -> np.ndarray:
    """One speaker: a harmonic wavetable under vibrato and a slow loudness
    drift, silenced in ``pauses[0]`` pauses of ``pauses[1]`` seconds (one
    per equal slot, at a random offset), plus white noise; peak 0.9."""
    f0, tilt, noise_db = VOICE[label]
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    f0 *= 1.0 + rng.uniform(-0.08, 0.08)
    vibrato = 1.0 + rng.uniform(0.005, 0.02) * np.sin(
        2 * np.pi * rng.uniform(4.0, 6.5) * t + rng.uniform(0, 2 * np.pi))
    cycles = np.cumsum(f0 * vibrato) / rate
    phase = 2 * np.pi * np.arange(TABLE_LEN) / TABLE_LEN
    table = np.zeros(TABLE_LEN)
    for h in range(1, HARMONICS + 1):
        table += 10.0 ** (tilt * np.log2(h) / 20.0) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    index = (np.mod(cycles, 1.0) * TABLE_LEN).astype(np.intp) % TABLE_LEN
    signal = table[index] * (1.0 + 0.15 * np.sin(
        2 * np.pi * rng.uniform(0.2, 0.6) * t + rng.uniform(0, 2 * np.pi)))
    # Pause edges sit on the silence detector's 25 ms hop grid, two hops
    # or more inside their slot, so every seed keeps exactly the same
    # number of voiced samples and all array sizes repeat across seeds.
    count, length = pauses
    slot_hops = int(round(seconds / HOP_S)) // count
    pause_hops = int(round(length / HOP_S))
    for i in range(count):
        start_hop = i * slot_hops + int(rng.integers(2, slot_hops - pause_hops - 2))
        start = int(round(start_hop * HOP_S * rate))
        signal[start : start + int(round(pause_hops * HOP_S * rate))] = 0.0
    signal += rng.normal(0.0, 10.0 ** (noise_db / 20.0), n)
    return signal * (0.9 / np.max(np.abs(signal)))


def _write_manifest(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)


def _speaker_labels(count: int):
    """(index, label, participant) with classes alternating."""
    return [(i, LABELS[i % 2], f"{LABELS[i % 2]}_p{i:03d}") for i in range(count)]


def gen_cohort16k(out: Path, seed: int) -> dict:
    rows = []
    for i, label, participant in _speaker_labels(COHORT_SPEAKERS):
        rng = np.random.default_rng([seed, 16, i])
        samples = _voice(rng, label, COHORT_SECONDS, 16000, COHORT_PAUSES)
        name = f"{participant}.wav"
        (out / name).write_bytes(_wav_bytes(samples, 16000, float32=False))
        rows.append([name, label, participant])
    _write_manifest(out / "cohort.csv", rows)
    return {"recordings": len(rows), "audio_s": COHORT_SPEAKERS * COHORT_SECONDS}


def gen_ingest48k(out: Path, seed: int) -> dict:
    rows = []
    for i, label, participant in _speaker_labels(INGEST_SPEAKERS):
        rng = np.random.default_rng([seed, 48, i])
        float32 = i < INGEST_SPEAKERS // 2
        rate = 48000 if float32 else 44100
        left = _voice(rng, label, INGEST_SECONDS, rate, INGEST_PAUSES)
        right = 0.8 * left + rng.normal(0.0, 1e-3, len(left))
        stereo = np.column_stack([left, right]) * (0.9 / max(np.max(np.abs(left)), np.max(np.abs(right))))
        name = f"{participant}.wav"
        (out / name).write_bytes(_wav_bytes(stereo, rate, float32=float32))
        rows.append([name, label, participant])
    _write_manifest(out / "cohort.csv", rows)
    return {"recordings": len(rows), "audio_s": INGEST_SPEAKERS * INGEST_SECONDS}


def gen_model2k(out: Path, seed: int) -> dict:
    """Per-speaker clusters around two class centres in feature space.

    Class centres differ by 2.5 units in eight dimensions; speakers scatter
    around them with unit spread and segments around their speaker with
    spread 0.5, so held-out speakers stay separable. Units map onto
    plausible feature ranges (dB-scale MFCCs, centroid in (0, 0.5),
    complexity >= 0, ZCR in (0, 1)).
    """
    rng = np.random.default_rng([seed, 2000])
    centre = {"control": np.zeros(16), "depression": np.zeros(16)}
    centre["depression"][[0, 1, 2, 4, 6, 13, 14, 15]] = 2.5
    offset = np.array([-250.0] + [0.0] * 12 + [0.10, 12.0, 0.08])
    scale = np.array([15.0] + [4.0] * 12 + [0.012, 2.0, 0.01])
    feature_rows, manifest_rows = [], []
    for i, label, participant in _speaker_labels(MODEL_SPEAKERS):
        speaker = centre[label] + rng.normal(0.0, 1.0, 16)
        for j in range(MODEL_ROWS_PER_SPEAKER):
            values = offset + scale * (speaker + rng.normal(0.0, 0.5, 16))
            values[13] = min(max(values[13], 0.001), 0.499)
            values[14] = max(values[14], 0.0)
            values[15] = min(max(values[15], 0.001), 0.999)
            sid = f"{participant}.seg{j:03d}"
            feature_rows.append([sid, label] + [repr(float(v)) for v in values])
            manifest_rows.append([sid, label, participant])
    with open(out / "features.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FEATURE_HEADER)
        writer.writerows(feature_rows)
    _write_manifest(out / "segments.csv", manifest_rows)
    return {"recordings": 0, "audio_s": 0.0, "rows": len(feature_rows),
            "speakers": MODEL_SPEAKERS}


def gen_synth(out: Path, seed: int) -> dict:
    # key = value defaults, read through the README's documented --config flag
    (out / "synth.cfg").write_text(
        f"speakers_per_class = {SYNTH_SPEAKERS_PER_CLASS}\n"
        f"seconds_per_speaker = {SYNTH_SECONDS}\n")
    speakers = 2 * SYNTH_SPEAKERS_PER_CLASS
    return {"recordings": speakers, "audio_s": speakers * SYNTH_SECONDS}


def _model_stages(features: str, segments: str, work: str, seed: int, split_args: list) -> list:
    s = str(seed)
    return [
        ("split", ["split", "--manifest", segments, "--out", work, "--seed", s] + split_args),
        ("select", ["select", "--features", features, "--manifest", f"{work}/train.csv",
                    "--out", work, "--seed", s]),
        ("train", ["train", "--features", features, "--manifest", f"{work}/train.csv",
                   "--out", work, "--k", "3", "--p", "2"]),
        ("evaluate", ["evaluate", "--features", features, "--manifest", f"{work}/test.csv",
                      "--model", f"{work}/model.json", "--split-sidecar", f"{work}/split.json",
                      "--out", f"{work}/eval"]),
        ("predict", ["predict", "--model", f"{work}/model.json", "--features", features]),
        ("stats", ["stats", "--features", features, "--out", work]),
    ]


def stages(workload: str, inputs: str, work: str, seed: int) -> list:
    """(stage, argv) pairs for ``vocalscreen.cli.main``, in run order.

    Only flags the README documents are used. ``predict`` prints its
    table; the child stores that output as ``predictions.csv``.
    """
    if workload == "cohort16k":
        extract = [("extract", ["extract", "--manifest", f"{inputs}/cohort.csv", "--out", work])]
        return extract + _model_stages(f"{work}/features.csv", f"{work}/segments.csv", work, seed, [])
    if workload == "ingest48k":
        return [("extract", ["extract", "--manifest", f"{inputs}/cohort.csv", "--out", work])]
    if workload == "model2k":
        return _model_stages(f"{inputs}/features.csv", f"{inputs}/segments.csv", work, seed,
                             ["--mode", "speaker-disjoint"])
    if workload == "synth":
        return [("synth", ["synth", "--out", f"{work}/cohort", "--seed", str(seed),
                           "--config", f"{inputs}/synth.cfg"])]
    raise KeyError(workload)


GENERATORS = {
    "cohort16k": gen_cohort16k,
    "ingest48k": gen_ingest48k,
    "model2k": gen_model2k,
    "synth": gen_synth,
}

# Artifacts digested per workload, relative to the work directory.
ARTIFACTS = {
    "cohort16k": ["features.csv", "segments.csv", "model.json", "selection_report.json",
                  "eval/eval_report.json", "predictions.csv", "stats.json"],
    "ingest48k": ["features.csv", "segments.csv"],
    "model2k": ["model.json", "selection_report.json", "eval/eval_report.json",
                "predictions.csv", "stats.json"],
    "synth": ["cohort"],
}
