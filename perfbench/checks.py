"""Correctness checks on one repeat's artifacts; each check is one operation.

Every function returns a list of ``(name, ok, detail)``. The references
are written here from the README's definitions, not taken from the
program's batched paths:

* features: a seeded sample of segments is cut with the program's public
  ingest functions, then re-derived frame by frame from the single-frame
  definitions (``power_spectrum``, ``mel_filterbank``, ``dct_basis``,
  ``spectral_centroid``, ``spectral_complexity``, ``zero_crossing_rate``);
  MFCCs must agree within 1e-4 (the acceptance tolerance), the other
  features within 1e-9;
* predictions: a seeded sample of ``predictions.csv`` rows against a
  plain-Python scan of ``model.json`` with the lowest-index tie rule,
  label and score exactly;
* quality: held-out F1 and best CV score at least 0.90;
* synth: the cohort has the configured recordings, each of the configured
  length, and is marked synthetic.
"""

import csv
import json
import math
import wave
from pathlib import Path

import numpy as np

# README feature constants: 16 kHz, 2048-sample Hann frames, hop 512,
# 128 mel bands, MFCC 0..12, power floor 1e-10, peaks within 30 dB.
RATE, N_FFT, HOP, N_MELS, N_MFCC = 16000, 2048, 512, 128, 13
LOG_FLOOR, PEAK_DB, SEGMENT_S = 1e-10, 30.0, 4.0
MFCC_TOL, OTHER_TOL, QUALITY_MIN = 1e-4, 1e-9, 0.90


def read_features(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {row[0]: (row[1], [float(v) for v in row[2:]]) for row in rows[1:]}


def _reference_features(segment) -> np.ndarray:
    from vocalscreen.features import (dct_basis, mel_filterbank, power_spectrum,
                                      spectral_centroid, spectral_complexity,
                                      zero_crossing_rate)

    samples = segment.samples
    bank = mel_filterbank(RATE)
    dct = dct_basis(N_MELS)[:N_MFCC]
    cepstra, centroids, peaks = [], [], []
    for start in range(0, len(samples) - N_FFT + 1, HOP):
        power = power_spectrum(samples[start : start + N_FFT])
        log_mel = 10.0 * np.log10(np.maximum(bank @ power, LOG_FLOOR))
        cepstra.append(dct @ log_mel)
        centroids.append(spectral_centroid(power))
        peaks.append(spectral_complexity(power, PEAK_DB, LOG_FLOOR))
    return np.concatenate([np.mean(cepstra, axis=0),
                           [np.mean(centroids), np.mean(peaks), zero_crossing_rate(segment)]])


def check_features(work: Path, inputs: Path, rng: np.random.Generator, sample: int) -> list:
    from vocalscreen import audio_io, preprocess

    features = read_features(work / "features.csv")
    ids = sorted(features)
    chosen = sorted(rng.choice(len(ids), size=min(sample, len(ids)), replace=False))
    by_recording = {}
    for index in chosen:
        stem, _, seg = ids[index].rpartition(".seg")
        by_recording.setdefault(stem, []).append((ids[index], int(seg)))
    results = []
    for stem, wanted in sorted(by_recording.items()):
        clip = audio_io.resample(audio_io.to_mono(audio_io.load_wav(inputs / f"{stem}.wav")), RATE)
        segments = preprocess.segment(preprocess.remove_silence(clip), SEGMENT_S).segments
        for sid, index in wanted:
            got = np.array(features[sid][1])
            if index >= len(segments):
                results.append((f"features[{sid}]", False, "segment index beyond the recording"))
                continue
            want = _reference_features(segments[index])
            mfcc_err = float(np.max(np.abs(got[:N_MFCC] - want[:N_MFCC])))
            other_err = float(np.max(np.abs(got[N_MFCC:] - want[N_MFCC:])))
            ok = mfcc_err <= MFCC_TOL and other_err <= OTHER_TOL
            results.append((f"features[{sid}]", ok,
                            f"max |mfcc err| {mfcc_err:.3g}, max |other err| {other_err:.3g}"))
    return results


def _scan(model: dict, query: list) -> tuple:
    """Exhaustive KNN over the stored standardized rows, plain Python."""
    means, stds = model["scaler"]["means"], model["scaler"]["stds"]
    q = [(x - m) / s for x, m, s in zip(query, means, stds)]
    k, p = model["k"], model["p"]
    distances = []
    for index, row in enumerate(model["train"]["matrix"]):
        total = 0.0
        for a, b in zip(row, q):
            total += abs(a - b) ** p
        distances.append((total ** (1.0 / p), index))
    distances.sort()
    votes = {}
    for _distance, index in distances[:k]:
        label = model["train"]["labels"][index]
        votes[label] = votes.get(label, 0) + 1
    winner = max(sorted(votes), key=lambda label: votes[label])
    return winner, votes[winner] / k


def check_predictions(work: Path, features_path: Path, rng: np.random.Generator,
                      sample: int) -> list:
    with open(work / "model.json") as fh:
        model = json.load(fh)
    features = read_features(features_path)
    with open(work / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    results = [("predictions.rows", len(rows) == len(features),
                f"{len(rows)} predictions for {len(features)} feature rows")]
    for index in sorted(rng.choice(len(rows), size=min(sample, len(rows)), replace=False)):
        sid, label, score = rows[index]
        want_label, want_score = _scan(model, features[sid][1])
        ok = label == want_label and float(score) == want_score
        results.append((f"predict[{sid}]", ok,
                        f"got {label} {score}, scan {want_label} {want_score!r}"))
    return results


def check_quality(work: Path) -> list:
    with open(work / "eval" / "eval_report.json") as fh:
        f1 = json.load(fh)["f1"]
    with open(work / "selection_report.json") as fh:
        cv = json.load(fh)["best"]["mean_cv_score"]
    return [("quality.heldout_f1", f1 >= QUALITY_MIN, f"F1 {f1!r} (min {QUALITY_MIN})"),
            ("quality.best_cv_score", cv >= QUALITY_MIN, f"CV {cv!r} (min {QUALITY_MIN})")]


def check_synth(cohort: Path, recordings: int, seconds: float) -> list:
    with open(cohort / "cohort.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    frames = []
    for row in rows:
        with wave.open(str(cohort / row[0])) as wav:
            frames.append((wav.getnchannels(), wav.getframerate(), wav.getnframes()))
    want = (1, RATE, int(math.floor(seconds * RATE + 0.5)))
    synthetic = json.loads((cohort / "cohort.json").read_text()).get("synthetic") is True
    ok = len(rows) == recordings and all(f == want for f in frames) and synthetic
    return [("synth.cohort", ok,
             f"{len(rows)} recordings (want {recordings}), formats {sorted(set(frames))}, "
             f"synthetic={synthetic}")]
