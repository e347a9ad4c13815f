import contextlib
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from vocalscreen.audio_io import AudioClip
from vocalscreen.dataset import DatasetManifest, ManifestRow, save_manifest
from vocalscreen.features import write_features_csv


@contextlib.contextmanager
def chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced while ``fn(*args, **kwargs)`` runs, above the level it starts at.

    numpy reports its array buffers to tracemalloc, so this counts every
    array a call allocates, freed or not, and none it only reads.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - before


def write_redigested(path, payload) -> None:
    """Write ``payload`` as a model file whose digest matches it, whatever its fields hold.

    The file is json's indent=1, sort_keys=True layout and a newline, as
    save_model writes, with "digest" (first among the payload's keys) on
    line 2 holding the SHA-256 of every byte after that line.
    """
    text = json.dumps({**payload, "digest": "0" * 64}, indent=1, sort_keys=True) + "\n"
    brace, line, rest = text.split("\n", 2)
    assert (brace, line) == ("{", f' "digest": "{"0" * 64}",')
    rest = rest.encode()
    path.write_bytes(f'{{\n "digest": "{hashlib.sha256(rest).hexdigest()}",\n'.encode() + rest)


def tone(freq_hz: float, seconds: float = 1.0, amplitude: float = 0.5,
         sample_rate: int = 16000) -> AudioClip:
    t = np.arange(round(seconds * sample_rate)) / sample_rate
    return AudioClip(samples=amplitude * np.sin(2 * np.pi * freq_hz * t),
                     sample_rate=sample_rate)


def feature_cohort(out=None) -> tuple:
    """A cohort drawn in feature space: 36 participants (18 per class) x 28 rows x 16 dims.

    Each participant's centre is N(0, 2^2) per dimension, plus 0.3 for the
    depression class, and each row adds N(0, 1) noise, all drawn from
    np.random.default_rng(0). Participant i is ``p{i:02d}``; the first 18
    are controls. Returns (matrix, labels, participant codes), one entry per
    row, participant by participant. Given ``out``, a directory, it also
    writes them as out/features.csv and out/segments.csv, segment ids
    ``<participant>.seg<NNN>``, for the CLI stages to read.
    """
    rng = np.random.default_rng(0)
    positive = np.repeat([0, 1], 18)
    centres = rng.normal(0.0, 2.0, (36, 16)) + 0.3 * positive[:, None]
    matrix = np.repeat(centres, 28, axis=0) + rng.normal(size=(36 * 28, 16))
    labels = [("control", "depression")[code] for code in positive.repeat(28)]
    participants = [f"p{i:02d}" for i in range(36) for _ in range(28)]
    if out is not None:
        ids = [f"{code}.seg{j % 28:03d}" for j, code in enumerate(participants)]
        write_features_csv(out / "features.csv", ids, labels, matrix)
        save_manifest(out / "segments.csv", DatasetManifest(
            rows=map(ManifestRow, ids, labels, participants)))
    return matrix, labels, participants


@pytest.fixture(scope="session")
def small_cohort(tmp_path_factory):
    """Tiny synthetic cohort shared by CLI-level tests: 3+3 speakers, 30 s."""
    from vocalscreen.cli import main

    root = tmp_path_factory.mktemp("small_cohort")
    with chdir(root):
        assert main(["synth", "--out", "cohort", "--seed", "7",
                     "--speakers-per-class", "3", "--seconds-per-speaker", "30"]) == 0
        assert main(["extract", "--manifest", "cohort/cohort.csv", "--out", "work"]) == 0
        assert main(["split", "--manifest", "work/segments.csv", "--out", "work",
                     "--seed", "7"]) == 0
    return root
