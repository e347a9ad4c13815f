import contextlib
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from vocalscreen.audio_io import AudioClip


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
