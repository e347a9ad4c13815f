#!/usr/bin/env python3
# The 16 per-segment features: 13 MFCCs + centroid + complexity + ZCR.

import numpy as np

from vocalscreen import AudioClip, extract_features
from vocalscreen.features import FEATURE_COLUMNS

rate = 16000
t = np.arange(4 * rate) / rate
rng = np.random.default_rng(0)

segments = {
    "pure 220 Hz tone": 0.5 * np.sin(2 * np.pi * 220 * t),
    "rich harmonic stack": 0.2 * sum(np.sin(2 * np.pi * 150 * h * t) / h for h in range(1, 9)),
    "white noise": 0.3 * rng.uniform(-1, 1, len(t)),
    "silence": np.zeros(len(t)),
}

vectors = {
    name: extract_features(AudioClip(samples=s, sample_rate=rate))
    for name, s in segments.items()
}

header = f"{'feature':<12}" + "".join(f"{name:>22}" for name in vectors)
print(header)
print("-" * len(header))
for i, column in enumerate(FEATURE_COLUMNS):
    row = "".join(f"{vec[i]:>22.4f}" for vec in vectors.values())
    print(f"{column:<12}{row}")

# Reading the table: the tone concentrates energy low (small centroid, one
# spectral peak); the harmonic stack raises complexity; noise pushes the
# zero-crossing rate up; silence hits the log floor in every mel band.
