"""Acoustic features for screening: 13 MFCCs, spectral centroid, spectral
complexity, and zero-crossing rate — 16 numbers per 4-second segment.

Per frame (Hann window, unnormalized DFT):

* mel energies  = filterbank @ |X[k]|^2, triangles equally spaced on the
  mel scale mel(f) = 2595 * log10(1 + f/700), each area-normalized by
  2/(f_upper - f_lower)
* log compress  = 10 * log10(max(e, log_floor))   (decibels, floored)
* MFCC          = orthonormal DCT-II across bands, coefficients 0..12
* centroid      = sum(fhat_k * P_k) / sum(P_k) with fhat_k = k/n_fft,
  so the value is a fraction of the sample rate in [0, 0.5]
* complexity    = count of strict local dB maxima within
  peak_threshold_db of the loudest bin

MFCC, centroid, and complexity are averaged across frames; the
zero-crossing rate is computed over the whole segment with sign(0) = +1.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import AudioClip
from .errors import VocalScreenError

N_MFCC = 13

FEATURE_COLUMNS = [f"mfcc{i}" for i in range(N_MFCC)] + ["centroid", "complexity", "zcr"]

N_FEATURES = len(FEATURE_COLUMNS)

CSV_HEADER = ["segment_id", "label"] + FEATURE_COLUMNS


class SegmentTooShort(VocalScreenError):
    """Segment has too few samples for the requested analysis."""


class FeaturesFileError(VocalScreenError):
    """A features CSV whose header or rows do not form a finite feature table."""


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction constants. Defaults assume 16 kHz input."""

    n_fft: int = 2048
    hop: int = 512
    n_mels: int = 128
    n_mfcc: int = 13
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10
    peak_threshold_db: float = 30.0

    def __post_init__(self):
        if not 0 < self.hop <= self.n_fft:
            raise ValueError("need 0 < hop <= n_fft")
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two, at least 2")
        if not 0 <= self.fmin < self.fmax:
            raise ValueError("need 0 <= fmin < fmax")
        if self.n_mfcc != N_MFCC:
            raise ValueError(f"n_mfcc must be {N_MFCC}, the MFCC columns of a features table")
        if self.n_mfcc > self.n_mels:
            raise ValueError("n_mfcc cannot exceed n_mels")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")
        if not self.peak_threshold_db >= 0:
            raise ValueError("peak_threshold_db must be non-negative")


@lru_cache(maxsize=8)
def _window(n_fft: int, kind: str) -> np.ndarray:
    if kind == "hann":
        # periodic form, standard for analysis frames
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    if kind == "rectangular":
        return np.ones(n_fft)
    raise ValueError(f"unknown window {kind!r}")


def complex_spectrum(frame: np.ndarray, window: str = "hann") -> np.ndarray:
    """One-sided DFT of a windowed frame (no normalization)."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1:
        raise ValueError("frame must be one-dimensional")
    return np.fft.rfft(frame * _window(len(frame), window))


def power_spectrum(frame: np.ndarray, window: str = "hann") -> np.ndarray:
    """One-sided power spectrum |X[k]|^2, k = 0..n_fft/2.

    The rectangular window exists as a test hook for exact DFT identities;
    production framing always uses Hann.
    """
    spectrum = complex_spectrum(frame, window=window)
    return np.abs(spectrum) ** 2


def power_spectra(segment: AudioClip, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Hann-windowed power spectra of all complete frames of a segment, shape (frames, bins).

    Frames are left-aligned, length n_fft, advancing by hop; the trailing
    partial frame is dropped. Raises SegmentTooShort when not even one
    frame fits.
    """
    samples = segment.samples
    if samples.ndim != 1:
        raise ValueError("power_spectra expects a mono clip")
    if len(samples) < config.n_fft:
        raise SegmentTooShort(f"{len(samples)} samples < n_fft {config.n_fft}")
    frames = np.lib.stride_tricks.sliding_window_view(samples, config.n_fft)[:: config.hop]
    spectra = np.fft.rfft(frames * _window(config.n_fft, "hann"), axis=1)
    return np.abs(spectra) ** 2


def mel(freq_hz):
    """Hz -> mel."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_inverse(mels):
    """mel -> Hz."""
    return 700.0 * (10.0 ** (np.asarray(mels, dtype=np.float64) / 2595.0) - 1.0)


def mel_breakpoints(n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """The n_mels + 2 filter edge/center frequencies in Hz.

    Points are equally spaced on the mel scale between fmin and fmax;
    filter j spans (points[j], points[j+2]) and peaks at points[j+1].
    """
    return mel_inverse(np.linspace(mel(fmin), mel(fmax), n_mels + 2))


@lru_cache(maxsize=8)
def mel_filterbank(sample_rate: int, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft/2 + 1), area-normalized.

    Cached and read-only; 16000 and 16000.0 hash equal, so they share one entry.
    """
    if config.fmax > sample_rate / 2:
        raise ValueError(f"fmax {config.fmax} exceeds Nyquist {sample_rate / 2}")
    points = mel_breakpoints(config.n_mels, config.fmin, config.fmax)
    bin_freqs = np.arange(config.n_fft // 2 + 1) * (sample_rate / config.n_fft)
    bank = np.zeros((config.n_mels, config.n_fft // 2 + 1))
    for j in range(config.n_mels):
        lower, center, upper = points[j], points[j + 1], points[j + 2]
        rising = (bin_freqs - lower) / (center - lower)
        falling = (upper - bin_freqs) / (upper - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        bank[j] = tri * (2.0 / (upper - lower))
    bank.setflags(write=False)
    return bank


@lru_cache(maxsize=8)
def dct_basis(n: int) -> np.ndarray:
    """Full orthonormal DCT-II matrix; row k dotted with a band vector
    gives coefficient k."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * m + 1) / (2 * n))
    basis[0] = np.sqrt(1.0 / n)
    basis.setflags(write=False)
    return basis


def _cepstra(spectra: np.ndarray, sample_rate: int, config: FeatureConfig) -> np.ndarray:
    """Across-frame mean of the per-frame MFCCs of a (frames, bins) power stack."""
    bank = mel_filterbank(sample_rate, config)
    energies = spectra @ bank.T
    log_mel = 10.0 * np.log10(np.maximum(energies, config.log_floor))
    coeffs = log_mel @ dct_basis(config.n_mels)[: config.n_mfcc].T
    return coeffs.mean(axis=0)


def mfcc(segment: AudioClip, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-segment MFCCs 0..12: per-frame cepstra averaged across frames."""
    return _cepstra(power_spectra(segment, config), segment.sample_rate, config)


def spectral_centroid(spectrum: np.ndarray) -> float | np.ndarray:
    """Balance point of a one-sided power spectrum on the normalized
    frequency axis k/n_fft; an all-zero spectrum maps to 0.

    Takes one spectrum (returns a float) or a (frames, bins) stack
    (returns one centroid per row), reducing over the last axis.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    n_bins = spectrum.shape[-1]
    fhat = np.arange(n_bins) / (2 * (n_bins - 1))
    total = spectrum.sum(axis=-1)
    weighted = (fhat * spectrum).sum(axis=-1)
    centroid = np.divide(weighted, total, out=np.zeros_like(total), where=total != 0.0)
    # subnormal products fhat * P can round up past 0.5 of the total
    np.minimum(centroid, 0.5, out=centroid)
    return float(centroid) if spectrum.ndim == 1 else centroid


def spectral_complexity(spectrum: np.ndarray, peak_threshold_db: float = 30.0,
                        log_floor: float = 1e-10) -> int | np.ndarray:
    """Count of prominent spectral peaks in one frame.

    A peak is a strict local maximum on the dB spectrum that lies within
    peak_threshold_db of the loudest bin. Power is floored before the log
    so empty bins compare equal rather than -inf; an all-zero spectrum is
    therefore flat and has no peaks. Takes one spectrum (returns an int)
    or a (frames, bins) stack (returns one count per row), reducing over
    the last axis.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    db = 10.0 * np.log10(np.maximum(spectrum, log_floor))
    # initial keeps a spectrum of no bins at 0 peaks instead of raising
    loudest = db.max(axis=-1, keepdims=True, initial=-np.inf)
    inner = db[..., 1:-1]
    peaks = ((inner > db[..., :-2]) & (inner > db[..., 2:])
             & (inner > loudest - peak_threshold_db))
    counts = np.count_nonzero(peaks, axis=-1)
    return int(counts) if spectrum.ndim == 1 else counts


def zero_crossing_rate(segment: AudioClip) -> float:
    """Fraction of adjacent sample pairs with differing sign, sign(0) = +1."""
    samples = segment.samples
    if len(samples) < 2:
        raise SegmentTooShort("zero-crossing rate needs at least 2 samples")
    nonnegative = samples >= 0.0  # sign +1, also for -0.0
    return float(np.count_nonzero(nonnegative[:-1] != nonnegative[1:]) / (len(samples) - 1))


def extract_features(segment: AudioClip, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """All 16 features of one segment, a float64 array of shape (16,) in FEATURE_COLUMNS order.

    One power-spectrum pass feeds every spectral feature: MFCCs 0..12,
    then the across-frame means of spectral centroid (a fraction of the
    sample rate, in [0, 0.5]) and complexity (>= 0), then the zero-crossing
    rate (in [0, 1]). Equal to the composition of mfcc(), the per-frame
    spectral_centroid() and spectral_complexity(), and zero_crossing_rate().
    """
    spectra = power_spectra(segment, config)
    cepstra = _cepstra(spectra, segment.sample_rate, config)
    centroid = float(np.mean(spectral_centroid(spectra)))
    complexity = float(np.mean(
        spectral_complexity(spectra, config.peak_threshold_db, config.log_floor)))
    zcr = zero_crossing_rate(segment)
    return np.concatenate([cepstra, [centroid, complexity, zcr]])


def write_features_csv(path, ids, labels, matrix) -> None:
    """Write segment ids, labels and their feature rows as CSV.

    Takes the (ids, labels, matrix) triple that read_features_csv returns;
    the three must be the same length. Floats use shortest round-trip
    formatting, so read_features_csv reproduces them exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for sid, label, row in zip(ids, labels, matrix, strict=True):
            writer.writerow([sid, label] + [repr(float(v)) for v in row])


def read_features_csv(path):
    """Read a features CSV -> (segment_ids, labels, matrix of shape (N, 16)).

    A file that does not decode as text, a wrong header, a row with the
    wrong field count, a value that is not a finite float, or a segment id
    seen before raises FeaturesFileError naming the file (and the line,
    where there is one).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise FeaturesFileError(f"{path}:1: unexpected features header: {header}")
            ids, labels, values, seen = [], [], [], set()
            for row in reader:
                try:
                    if len(row) != len(CSV_HEADER):
                        raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                    floats = [float(v) for v in row[2:]]
                    if not all(map(math.isfinite, floats)):
                        raise ValueError("non-finite feature value")
                    if row[0] in seen:
                        raise ValueError(f"duplicate segment id {row[0]!r}")
                except ValueError as exc:
                    raise FeaturesFileError(f"{path}:{reader.line_num}: {exc}") from exc
                ids.append(row[0])
                seen.add(row[0])
                labels.append(row[1])
                values.append(floats)
    except UnicodeDecodeError as exc:
        raise FeaturesFileError(f"{path}: cannot decode as text: {exc}") from exc
    matrix = np.asarray(values, dtype=np.float64).reshape(len(ids), N_FEATURES)
    return ids, labels, matrix
