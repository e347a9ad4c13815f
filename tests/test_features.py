import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    brute_force_mfcc,
    dft_power_onesided,
    hann_reference,
    literal_dct2_ortho,
    triangle_filterbank,
)
from conftest import tone
from vocalscreen.audio_io import AudioClip
from vocalscreen.errors import VocalScreenError
from vocalscreen.features import (
    CSV_HEADER,
    FeatureConfig,
    FeaturesFileError,
    SegmentTooShort,
    complex_spectrum,
    dct_basis,
    extract_features,
    mel,
    mel_breakpoints,
    mel_filterbank,
    mel_inverse,
    mfcc,
    power_spectra,
    power_spectrum,
    read_features_csv,
    spectral_centroid,
    spectral_complexity,
    write_features_csv,
    zero_crossing_rate,
)

RATE = 16000


# --- power spectrum -------------------------------------------------------


def test_power_spectrum_zero_frame():
    assert np.all(power_spectrum(np.zeros(64)) == 0)


def test_power_spectrum_dc_rectangular():
    spec = power_spectrum(np.ones(64), window="rectangular")
    assert spec[0] == pytest.approx(64**2)
    assert np.all(np.abs(spec[1:]) < 1e-18)


def test_power_spectrum_cosine_bin4_rectangular():
    n = 16
    frame = np.cos(2 * np.pi * 4 * np.arange(n) / n)
    spec = power_spectrum(frame, window="rectangular")
    assert spec[4] == pytest.approx(64.0, abs=1e-9)
    others = np.delete(spec, 4)
    assert np.max(others) < 1e-18
    # agrees with the literal O(N^2) DFT evaluation
    np.testing.assert_allclose(spec, dft_power_onesided(frame, np.ones(n)), atol=1e-9)


def test_power_spectrum_matches_brute_force_hann():
    rng = np.random.default_rng(21)
    frame = rng.uniform(-1, 1, 256)
    ours = power_spectrum(frame)
    reference = dft_power_onesided(frame, hann_reference(256))
    np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=1e-12)


def test_parseval_rectangular():
    rng = np.random.default_rng(22)
    for _ in range(20):
        frame = rng.uniform(-1, 1, 512)
        spec = power_spectrum(frame, window="rectangular")
        two_sided = spec[0] + spec[-1] + 2 * spec[1:-1].sum()
        assert two_sided / 512 == pytest.approx(np.sum(frame**2), rel=1e-9)


def test_dft_linearity():
    rng = np.random.default_rng(23)
    x, y = rng.uniform(-1, 1, (2, 512))
    a, b = 0.7, -1.3
    combined = complex_spectrum(a * x + b * y)
    separate = a * complex_spectrum(x) + b * complex_spectrum(y)
    np.testing.assert_allclose(combined, separate, rtol=1e-9, atol=1e-12)


def test_power_spectra_framing():
    clip = AudioClip(samples=np.zeros(2048 + 512 * 3 + 100), sample_rate=RATE)
    spectra = power_spectra(clip, FeatureConfig())
    assert spectra.shape == (4, 1025)
    with pytest.raises(SegmentTooShort):
        power_spectra(AudioClip(samples=np.zeros(2000), sample_rate=RATE), FeatureConfig())


# --- mel filterbank -------------------------------------------------------


def test_mel_scale_roundtrip():
    freqs = np.array([0.0, 440.0, 1000.0, 8000.0])
    np.testing.assert_allclose(mel_inverse(mel(freqs)), freqs, rtol=1e-12, atol=1e-9)


def test_mel_breakpoints_two_filters_closed_form():
    points = mel_breakpoints(2, 0.0, 8000.0)
    m_max = 2595.0 * math.log10(1.0 + 8000.0 / 700.0)
    expected_centers = [
        700.0 * (10.0 ** ((m_max / 3.0) / 2595.0) - 1.0),
        700.0 * (10.0 ** ((2.0 * m_max / 3.0) / 2595.0) - 1.0),
    ]
    assert points[0] == pytest.approx(0.0, abs=1e-9)
    assert points[1] == pytest.approx(expected_centers[0], rel=1e-12)
    assert points[2] == pytest.approx(expected_centers[1], rel=1e-12)
    assert points[3] == pytest.approx(8000.0, rel=1e-12)


def test_filterbank_nonnegative_and_centers_increasing():
    bank = mel_filterbank(RATE, FeatureConfig())
    assert np.all(bank >= 0)
    points = mel_breakpoints(128, 0.0, 8000.0)
    assert np.all(np.diff(points) > 0)


def test_filterbank_matches_literal_construction():
    config = FeatureConfig(n_fft=512, n_mels=20, hop=128)
    ours = mel_filterbank(RATE, config)
    reference = triangle_filterbank(RATE, 512, 20, 0.0, 8000.0)
    np.testing.assert_allclose(ours, reference, rtol=1e-10, atol=1e-12)


def test_filterbank_rejects_fmax_above_nyquist():
    with pytest.raises(ValueError):
        mel_filterbank(8000, FeatureConfig())


# --- DCT ------------------------------------------------------------------


def test_dct_orthonormal_roundtrip():
    rng = np.random.default_rng(24)
    basis = dct_basis(128)
    v = rng.uniform(-50, 50, 128)
    np.testing.assert_allclose(basis.T @ (basis @ v), v, rtol=1e-9, atol=1e-9)


def test_dct_constant_vector_closed_form():
    basis = dct_basis(128)
    coeffs = basis @ np.full(128, -100.0)
    assert coeffs[0] == pytest.approx(-math.sqrt(128) * 100.0, rel=1e-12)
    assert np.max(np.abs(coeffs[1:])) < 1e-9


def test_dct_matches_literal_sums():
    rng = np.random.default_rng(25)
    v = rng.uniform(-10, 10, 32)
    ours = dct_basis(32)[:13] @ v
    np.testing.assert_allclose(ours, literal_dct2_ortho(v, 13), rtol=1e-10, atol=1e-12)


# --- MFCC -----------------------------------------------------------------


def test_mfcc_zero_segment_closed_form():
    clip = AudioClip(samples=np.zeros(4 * RATE), sample_rate=RATE)
    coeffs = mfcc(clip)
    assert coeffs[0] == pytest.approx(-math.sqrt(128) * 100.0, rel=1e-12)
    assert np.max(np.abs(coeffs[1:])) < 1e-9


def test_mfcc_identical_frames_mean_equals_single_frame():
    # 500 Hz at 16 kHz has period 32, which divides hop 512: equal frames
    clip = tone(500.0, seconds=1.0)
    whole = mfcc(clip)
    one_frame = mfcc(AudioClip(samples=clip.samples[:2048], sample_rate=RATE))
    np.testing.assert_allclose(whole, one_frame, rtol=1e-12)


def test_mfcc_tone_matches_brute_force_oracle():
    clip = tone(440.0, seconds=4.0, amplitude=0.5)
    ours = mfcc(clip)
    reference = brute_force_mfcc(clip.samples, RATE)
    np.testing.assert_allclose(ours, reference, atol=1e-4)


def test_mfcc_too_short():
    with pytest.raises(SegmentTooShort):
        mfcc(AudioClip(samples=np.zeros(100), sample_rate=RATE))


# --- centroid, complexity, ZCR --------------------------------------------


def test_centroid_point_mass():
    spectrum = np.zeros(1025)
    spectrum[100] = 3.7
    assert spectral_centroid(spectrum) == pytest.approx(100 / 2048, rel=1e-12)


def test_centroid_uniform_spectrum():
    n_bins = 1025
    spectrum = np.ones(n_bins)
    expected = sum(k / 2048 for k in range(n_bins)) / n_bins
    assert spectral_centroid(spectrum) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.25, rel=1e-2)


def test_centroid_zero_spectrum():
    assert spectral_centroid(np.zeros(1025)) == 0.0


def test_centroid_subnormal_spectrum_stays_in_range():
    # fhat * P rounds up in the subnormal range; unclamped this read 0.667
    assert spectral_centroid([0.0, 0.0, 1.5e-323]) == 0.5


def test_complexity_zero_spectrum():
    assert spectral_complexity(np.zeros(1025)) == 0


def test_complexity_pure_tone_frame():
    frame = tone(500.0, seconds=2048 / RATE).samples
    spectrum = power_spectrum(frame)
    assert spectral_complexity(spectrum) == 1


def test_complexity_two_tones_constructed():
    spectrum = np.zeros(64)
    spectrum[8] = 1.0
    spectrum[24] = 1.0
    assert spectral_complexity(spectrum, peak_threshold_db=30.0) == 2
    # a third peak 40 dB down is outside the 30 dB window
    spectrum[40] = 1e-4
    assert spectral_complexity(spectrum, peak_threshold_db=30.0) == 2


def _centroid_one_frame(spectrum):
    """The single-frame centroid as defined before stacks were accepted."""
    total = spectrum.sum()
    if total == 0.0:
        return 0.0
    fhat = np.arange(len(spectrum)) / (2 * (len(spectrum) - 1))
    return float((fhat * spectrum).sum() / total)


def _complexity_one_frame(spectrum, peak_threshold_db=30.0, log_floor=1e-10):
    """The single-frame complexity as defined before stacks were accepted."""
    if len(spectrum) < 3 or spectrum.max() == 0.0:
        return 0
    db = 10.0 * np.log10(np.maximum(spectrum, log_floor))
    inner = db[1:-1]
    peaks = (inner > db[:-2]) & (inner > db[2:]) & (inner > db.max() - peak_threshold_db)
    return int(np.count_nonzero(peaks))


@st.composite
def spectrum_stacks(draw):
    # at least 2 bins: a 1-bin spectrum has no frequency axis (n_fft = 0)
    frames, bins = draw(st.integers(1, 6)), draw(st.integers(2, 300))
    stack = draw(arrays(np.float64, (frames, bins), elements=st.floats(0.0, 1e6)))
    # rows at levels decades apart: each row must be judged against its own loudest bin
    levels = draw(arrays(np.float64, (frames, 1), elements=st.sampled_from([1e-9, 1e-3, 1.0])))
    stack *= levels
    silent = draw(arrays(np.bool_, frames))
    stack[silent] = 0.0
    return stack


@settings(max_examples=150, deadline=None)
@given(spectrum_stacks())
@example(np.zeros((1, 2)))
@example(np.array([[0.0, 2.0, 1.0], [0.0, 0.0, 0.0]]))
@example(np.array([[0.0, 1e6, 0.0, 1e6, 0.0], [0.0, 1.0, 0.0, 1.0, 0.0]]))
def test_stacked_spectral_functions_equal_per_frame_calls(stack):
    centroids = [spectral_centroid(row) for row in stack]
    counts = [spectral_complexity(row) for row in stack]
    assert all(type(c) is float for c in centroids)
    assert all(type(c) is int for c in counts)
    assert centroids == [_centroid_one_frame(row) for row in stack]
    assert counts == [_complexity_one_frame(row) for row in stack]
    assert spectral_centroid(stack).tolist() == centroids
    assert spectral_complexity(stack).tolist() == counts


def test_zcr_alternating_and_constant():
    alt = AudioClip(samples=np.tile([0.5, -0.5], 50), sample_rate=RATE)
    assert zero_crossing_rate(alt) == 1.0
    const = AudioClip(samples=np.full(100, 0.3), sample_rate=RATE)
    assert zero_crossing_rate(const) == 0.0


def test_zcr_sign_zero_is_positive():
    clip = AudioClip(samples=np.array([0.0, 0.5, 0.0, -0.5]), sample_rate=RATE)
    # signs: +,+,+,- -> one crossing over three pairs
    assert zero_crossing_rate(clip) == pytest.approx(1 / 3)


def test_zcr_sine_brute_count():
    clip = tone(100.0, seconds=1.0)
    signs = [1 if s >= 0 else -1 for s in clip.samples]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert zero_crossing_rate(clip) == pytest.approx(crossings / (len(signs) - 1))
    assert zero_crossing_rate(clip) == pytest.approx(200 / 15999, abs=2e-4)


def former_zero_crossing_rate(samples) -> float:
    """The rate as first defined, over an int64 array of signs."""
    signs = np.where(samples >= 0.0, 1, -1)
    return float(np.count_nonzero(signs[:-1] != signs[1:]) / (len(samples) - 1))


@settings(max_examples=200, deadline=None)
@given(samples=arrays(np.float64, st.integers(min_value=2, max_value=300),
                      elements=st.one_of(st.sampled_from([0.0, -0.0, np.nan]),
                                         st.floats(min_value=-1.0, max_value=1.0))))
@example(samples=np.random.default_rng(37).uniform(-1.0, 1.0, 4 * RATE))
@example(samples=np.zeros(4 * RATE))
@example(samples=np.array([0.0, -0.0, 0.5, -0.0, -0.5, 0.0, -0.0, -0.25]))
def test_zcr_equals_former_sign_array_definition(samples):
    clip = AudioClip(samples=samples, sample_rate=RATE)
    assert zero_crossing_rate(clip) == former_zero_crossing_rate(samples)


def test_zcr_too_short():
    with pytest.raises(SegmentTooShort):
        zero_crossing_rate(AudioClip(samples=np.array([0.1]), sample_rate=RATE))


# --- extract_features -------------------------------------------------------


def test_extract_features_length_and_order():
    vector = extract_features(tone(440.0, seconds=4.0))
    assert vector.shape == (16,)
    assert vector.dtype == np.float64


def test_extract_features_equals_composition():
    voiced = tone(330.0, seconds=1.0, amplitude=0.4)
    samples = voiced.samples.copy()
    samples[4000:12000] = 0.0
    gapped = AudioClip(samples=samples, sample_rate=RATE)
    config = FeatureConfig()
    # whole frames of silence put zero-total rows into the spectrum stack
    assert np.any(power_spectra(gapped, config).sum(axis=1) == 0.0)
    for clip in (voiced, gapped):
        vector = extract_features(clip, config)
        spectra = power_spectra(clip, config)
        np.testing.assert_array_equal(vector[:13], mfcc(clip, config))
        assert vector[13] == np.mean([spectral_centroid(r) for r in spectra])
        assert vector[14] == np.mean(
            [spectral_complexity(r, config.peak_threshold_db, config.log_floor) for r in spectra]
        )
        assert vector[15] == zero_crossing_rate(clip)


def test_extract_features_zero_segment():
    vector = extract_features(AudioClip(samples=np.zeros(4 * RATE), sample_rate=RATE))
    assert vector[0] == pytest.approx(-1131.370849898476, abs=1e-9)
    assert np.max(np.abs(vector[1:13])) < 1e-9
    assert vector[13] == 0.0
    assert vector[14] == 0.0
    assert vector[15] == 0.0


def test_amplitude_scaling_shifts_only_mfcc0():
    rng = np.random.default_rng(26)
    samples = rng.uniform(-0.6, 0.6, RATE)  # broadband: no floored mel band
    clip = AudioClip(samples=samples, sample_rate=RATE)
    scaled = AudioClip(samples=0.5 * samples, sample_rate=RATE)
    base = extract_features(clip)
    shifted = extract_features(scaled)
    expected_shift = math.sqrt(128) * 10.0 * math.log10(0.25)
    assert shifted[0] - base[0] == pytest.approx(expected_shift, rel=1e-9)
    np.testing.assert_allclose(shifted[1:13], base[1:13], atol=1e-9)
    np.testing.assert_allclose(shifted[13:], base[13:], atol=1e-12)


def test_feature_ordering_stable_across_processing_order():
    clips = [tone(f, seconds=0.5) for f in (220.0, 445.0, 930.0)]
    forward = [extract_features(c) for c in clips]
    backward = [extract_features(c) for c in reversed(clips)]
    for a, b in zip(forward, reversed(backward)):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(samples=arrays(np.float64, st.integers(min_value=256, max_value=1200),
                      # the values a float32 WAV holds; PCM16 steps of 1/32768 are among them
                      elements=st.floats(min_value=-1.0, max_value=1.0, width=32)),
       config=st.sampled_from([FeatureConfig(n_fft=256, hop=128, n_mels=40),
                               FeatureConfig(n_fft=256, hop=256, n_mels=13, fmin=100.0)]))
@example(samples=np.zeros(4 * RATE), config=FeatureConfig())
@example(samples=np.tile([1.0, -1.0], 2 * RATE), config=FeatureConfig())
@example(samples=np.random.default_rng(38).uniform(-1.0, 1.0, 4 * RATE), config=FeatureConfig())
# subnormal power spectra, which no decoded WAV holds; the centroid read 0.556
@example(samples=np.tile([4.43e-164, -4.43e-164], 128),
         config=FeatureConfig(n_fft=256, hop=256, n_mels=40))
def test_extract_features_row_invariants(samples, config):
    row = extract_features(AudioClip(samples=samples, sample_rate=RATE), config)
    assert row.shape == (16,)
    assert row.dtype == np.float64
    assert np.isfinite(row).all()
    assert 0.0 <= row[13] <= 0.5  # centroid, a fraction of the sample rate
    assert row[14] >= 0.0  # complexity, a mean peak count
    assert 0.0 <= row[15] <= 1.0  # zero-crossing rate


# --- types and serialization ------------------------------------------------


def test_feature_config_invariants():
    with pytest.raises(ValueError):
        FeatureConfig(n_fft=1000)  # not a power of two
    with pytest.raises(ValueError, match="at least 2"):
        FeatureConfig(n_fft=1, hop=1)  # a one-sample Hann window is all zeros
    with pytest.raises(ValueError):
        FeatureConfig(hop=0)
    with pytest.raises(ValueError):
        FeatureConfig(fmin=8000.0, fmax=4000.0)
    with pytest.raises(ValueError):
        FeatureConfig(n_mfcc=200)
    with pytest.raises(ValueError, match="must be 13"):
        FeatureConfig(n_mfcc=12)  # a features table holds 13 MFCC columns
    with pytest.raises(ValueError):
        FeatureConfig(log_floor=0.0)
    with pytest.raises(ValueError):
        FeatureConfig(peak_threshold_db=float("nan"))


def test_features_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(27)
    rows = []
    for i in range(5):
        rows.append(np.concatenate([
            rng.uniform(-1000, 1000, 13),
            [rng.uniform(0, 0.5), rng.uniform(0, 60), rng.uniform(0, 1)],
        ]))
    ids = [f"s{i:03d}" for i in range(5)]
    labels = ["depression" if i % 2 else "control" for i in range(5)]
    path = tmp_path / "features.csv"
    write_features_csv(path, ids, labels, np.array(rows))
    got_ids, got_labels, matrix = read_features_csv(path)
    assert got_ids == ids
    assert got_labels == ["control", "depression", "control", "depression", "control"]
    assert np.array_equal(matrix, rows)
    with pytest.raises(ValueError):
        write_features_csv(path, ids[:4], labels, rows)  # one id short


def former_write_features_csv(path, rows) -> None:
    """The writer as first defined, over (vector, label) pairs of a vector
    object holding .segment_id and .values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for vector, label in rows:
            writer.writerow([vector.segment_id, label] + [repr(float(v)) for v in vector.values])


@settings(max_examples=100, deadline=None)
@given(table=st.lists(st.tuples(
    st.text(st.characters(codec="utf-8")),
    st.sampled_from(["control", "depression"]),
    arrays(np.float64, 16, elements=st.floats(allow_nan=False, allow_infinity=False)),
), max_size=6))
def test_write_features_csv_equals_former_pair_writer(tmp_path_factory, table):
    root = tmp_path_factory.mktemp("writers")
    former_write_features_csv(root / "former.csv",
                              [(SimpleNamespace(segment_id=sid, values=row), label)
                               for sid, label, row in table])
    ids = [sid for sid, _label, _row in table]
    labels = [label for _sid, label, _row in table]
    rows = [row for _sid, _label, row in table]
    write_features_csv(root / "matrix.csv", ids, labels, np.array(rows).reshape(len(rows), 16))
    write_features_csv(root / "rows.csv", ids, labels, rows)  # the list cmd_extract passes
    former = (root / "former.csv").read_bytes()
    assert (root / "matrix.csv").read_bytes() == former
    assert (root / "rows.csv").read_bytes() == former


def test_features_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(FeaturesFileError, match="bad.csv:1: unexpected features header"):
        read_features_csv(path)
    assert CSV_HEADER[0] == "segment_id"


GOOD_ROW = "s0,control," + ",".join(["0.5"] * 16)


@pytest.mark.parametrize("lines, message", [
    ([",".join(CSV_HEADER[:-1]), GOOD_ROW], r":1: unexpected features header"),
    ([",".join(CSV_HEADER), GOOD_ROW, "s1,control,0.5"], r":3: expected 18 fields, got 3"),
    ([",".join(CSV_HEADER), GOOD_ROW.replace("0.5", "loud", 1)], r":2: could not convert"),
    ([",".join(CSV_HEADER), GOOD_ROW.replace("0.5", "nan", 1)], r":2: non-finite"),
    ([",".join(CSV_HEADER), GOOD_ROW, GOOD_ROW.replace("0.5", "-inf", 1)], r":3: non-finite"),
    ([",".join(CSV_HEADER), GOOD_ROW.replace("s0", "s\udcff")], r": cannot decode as text"),
    ([",".join(CSV_HEADER), GOOD_ROW, GOOD_ROW], r":3: duplicate segment id 's0'"),
])
def test_read_features_csv_rejects_bad_tables(tmp_path, lines, message):
    path = tmp_path / "features.csv"
    # surrogateescape writes "\udcff" as the raw byte 0xff, which is not UTF-8
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(FeaturesFileError, match=r"features\.csv" + message):
        read_features_csv(path)


@st.composite
def features_tables(draw):
    """A features CSV: a right or wrong header, then rows of 16 finite floats,
    some with one field replaced by, or extended with, a junk field."""
    header = draw(st.sampled_from([CSV_HEADER, CSV_HEADER[:-1], ["segment_id"], []]))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    junk = st.one_of(st.sampled_from(["nan", "-inf", "1e999", "", '"', "x", "0x1"]),
                     st.text(max_size=3))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 3))):
        row = [f"s{i}", "control"] + [draw(finite) for _ in range(16)]
        if draw(st.booleans()):
            at = draw(st.integers(0, len(row)))
            row[at:at + draw(st.integers(0, 1))] = [draw(junk)]
        lines.append(",".join(row))
    return "\n".join(lines).encode()


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), features_tables()))
def test_read_features_csv_fuzz_raises_only_vocalscreen_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "features.csv"
    path.write_bytes(data)
    try:
        ids, labels, matrix = read_features_csv(path)
    except VocalScreenError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert matrix.shape == (len(ids), 16) and len(labels) == len(ids)
    assert np.isfinite(matrix).all()
