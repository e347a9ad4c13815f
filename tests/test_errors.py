"""The three value rules of vocalscreen.errors, and every entry point that checks with them.

Each refusal is one InvalidValue, both a VocalScreenError (the CLI's one
handler) and a ValueError (what a library caller of a constructor
catches), whose message names the value.
"""

import math

import numpy as np
import pytest

from vocalscreen import audio_io, dataset, evaluation, features, model, preprocess, rng, synth
from vocalscreen.errors import InvalidValue, VocalScreenError, integer, number, real

OBJECTS = np.array([1.0, 2.0], dtype=object)


def _refusal(call) -> str:
    """The message of the InvalidValue ``call`` raises, checked to be both error kinds."""
    with pytest.raises(InvalidValue) as caught:
        call()
    assert isinstance(caught.value, VocalScreenError) and isinstance(caught.value, ValueError)
    return str(caught.value)


# each value fed to all three rules, and what each says of it: None accepts it
@pytest.mark.parametrize("value, as_integer, as_number, as_real", [
    (True, "v must be an integer, got True", "v must be a number, got True", None),
    (np.int64(3), f"v must be an integer, got {np.int64(3)!r}",
     f"v must be a number, got {np.int64(3)!r}", None),
    (3.0, "v must be an integer, got 3.0", None, None),
    (3, None, None, None),
    (np.float64(0.5), f"v must be an integer, got {np.float64(0.5)!r}", None, None),
    ("0.5", "v must be an integer, got '0.5'", "v must be a number, got '0.5'",
     "v must hold real numbers, got dtype <U3"),
    (None, "v must be an integer, got None", "v must be a number, got None",
     "v must hold real numbers, got dtype object"),
    (1j, "v must be an integer, got 1j", "v must be a number, got 1j",
     "v must hold real numbers, got dtype complex128"),
    (OBJECTS, f"v must be an integer, got {OBJECTS!r}", f"v must be a number, got {OBJECTS!r}",
     "v must hold real numbers, got dtype object"),
])
def test_each_rule_accepts_its_kind_and_names_any_other(value, as_integer, as_number, as_real):
    for rule, message in ((integer, as_integer), (number, as_number)):
        if message is None:
            assert rule(value, "v") is value
        else:
            assert _refusal(lambda: rule(value, "v")) == message
    if as_real is None:
        converted = real(value, "v")
        assert converted.dtype == np.float64 and converted == np.asarray(value, np.float64)
    else:
        assert _refusal(lambda: real(value, "v")) == as_real


def test_real_converts_arrays_without_a_copy_when_they_are_float64():
    floats = np.array([[0.5, -1.0]])
    assert real(floats, "v") is floats
    assert real([[True, 2]], "v").tolist() == [[1.0, 2.0]]


def _knn():
    return model.knn_fit(np.eye(3), ["control", "depression", "control"], k=1, p=2.0,
                         scaler=model.identity_scaler(3))


PROFILE = dict(f0_hz=150.0, f0_spread_hz=10.0, tilt_db_per_octave=-8.0, noise_floor_db=-45.0,
               pauses_per_minute=10.0)
CLIP = audio_io.AudioClip(samples=np.zeros(8), sample_rate=16000)


# every entry point that checks with a rule, and the message of one value it refuses
@pytest.mark.parametrize("call, message", [
    # real(): every array the model layer takes
    (lambda: model.as_matrix([["0.5"]]), "a feature matrix must hold real numbers, got dtype <U3"),
    (lambda: model.ScalerParams(means=np.array([1j]), stds=[1.0]),
     "scaler means must hold real numbers, got dtype complex128"),
    (lambda: model.ScalerParams(means=[0.0], stds=["1"]),
     "scaler stds must hold real numbers, got dtype <U1"),
    (lambda: model.transform(model.identity_scaler(1), [None]),
     "a feature row must hold real numbers, got dtype object"),
    (lambda: model.KnnModel(train_matrix=OBJECTS.reshape(2, 1), train_labels=("a", "b"), k=1,
                            p=2.0, scaler=model.identity_scaler(1)),
     "a train matrix must hold real numbers, got dtype object"),
    (lambda: model.knn_predict(_knn(), ["0", "1", "0"]),
     "a query must hold real numbers, got dtype <U1"),
    # FeatureConfig: its int fields are integers, its float fields numbers
    (lambda: features.FeatureConfig(hop=True), "hop must be an integer, got True"),
    (lambda: features.FeatureConfig(n_mels=128.5), "n_mels must be an integer, got 128.5"),
    (lambda: features.FeatureConfig(n_fft=np.int64(2048)),
     f"n_fft must be an integer, got {np.int64(2048)!r}"),
    (lambda: features.FeatureConfig(fmax=True), "fmax must be a number, got True"),
    (lambda: features.FeatureConfig(peak_threshold_db=None),
     "peak_threshold_db must be a number, got None"),
    (lambda: features.FeatureConfig(log_floor="1e-10"), "log_floor must be a number, got '1e-10'"),
    # sample_count multiplies only a number
    (lambda: preprocess.sample_count(True, "t"), "t must be a number, got True"),
    (lambda: preprocess.sample_count("4.0", "t"), "t must be a number, got '4.0'"),
    (lambda: preprocess.sample_count([4.0], "t"), "t must be a number, got [4.0]"),
    (lambda: preprocess.sample_count(None, "t"), "t must be a number, got None"),
    (lambda: features.Extraction(segment_seconds="4.0"),
     "segment_seconds must be a number, got '4.0'"),
    (lambda: preprocess.segment(CLIP, None), "segment_seconds must be a number, got None"),
    # check_k_and_p, alone and as KnnModel runs it
    (lambda: model.check_k_and_p(True, 2.0), "k must be an integer, got True"),
    (lambda: model.check_k_and_p(3.0, 2.0), "k must be an integer, got 3.0"),
    (lambda: model.check_k_and_p(3, True), "p must be a number, got True"),
    (lambda: model.check_k_and_p(3, "2"), "p must be a number, got '2'"),
    (lambda: model.knn_fit(np.eye(2), ["control", "depression"], k=1, p=None,
                           scaler=model.identity_scaler(2)), "p must be a number, got None"),
    # AudioClip and resample
    (lambda: audio_io.AudioClip(samples=np.array([0.5 + 0.5j]), sample_rate=16000),
     "samples must hold real numbers, got dtype complex128"),
    (lambda: audio_io.AudioClip(samples=np.zeros(4), sample_rate=True),
     "sample_rate must be an integer, got True"),
    (lambda: audio_io.AudioClip(samples=np.zeros(4), sample_rate=16000.0),
     "sample_rate must be an integer, got 16000.0"),
    (lambda: audio_io.resample(CLIP, True), "target_rate must be an integer, got True"),
    (lambda: audio_io.resample(CLIP, 8000.0), "target_rate must be an integer, got 8000.0"),
    # the six entry points that had no kind check: each row was accepted, refused by a range
    # check, or failed with a bare TypeError
    (lambda: rng.check_seed(True), "seed must be an integer, got True"),
    (lambda: rng.check_seed(1.5), "seed must be an integer, got 1.5"),
    (lambda: rng.SplitMix64(np.uint64(7)), f"seed must be an integer, got {np.uint64(7)!r}"),
    (lambda: synth.CohortSpec(seed=True), "seed must be an integer, got True"),
    (lambda: evaluation.grid_select(evaluation.default_grid(), np.eye(4, 16),
                                    ["control", "control", "depression", "depression"],
                                    folds=2, seed=True), "seed must be an integer, got True"),
    (lambda: evaluation.check_folds(2.5), "folds must be an integer, got 2.5"),
    (lambda: evaluation.check_folds(True), "folds must be an integer, got True"),
    (lambda: evaluation.stratified_folds(["control"] * 4, "2", 0),
     "folds must be an integer, got '2'"),
    (lambda: synth.CohortSpec(speakers_per_class=True),
     "speakers_per_class must be an integer, got True"),
    (lambda: synth.CohortSpec(speakers_per_class=2.5),
     "speakers_per_class must be an integer, got 2.5"),
    (lambda: dataset.SplitSpec(train_fraction="0.5"),
     "train_fraction must be a number, got '0.5'"),
    (lambda: dataset.SplitSpec(train_fraction=True), "train_fraction must be a number, got True"),
    (lambda: preprocess.SilenceParams(frame_seconds=None),
     "frame_seconds must be a number, got None"),
    (lambda: preprocess.SilenceParams(hop_seconds="0.025"),
     "hop_seconds must be a number, got '0.025'"),
    (lambda: preprocess.SilenceParams(threshold_ratio=True),
     "threshold_ratio must be a number, got True"),
    # SplitSpec runs check_seed when it is built, as CohortSpec does
    (lambda: dataset.SplitSpec(seed=True), "seed must be an integer, got True"),
    (lambda: dataset.SplitSpec(seed=2.0), "seed must be an integer, got 2.0"),
    # ClassProfile: every field a number, and a rate numpy's Poisson draw takes
    (lambda: synth.ClassProfile(**{**PROFILE, "f0_hz": "150"}),
     "f0_hz must be a number, got '150'"),
    (lambda: synth.ClassProfile(**{**PROFILE, "noise_floor_db": None}),
     "noise_floor_db must be a number, got None"),
    (lambda: synth.ClassProfile(**{**PROFILE, "pauses_per_minute": True}),
     "pauses_per_minute must be a number, got True"),
    (lambda: synth.ClassProfile(**{**PROFILE, "pauses_per_minute": -1}),
     "pauses_per_minute must be >= 0, got -1"),
    (lambda: synth.ClassProfile(**{**PROFILE, "pauses_per_minute": math.nan}),
     "pauses_per_minute must be >= 0, got nan"),
])
def test_every_entry_point_refuses_a_value_of_the_wrong_kind_by_name(call, message):
    assert _refusal(call) == message


def test_split_spec_refuses_a_seed_outside_64_bits_when_built():
    # it constructed, and only split's SplitMix64 refused the seed
    with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\^64\), got -1$"):
        dataset.SplitSpec(seed=-1)


def test_class_profile_keeps_the_non_finite_values_the_tests_rely_on():
    # a noise-free speaker, and a NaN f0 that _save_speaker refuses before its WAV is opened
    quiet = synth.ClassProfile(**{**PROFILE, "noise_floor_db": -math.inf, "f0_hz": math.nan})
    assert quiet.noise_floor_db == -math.inf and math.isnan(quiet.f0_hz)
    assert synth.ClassProfile(**{**PROFILE, "pauses_per_minute": 0}).pauses_per_minute == 0
