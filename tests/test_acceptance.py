"""End-to-end acceptance gate.

One test per criterion, each printing a pass line; run with -s (or read
the -v test names) for the per-criterion report. The pipeline criteria
run the real CLI against a full-size synthetic cohort in a temporary
directory and re-run it to prove byte-identical determinism.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import chdir
from oracles import brute_force_mfcc, knn_scan, pooled_t_reference
from vocalscreen.audio_io import AudioClip
from vocalscreen.cli import main
from vocalscreen.evaluation import ConfusionMatrix, precision_recall_f1, two_sample_t
from vocalscreen.features import complex_spectrum, dct_basis, mfcc, power_spectrum
from vocalscreen.model import (
    CorruptModelFile,
    SchemaVersionMismatch,
    fit_scaler,
    identity_scaler,
    knn_fit,
    knn_predict,
    load_model,
    transform,
)

RATE = 16000


def report(criterion: int, name: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


# --- criterion 1: MFCC oracle equivalence ----------------------------------


def golden_clips() -> list:
    rng = np.random.default_rng(1001)
    t_half = np.arange(RATE // 2) / RATE
    t_one = np.arange(RATE) / RATE

    def chirp(f0, f1, t):
        span = t[-1] + 1 / RATE
        return np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * span)))

    impulses = np.zeros(RATE // 2)
    impulses[::100] = 0.8
    smooth_noise = np.convolve(rng.uniform(-1, 1, RATE // 2), np.ones(8) / 8, mode="same")
    harmonics = sum(
        10 ** (-6 * math.log2(h) / 20) * np.sin(2 * np.pi * 150 * h * t_half)
        for h in range(1, 9)
    )
    clips = [
        0.5 * np.sin(2 * np.pi * 440 * t_one),
        0.25 * np.sin(2 * np.pi * 880 * t_half),
        0.3 * (np.sin(2 * np.pi * 220 * t_half) + np.sin(2 * np.pi * 1760 * t_half)),
        0.8 * chirp(100, 4000, t_one),
        0.6 * chirp(3000, 300, t_half),
        0.3 * rng.uniform(-1, 1, RATE // 2),
        0.5 * smooth_noise / np.max(np.abs(smooth_noise)),
        np.zeros(RATE // 2),
        impulses,
        0.2 * harmonics,
    ]
    return [AudioClip(samples=c, sample_rate=RATE) for c in clips]


def test_criterion_1_mfcc_oracle_equivalence():
    started = time.perf_counter()
    clips = golden_clips()
    assert len(clips) == 10
    for clip in clips:
        ours = mfcc(clip)
        reference = brute_force_mfcc(clip.samples, RATE)
        np.testing.assert_allclose(ours, reference, atol=1e-4)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"MFCC oracle check took {elapsed:.1f}s"
    report(1, "mfcc oracle equivalence")


# --- criterion 2: transform identities --------------------------------------


def test_criterion_2_transform_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    n_fft = 1024
    for _ in range(100):
        frame = rng.uniform(-1, 1, n_fft)
        spec = power_spectrum(frame, window="rectangular")
        two_sided = spec[0] + spec[-1] + 2 * spec[1:-1].sum()
        assert two_sided / n_fft == pytest.approx(np.sum(frame**2), rel=1e-9)

        other = rng.uniform(-1, 1, n_fft)
        a, b = rng.uniform(-2, 2, 2)
        lhs = complex_spectrum(a * frame + b * other, window="rectangular")
        rhs = a * complex_spectrum(frame, window="rectangular") \
            + b * complex_spectrum(other, window="rectangular")
        scale = np.max(np.abs(rhs)) or 1.0
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-9

    basis = dct_basis(128)
    for _ in range(100):
        bands = rng.uniform(-120, 40, 128)
        roundtrip = basis.T @ (basis @ bands)
        assert np.max(np.abs(roundtrip - bands)) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"transform identities took {elapsed:.1f}s"
    report(2, "parseval, linearity, dct orthonormality")


# --- criterion 3: KNN oracle equivalence -------------------------------------


def test_criterion_3_knn_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    train = rng.normal(size=(1000, 16))
    labels = ["depression" if x else "control" for x in rng.integers(0, 2, 1000)]
    model = knn_fit(train, labels, k=3, p=2.0, scaler=identity_scaler(16))
    queries = rng.normal(size=(200, 16))
    for query in queries:
        assert knn_predict(model, query) == knn_scan(train, labels, query, 3, 2.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"KNN oracle check took {elapsed:.1f}s"
    report(3, "knn oracle equivalence")


# --- criterion 4: scaler post-conditions --------------------------------------


def test_criterion_4_scaler_postconditions():
    rng = np.random.default_rng(1004)
    matrix = rng.normal(-30.0, 12.0, size=(500, 16))
    matrix[:, 5] = 4.25  # degenerate dimension maps to zero
    scaler = fit_scaler(matrix)
    standardized = transform(scaler, matrix)
    assert np.max(np.abs(standardized.mean(axis=0))) <= 1e-9
    non_degenerate = [i for i in range(16) if i != 5]
    stds = standardized[:, non_degenerate].std(axis=0)
    assert np.max(np.abs(stds - 1.0)) <= 1e-9
    assert np.all(standardized[:, 5] == 0.0)
    report(4, "scaler post-conditions")


# --- criterion 5: metric identities -------------------------------------------


METRIC_CASES = [
    (93, 2, 7, 98), (4, 0, 0, 6), (0, 0, 3, 7), (0, 5, 0, 5), (0, 0, 0, 10),
    (1, 1, 1, 1), (10, 0, 5, 5), (5, 5, 0, 0), (7, 3, 2, 8), (1, 0, 0, 0),
    (0, 1, 0, 0), (0, 0, 1, 0), (2, 9, 4, 11), (50, 1, 1, 50), (13, 13, 13, 13),
    (3, 0, 9, 2), (8, 2, 0, 1), (1, 7, 5, 3), (99, 1, 0, 0), (17, 4, 6, 23),
]


def rational_metrics(tp, fp, fn, tn):
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
    accuracy = Fraction(tp + tn, tp + fp + fn + tn)
    return precision, recall, f1, accuracy


def test_criterion_5_metric_identities():
    assert len(METRIC_CASES) == 20
    for tp, fp, fn, tn in METRIC_CASES:
        m = precision_recall_f1(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        precision, recall, f1, accuracy = rational_metrics(tp, fp, fn, tn)
        # single-division quantities are bit-exact against the rationals;
        # f1 is a three-operation float expression, correct to 1 ulp
        assert m.precision == float(precision)
        assert m.recall == float(recall)
        assert m.accuracy == float(accuracy)
        assert m.f1 == pytest.approx(float(f1), rel=1e-15, abs=0)

    headline = precision_recall_f1(ConfusionMatrix(tp=93, fp=2, fn=7, tn=98))
    assert headline.precision == pytest.approx(0.9789, abs=1e-4)
    assert headline.recall == pytest.approx(0.93, abs=1e-12)
    assert headline.f1 == pytest.approx(0.9538, abs=1e-4)
    # the 0.96 sometimes quoted for this precision/recall pair is not the
    # harmonic mean; this library reports the exact value instead
    assert headline.f1 != pytest.approx(0.96, abs=1e-3)
    report(5, "metric identities incl. 0/0 conventions")


# --- criterion 6: t-test contract ----------------------------------------------


def test_criterion_6_t_test_contract():
    rng = np.random.default_rng(1006)
    _t, df = two_sample_t(rng.normal(size=1632), rng.normal(size=2337))
    assert df == 3967

    for _ in range(10):
        a = rng.normal(loc=rng.uniform(-2, 2), size=rng.integers(2, 40))
        b = rng.normal(loc=rng.uniform(-2, 2), size=rng.integers(2, 40))
        ours_t, ours_df = two_sample_t(a, b)
        ref_t, ref_df = pooled_t_reference(a, b)
        assert ours_df == ref_df
        assert ours_t == pytest.approx(ref_t, rel=1e-9, abs=1e-9)
    report(6, "pooled t-test contract")


# --- criteria 7-9: end-to-end synthetic analogue ---------------------------------


def run_chain(root) -> dict:
    """synth -> extract -> split -> select -> train(best) -> evaluate,
    invoked through the CLI with paths relative to ``root``."""
    timings = {}

    def step(name, args):
        started = time.perf_counter()
        assert main(args) == 0, f"{name} failed"
        timings[name] = time.perf_counter() - started

    with chdir(root):
        step("synth", ["synth", "--out", "cohort", "--seed", "42"])
        step("extract", ["extract", "--manifest", "cohort/cohort.csv", "--out", "work"])
        step("split", ["split", "--manifest", "work/segments.csv", "--out", "work",
                       "--seed", "42"])
        step("select", ["select", "--features", "work/features.csv",
                        "--manifest", "work/train.csv", "--out", "work",
                        "--seed", "42", "--folds", "5"])
        best = json.loads((root / "work" / "selection_report.json").read_text())["best"]
        step("train", ["train", "--features", "work/features.csv",
                       "--manifest", "work/train.csv", "--out", "work",
                       "--k", str(best["k"]), "--p", str(best["p"]),
                       "--scaler" if best["scaler"] else "--no-scaler"])
        step("evaluate", ["evaluate", "--features", "work/features.csv",
                          "--manifest", "work/test.csv", "--model", "work/model.json",
                          "--split-sidecar", "work/split.json", "--out", "work/eval"])
    return timings


def tree_bytes(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_run")
    timings = run_chain(root)
    return root, timings


def test_criterion_7_end_to_end_synthetic_analogue(pipeline_run, tmp_path_factory):
    root, timings = pipeline_run
    total = sum(timings.values())
    assert total < 120.0, f"pipeline took {total:.1f}s: {timings}"

    selection = json.loads((root / "work" / "selection_report.json").read_text())
    assert selection["best"]["mean_cv_score"] >= 0.90
    assert selection["best"]["scaler"] is True

    eval_report = json.loads((root / "work" / "eval" / "eval_report.json").read_text())
    assert eval_report["f1"] >= 0.90
    assert eval_report["split_mode"] == "segment-level"

    # byte-identical rerun: identical relative layout, identical argv
    rerun_root = tmp_path_factory.mktemp("acceptance_rerun")
    run_chain(rerun_root)
    first, second = tree_bytes(root), tree_bytes(rerun_root)
    assert first.keys() == second.keys()
    different = [name for name in first if first[name] != second[name]]
    assert different == []
    report(7, "end-to-end synthetic analogue")


def test_criterion_8_speaker_disjoint_contrast(pipeline_run):
    root, _ = pipeline_run
    with chdir(root):
        assert main(["split", "--manifest", "work/segments.csv", "--out", "work_sd",
                     "--mode", "speaker-disjoint", "--seed", "42"]) == 0
        assert main(["train", "--features", "work/features.csv",
                     "--manifest", "work_sd/train.csv", "--out", "work_sd",
                     "--k", "3", "--p", "2"]) == 0
        assert main(["evaluate", "--features", "work/features.csv",
                     "--manifest", "work_sd/test.csv", "--model", "work_sd/model.json",
                     "--split-sidecar", "work_sd/split.json", "--out", "work_sd/eval"]) == 0
    payload = json.loads((root / "work_sd" / "eval" / "eval_report.json").read_text())
    assert payload["split_mode"] == "speaker-disjoint"
    for key in ("precision", "recall", "f1", "accuracy"):
        assert 0.0 <= payload[key] <= 1.0
    text = (root / "work_sd" / "eval" / "eval_report.txt").read_text()
    assert text.splitlines()[0] == "=== evaluation (split mode: speaker-disjoint) ==="
    report(8, "speaker-disjoint contrast")


def test_criterion_9_determinism_and_persistence(pipeline_run, tmp_path):
    root, _ = pipeline_run
    model_path = root / "work" / "model.json"
    model = load_model(model_path)

    rng = np.random.default_rng(1009)
    queries = rng.normal(size=(100, 16))
    reload_twice = load_model(model_path)
    for query in queries:
        assert knn_predict(model, query) == knn_predict(reload_twice, query)

    text = model_path.read_text()
    tampered = tmp_path / "tampered.json"
    payload = json.loads(text)
    payload["version"] = 99
    tampered.write_text(json.dumps(payload))
    with pytest.raises(SchemaVersionMismatch):
        load_model(tampered)

    # flip one hex character of the stored digest
    digest = json.loads(text)["digest"]
    flip = "0" if digest[0] != "0" else "f"
    flipped = tmp_path / "flipped.json"
    flipped.write_text(text.replace(digest, flip + digest[1:], 1))
    with pytest.raises(CorruptModelFile):
        load_model(flipped)

    # CLI-level rerun of train + evaluate reproduces the artifacts byte for byte
    with chdir(root):
        best = json.loads((root / "work" / "selection_report.json").read_text())["best"]
        assert main(["train", "--features", "work/features.csv",
                     "--manifest", "work/train.csv", "--out", "retrain",
                     "--k", str(best["k"]), "--p", str(best["p"]),
                     "--scaler" if best["scaler"] else "--no-scaler"]) == 0
        assert main(["evaluate", "--features", "work/features.csv",
                     "--manifest", "work/test.csv", "--model", "retrain/model.json",
                     "--split-sidecar", "work/split.json", "--out", "retrain/eval"]) == 0
    assert (root / "retrain" / "model.json").read_bytes() == model_path.read_bytes()
    assert ((root / "retrain" / "eval" / "eval_report.json").read_bytes()
            == (root / "work" / "eval" / "eval_report.json").read_bytes())
    report(9, "determinism and persistence")
