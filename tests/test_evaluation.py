import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import knn_scan, pooled_t_reference
from vocalscreen.evaluation import (
    CandidateResult,
    ConfusionMatrix,
    EmptyInput,
    GroupTooSmall,
    LengthMismatch,
    PipelineCandidate,
    TooFewSamplesPerClass,
    confusion,
    cross_validate,
    default_grid,
    descriptive_stats,
    evaluate_predictions,
    grid_select,
    group_t_tests,
    precision_recall_f1,
    render_eval_text,
    render_selection_text,
    render_stats_text,
    select_best,
    stratified_folds,
    two_sample_t,
)
from vocalscreen.model import fit_scaler, identity_scaler, transform

DEP, CON = "depression", "control"


# --- confusion / metrics ---------------------------------------------------


def test_confusion_perfect_agreement():
    truth = [DEP] * 4 + [CON] * 6
    cm = confusion(truth, truth)
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (4, 0, 0, 6)
    assert cm.total == 10


def test_confusion_all_negative():
    cm = confusion([CON] * 5, [DEP, DEP, DEP, CON, CON])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 3, 2)


def test_confusion_errors():
    with pytest.raises(LengthMismatch):
        confusion([DEP], [DEP, CON])
    with pytest.raises(EmptyInput):
        confusion([], [])


def test_metrics_textbook_case():
    m = precision_recall_f1(ConfusionMatrix(tp=93, fp=2, fn=7, tn=0))
    assert m.precision == pytest.approx(float(Fraction(93, 95)))
    assert m.recall == pytest.approx(0.93)
    assert m.f1 == pytest.approx(float(2 * Fraction(93, 95) * Fraction(93, 100)
                                       / (Fraction(93, 95) + Fraction(93, 100))))
    assert m.f1 == pytest.approx(0.9538, abs=1e-4)


def test_metrics_perfect_and_degenerate():
    perfect = precision_recall_f1(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
    assert perfect == (1.0, 1.0, 1.0, 1.0)
    degenerate = precision_recall_f1(ConfusionMatrix(tp=0, fp=0, fn=2, tn=8))
    assert degenerate.precision == 0.0
    assert degenerate.f1 == 0.0
    assert degenerate.accuracy == 0.8


def test_f1_between_min_and_max():
    rng = np.random.default_rng(41)
    for _ in range(50):
        tp, fp, fn, tn = rng.integers(1, 40, 4)
        m = precision_recall_f1(ConfusionMatrix(tp=int(tp), fp=int(fp), fn=int(fn), tn=int(tn)))
        assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12
        assert m.accuracy == pytest.approx((tp + tn) / (tp + fp + fn + tn))


# --- folds / cross-validation -----------------------------------------------


def test_stratified_folds_partition():
    labels = [DEP] * 13 + [CON] * 17
    folds = stratified_folds(labels, folds=5, seed=2)
    all_idx = sorted(i for fold in folds for i in fold)
    assert all_idx == list(range(30))
    for fold in folds:
        dep = sum(1 for i in fold if labels[i] == DEP)
        assert dep in (2, 3)  # 13/5 stratified


def test_stratified_folds_too_few():
    with pytest.raises(TooFewSamplesPerClass):
        stratified_folds([DEP, DEP, CON, CON, CON], folds=3, seed=0)


def majority_dataset():
    rng = np.random.default_rng(42)
    features = rng.normal(size=(50, 4))
    labels = [CON] * 30 + [DEP] * 20  # 60:40
    return features, labels


def test_cross_validate_constant_majority_classifier():
    # k equal to (train size - 1) makes every prediction the global majority
    features, labels = majority_dataset()
    scores = cross_validate(PipelineCandidate(k=39, p=2.0, use_scaler=False),
                            features, labels, folds=5, seed=0)
    assert np.all(scores == 0.6)


def test_cross_validate_duplicated_rows_k1():
    rng = np.random.default_rng(43)
    base = np.vstack([rng.normal(0, 0.3, size=(12, 3)), rng.normal(8, 0.3, size=(12, 3))])
    labels = [CON] * 12 + [DEP] * 12
    candidate = PipelineCandidate(k=1, p=2.0, use_scaler=True)
    single = cross_validate(candidate, base, labels, folds=3, seed=4)
    doubled = cross_validate(candidate, np.vstack([base, base]), labels + labels,
                             folds=3, seed=4)
    # verified by direct run: cleanly separated clusters score 1.0 both ways
    assert single.mean() == 1.0
    assert doubled.mean() == single.mean()


def test_cross_validate_too_few_per_class():
    rng = np.random.default_rng(49)
    features = rng.normal(size=(6, 2))
    labels = [DEP] + [CON] * 5
    with pytest.raises(TooFewSamplesPerClass):
        cross_validate(PipelineCandidate(k=1), features, labels, folds=3, seed=0)


def test_cross_validate_deterministic():
    features, labels = majority_dataset()
    candidate = PipelineCandidate(k=3, p=2.0, use_scaler=True)
    first = cross_validate(candidate, features, labels, folds=5, seed=17)
    second = cross_validate(candidate, features, labels, folds=5, seed=17)
    assert np.array_equal(first, second)


# --- grid selection -----------------------------------------------------------


def test_grid_select_singleton():
    features, labels = majority_dataset()
    report = grid_select([PipelineCandidate(k=3)], features, labels, folds=5, seed=0)
    assert len(report.candidates) == 1
    assert report.best == report.candidates[0]
    assert list(report.generations) == [report.best.mean]


def test_grid_select_default_grid_shape():
    features, labels = majority_dataset()
    report = grid_select(default_grid(), features, labels, folds=5, seed=0)
    assert len(report.candidates) == 16
    assert report.best.mean == max(c.mean for c in report.candidates)
    gens = list(report.generations)
    assert gens == sorted(gens)  # non-decreasing
    assert report.to_json_dict()["best"]["mean_cv_score"] == report.best.mean


def test_grid_select_matches_brute_force_scan_with_ties():
    # integer-valued features and duplicated rows put exact distance ties
    # at the k boundary; the shared per-(fold, scaler, p) ordering must give
    # each candidate exactly the fold scores of a plain scan at its own k
    rng = np.random.default_rng(44)
    base = rng.integers(0, 3, size=(24, 3)).astype(float)
    base[:, 2] *= 10.0  # unequal scales make the scaler change neighbors
    features = np.vstack([base, base[:12]])
    labels = [DEP if x else CON for x in rng.integers(0, 2, 24)]
    labels += labels[:12]
    folds, seed = 4, 5
    report = grid_select(default_grid(), features, labels, folds=folds, seed=seed)
    fold_sets = stratified_folds(labels, folds, seed)
    for result_ in report.candidates:
        c = result_.candidate
        expected = []
        for held_out in fold_sets:
            train_idx = [i for i in range(len(labels)) if i not in held_out]
            train_x = features[train_idx]
            scaler = fit_scaler(train_x) if c.use_scaler else identity_scaler(3)
            train_z = transform(scaler, train_x)
            train_y = [labels[i] for i in train_idx]
            hits = sum(knn_scan(train_z, train_y, q, c.k, c.p)[0] == labels[i]
                       for i, q in zip(held_out, transform(scaler, features[held_out])))
            expected.append(hits / len(held_out))
        assert list(result_.fold_scores) == expected, c.describe()


def result(k, p, use_scaler, mean):
    return CandidateResult(candidate=PipelineCandidate(k=k, p=p, use_scaler=use_scaler),
                           fold_scores=(mean,), mean=mean)


def test_select_best_tie_rules():
    k3 = result(3, 2.0, True, 0.9)
    k5 = result(5, 2.0, True, 0.9)
    assert select_best([k5, k3]) == k3  # fewer neighbors
    p1 = result(3, 1.0, True, 0.9)
    assert select_best([k3, p1]) == p1  # lower p
    unscaled = result(3, 1.0, False, 0.9)
    assert select_best([unscaled, p1]) == p1  # scaler-on preferred
    better = result(7, 2.0, False, 0.95)
    assert select_best([k3, p1, better]) == better


def test_select_best_affine_invariant():
    rng = np.random.default_rng(44)
    results = [result(k, p, s, float(rng.uniform(0.4, 0.99)))
               for k in (1, 3, 5) for p in (1.0, 2.0) for s in (True, False)]
    baseline = select_best(results).candidate
    shifted = [CandidateResult(candidate=r.candidate, fold_scores=r.fold_scores,
                               mean=2.5 * r.mean + 0.1) for r in results]
    assert select_best(shifted).candidate == baseline


# --- t-test ---------------------------------------------------------------------


def test_t_identical_groups():
    t, df = two_sample_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert df == 4


def test_t_df_for_large_unequal_groups():
    rng = np.random.default_rng(45)
    t, df = two_sample_t(rng.normal(size=1632), rng.normal(size=2337))
    assert df == 3967


def test_t_hand_worked():
    t, df = two_sample_t([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert df == 4
    assert t == pytest.approx(-1.0 / math.sqrt(2.0 / 3.0), rel=1e-12)


def test_t_matches_reference_oracle():
    rng = np.random.default_rng(46)
    for _ in range(10):
        a = rng.normal(size=rng.integers(2, 30))
        b = rng.normal(loc=0.5, size=rng.integers(2, 30))
        ours = two_sample_t(a, b)
        reference = pooled_t_reference(a, b)
        assert ours[1] == reference[1]
        assert ours[0] == pytest.approx(reference[0], rel=1e-9, abs=1e-9)


def test_t_antisymmetric():
    rng = np.random.default_rng(47)
    a, b = rng.normal(size=10), rng.normal(loc=1.0, size=12)
    t_ab, df_ab = two_sample_t(a, b)
    t_ba, df_ba = two_sample_t(b, a)
    assert t_ab == pytest.approx(-t_ba, rel=1e-12)
    assert df_ab == df_ba


def test_t_group_too_small():
    with pytest.raises(GroupTooSmall):
        two_sample_t([1.0], [1.0, 2.0])
    with pytest.raises(GroupTooSmall, match="group 'depression': .* at least 2 rows, got 1"):
        group_t_tests({"control": np.zeros((3, 16)), "depression": np.zeros((1, 16))})


# --- descriptive stats -----------------------------------------------------------


def matrix_with_mfcc_mean(values):
    rows = []
    for v in values:
        row = np.zeros(16)
        row[:13] = v
        rows.append(row)
    return np.array(rows)


def test_descriptive_stats_textbook_values():
    groups = {DEP: matrix_with_mfcc_mean([1.0, 2.0, 3.0]),
              CON: matrix_with_mfcc_mean([2.0, 2.0, 2.0])}
    stats = descriptive_stats(groups)
    assert len(stats) == 4
    assert [s["feature"] for s in stats] == [
        "mfcc_mean", "spectral_centroid", "spectral_complexity", "zero_crossing_rate",
    ]
    mfcc_row = stats[0]
    assert mfcc_row["groups"][DEP]["mean"] == pytest.approx(2.0)
    assert mfcc_row["groups"][DEP]["sd"] == pytest.approx(1.0)
    assert mfcc_row["groups"][CON]["sd"] == 0.0
    assert set(mfcc_row["groups"]) == {DEP, CON}


def test_descriptive_stats_single_value_degenerate():
    stats = descriptive_stats({DEP: matrix_with_mfcc_mean([3.0])})
    block = stats[0]["groups"][DEP]
    assert block["sd"] == 0.0
    assert block["degenerate"] is True
    assert block["n"] == 1


def test_group_t_tests_shape():
    rng = np.random.default_rng(48)
    groups = {DEP: rng.normal(size=(30, 16)), CON: rng.normal(loc=0.3, size=(40, 16))}
    tests = group_t_tests(groups)
    assert [t["feature"] for t in tests] == list(
        ("mfcc_mean", "spectral_centroid", "spectral_complexity", "zero_crossing_rate"))
    assert all(t["df"] == 68 for t in tests)


# --- reports / rendering ----------------------------------------------------------


def test_evaluate_predictions_report():
    report = evaluate_predictions([DEP, DEP, CON], [DEP, CON, CON],
                                  split_mode="speaker-disjoint")
    payload = report.to_json_dict()
    assert payload["split_mode"] == "speaker-disjoint"
    assert payload["confusion"] == {"tp": 1, "fp": 1, "fn": 0, "tn": 1}
    text = render_eval_text(report)
    assert "split mode: speaker-disjoint" in text
    assert "Precision" in text


def test_render_stats_and_selection_text():
    groups = {DEP: matrix_with_mfcc_mean([1.0, 2.0]), CON: matrix_with_mfcc_mean([2.0, 4.0])}
    text = render_stats_text(descriptive_stats(groups), group_t_tests(groups))
    assert "mfcc_mean" in text and "Mean" in text and "t-test" in text

    features, labels = majority_dataset()
    report = grid_select([PipelineCandidate(k=3)], features, labels, folds=5, seed=0)
    rendered = render_selection_text(report)
    assert "Generation 1" in rendered and "best pipeline" in rendered
