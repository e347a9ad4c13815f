import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import feature_cohort
from oracles import knn_scan, pooled_t_reference
from vocalscreen.errors import VocalScreenError
from vocalscreen.evaluation import (
    ConfusionMatrix,
    EmptyInput,
    GroupTooSmall,
    LengthMismatch,
    PipelineCandidate,
    TooFewSamplesPerClass,
    check_folds,
    confusion,
    default_grid,
    descriptive_stats,
    eval_report,
    grid_select,
    group_t_tests,
    precision_recall_f1,
    render_eval_text,
    render_selection_text,
    render_stats_text,
    select_best,
    stratified_folds,
    summary_features,
    two_sample_t,
)
from vocalscreen.model import fit_scaler, identity_scaler, transform
from vocalscreen.rng import SplitMix64, fisher_yates

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


def test_stratified_folds_deal_each_class_alone():
    labels = ["a"] * 4 + ["b"] * 6 + ["c"] * 5
    folds = stratified_folds(labels, folds=2, seed=3)
    assert sorted(i for fold in folds for i in fold) == list(range(15))
    for label, sizes in (("a", {2}), ("b", {3}), ("c", {2, 3})):
        assert {sum(labels[i] == label for i in fold) for fold in folds} == sizes


def divmod_folds(labels, folds, seed):
    """The former dealing of stratified_folds: each class's shuffled rows in chunks sized by
    divmod, the first ``extra`` of them one row longer; the reference for np.array_split."""
    stream = SplitMix64(seed)
    fold_indices = [[] for _ in range(folds)]
    for label in sorted(set(labels)):
        shuffled = fisher_yates([i for i, lab in enumerate(labels) if lab == label], stream)
        base, extra = divmod(len(shuffled), folds)
        start = 0
        for i in range(folds):
            size = base + (1 if i < extra else 0)
            fold_indices[i].extend(shuffled[start : start + size])
            start += size
    return [sorted(fold) for fold in fold_indices]


@st.composite
def dealable_labels(draw):
    """(labels, folds): one to three classes of folds to 4 * folds + 3 rows each, so most
    class sizes do not divide by folds, in a drawn order."""
    folds = draw(st.integers(2, 8))
    sizes = draw(st.lists(st.integers(folds, 4 * folds + 3), min_size=1, max_size=3))
    labels = [label for label, size in zip("abc", sizes) for _ in range(size)]
    return draw(st.permutations(labels)), folds


@settings(max_examples=200, deadline=None)
@given(case=dealable_labels(), seed=st.integers(0, 2 ** 64 - 1))
@example(case=([DEP] * 13 + [CON] * 17, 5), seed=2 ** 64 - 1)
@example(case=(["a"] * 7 + ["b"] * 9, 4), seed=0)
def test_stratified_folds_equal_divmod_dealing(case, seed):
    labels, folds = case
    dealt = stratified_folds(labels, folds, seed)
    assert dealt == divmod_folds(labels, folds, seed)
    assert all(type(i) is int for fold in dealt for i in fold)


def test_fold_count_below_two_and_no_rows_are_rejected():
    for folds in (1, 0):
        with pytest.raises(ValueError, match=f"^folds must be >= 2, got {folds}$"):
            check_folds(folds)
    check_folds(2)
    with pytest.raises(TooFewSamplesPerClass, match="^no rows to deal into 3 folds$"):
        stratified_folds([], folds=3, seed=0)


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
    scores = grid_select([PipelineCandidate(k=39, p=2.0, use_scaler=False)],
                         features, labels, folds=5, seed=0)["best"]["fold_scores"]
    assert scores == [0.6] * 5


def test_cross_validate_duplicated_rows_k1():
    rng = np.random.default_rng(43)
    base = np.vstack([rng.normal(0, 0.3, size=(12, 3)), rng.normal(8, 0.3, size=(12, 3))])
    labels = [CON] * 12 + [DEP] * 12
    candidate = PipelineCandidate(k=1, p=2.0, use_scaler=True)
    single = grid_select([candidate], base, labels, folds=3, seed=4)["best"]
    doubled = grid_select([candidate], np.vstack([base, base]), labels + labels,
                          folds=3, seed=4)["best"]
    # verified by direct run: cleanly separated clusters score 1.0 both ways
    assert single["fold_scores"] == [1.0] * 3 and single["mean_cv_score"] == 1.0
    assert doubled["mean_cv_score"] == single["mean_cv_score"]


def test_cross_validate_too_few_per_class():
    rng = np.random.default_rng(49)
    features = rng.normal(size=(6, 2))
    labels = [DEP] + [CON] * 5
    with pytest.raises(TooFewSamplesPerClass):
        grid_select([PipelineCandidate(k=1)], features, labels, folds=3, seed=0)


def test_cross_validate_deterministic():
    features, labels = majority_dataset()
    candidate = PipelineCandidate(k=3, p=2.0, use_scaler=True)
    first = grid_select([candidate], features, labels, folds=5, seed=17)["best"]["fold_scores"]
    second = grid_select([candidate], features, labels, folds=5, seed=17)["best"]["fold_scores"]
    assert len(first) == 5 and first == second


# --- grid selection -----------------------------------------------------------


def test_grid_select_singleton():
    features, labels = majority_dataset()
    report = grid_select([PipelineCandidate(k=3)], features, labels, folds=5, seed=0)
    assert len(report["candidates"]) == 1
    assert report["best"] == report["candidates"][0]
    assert report["generations"] == [report["best"]["mean_cv_score"]]


def test_grid_select_input_rules():
    features, labels = majority_dataset()
    assert grid_select([PipelineCandidate()], features, labels, folds=5)["seed"] == 0
    with pytest.raises(ValueError, match="^candidate space is empty$"):
        grid_select([], features, labels, folds=5)
    with pytest.raises(LengthMismatch, match="^50 rows vs 49 labels$"):
        grid_select([PipelineCandidate()], features, labels[:-1], folds=5)


def test_pipeline_candidate_defaults():
    # the defaults of train's --k, --p and --scaler
    assert PipelineCandidate() == PipelineCandidate(k=3, p=2.0, use_scaler=True)
    assert PipelineCandidate().describe() == "knn(k=3, p=2, scaler=on)"


def test_grid_select_default_grid_shape():
    features, labels = majority_dataset()
    report = grid_select(default_grid(), features, labels, folds=5, seed=0)
    assert len(report["candidates"]) == 16
    assert report["best"]["mean_cv_score"] == max(c["mean_cv_score"] for c in report["candidates"])
    gens = report["generations"]
    assert gens == sorted(gens)  # non-decreasing
    assert json.loads(json.dumps(report)) == report  # the payload is what write_json writes


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
    for c in report["candidates"]:
        expected = []
        for held_out in fold_sets:
            train_idx = [i for i in range(len(labels)) if i not in held_out]
            train_x = features[train_idx]
            scaler = fit_scaler(train_x) if c["scaler"] else identity_scaler(3)
            train_z = transform(scaler, train_x)
            train_y = [labels[i] for i in train_idx]
            hits = sum(knn_scan(train_z, train_y, q, c["k"], c["p"])[0] == labels[i]
                       for i, q in zip(held_out, transform(scaler, features[held_out])))
            expected.append(hits / len(held_out))
        assert c["fold_scores"] == expected, c["pipeline"]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), folds=st.sampled_from([2, 3]))
def test_grid_select_equals_single_candidate_runs(data, folds):
    # a single candidate is answered alone, for its one (scaler, p) pair; a grid
    # answers every p and k of a scaler in one query loop per fold, the default
    # grid's p = 2 through the block filter and every other p by a scan, so a grid
    # of p = 1 and p = 3 scans each row twice, each p on its own differences.
    # Repeated integer rows make ties at every k.
    dims = data.draw(st.integers(min_value=1, max_value=3), label="dims")
    row = st.lists(st.integers(min_value=-2, max_value=2), min_size=dims, max_size=dims)
    distinct = data.draw(st.lists(row, min_size=1, max_size=6), label="distinct")
    rows = data.draw(st.lists(st.sampled_from(distinct), min_size=18, max_size=30),
                     label="rows")
    labels = [CON] * 3 + [DEP] * 3 + data.draw(
        st.lists(st.sampled_from([CON, DEP]), min_size=len(rows) - 6, max_size=len(rows) - 6),
        label="labels")
    features = np.array(rows, dtype=float)
    features[:, 0] *= data.draw(st.sampled_from([1.0, 1e3]), label="scale")  # scaler matters
    seed = data.draw(st.integers(min_value=0, max_value=2**32), label="seed")
    scanned = [PipelineCandidate(k=k, p=p, use_scaler=s) for k in (1, 3) for p in (1.0, 3.0)
               for s in (True, False)]
    for grid in (default_grid(), scanned):
        report = grid_select(grid, features, labels, folds=folds, seed=seed)
        singles = [grid_select([c], features, labels, folds=folds, seed=seed)["best"]
                   for c in grid]
        assert report["candidates"] == singles
        assert report["best"] == select_best(singles)


def result(k, p, use_scaler, mean):
    return {"pipeline": PipelineCandidate(k=k, p=p, use_scaler=use_scaler).describe(),
            "k": k, "p": p, "scaler": use_scaler, "fold_scores": [mean], "mean_cv_score": mean}


def test_segment_folds_score_labels_that_carry_no_class_signal():
    # the leak, pinned: the feature-space cohort's class labels permuted across its 36
    # participants carry no class signal, yet 5 segment folds, which put rows of each
    # participant on both sides, score the best candidate 0.999-1.000 (0.998 on the
    # true labels): a held-out row's nearest rows are its own participant's
    matrix, labels, participants = feature_cohort()
    label_of = dict(zip(participants, labels))
    codes = list(label_of)
    rng = np.random.default_rng(0)
    for _ in range(3):
        permuted = dict(zip(codes, rng.permutation([label_of[code] for code in codes])))
        relabelled = [permuted[code] for code in participants]
        assert relabelled != labels
        report = grid_select(default_grid(), matrix, relabelled, folds=5)
        assert report["best"]["mean_cv_score"] >= 0.99


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
    baseline = select_best(results)["pipeline"]
    shifted = [{**r, "mean_cv_score": 2.5 * r["mean_cv_score"] + 0.1} for r in results]
    assert select_best(shifted)["pipeline"] == baseline


# --- t-test ---------------------------------------------------------------------


def test_t_identical_groups():
    t, df = two_sample_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert df == 4


def test_t_df_for_large_unequal_groups():
    rng = np.random.default_rng(45)
    t, df = two_sample_t(rng.normal(size=1632), rng.normal(size=2337))
    assert df == 3967


def test_t_zero_pooled_variance():
    assert two_sample_t([1.0, 1.0], [1.0, 1.0]) == (0.0, 2)
    assert two_sample_t([1.0, 1.0], [2.0, 2.0]) == (-math.inf, 2)


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
    with pytest.raises(GroupTooSmall):
        two_sample_t([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="^t-tests need exactly two groups$"):
        group_t_tests({label: np.zeros((3, 16)) for label in ("a", "b", "c")})
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


def test_summary_features_columns():
    rows = np.arange(32.0).reshape(2, 16)
    assert summary_features(rows).tolist() == [[6.0, 13.0, 14.0, 15.0], [22.0, 29.0, 30.0, 31.0]]


def test_descriptive_stats_two_rows_and_an_empty_group():
    block = descriptive_stats({DEP: matrix_with_mfcc_mean([1.0, 3.0])})[0]["groups"][DEP]
    assert block == {"mean": 2.0, "sd": math.sqrt(2.0), "n": 2, "degenerate": False}
    with pytest.raises(EmptyInput, match="^group 'control' is empty$"):
        descriptive_stats({DEP: matrix_with_mfcc_mean([1.0]), CON: np.zeros((0, 16))})


@pytest.mark.parametrize("stats", [descriptive_stats, group_t_tests])
def test_stats_name_an_empty_or_narrow_group(stats):
    # both raised IndexError from summary_features: np.atleast_2d([]) has one
    # row of no columns, and a 15-column group has no column 15
    fine = matrix_with_mfcc_mean([1.0, 2.0, 3.0])
    with pytest.raises(EmptyInput, match="^group 'control' is empty$"):
        stats({DEP: fine, CON: []})
    for groups, named, got in [
        ({DEP: fine, CON: np.zeros((3, 15))}, CON, r"float64 of shape \(3, 15\)"),
        ({DEP: np.zeros(17, dtype=int), CON: fine}, DEP, r"int64 of shape \(1, 17\)"),
        ({DEP: fine, CON: fine + 5j}, CON, r"complex128 of shape \(3, 16\)"),
    ]:
        with pytest.raises(VocalScreenError, match=f"^group '{named}': rows must hold 16 real"
                                                   f" feature values, got {got}$"):
            stats(groups)


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


def test_eval_report_payload():
    payload = eval_report([DEP, DEP, CON], [DEP, CON, CON], "speaker-disjoint", 3, 2.0)
    assert payload["split_mode"] == "speaker-disjoint"
    assert payload["confusion"] == {"tp": 1, "fp": 1, "fn": 0, "tn": 1}
    text = render_eval_text(payload)
    assert "split mode: speaker-disjoint" in text
    assert "Precision" in text


def test_render_stats_and_selection_text():
    groups = {DEP: matrix_with_mfcc_mean([1.0, 2.0]), CON: matrix_with_mfcc_mean([2.0, 4.0])}
    text = render_stats_text(descriptive_stats(groups), group_t_tests(groups))
    assert "mfcc_mean" in text and "Mean" in text and "t-test" in text
    # the feature column is as wide as the longest summary name plus two
    assert text.splitlines()[0] == f"{'Feature':<21}{'Metric':<8}{CON:>18}{DEP:>18}"

    features, labels = majority_dataset()
    report = grid_select([PipelineCandidate(k=3)], features, labels, folds=5, seed=0)
    rendered = render_selection_text(report)
    assert "Generation 1" in rendered and "best pipeline" in rendered
