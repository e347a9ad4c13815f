"""Scoring, cross-validation, grid model selection, and group statistics.

Selection replaces an automated pipeline search with an exhaustive grid
over {k in 1,3,5,7} x {p in 1,2} x {scaler on/off}, scored by stratified
k-fold accuracy. The report keeps a per-candidate trail plus a running
best-so-far curve over the evaluation order, so improvement across the
sweep reads like successive generations of a search.

Each report is its JSON payload: grid_select returns the
selection_report.json dict and eval_report the eval_report.json dict, the
CLI writes them unchanged, and render_selection_text / render_eval_text
read the same dicts.

"depression" is the positive class everywhere a positive class matters.
"""

import math
from dataclasses import asdict, dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import VocalScreenError, integer
from .features import FEATURE_COLUMNS, N_FEATURES, N_MFCC
from .model import _encode, _neighbours, _vote, as_matrix, fit_scaler, identity_scaler, knn_fit
from .rng import SplitMix64, fisher_yates

POSITIVE_LABEL = "depression"

SUMMARY_FEATURES = ("mfcc_mean", "spectral_centroid", "spectral_complexity", "zero_crossing_rate")


class LengthMismatch(VocalScreenError):
    pass


class EmptyInput(VocalScreenError):
    pass


class TooFewSamplesPerClass(VocalScreenError):
    pass


class GroupTooSmall(VocalScreenError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class Metrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    accuracy: float


def confusion(predictions, truth) -> ConfusionMatrix:
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(truth)} truths")
    if not predictions:
        raise EmptyInput("nothing to score")
    # (predicted positive, truly positive) per row
    pairs = [(pred == POSITIVE_LABEL, true == POSITIVE_LABEL)
             for pred, true in zip(predictions, truth)]
    return ConfusionMatrix(tp=pairs.count((True, True)), fp=pairs.count((True, False)),
                           fn=pairs.count((False, True)), tn=pairs.count((False, False)))


def precision_recall_f1(cm: ConfusionMatrix) -> Metrics:
    """Positive-class precision/recall/F1 plus accuracy; 0/0 ratios are 0."""
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    accuracy = (cm.tp + cm.tn) / cm.total if cm.total else 0.0
    return Metrics(precision=precision, recall=recall, f1=f1, accuracy=accuracy)


@dataclass(frozen=True)
class PipelineCandidate:
    """One grid point: neighbor count, Minkowski exponent, scaler on/off."""

    k: int = 3
    p: float = 2.0
    use_scaler: bool = True

    def describe(self) -> str:
        return f"knn(k={self.k}, p={self.p:g}, scaler={'on' if self.use_scaler else 'off'})"


def default_grid() -> list:
    return [
        PipelineCandidate(k=k, p=p, use_scaler=use_scaler)
        for k in (1, 3, 5, 7)
        for p in (1.0, 2.0)
        for use_scaler in (True, False)
    ]


def check_folds(folds) -> None:
    """Reject a fold count that is not an integer of at least 2."""
    if integer(folds, "folds") < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")


def stratified_folds(labels, folds: int, seed: int) -> list:
    """Partition row indices into per-class-balanced folds.

    Each class's indices are shuffled by one shared SplitMix64 stream
    (classes visited in sorted label order) and cut by np.array_split into
    ``folds`` chunks, the first ``len % folds`` one row longer. Fold i is
    the sorted union of every class's chunk i. No rows, like a class of
    fewer rows than folds, raise TooFewSamplesPerClass.
    """
    labels = list(labels)
    check_folds(folds)
    if not labels:
        raise TooFewSamplesPerClass(f"no rows to deal into {folds} folds")
    # every class is checked before anything is made that grows with folds
    by_class = {label: [i for i, lab in enumerate(labels) if lab == label]
                for label in sorted(set(labels))}
    for label, class_idx in by_class.items():
        if len(class_idx) < folds:
            raise TooFewSamplesPerClass(
                f"class {label!r} has {len(class_idx)} rows < {folds} folds"
            )
    stream = SplitMix64(seed)
    chunks = [np.array_split(fisher_yates(rows, stream), folds) for rows in by_class.values()]
    return [sorted(np.concatenate(fold).tolist()) for fold in zip(*chunks)]


def select_best(candidates) -> dict:
    """Highest mean_cv_score wins; ties prefer fewer neighbors, then lower p, then
    scaler-on over scaler-off."""
    return min(candidates, key=lambda c: (-c["mean_cv_score"], c["k"], c["p"], not c["scaler"]))


def grid_select(space, features, labels, folds: int, seed: int = 0) -> dict:
    """Cross-validate every candidate under stratified k-fold CV; pick the best.

    Each fold fits one model per scaler; one model._neighbours call
    standardizes the fold's held-out rows with that model's scaler and
    finds, for every p of the scaler's candidates, each row's max(k)
    nearest training rows as one (rows, max k) array. One model._vote per p
    votes every k of that p on prefixes of the array, so the predictions
    are those of one knn_predict per candidate and row, and a candidate's
    fold hits are one count of its winning label codes equal to the
    held-out rows' own.

    Returns the selection_report.json payload: ``folds``, ``seed``,
    ``candidates`` in definition order, each {pipeline, k, p, scaler,
    fold_scores, mean_cv_score}, ``best`` (select_best's pick, one of
    those dicts) and ``generations``, the best-so-far mean over the
    candidates in the same order.
    """
    space = list(space)
    if not space:
        raise ValueError("candidate space is empty")
    matrix = as_matrix(features)
    labels = [str(label) for label in labels]
    if matrix.shape[0] != len(labels):
        raise LengthMismatch(f"{matrix.shape[0]} rows vs {len(labels)} labels")
    fold_sets = stratified_folds(labels, folds, seed)
    codes = _encode(labels)[1]
    hits = np.zeros((len(space), folds), dtype=np.intp)
    for i, held_out in enumerate(fold_sets):
        train_idx = np.delete(np.arange(len(labels)), held_out)
        train_x, train_y = matrix[train_idx], [labels[t] for t in train_idx]
        train_codes, truth = codes[train_idx], codes[held_out]
        for use_scaler in dict.fromkeys(c.use_scaler for c in space):
            scaler = fit_scaler(train_x) if use_scaler else identity_scaler(matrix.shape[1])
            fitted = knn_fit(train_x, train_y, k=1, scaler=scaler)
            members = [(j, c.p, c.k) for j, c in enumerate(space) if c.use_scaler == use_scaler]
            ks_by_p = {}
            for _, p, k in members:
                replace(fitted, k=k, p=p)  # KnnModel checks k and p against the fold
                ks_by_p.setdefault(p, set()).add(k)
            neighbours = _neighbours(fitted, matrix[held_out],
                                     {p: max(ks) for p, ks in ks_by_p.items()})
            votes = {p: _vote(neighbours[p], train_codes, ks) for p, ks in ks_by_p.items()}
            for j, p, k in members:
                hits[j, i] = np.count_nonzero(votes[p][k][0] == truth)
    candidates = [{"pipeline": c.describe(), "k": c.k, "p": c.p, "scaler": c.use_scaler,
                   "fold_scores": s.tolist(), "mean_cv_score": float(s.mean())}
                  for c, s in zip(space, hits / [len(fold) for fold in fold_sets])]
    means = [c["mean_cv_score"] for c in candidates]
    return {"folds": folds, "seed": seed, "candidates": candidates,
            "best": select_best(candidates), "generations": list(accumulate(means, max))}


def two_sample_t(group_a, group_b) -> tuple:
    """Pooled-variance two-sample t statistic and its degrees of freedom.

    df = n_a + n_b - 2. A zero pooled variance yields t = 0 for equal
    means and signed infinity otherwise.
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise GroupTooSmall("each group needs at least 2 values")
    df = len(a) + len(b) - 2
    pooled_var = ((len(a) - 1) * a.var(ddof=1) + (len(b) - 1) * b.var(ddof=1)) / df
    diff = a.mean() - b.mean()
    denom = math.sqrt(pooled_var * (1 / len(a) + 1 / len(b)))
    if denom == 0.0:
        t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    else:
        t = diff / denom
    return float(t), df


def summary_features(matrix: np.ndarray) -> np.ndarray:
    """Collapse 16-column feature rows to the 4 reported summaries:
    mean MFCC (over coefficients 0..12), centroid, complexity, ZCR."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    columns = [FEATURE_COLUMNS.index(name) for name in ("centroid", "complexity", "zcr")]
    return np.column_stack([matrix[:, :N_MFCC].mean(axis=1), matrix[:, columns]])


def _group_summaries(features_by_group: dict) -> dict:
    """summary_features of each group, in label order.

    An empty group raises EmptyInput, and a group that is not rows of
    N_FEATURES bool, integer or float values VocalScreenError, each naming
    the group.
    """
    summaries = {}
    for label in sorted(features_by_group):
        matrix = np.atleast_2d(np.asarray(features_by_group[label]))
        if matrix.size == 0:
            raise EmptyInput(f"group {label!r} is empty")
        real = matrix.dtype.kind in "biuf"  # a complex or text value would convert silently
        if not real or matrix.ndim != 2 or matrix.shape[1] != N_FEATURES:
            raise VocalScreenError(f"group {label!r}: rows must hold {N_FEATURES} real feature"
                                   f" values, got {matrix.dtype} of shape {matrix.shape}")
        summaries[label] = summary_features(matrix)
    return summaries


def descriptive_stats(features_by_group: dict) -> list:
    """Per-group mean and sample SD of each reported summary feature.

    Returns one dict per summary feature with a per-group
    {mean, sd, n, degenerate} block; single-row groups carry sd 0 and
    degenerate=True. Groups are checked as _group_summaries checks them.
    """
    summaries = _group_summaries(features_by_group)
    rows = []
    for i, name in enumerate(SUMMARY_FEATURES):
        entry = {"feature": name, "groups": {}}
        for label, summary in summaries.items():
            col = summary[:, i]
            degenerate = len(col) < 2
            sd = 0.0 if degenerate else float(col.std(ddof=1))
            entry["groups"][label] = {
                "mean": float(col.mean()),
                "sd": sd,
                "n": len(col),
                "degenerate": degenerate,
            }
        rows.append(entry)
    return rows


def group_t_tests(features_by_group: dict) -> list:
    """Pooled t-test per summary feature across exactly two groups, checked as
    _group_summaries checks them."""
    if len(features_by_group) != 2:
        raise ValueError("t-tests need exactly two groups")
    (label_a, summary_a), (label_b, summary_b) = _group_summaries(features_by_group).items()
    for label, summary in ((label_a, summary_a), (label_b, summary_b)):
        if len(summary) < 2:
            raise GroupTooSmall(f"group {label!r}: a t-test needs at least 2 rows,"
                                f" got {len(summary)}")
    out = []
    for i, name in enumerate(SUMMARY_FEATURES):
        t, df = two_sample_t(summary_a[:, i], summary_b[:, i])
        out.append({"feature": name, "t": t, "df": df, "groups": [label_a, label_b]})
    return out


def eval_report(predictions, truth, split_mode: str, k: int, p: float) -> dict:
    """The eval_report.json payload: positive-class confusion counts and metrics of
    ``predictions`` against ``truth``, the split mode that made the held-out set, and
    the k and p of the model that predicted."""
    cm = confusion(predictions, truth)
    return {"split_mode": split_mode, "positive_label": POSITIVE_LABEL, "confusion": asdict(cm),
            **precision_recall_f1(cm)._asdict(), "n": cm.total, "model_k": k, "model_p": p}


def render_eval_text(report: dict) -> str:
    """Aligned plain-text score table of an eval_report payload; the split mode heads it."""
    positive, cm = report["positive_label"], report["confusion"]
    lines = [
        f"=== evaluation (split mode: {report['split_mode']}) ===",
        f"positive class: {positive}",
        "",
        f"{'Metric':<12}{positive:>12}",
        f"{'Precision':<12}{report['precision']:>12.4f}",
        f"{'Recall':<12}{report['recall']:>12.4f}",
        f"{'F1-Score':<12}{report['f1']:>12.4f}",
        f"{'Accuracy':<12}{report['accuracy']:>12.4f}",
        "",
        f"confusion: tp={cm['tp']} fp={cm['fp']} fn={cm['fn']} tn={cm['tn']} (n={report['n']})",
    ]
    return "\n".join(lines) + "\n"


def render_stats_text(stats: list, t_tests: list | None = None) -> str:
    """Aligned plain-text table of per-group descriptives (and t-tests)."""
    groups = sorted(stats[0]["groups"]) if stats else []
    width = max(len(name) for name in SUMMARY_FEATURES) + 2
    header = f"{'Feature':<{width}}{'Metric':<8}" + "".join(f"{g:>18}" for g in groups)
    lines = [header, "-" * len(header)]
    for entry in stats:
        means = "".join(f"{entry['groups'][g]['mean']:>18.4f}" for g in groups)
        sds = "".join(f"{entry['groups'][g]['sd']:>18.4f}" for g in groups)
        lines.append(f"{entry['feature']:<{width}}{'Mean':<8}{means}")
        lines.append(f"{'':<{width}}{'SD':<8}{sds}")
    if t_tests:
        lines.append("")
        for item in t_tests:
            lines.append(f"t-test {item['feature']}: t({item['df']}) = {item['t']:.3f}")
    return "\n".join(lines) + "\n"


def render_selection_text(report: dict) -> str:
    """The generations and the best pipeline of a grid_select payload."""
    lines = [f"=== model selection ({report['folds']}-fold CV, seed {report['seed']}) ==="]
    for i, gen in enumerate(report["generations"], start=1):
        lines.append(f"Generation {i}: {gen:.4f}")
    lines.append(f"best pipeline: {report['best']['pipeline']}")
    lines.append(f"mean CV score: {report['best']['mean_cv_score']:.4f}")
    return "\n".join(lines) + "\n"
