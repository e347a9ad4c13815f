"""Scoring, cross-validation, grid model selection, and group statistics.

Selection replaces an automated pipeline search with an exhaustive grid
over {k in 1,3,5,7} x {p in 1,2} x {scaler on/off}, scored by stratified
k-fold accuracy. The report keeps a per-candidate trail plus a running
best-so-far curve over the evaluation order, so improvement across the
sweep reads like successive generations of a search.

"depression" is the positive class everywhere a positive class matters.
"""

import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import VocalScreenError
from .model import (_nearest_rows, _votes, as_matrix, fit_scaler, identity_scaler, knn_fit,
                    overflow_guard)
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


def confusion(predictions, truth, positive_label: str = POSITIVE_LABEL) -> ConfusionMatrix:
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(truth)} truths")
    if not predictions:
        raise EmptyInput("nothing to score")
    tp = fp = fn = tn = 0
    for pred, true in zip(predictions, truth):
        if pred == positive_label:
            if true == positive_label:
                tp += 1
            else:
                fp += 1
        else:
            if true == positive_label:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


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


def stratified_folds(labels, folds: int, seed: int) -> list:
    """Partition row indices into per-class-balanced folds.

    Each class's indices are shuffled by one shared SplitMix64 stream
    (classes visited in sorted label order) and dealt into ``folds``
    contiguous chunks whose sizes differ by at most one. Fold i is the
    union of every class's chunk i.
    """
    labels = list(labels)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    stream = SplitMix64(seed)
    fold_indices = [[] for _ in range(folds)]
    for label in sorted(set(labels)):
        class_idx = [i for i, lab in enumerate(labels) if lab == label]
        if len(class_idx) < folds:
            raise TooFewSamplesPerClass(
                f"class {label!r} has {len(class_idx)} rows < {folds} folds"
            )
        shuffled = fisher_yates(class_idx, stream)
        base, extra = divmod(len(shuffled), folds)
        start = 0
        for i in range(folds):
            size = base + (1 if i < extra else 0)
            fold_indices[i].extend(shuffled[start : start + size])
            start += size
    return [sorted(fold) for fold in fold_indices]


def cross_validate(candidate: PipelineCandidate, features, labels,
                   folds: int = 5, seed: int = 0) -> np.ndarray:
    """Per-fold accuracies of one candidate: ``grid_select`` over it alone."""
    return np.array(grid_select([candidate], features, labels, folds, seed).best.fold_scores)


@dataclass(frozen=True)
class CandidateResult:
    candidate: PipelineCandidate
    fold_scores: tuple
    mean: float


@dataclass(frozen=True)
class SelectionReport:
    candidates: tuple
    best: CandidateResult
    generations: tuple
    folds: int
    seed: int

    def to_json_dict(self) -> dict:
        def entry(result: CandidateResult) -> dict:
            return {
                "pipeline": result.candidate.describe(),
                "k": result.candidate.k,
                "p": result.candidate.p,
                "scaler": result.candidate.use_scaler,
                "fold_scores": list(result.fold_scores),
                "mean_cv_score": result.mean,
            }

        return {
            "folds": self.folds,
            "seed": self.seed,
            "candidates": [entry(c) for c in self.candidates],
            "best": entry(self.best),
            "generations": list(self.generations),
        }


def select_best(results) -> CandidateResult:
    """Highest mean wins; ties prefer fewer neighbors, then lower p, then
    scaler-on over scaler-off."""
    return min(
        results,
        key=lambda r: (-r.mean, r.candidate.k, r.candidate.p, 0 if r.candidate.use_scaler else 1),
    )


def grid_select(space, features, labels, folds: int = 5, seed: int = 0) -> SelectionReport:
    """Cross-validate every candidate under stratified k-fold CV; pick the best.

    Candidates sharing (scaler, p) share each held-out row's first max-k neighbors.
    The report lists candidates in definition order, as does the best-so-far curve.
    """
    space = list(space)
    if not space:
        raise ValueError("candidate space is empty")
    matrix = as_matrix(features)
    labels = [str(label) for label in labels]
    if matrix.shape[0] != len(labels):
        raise LengthMismatch(f"{matrix.shape[0]} rows vs {len(labels)} labels")
    fold_sets = stratified_folds(labels, folds, seed)
    hits = np.zeros((len(space), folds))
    for i, held_out in enumerate(fold_sets):
        train_idx = np.delete(np.arange(len(labels)), held_out)
        train_x, train_y = matrix[train_idx], [labels[t] for t in train_idx]
        for use_scaler, p in dict.fromkeys((c.use_scaler, c.p) for c in space):
            scaler = fit_scaler(train_x) if use_scaler else identity_scaler(matrix.shape[1])
            fitted = knn_fit(train_x, train_y, k=1, p=p, scaler=scaler)
            ks = {j: replace(fitted, k=c.k).k  # re-checks k against the fold
                  for j, c in enumerate(space) if (c.use_scaler, c.p) == (use_scaler, p)}
            distinct_ks = set(ks.values())
            with overflow_guard():
                for t, row in zip(held_out, matrix[held_out]):
                    nearest = _nearest_rows(fitted, row, max(distinct_ks))
                    winners = _votes(fitted, nearest, distinct_ks)
                    for j, k in ks.items():
                        hits[j, i] += winners[k][0] == labels[t]
    results = [CandidateResult(candidate=c, fold_scores=tuple(s), mean=float(s.mean()))
               for c, s in zip(space, hits / [len(fold) for fold in fold_sets])]

    generations = []
    best_so_far = -math.inf
    for result in results:
        best_so_far = max(best_so_far, result.mean)
        generations.append(best_so_far)
    return SelectionReport(candidates=tuple(results), best=select_best(results),
                           generations=tuple(generations), folds=folds, seed=seed)


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
    return np.column_stack([matrix[:, :13].mean(axis=1), matrix[:, 13], matrix[:, 14], matrix[:, 15]])


def descriptive_stats(features_by_group: dict) -> list:
    """Per-group mean and sample SD of each reported summary feature.

    Returns one dict per summary feature with a per-group
    {mean, sd, n, degenerate} block; single-row groups carry sd 0 and
    degenerate=True.
    """
    for label, matrix in features_by_group.items():
        if len(np.atleast_2d(matrix)) == 0:
            raise EmptyInput(f"group {label!r} is empty")
    rows = []
    for i, name in enumerate(SUMMARY_FEATURES):
        entry = {"feature": name, "groups": {}}
        for label in sorted(features_by_group):
            col = summary_features(features_by_group[label])[:, i]
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
    """Pooled t-test per summary feature across exactly two groups."""
    if len(features_by_group) != 2:
        raise ValueError("t-tests need exactly two groups")
    (label_a, group_a), (label_b, group_b) = sorted(features_by_group.items())
    summary_a, summary_b = summary_features(group_a), summary_features(group_b)
    for label, summary in ((label_a, summary_a), (label_b, summary_b)):
        if len(summary) < 2:
            raise GroupTooSmall(f"group {label!r}: a t-test needs at least 2 rows,"
                                f" got {len(summary)}")
    out = []
    for i, name in enumerate(SUMMARY_FEATURES):
        t, df = two_sample_t(summary_a[:, i], summary_b[:, i])
        out.append({"feature": name, "t": t, "df": df, "groups": [label_a, label_b]})
    return out


@dataclass(frozen=True)
class EvalReport:
    """Held-out scoring results plus provenance of the split that made them."""

    cm: ConfusionMatrix
    metrics: Metrics
    positive_label: str = POSITIVE_LABEL
    split_mode: str = "unknown"
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "split_mode": self.split_mode,
            "positive_label": self.positive_label,
            "confusion": asdict(self.cm),
            **self.metrics._asdict(),
            "n": self.cm.total,
            **self.extra,
        }


def evaluate_predictions(predictions, truth, split_mode: str = "unknown",
                         extra: dict | None = None) -> EvalReport:
    cm = confusion(predictions, truth)
    return EvalReport(cm=cm, metrics=precision_recall_f1(cm), split_mode=split_mode,
                      extra=dict(extra or {}))


def render_eval_text(report: EvalReport) -> str:
    """Aligned plain-text score table; the split mode heads the output."""
    m = report.metrics
    lines = [
        f"=== evaluation (split mode: {report.split_mode}) ===",
        f"positive class: {report.positive_label}",
        "",
        f"{'Metric':<12}{report.positive_label:>12}",
        f"{'Precision':<12}{m.precision:>12.4f}",
        f"{'Recall':<12}{m.recall:>12.4f}",
        f"{'F1-Score':<12}{m.f1:>12.4f}",
        f"{'Accuracy':<12}{m.accuracy:>12.4f}",
        "",
        f"confusion: tp={report.cm.tp} fp={report.cm.fp} fn={report.cm.fn} tn={report.cm.tn}"
        f" (n={report.cm.total})",
    ]
    return "\n".join(lines) + "\n"


def render_stats_text(stats: list, t_tests: list | None = None) -> str:
    """Aligned plain-text table of per-group descriptives (and t-tests)."""
    groups = sorted(stats[0]["groups"]) if stats else []
    width = max((len(name) for name in SUMMARY_FEATURES), default=10) + 2
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


def render_selection_text(report: SelectionReport) -> str:
    lines = [f"=== model selection ({report.folds}-fold CV, seed {report.seed}) ==="]
    for i, gen in enumerate(report.generations, start=1):
        lines.append(f"Generation {i}: {gen:.4f}")
    best = report.best
    lines.append(f"best pipeline: {best.candidate.describe()}")
    lines.append(f"mean CV score: {best.mean:.4f}")
    return "\n".join(lines) + "\n"
