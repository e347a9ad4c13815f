"""Standardization and K-nearest-neighbor classification.

The classifier is deliberately brute force: with a few thousand 16-d rows
an exhaustive distance scan is fast, and it doubles as the semantic
definition any accelerated search would have to match exactly. Neighbor
ties at equal distance go to the lower training-row index, and k is kept
odd so binary votes cannot tie. A query's neighbor ordering does not
depend on k, so grid selection orders the first max-k rows once per
(fold, scaler, p) and every k votes on a prefix of them. Only those rows
are sorted: a partition finds the max-k-th distance first.

One kernel, _minkowski, computes every distance for minkowski_distance,
predict, evaluate and grid selection. A model keeps its training matrix
dimension-major, and a query's |a - b|^p terms are summed over
dimensions with whole-row vector adds in np.sum's pairwise order, so each
distance is bit-identical to np.sum(np.abs(a - b) ** p, axis=-1) ** (1 / p).

Models persist as one versioned JSON document with a SHA-256 digest over
the canonical serialization of every other field, so corruption and
schema drift are detected on load.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import VocalScreenError
from .features import FeatureConfig

MODEL_SCHEMA_VERSION = 1


class EmptyTrainingSet(VocalScreenError):
    pass


class TooFewSamples(VocalScreenError):
    pass


class EvenK(VocalScreenError):
    pass


class SchemaVersionMismatch(VocalScreenError):
    pass


class CorruptModelFile(VocalScreenError):
    pass


class DistanceOverflow(VocalScreenError):
    pass


def as_matrix(features) -> np.ndarray:
    """Coerce a (rows, dims) array-like, or one feature row, to a 2-D float64 matrix.

    Raises VocalScreenError if any value is NaN or infinite.
    """
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim < 2:  # one feature row is a matrix of one row, an empty list of none
        matrix = matrix.reshape(min(matrix.size, 1), matrix.size)
    bad_rows = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if len(bad_rows):
        raise VocalScreenError(f"feature matrix row {bad_rows[0]} holds a non-finite value")
    return matrix


@dataclass(frozen=True)
class ScalerParams:
    """Per-dimension means and population standard deviations.

    Zero-variance dimensions store std 1 so they transform to 0 instead
    of dividing by zero. Means must be finite and stds finite and positive.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        if means.shape != stds.shape or means.ndim != 1 or not means.size:
            raise ValueError("means and stds must be 1-D, non-empty and the same length")
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            raise ValueError("means and stds must be finite")
        if not np.all(stds > 0):
            raise ValueError("stds must be positive")


def identity_scaler(dim: int) -> ScalerParams:
    """Scaler that leaves vectors unchanged (the scaler-off pipeline arm)."""
    return ScalerParams(means=np.zeros(dim), stds=np.ones(dim))


def fit_scaler(features) -> ScalerParams:
    matrix = as_matrix(features)
    if matrix.shape[0] == 0:
        raise EmptyTrainingSet("cannot fit a scaler on zero rows")
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)  # population std (divide by N)
    stds = np.where(stds == 0.0, 1.0, stds)
    return ScalerParams(means=means, stds=stds)


def transform(scaler: ScalerParams, x) -> np.ndarray:
    """Standardize one feature row or a (rows, dims) matrix: (x - means) / stds, broadcast."""
    return (np.asarray(x, dtype=np.float64) - scaler.means) / scaler.stds


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Sum the rows of ``terms`` into ``terms[0]`` in np.sum's pairwise order.

    Each column is added up exactly as np.sum adds the values of one
    contiguous row: sequentially below 8 values; up to 128, in eight
    running sums (value i goes to sum i mod 8), combined pairwise, then
    the tail of n mod 8 values in turn; above 128, as two halves split at
    a multiple of 8. Every step is a whole-row vector add. Skipping
    np.sum's +0.0 start changes no bit unless a column is all -0.0,
    which |a - b|^p never is.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _sum_rows(terms[:half])
        terms[0] += _sum_rows(terms[half:])
        return terms[0]
    tail = 1  # below 8 rows, every row after the first
    if n >= 8:
        tail = n - n % 8
        for start in range(8, tail, 8):
            terms[:8] += terms[start:start + 8]
        for step in (1, 2, 4):  # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
            for row in range(0, 8, 2 * step):
                terms[row] += terms[row + step]
    for row in terms[tail:]:
        terms[0] += row
    return terms[0]


def _minkowski(diffs: np.ndarray, p: float) -> np.ndarray:
    """Minkowski distances from a dimension-major (dims, ...) array of a - b.

    The one distance kernel: ``diffs`` is overwritten with |a - b|^p,
    summed over dimensions by _sum_rows, and the sums are taken to the
    1/p. Both power steps run on arrays, so a pair and a stack share them.
    """
    np.abs(diffs, out=diffs)
    diffs **= p
    return _sum_rows(diffs) ** (1.0 / p)


def overflow_guard():
    """Numpy error state for a batch of KNN queries: |a - b|^p overflows quietly.

    A distance that overflows float64 reads inf, which decides nothing
    while at least k distances stay finite; _nearest_rows raises
    DistanceOverflow, naming p, when one of the inf rows would be chosen.
    Enter it once per batch of queries: numpy's error state costs about
    2 % of one query.
    """
    return np.errstate(over="ignore")


def minkowski_distance(a, b, p: float = 2.0):
    """(sum |a_i - b_i|^p)^(1/p) over the last axis; a metric for p >= 1.

    a and b broadcast: one pair gives a float, one query against a
    (rows, dims) matrix gives one distance per row. Every distance is
    bit-identical to np.sum(np.abs(a - b) ** p, axis=-1) ** (1 / p).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ValueError("vectors need at least one dimension")
    diffs = a - b
    # a pair goes through as a stack of one
    distances = _minkowski(np.moveaxis(np.atleast_2d(diffs), -1, 0), p)
    return float(distances[0]) if diffs.ndim == 1 else distances


@dataclass(frozen=True)
class KnnModel:
    """Standardized training matrix plus the hyperparameters that query it.

    The matrix has one column per scaler dimension, k is positive and
    odd, and p >= 1.
    """

    train_matrix: np.ndarray
    train_labels: tuple
    k: int
    p: float
    scaler: ScalerParams
    feature_config: FeatureConfig

    def __post_init__(self):
        matrix = np.asarray(self.train_matrix, dtype=np.float64)
        object.__setattr__(self, "train_matrix", matrix)
        object.__setattr__(self, "train_labels", tuple(self.train_labels))
        if matrix.ndim != 2 or matrix.shape[0] != len(self.train_labels):
            raise ValueError("train matrix rows must match label count")
        if matrix.shape[1] != len(self.scaler.means):
            raise ValueError("train matrix columns must match scaler dimensions")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k % 2 == 0:
            raise EvenK(f"k must be odd, got {self.k}")
        if matrix.shape[0] < self.k:
            raise TooFewSamples(f"{matrix.shape[0]} rows < k={self.k}")
        if not self.p >= 1:
            raise ValueError("p must be >= 1")

    @cached_property
    def _dims_major(self) -> np.ndarray:
        """The training matrix as a C-contiguous (dims, rows) copy, made once per model."""
        return np.ascontiguousarray(self.train_matrix.T)

    @property
    def feature_config_digest(self) -> str:
        return _payload_digest(asdict(self.feature_config))


def knn_fit(features, labels, k: int = 3, p: float = 2.0,
            scaler: ScalerParams | None = None,
            feature_config: FeatureConfig = FeatureConfig()) -> KnnModel:
    """Store the standardized training set; KNN has no other learning step.

    ``scaler`` defaults to the identity (no standardization), and
    ``feature_config`` records the constants the features were extracted
    with. Labels must be binary and k odd so prediction votes cannot tie.
    """
    matrix = as_matrix(features)
    labels = tuple(str(label) for label in labels)
    if matrix.shape[0] != len(labels):
        raise ValueError("features and labels must have the same length")
    if matrix.shape[0] == 0:
        raise EmptyTrainingSet("cannot fit a model on zero rows")
    if len(set(labels)) > 2:
        raise ValueError(f"labels must be binary, got {sorted(set(labels))}")
    if scaler is None:
        scaler = identity_scaler(matrix.shape[1])
    standardized = transform(scaler, matrix)
    return KnnModel(train_matrix=standardized, train_labels=labels, k=k, p=p,
                    scaler=scaler, feature_config=feature_config)


def _distances(model: KnnModel, v) -> np.ndarray:
    """Distance from v to every training row, one dimension-major pass of _minkowski."""
    columns = model._dims_major
    # one flat subtract from the query repeated along each dimension's row; numpy
    # buffers the broadcast form of this subtract, which measured slower
    diffs = np.repeat(transform(model.scaler, v), columns.shape[1]).reshape(columns.shape)
    return _minkowski(np.subtract(columns, diffs, out=diffs), model.p)


def _nearest_rows(model: KnnModel, v, count: int) -> list:
    """The first ``count`` training-row indices by increasing distance to v.

    Equal distances go to the lower row index, so this is the head of the
    full stable argsort; only the rows at or below the count-th distance
    are sorted.
    """
    d = _distances(model, v)
    kth = np.partition(d, count - 1)[count - 1]
    if kth == np.inf:  # training rows are finite, so only an overflow reads inf
        raise DistanceOverflow(f"p = {model.p!r}: the distance |a - b|^p to nearest row"
                               f" {count} overflows float64")
    # every row tied with or nearer than the count-th, in index order, so the
    # stable sort keeps the tie rule; "not >" also keeps NaN, which sorts last
    head = np.flatnonzero(~(d > kth))
    return head[np.argsort(d[head], kind="stable")][:count].tolist()


def _votes(model: KnnModel, nearest: list, ks) -> dict:
    """Uniform vote of the first k ``nearest`` rows for every k in ks.

    One running label count over the first max(ks) rows gives each k its
    winner -> {k: (label, vote fraction)}.
    """
    votes, winners = {}, {}
    winner = None
    for count, idx in enumerate(nearest[:max(ks)], 1):
        label = model.train_labels[idx]
        votes[label] = n = votes.get(label, 0) + 1
        # only the label just counted can take the lead; a tie goes to the lower
        # label, so even an (impossible) even vote has one winner
        if winner is None or (n, winner) > (votes[winner], label):
            winner = label
        if count in ks:
            winners[count] = (winner, votes[winner] / count)
    return winners


def knn_predict(model: KnnModel, v) -> tuple:
    """Classify one vector -> (label, vote fraction for that label).

    The k nearest standardized training rows vote uniformly; equal
    distances are broken by lower row index. Raises DistanceOverflow if
    the k-th nearest distance overflows; run queries inside
    ``overflow_guard()`` to keep the overflows of farther rows quiet.
    """
    return _votes(model, _nearest_rows(model, v, model.k), (model.k,))[model.k]


def _model_payload(model: KnnModel) -> dict:
    return {
        "version": MODEL_SCHEMA_VERSION,
        "k": model.k,
        "p": model.p,
        "scaler": {
            "means": [float(x) for x in model.scaler.means],
            "stds": [float(x) for x in model.scaler.stds],
        },
        "feature_config": asdict(model.feature_config),
        "train": {
            "matrix": [[float(x) for x in row] for row in model.train_matrix],
            "labels": list(model.train_labels),
        },
    }


def _payload_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_model(model: KnnModel, path) -> None:
    payload = _model_payload(model)
    payload["digest"] = _payload_digest(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> KnnModel:
    """Load a model file, verifying schema version and integrity digest.

    A file that is not a valid model, digest or not, raises a
    VocalScreenError naming it.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModelFile(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise CorruptModelFile(f"{path}: missing version field")
    if payload["version"] != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: version {payload['version']}, expected {MODEL_SCHEMA_VERSION}"
        )
    stored_digest = payload.pop("digest", None)
    if stored_digest != _payload_digest(payload):
        raise CorruptModelFile(f"{path}: digest mismatch")
    try:
        config, names = payload["feature_config"], {f.name for f in fields(FeatureConfig)}
        if not isinstance(config, dict) or config.keys() != names:
            raise ValueError(f"feature_config must be an object with exactly the fields "
                             f"{', '.join(sorted(names))}")
        fitted = KnnModel(
            train_matrix=payload["train"]["matrix"],
            train_labels=payload["train"]["labels"],
            k=payload["k"],
            p=payload["p"],
            scaler=ScalerParams(means=payload["scaler"]["means"], stds=payload["scaler"]["stds"]),
            feature_config=FeatureConfig(**config),
        )
        # knn_fit guarantees these; a file has to be checked
        if not isinstance(fitted.k, int):
            raise ValueError(f"k must be an integer, got {fitted.k!r}")
        if not np.isfinite(fitted.train_matrix).all():
            raise ValueError("train matrix must be finite")
        if not all(isinstance(label, str) for label in fitted.train_labels):
            raise ValueError("labels must be strings")
        return fitted
    except KeyError as exc:
        raise CorruptModelFile(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, VocalScreenError) as exc:
        raise CorruptModelFile(f"{path}: invalid model: {exc}") from exc
