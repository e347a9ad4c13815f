"""Standardization and K-nearest-neighbor classification.

The classifier is deliberately brute force: with a few thousand 16-d rows
an exhaustive distance scan is fast, and it doubles as the semantic
definition any accelerated search would have to match exactly. Neighbor
ties at equal distance go to the lower training-row index, and k is kept
odd so binary votes cannot tie. A query's neighbor ordering does not
depend on k, so grid selection orders the first max-k rows once per
(fold, scaler, p) and every k votes on a prefix of them. Only those rows
are sorted: a partition finds the max-k-th distance first.

One query loop, _neighbours, finds the neighbours of every query of
predict, evaluate and grid selection: for each p asked for, one
(queries, count) int array of each query's nearest training rows, nearest
first. One vote step, _vote, turns such an array and the training rows'
0/1 label codes into every k's winner and vote fraction with one
cumulative sum along the neighbour axis, so no query is voted on alone,
and grid selection counts a candidate's hits with one comparison.
_neighbours takes raw feature rows, standardizes them with the model's
scaler, and runs under one numpy error state in which a distance that
overflows float64 reads inf quietly: such a distance decides nothing
unless it is among a query's count nearest, and then the loop raises
DistanceOverflow. It answers each p by one of three paths:
- the scan, for a single query and for every p but 1 and 2: the query is
  differenced against every training row and every distance taken;
- the BLAS filter, for p = 2 and blocks of _BLOCK queries
  (_filtered_heads): one product ranks every training row by
  |t|^2 - 2 q.t, which orders rows as their squared distance does;
- the float32 filter, for p = 1 and blocks of _BLOCK queries (_l1_heads):
  each query's sum of |t - q| in float32, from a float32 copy of the
  training matrix, ranks the rows at half the bytes of the scan.
A filter takes an exact distance only for the rows its ranking cannot rule
out: those within a margin of the query's count-th ranked value, the margin
32 times a proven bound on the ranking's rounding error. So every head, tie
and overflow is the scan's.
All three paths take every exact distance from one distance kernel,
_minkowski, which works on a dimension-major copy of the training matrix
and adds a query's |a - b|^p terms left to right over the dimensions,
|a0 - b0|^p + |a1 - b1|^p + ..., one numpy reduction for all training
rows, then takes the 1/p root. So each distance is bit-identical to a
plain loop that adds a row's terms in turn. The kernel skips the steps
that change no bit: p = 2 squares without the absolute value and takes
np.sqrt, p = 1 takes neither power.

KnnModel is the one owner of what a valid model is: whether fitted,
loaded from a file or re-parameterized for a grid candidate, it checks
its k, p, matrix and labels on construction.

Models persist as one versioned JSON document whose first field, alone
on line 2, is the SHA-256 of every byte after that line, so any edit after
it, whitespace included, fails the check. save_model renders the training
matrix, nearly all of the file, with json's C encoder in chunks of rows
and streams them to the digest and the file.
"""

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import VocalScreenError, integer, number, real
from .features import Extraction

MODEL_SCHEMA_VERSION = 2
_DIGEST_LINE = re.compile(rb'{\n "digest": "([0-9a-f]{64})",\n')  # a model file's lines 1-2

# matrix rows per C-encoder call in save_model
_CHUNK_ROWS = 128

# queries per block of the p = 2 and p = 1 candidate filters, and the factor by
# which each filter's margin exceeds the first-order rounding bound its docstring
# derives; at or above the p = 2 filter's ceiling, where s could overflow, every
# row is a candidate
_BLOCK = 16
_MARGIN = 32
_CEILING = 2.0 ** 1021


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


class ScalerOverflow(VocalScreenError):
    pass


def as_matrix(features) -> np.ndarray:
    """Coerce a (rows, dims) array-like, or one feature row, to a 2-D float64 matrix.

    Raises VocalScreenError if a value is not a real number, or is NaN or infinite.
    """
    matrix = real(features, "a feature matrix")
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
    of dividing by zero. Means must be finite and stds finite and positive,
    both of bool, integer or float values.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = real(self.means, "scaler means")
        stds = real(self.stds, "scaler stds")
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
    """Scaler fitted to the rows of ``features``.

    Raises ScalerOverflow, naming the first such column, when a column's
    mean or std overflows float64.
    """
    matrix = as_matrix(features)
    if matrix.shape[0] == 0:
        raise EmptyTrainingSet("cannot fit a scaler on zero rows")
    with np.errstate(over="ignore", invalid="ignore"):
        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0)  # population std (divide by N)
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if len(bad):
        raise ScalerOverflow(f"feature column {bad[0]} (from 0): its mean or std"
                             f" overflows float64")
    stds = np.where(stds == 0.0, 1.0, stds)
    return ScalerParams(means=means, stds=stds)


def transform(scaler: ScalerParams, x) -> np.ndarray:
    """Standardize one feature row or a (rows, dims) matrix: (x - means) / stds, broadcast.

    Values that are not bool, integer or float raise VocalScreenError, as in as_matrix.
    """
    return (real(x, "a feature row") - scaler.means) / scaler.stds


def _minkowski(diffs: np.ndarray, p: float) -> np.ndarray:
    """Minkowski distances from a C-contiguous, dimension-major (dims, n) array of a - b.

    The one distance kernel: ``diffs`` is overwritten with |a - b|^p, its
    rows are added left to right, and the sums are taken to the 1/p. numpy
    reduces the first axis of such an array row by row when n >= 2, but
    sums a lone column, contiguous, pairwise, so that one is accumulated.
    Both power steps run on arrays, so a pair and a stack share them. p = 2
    squares a - b in place and takes np.sqrt of the sums, p = 1 sums
    |a - b| as it is; no bit changes, because numpy computes ``** 2.0`` as
    np.square and ``** 0.5`` as np.sqrt, (-x)^2 == x^2, and x ** 1.0 == x.
    Starting each sum at its first term, not at +0.0, changes no bit, as
    |a - b|^p is never -0.0. A NaN difference may keep its sign bit under
    p = 2.
    """
    if p == 2:
        np.square(diffs, out=diffs)
    else:
        np.abs(diffs, out=diffs)
        if p != 1:
            diffs **= p
    if diffs.shape[1] == 1:
        sums = np.add.accumulate(diffs)[-1]
    else:
        sums = np.add.reduce(diffs, axis=0)
    if p == 2:
        return np.sqrt(sums)
    return sums if p == 1 else sums ** (1.0 / p)


def check_k_and_p(k, p) -> None:
    """Reject a k that is not a positive odd int, or a p that is not a finite number >= 1.

    A bool is neither. Raises EvenK for an even k, ValueError for the rest.
    """
    if integer(k, "k") < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2 == 0:
        raise EvenK(f"k must be odd, got {k}")
    if not number(p, "p") >= 1:
        raise ValueError("p must be >= 1")
    if p == np.inf:  # every distance would read 1.0 and every query tie
        raise ValueError("p must be finite, got inf")


@dataclass(frozen=True)
class KnnModel:
    """Standardized training matrix plus the hyperparameters that query it.

    The matrix is finite, of bool, integer or float values, with one
    column per scaler dimension, the labels are strings of at most two
    values, k and p pass check_k_and_p, and ``extraction`` made the rows.
    """

    train_matrix: np.ndarray
    train_labels: tuple
    k: int
    p: float
    scaler: ScalerParams
    extraction: Extraction = Extraction()

    def __post_init__(self):
        matrix = real(self.train_matrix, "a train matrix")
        object.__setattr__(self, "train_matrix", matrix)
        object.__setattr__(self, "train_labels", tuple(self.train_labels))
        if matrix.ndim != 2 or matrix.shape[0] != len(self.train_labels):
            raise ValueError("train matrix rows must match label count")
        if matrix.shape[1] != len(self.scaler.means):
            raise ValueError("train matrix columns must match scaler dimensions")
        if not np.isfinite(matrix).all():
            raise ValueError("train matrix must be finite")
        if not all(map(isinstance, self.train_labels, repeat(str))):
            raise ValueError("labels must be strings")
        if len(set(self.train_labels)) > 2:
            raise ValueError(f"labels must be binary, got {sorted(set(self.train_labels))}")
        check_k_and_p(self.k, self.p)
        if matrix.shape[0] < self.k:
            raise TooFewSamples(f"{matrix.shape[0]} rows < k={self.k}")

    @cached_property
    def _dims_major(self) -> np.ndarray:
        """The training matrix as a C-contiguous (dims, rows) copy, made once per model.

        Its rows are the dimensions in order, the order _minkowski adds them in.
        """
        return np.ascontiguousarray(self.train_matrix.T)

    @cached_property
    def _squared_norms(self) -> np.ndarray:
        """|t|^2 of every training row, made once per model for _filtered_heads."""
        return np.einsum("ij,ij->j", self._dims_major, self._dims_major)

    @cached_property
    def _dims_major32(self) -> np.ndarray:
        """_dims_major rounded to float32, made once per model for _l1_heads.

        A value past float32's range reads inf; _l1_heads then takes every row.
        """
        return self._dims_major.astype(np.float32)

    @cached_property
    def _l1_norm_max(self) -> float:
        """The largest sum |t_i| of a training row, made once per model for _l1_heads."""
        return np.add.reduce(np.abs(self._dims_major), axis=0).max()

    @cached_property
    def _encoded(self) -> tuple:
        """_encode of the training labels, made once per model for _vote."""
        return _encode(self.train_labels)


def _encode(labels) -> tuple:
    """(the distinct labels sorted, each label's index among them as an int array).

    For binary labels the indices are the 0/1 codes _vote counts, and the
    lower label has code 0.
    """
    classes = sorted(set(labels))
    index = {label: code for code, label in enumerate(classes)}
    return classes, np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))


def knn_fit(features, labels, k: int = 3, p: float = 2.0,
            scaler: ScalerParams | None = None, extraction: Extraction = Extraction()) -> KnnModel:
    """Store the standardized training set; KNN has no other learning step.

    ``scaler`` defaults to the identity (no standardization); ``extraction``
    records how the features were extracted. Labels must be binary and k odd
    so prediction votes cannot tie.
    """
    matrix = as_matrix(features)
    labels = tuple(str(label) for label in labels)
    if matrix.shape[0] == 0:
        raise EmptyTrainingSet("cannot fit a model on zero rows")
    if scaler is None:
        scaler = identity_scaler(matrix.shape[1])
    standardized = transform(scaler, matrix)
    return KnnModel(train_matrix=standardized, train_labels=labels, k=k, p=p,
                    scaler=scaler, extraction=extraction)


def _differences(model: KnnModel, query: np.ndarray) -> np.ndarray:
    """Training rows minus a standardized query, dimension-major: _minkowski's input."""
    columns = model._dims_major
    # one flat subtract from the query repeated along each dimension's row; numpy
    # buffers the broadcast form of this subtract, which measured slower
    diffs = np.repeat(query, columns.shape[1]).reshape(columns.shape)
    return np.subtract(columns, diffs, out=diffs)


def _nearest(d: np.ndarray, count: int) -> tuple:
    """(count-th distance, the first ``count`` indices of the distances d as an int array).

    Equal distances go to the lower row index, so the indices are the head
    of the full stable argsort; only the rows at or below the count-th
    distance are sorted.
    """
    kth = np.partition(d, count - 1)[count - 1]
    # every row tied with or nearer than the count-th, in index order, so the
    # stable sort keeps the tie rule; "not >" also keeps NaN, which sorts last
    head = np.flatnonzero(~(d > kth))
    return kth, head[np.argsort(d[head], kind="stable")][:count]


def _filtered_heads(model: KnnModel, queries: np.ndarray, count: int, out: np.ndarray) -> tuple:
    """_nearest's first ``count`` p = 2 rows for each of a block of queries, found through a filter.

    Returns (the count-th distance of each query, a (queries, count) int
    array of each query's rows), as _nearest gives them for one query, and
    leaves numpy's error state to the caller, _neighbours.
    ``out`` is a float64 work array of shape (2, at least len(queries),
    training rows), which the caller reuses across blocks: at 16 queries
    of 1624 rows each half is above malloc's mmap threshold, and fresh
    ones, each page faulted in anew, measured to double this function's
    time.

    1. Filter: one BLAS product gives s = |t|^2 - 2 q.t for every query q
       of the block and training row t; s lacks only |q|^2 of |t - q|^2.
    2. Candidates: every row whose s is not above kth + margin, kth the
       count-th smallest s of the query. A NaN s keeps its row, so a block
       whose filter overflows scans every row.
    3. Exact distances of the candidates by _minkowski, which sums each
       column on its own, left to right, so each has the bits the full
       scan gives it.
    4. Each query's candidates ordered by (distance, row): _nearest's head.

    No nearest row is lost. Let u = 2^-53, d the dimension count and
    M = |q|^2 + max|t|^2, and bound rounding to first order in u as in
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1.
    The dot products |t|^2 and q.t are within d u of the sums of their
    terms' magnitudes in any summation order, so for any BLAS and thread
    count; those sums are at most M and |q||t| <= M / 2, and the last
    addition adds u |s| <= 2 u M, so s is within 2(d + 1) u M of
    |t|^2 - 2 q.t. The kernel's squared distance, d rounded squares of
    rounded differences added left to right, is within (d + 2) u of
    |t - q|^2 <= 2M, relatively (3 u per term, and (d - 1) u for the
    recursive sum of non-negative terms, §4.2), and its square root rounds
    monotonically.
    If row j is among the count nearest but not among the count of
    smallest s, one of those, r, ranks after j, so
    |t_j - q|^2 <= |t_r - q|^2 + 4(d + 4) u M and s_j <= kth + 8(d + 4) u M.
    An underflow adds at most u 2^-1022 to a product, and the sums above
    weigh at most 8d products, so the bound is 8(d + 4) u (M + 2^-1022);
    the margin is 32 times that, which also covers the second-order terms.
    It needs every value to stay below about 2M, so from M >= _CEILING on
    every row is a candidate.
    """
    columns = model._dims_major
    dims = len(columns)
    s, ranked = out[:, :len(queries)]
    np.matmul(-2.0 * queries, columns, out=s)  # scaling by -2 is exact
    s += model._squared_norms
    np.copyto(ranked, s)
    ranked.partition(count - 1, axis=1)
    kth = ranked[:, count - 1]
    scale = np.einsum("ij,ij->i", queries, queries) + model._squared_norms.max()
    margin = _MARGIN * 8 * 2.0 ** -53 * (dims + 4) * (scale + 2.0 ** -1022)
    limit = np.where(scale < _CEILING, kth + margin, np.inf)
    return _candidate_heads(model, queries, count, 2.0, s, limit)


def _l1_heads(model: KnnModel, queries: np.ndarray, count: int, out: np.ndarray) -> tuple:
    """_nearest's first ``count`` p = 1 rows for each of a block of queries, found through a filter.

    Returns what _filtered_heads returns, for p = 1, and leaves numpy's
    error state to the caller, _neighbours. ``out`` is a float32 work
    array of shape (2, at least len(queries), training rows), which the
    caller reuses across blocks, as for _filtered_heads.

    1. Filter: each query's sum of |t - q| over the dimensions, all in
       float32, from a float32 copy of the dimension-major training matrix:
       half the bytes of the float64 scan, and no exact distance yet.
    2. Candidates: every row whose float32 sum is not above kth + 2 margin,
       kth the count-th smallest sum of the query, the limit rounded up to
       float32 so that the comparison stays in float32. A NaN sum keeps its
       row.
    3. Exact distances of the candidates, and
    4. each query's candidates ordered by (distance, row), by
       _candidate_heads, as for _filtered_heads.

    No nearest row is lost. Let u = 2^-24, d the dimension count,
    S_t = max over training rows of sum |t_i| and S_q = sum |q_i|, and
    bound rounding to first order in u as in Higham, §3.1. Rounding t and
    q to float32 moves each term |t_i - q_i| by at most u (|t_i| + |q_i|),
    their float32 difference adds u of that again, and the float32 sum of
    d non-negative terms adds at most (d - 1) u of their total (§4.2), so
    the float32 sum is within (d + 1) u (S_t + S_q) of the real sum of
    |t_i - q_i|; the kernel's float64 distance is within d 2^-53 (S_t + S_q)
    of it, less than u (S_t + S_q). So the two are within
    B = (d + 2) u (S_t + S_q), plus at most 2^-150 for each of the 2d
    values that float32 rounds below its smallest normal, 2^-126
    (float32 differences and sums below it are exact), which
    (d + 2) u 2^-125 covers; the margin is 32 times that bound. If row j is
    among the count nearest but not among the count of smallest sums, one
    of those, r, ranks after j, so the sum of j is at most
    dist_j + B <= dist_r + B <= sum_r + 2B <= kth + 2B. It needs every
    float32 value to stay below float32's largest, about 2^128, which
    holds while S_t + S_q < 2^126; from there on every row is a candidate.
    """
    columns = model._dims_major32
    dims = len(columns)
    sums, ranked = out[:, :len(queries)]
    for query, total in zip(queries.astype(np.float32), sums):
        # the four calls of _differences and _minkowski, in float32
        diffs = np.repeat(query, columns.shape[1]).reshape(columns.shape)
        np.abs(np.subtract(columns, diffs, out=diffs), out=diffs)
        np.add.reduce(diffs, axis=0, out=total)
    np.copyto(ranked, sums)
    ranked.partition(count - 1, axis=1)
    kth = ranked[:, count - 1].astype(float)
    scale = np.abs(queries).sum(axis=1) + model._l1_norm_max
    margin = _MARGIN * 2.0 ** -24 * (dims + 2) * (scale + 2.0 ** -125)
    limit = np.where(scale < 2.0 ** 126, kth + 2 * margin, np.inf)
    # one float32 step above the nearest float32 is at or above the limit
    rounded = np.nextafter(limit.astype(np.float32), np.float32(np.inf))
    return _candidate_heads(model, queries, count, 1.0, sums, rounded)


def _candidate_heads(model: KnnModel, queries: np.ndarray, count: int, p: float,
                     s: np.ndarray, limit: np.ndarray) -> tuple:
    """(count-th distance, first ``count`` rows) of each query from a filter's candidates.

    The candidates of query i are the training rows j whose filter value
    s[i, j] is not above limit[i]: at least count of them, and never fewer
    than every row among its count nearest. Their exact distances come from
    _minkowski, which sums each column on its own, left to right, so each
    has the bits the full scan gives it, and each query's candidates are
    ordered by (distance, row): _nearest's head.
    """
    # a flat index search, which measured three times as fast as np.nonzero's pair
    which, rows = np.divmod(np.flatnonzero(~(s > limit[:, None])), s.shape[1])
    diffs = model._dims_major.take(rows, axis=1)  # C-contiguous, unlike [:, rows]
    distances = _minkowski(np.subtract(diffs, queries.T[:, which], out=diffs), p)
    order = np.lexsort((rows, distances, which))
    counts = np.bincount(which, minlength=len(queries))
    starts = np.cumsum(counts) - counts  # every query has at least count candidates
    return distances[order][starts + count - 1], rows[order][starts[:, None] + np.arange(count)]


def _neighbours(model: KnnModel, rows, counts: dict) -> dict:
    """The nearest training rows of raw feature rows for every p of ``counts``, {p: count}.

    Returns {p: (queries, count) int array}, each row a query's first
    ``count`` rows of the stable argsort of its distances. The rows are
    standardized with the model's scaler, and the whole call runs with
    overflow and invalid values quiet: an overflowing distance reads inf,
    and a query raises DistanceOverflow, naming p, only when its count-th
    nearest distance is inf (training rows are finite, so only an overflow
    reads inf). The first such query in row order raises, for the first p
    it fails on in ``counts`` order, whichever path answers it. Given more
    than one row, p = 2 is answered for a block of _BLOCK queries at a
    time by _filtered_heads and p = 1 by _l1_heads; every other p is a
    scan of its own differences. Each query's differences are freed only
    when the next ones are made: freed at once, they measured slower to
    allocate again.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        queries = transform(model.scaler, rows)
        kths = np.empty((len(queries), len(counts)))
        neighbours = {}
        for j, (p, count) in enumerate(counts.items()):
            heads = neighbours[p] = np.empty((len(queries), count), dtype=np.intp)
            if len(queries) > 1 and p in (1, 2):
                filtered, dtype = (_l1_heads, np.float32) if p == 1 else (_filtered_heads, float)
                work = np.empty((2, _BLOCK, len(model.train_labels)), dtype)
                for start in range(0, len(queries), _BLOCK):
                    block = slice(start, start + _BLOCK)
                    kths[block, j], heads[block] = filtered(model, queries[block], count, work)
            else:
                for i, query in enumerate(queries):
                    diffs = _differences(model, query)
                    kths[i, j], heads[i] = _nearest(_minkowski(diffs, p), count)
    failed = np.flatnonzero(kths == np.inf)  # row-major: by query, then by p
    if len(failed):
        p, count = list(counts.items())[failed[0] % len(counts)]
        raise DistanceOverflow(f"p = {p!r}: the distance |a - b|^p to nearest row"
                               f" {count} overflows float64")
    return neighbours


def _vote(neighbours: np.ndarray, codes: np.ndarray, ks) -> dict:
    """Uniform vote of each query's first k neighbours for every k in ks.

    ``neighbours`` is a (queries, at least max(ks)) int array of training
    rows, nearest first, and ``codes`` the 0/1 label code of every training
    row. One cumulative sum along the neighbour axis counts the code-1
    votes among the first k for every k at once -> {k: (winning codes,
    vote fractions)}, one of each per query; a tie, which an odd k cannot
    reach, goes to code 0, the lower label.
    """
    ones = np.cumsum(codes[neighbours], axis=1)
    votes = {}
    for k in ks:
        top = ones[:, k - 1]
        votes[k] = (2 * top > k).astype(np.intp), np.maximum(top, k - top) / k
    return votes


def _predict_rows(model: KnnModel, rows) -> list:
    """(label, vote fraction) of each raw feature row, by the model's own k and p."""
    neighbours = _neighbours(model, rows, {model.p: model.k})[model.p]
    classes, codes = model._encoded
    winners, fractions = _vote(neighbours, codes, (model.k,))[model.k]
    return [(classes[code], fraction)
            for code, fraction in zip(winners.tolist(), fractions.tolist())]


def knn_predict(model: KnnModel, v) -> tuple:
    """Classify one vector -> (label, vote fraction for that label).

    The k nearest standardized training rows vote uniformly; equal
    distances are broken by lower row index. A query that is not one
    finite row of the model's width, of bool, integer or float values,
    raises VocalScreenError. Raises DistanceOverflow if the k-th nearest
    distance overflows float64; a farther row's overflow changes no answer
    and warns of nothing.
    """
    query = real(v, "a query")
    if query.shape != model.scaler.means.shape:
        raise VocalScreenError(f"a query must be one row of {len(model.scaler.means)}"
                               f" feature values, got shape {query.shape}")
    if not np.isfinite(query).all():
        raise VocalScreenError(f"query value {np.flatnonzero(~np.isfinite(query))[0]}"
                               f" is not finite")
    return _predict_rows(model, query[None])[0]


def _indented_rows(chunk: str) -> str:
    """Compact matrix rows, '[1.0,2.0],[3.0,4.0]', in json's indent=1 layout at depth 3.

    The rows hold only numbers, so no comma or bracket sits inside a string.
    """
    values = chunk[1:-1].replace(",", ",\n    ").replace("],\n    [", "\n   ],\n   [\n    ")
    return f"   [\n    {values}\n   ]"


def save_model(model: KnnModel, path) -> None:
    """Write the model file: json.dump(payload, fh, indent=1, sort_keys=True) and a newline.

    Those are the bytes written; "digest", the first key, holds the SHA-256
    of every byte after its own line. json's C encoder runs only without
    indent, so the payload is rendered indented with an empty matrix and a
    digest of zeros, the matrix compact in chunks of _CHUNK_ROWS rows, each
    re-indented. Each piece after the digest line is written and hashed in
    turn, so the text is never held whole; the digest overwrites the zeros.
    """
    payload = {"digest": "0" * 64, "version": MODEL_SCHEMA_VERSION, "k": model.k, "p": model.p,
               "scaler": {"means": model.scaler.means.tolist(),
                          "stds": model.scaler.stds.tolist()},
               **asdict(model.extraction),
               "train": {"matrix": [], "labels": list(model.train_labels)}}
    head, _, tail = (json.dumps(payload, indent=1, sort_keys=True).encode()
                     .rpartition(b'"matrix": []'))
    line = _DIGEST_LINE.match(head)
    matrix, digest = model.train_matrix, hashlib.sha256()
    with open(path, "wb") as fh:
        def write(data: bytes) -> None:
            fh.write(data)
            digest.update(data)
        fh.write(head[:line.end()])
        write(head[line.end():] + b'"matrix": [\n')
        for start in range(0, len(matrix), _CHUNK_ROWS):
            rows = json.dumps(matrix[start:start + _CHUNK_ROWS].tolist(), separators=(",", ":"))
            write((b",\n" if start else b"") + _indented_rows(rows[1:-1]).encode())
        write(b"\n  ]" + tail + b"\n")
        fh.seek(line.start(1))
        fh.write(digest.hexdigest().encode())


def load_model(path) -> KnnModel:
    """Load a UTF-8 model file, verifying its version (the integer MODEL_SCHEMA_VERSION), then
    its digest line and digest. A file that is not a valid model, digest or not, raises a
    VocalScreenError naming it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        payload = json.loads(data.decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptModelFile(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise CorruptModelFile(f"{path}: missing version field")
    if type(payload["version"]) is not int or payload["version"] != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: version {payload['version']!r}, expected"
                                    f" {MODEL_SCHEMA_VERSION}")
    line = _DIGEST_LINE.match(data)
    if line is None:
        raise CorruptModelFile(f"{path}: line 2 is not the digest line")
    if hashlib.sha256(memoryview(data)[line.end():]).hexdigest() != line[1].decode():
        raise CorruptModelFile(f"{path}: digest mismatch")
    try:
        return KnnModel(
            train_matrix=payload["train"]["matrix"],
            train_labels=payload["train"]["labels"],
            k=payload["k"],
            p=payload["p"],
            scaler=ScalerParams(means=payload["scaler"]["means"], stds=payload["scaler"]["stds"]),
            extraction=Extraction.from_record(payload),
        )
    except KeyError as exc:
        raise CorruptModelFile(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, VocalScreenError) as exc:
        raise CorruptModelFile(f"{path}: invalid model: {exc}") from exc
