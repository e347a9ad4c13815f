import builtins
import copy
import hashlib
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import traced_peak, write_redigested
from oracles import knn_scan
from vocalscreen.errors import VocalScreenError
from vocalscreen.evaluation import PipelineCandidate, grid_select
from vocalscreen.features import Extraction, FeatureConfig
from vocalscreen.model import (
    _CHUNK_ROWS,
    CorruptModelFile,
    DistanceOverflow,
    KnnModel,
    EmptyTrainingSet,
    EvenK,
    ScalerOverflow,
    ScalerParams,
    SchemaVersionMismatch,
    TooFewSamples,
    as_matrix,
    fit_scaler,
    identity_scaler,
    knn_fit,
    knn_predict,
    load_model,
    save_model,
    transform,
    _differences,
    _encode,
    _filtered_heads,
    _minkowski,
    _nearest,
    _neighbours,
    _vote,
)
from vocalscreen.preprocess import SilenceParams


# --- scaler -----------------------------------------------------------------


def test_fit_scaler_two_points():
    scaler = fit_scaler(np.array([[0.0], [2.0]]))
    assert scaler.means.tolist() == [1.0]
    assert scaler.stds.tolist() == [1.0]  # population std of {0, 2}


def test_fit_scaler_constant_dimension():
    scaler = fit_scaler(np.array([[5.0, 1.0], [5.0, 3.0]]))
    assert scaler.stds[0] == 1.0
    transformed = transform(scaler, np.array([[5.0, 1.0], [5.0, 3.0]]))
    assert np.all(transformed[:, 0] == 0.0)


def test_fit_scaler_postconditions():
    rng = np.random.default_rng(31)
    matrix = rng.normal(3.0, 7.0, size=(200, 16))
    scaler = fit_scaler(matrix)
    standardized = transform(scaler, matrix)
    assert np.max(np.abs(standardized.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(standardized.std(axis=0) - 1.0)) <= 1e-9


def test_fit_scaler_empty():
    with pytest.raises(EmptyTrainingSet):
        fit_scaler(np.zeros((0, 16)))
    with pytest.raises(EmptyTrainingSet):
        fit_scaler([])


def test_fit_scaler_overflow_names_column():
    # numpy's overflow warning would fail the test: the moments are taken quietly
    matrix = np.ones((4, 3))
    matrix[:, 2] = [1e200, 2e200, 1e200, 2e200]  # the mean is finite, the variance overflows
    with pytest.raises(ScalerOverflow, match=r"^feature column 2 \(from 0\): its mean or std"):
        fit_scaler(matrix)
    matrix[:2, 1] = 1.7e308  # the sum, and so the mean, overflows
    with pytest.raises(ScalerOverflow, match=r"^feature column 1 \(from 0\): "):
        fit_scaler(matrix)


def test_knn_fit_empty():
    for features in ([], np.zeros((0, 16))):
        with pytest.raises(EmptyTrainingSet):
            knn_fit(features, [])


def test_scaler_params_must_be_finite():
    # a NaN mean or an infinite std passes the positivity check, so only the
    # finiteness check rejects them
    for means, stds in (([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf])):
        with pytest.raises(ValueError, match="^means and stds must be finite$"):
            ScalerParams(means=means, stds=stds)


def test_as_matrix_takes_one_row_as_a_matrix_of_one_row():
    assert as_matrix([1.0, 2.0, 3.0]).shape == (1, 3)
    assert as_matrix([]).shape == (0, 0)
    assert as_matrix(np.zeros((0, 16))).shape == (0, 16)


def test_transform_identities():
    scaler = fit_scaler(np.array([[1.0, 2.0], [3.0, 6.0]]))
    assert transform(scaler, scaler.means).tolist() == [0.0, 0.0]
    ident = identity_scaler(2)
    v = np.array([0.3, -0.7])
    assert transform(ident, v).tolist() == v.tolist()


@pytest.mark.parametrize("fit", [fit_scaler, lambda m: knn_fit(m, ["control"] * len(m), k=1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(fit, bad):
    matrix = np.ones((4, 3))
    matrix[2, 1] = matrix[3, 0] = bad  # the first such row is named
    with pytest.raises(VocalScreenError, match="row 2 holds a non-finite value"):
        fit(matrix)
    with pytest.raises(VocalScreenError, match="row 2"):
        fit([list(row) for row in matrix])


def test_model_layer_takes_only_real_numbers():
    # numeric text was fitted as floats, and a complex matrix lost its imaginary
    # part with only a ComplexWarning; bool and integer values are numbers
    text = [["1.5"] * 16, ["2.5"] * 16, ["0.5"] * 16]
    with pytest.raises(VocalScreenError, match="^a feature matrix must hold real numbers,"
                                               " got dtype <U3"):
        knn_fit(text, ["control", "depression", "control"], k=1)
    with pytest.raises(VocalScreenError, match="^a feature matrix .* got dtype complex128"):
        fit_scaler(np.ones((3, 2)) + 1j)
    with pytest.raises(VocalScreenError, match="^scaler means must hold real numbers"):
        ScalerParams(means=["0.5"], stds=[1.0])
    with pytest.raises(VocalScreenError, match="^scaler stds .* got dtype object"):
        ScalerParams(means=[0.5], stds=[None])
    with pytest.raises(VocalScreenError, match="^a train matrix must hold real numbers"):
        KnnModel(train_matrix=[["1.5"]], train_labels=["control"], k=1, p=2.0,
                 scaler=identity_scaler(1))
    with pytest.raises(VocalScreenError, match="^a feature row must hold real numbers"):
        transform(identity_scaler(2), ["1.5", "2.5"])
    assert as_matrix([[True, 2], [0, 3]]).tolist() == [[1.0, 2.0], [0.0, 3.0]]
    assert as_matrix(np.ones((2, 2), dtype=np.float32)).dtype == np.float64


# --- minkowski ----------------------------------------------------------------


def query_distances(model, query):
    """Distances from a raw query to every training row, as model._neighbours computes them."""
    return _minkowski(_differences(model, transform(model.scaler, query)), model.p)


def test_differences_allocate_one_array():
    # the query is repeated into one (dims, rows) array and subtracted in place
    model = knn_fit(np.random.default_rng(28).normal(size=(4000, 16)), ["control"] * 4000, k=1)
    query = np.zeros(16)
    _differences(model, query)  # the dimension-major copy is made once, outside the trace
    assert traced_peak(_differences, model, query) < 1.5 * model._dims_major.nbytes


def distance(a, b, p):
    """The distance of one pair: a query against a model of one row."""
    return float(query_distances(knn_fit([b], ["control"], k=1, p=p), a)[0])


def test_minkowski_examples():
    assert distance([1.0, 2.0], [1.0, 2.0], 2.0) == 0.0
    assert distance([0.0, 0.0], [3.0, 4.0], 2.0) == pytest.approx(5.0)
    assert distance([0.0, 0.0], [3.0, 4.0], 1.0) == pytest.approx(7.0)
    # a model of many rows gives each row exactly the distance a model of that
    # row alone gives, exact ties included (duplicated rows, integer-valued coordinates)
    rng = np.random.default_rng(30)
    matrix = np.vstack([rng.normal(size=(200, 16)),
                        rng.integers(-3, 4, size=(40, 16)).astype(float)])
    matrix = np.vstack([matrix, matrix[:20]])
    for p in (1.0, 2.0, 3.0):
        model = knn_fit(matrix, ["control"] * len(matrix), k=1, p=p)
        for query in (rng.normal(size=16), matrix[210], np.zeros(16)):
            assert query_distances(model, query).tolist() == [distance(query, row, p)
                                                              for row in matrix]


def former_minkowski(matrix, query, p):
    """Distances by definition: each row's |a - b|^p added left to right, then the 1/p root.

    A column loop the kernel cannot share, so a fault in the kernel's
    summation order shows as a changed bit.
    """
    terms = np.abs(matrix - query) ** p
    total = terms[:, 0].copy()
    for column in terms.T[1:]:
        total += column
    return total ** (1.0 / p)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_distance_paths_equal_former(matrix, query, p):
    former = former_minkowski(matrix, query, p)
    model = knn_fit(matrix, ["control"] * len(matrix), k=1, p=p)
    assert bits(query_distances(model, query)) == bits(former)
    # the query loop answers with the nearest row of the former distances: that row
    # alone is labelled depression, and equal distances go to the lower row
    if not np.isinf(former).all():  # else the nearest distance overflows
        labels = ["control"] * len(matrix)
        labels[np.argsort(former, kind="stable")[0]] = "depression"
        model = KnnModel(train_matrix=matrix, train_labels=labels, k=1, p=p,
                         scaler=identity_scaler(matrix.shape[1]))
        (answer,) = answers(model, [query], {p: {1}})
        assert answer == {p: {1: ("depression", 1.0)}}


# every count up to 40, and larger ones on both sides of powers of two and
# multiples of 8, where a sum in np.sum's pairwise order or in blocks of
# eight would first change a bit
DISTANCE_DIMS = [*range(1, 41), 64, 127, 128, 129, 200, 257]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_distance_paths_equal_former_formula_on_every_dims(p):
    rng = np.random.default_rng(29)
    for dims in DISTANCE_DIMS:
        # magnitudes over six decades, so the summation order shows in the last bits
        matrix = rng.normal(size=(50, dims)) * 10.0 ** rng.uniform(-3, 3, size=(50, dims))
        assert_distance_paths_equal_former(matrix, rng.normal(size=dims), p)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_distance_paths_equal_former_formula_bit_for_bit(data, p):
    dims = data.draw(st.sampled_from(DISTANCE_DIMS), label="dims")
    rows = data.draw(st.integers(min_value=1, max_value=12), label="rows")
    values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    matrix = data.draw(arrays(np.float64, (rows, dims), elements=values), label="matrix")
    query = data.draw(arrays(np.float64, dims, elements=values), label="query")
    assert_distance_paths_equal_former(matrix, query, p)


# signed zeros, subnormals, and values whose differences square (or subtract) past
# float64's range, where a skipped abs or power step could first change a bit
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -3.0,
               1e160, -1e160, 1e200, 1.7e308, -1.7e308]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_distance_paths_equal_former_on_edge_differences(p):
    rng = np.random.default_rng(35)
    for dims in (1, 2, 8, 9, 17):
        matrix = rng.choice(EDGE_VALUES, size=(40, dims))
        queries = [np.zeros(dims), np.full(dims, -0.0), np.full(dims, 5e-324),
                   *rng.choice(EDGE_VALUES, size=(6, dims))]
        for query in queries:
            with np.errstate(over="ignore"):
                assert_distance_paths_equal_former(matrix, query, p)


def test_lone_column_distances_equal_former(monkeypatch):
    # numpy sums a contiguous (dims, 1) array pairwise, not row by row: a 1-row
    # model's scan and a filter block with one candidate both make one
    rng = np.random.default_rng(67)
    for dims in (9, 16, 40):
        row = rng.normal(size=(1, dims)) * 10.0 ** rng.uniform(-3, 3, size=(1, dims))
        query = rng.normal(size=dims)
        # the premise: the pairwise sum of this row differs from the left-to-right one
        assert bits(np.sum(np.abs(row - query))) != bits(former_minkowski(row, query, 1.0))
        for p in (1.0, 1.5, 2.0, 3.0):
            assert_distance_paths_equal_former(row, query, p)
    # 17 queries make a tail block of one, whose query lies near row 5 alone
    train = rng.normal(size=(64, 40)) * 10.0 ** rng.uniform(-3, 3, size=(64, 40))
    noise = rng.normal(size=40) * 10.0 ** rng.uniform(-4, 0, size=40)
    queries = np.vstack([rng.normal(size=(16, 40)), train[5] + noise])
    model = knn_fit(train, ["control", "depression"] * 32, k=1)
    calls = []

    def recording(diffs, p):
        calls.append((diffs.shape, _minkowski(diffs, p)))
        return calls[-1][1]

    monkeypatch.setattr("vocalscreen.model._minkowski", recording)
    assert answers(model, queries, {2.0: {1}}) == scan_answers(model, queries, {2.0: {1}})
    shape, distances = calls[1]  # the tail block's, the scans' come after
    former = former_minkowski(train, queries[16], 2.0)
    assert shape == (40, 1) and np.argmin(former) == 5
    assert bits(distances) == bits(former[5])
    assert bits(np.sqrt(np.sum((train[5] - queries[16]) ** 2))) != bits(former[5])


coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(coord, min_size=3, max_size=3),
    b=st.lists(coord, min_size=3, max_size=3),
    c=st.lists(coord, min_size=3, max_size=3),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_minkowski_metric_properties(a, b, c, p):
    dab = distance(a, b, p)
    dba = distance(b, a, p)
    assert dab == pytest.approx(dba, rel=1e-9, abs=1e-9)
    assert dab >= 0
    dac = distance(a, c, p)
    dcb = distance(c, b, p)
    assert dab <= dac + dcb + 1e-9 * max(1.0, dab)


# --- knn fit / predict --------------------------------------------------------


def small_model(k=3, p=2.0):
    features = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    labels = ["control", "control", "depression"]
    return knn_fit(features, labels, k=k, p=p, scaler=identity_scaler(2))


def test_knn_fit_defaults():
    # the k, p and identity scaler the README's library example relies on
    features = np.arange(10.0).reshape(5, 2)
    model = knn_fit(features, ["control"] * 5)
    assert (model.k, model.p) == (3, 2.0)
    assert bits(model.train_matrix) == bits(features)


def test_knn_fit_boundaries():
    small_model(k=3)  # 3 rows, k=3 is fine
    with pytest.raises(TooFewSamples, match=r"^2 rows < k=3$"):
        knn_fit(np.zeros((2, 3)), ["control", "depression"], k=3,
                scaler=identity_scaler(3))
    with pytest.raises(EvenK):
        knn_fit(np.zeros((5, 2)), ["control"] * 5, k=4, scaler=identity_scaler(2))
    with pytest.raises(ValueError):
        knn_fit(np.zeros((3, 2)), ["a", "b", "c"], k=1, scaler=identity_scaler(2))
    with pytest.raises(ValueError, match="non-empty"):
        knn_fit(np.zeros((3, 0)), ["control"] * 3, k=1)


@pytest.mark.parametrize("k, p, message", [
    (True, 2.0, "k must be an integer, got True"),
    (3.0, 2.0, "k must be an integer, got 3.0"),
    (3, True, "p must be a number, got True"),
    (3, "2", "p must be a number, got '2'"),
    (3, np.inf, "p must be finite, got inf"),
    (3, np.nan, "p must be >= 1"),
])
def test_knn_fit_rejects_what_a_model_file_cannot_hold(k, p, message):
    # each used to fit, and then save_model wrote a file that load_model rejects,
    # or ("p": Infinity, every distance 1.0) one that is not RFC 8259 JSON
    with pytest.raises(ValueError, match=message):
        knn_fit(np.arange(10.0).reshape(5, 2), ["control"] * 3 + ["depression"] * 2, k=k, p=p)


@pytest.mark.parametrize("k", [-1, -3, 0])
def test_k_below_one_rejected(k):
    features = np.arange(10.0).reshape(5, 2)
    labels = ["control"] * 3 + ["depression"] * 2
    with pytest.raises(ValueError, match="k must be >= 1"):
        knn_fit(features, labels, k=k)
    with pytest.raises(ValueError, match="k must be >= 1"):
        grid_select([PipelineCandidate(k=k)], np.vstack([features] * 4), labels * 4, folds=2)


def test_knn_predict_memorizes_with_k1():
    features = np.array([[0.0, 0.0], [5.0, 5.0]])
    model = knn_fit(features, ["control", "depression"], k=1, scaler=identity_scaler(2))
    assert knn_predict(model, [0.0, 0.0]) == ("control", 1.0)
    assert knn_predict(model, [5.0, 5.0]) == ("depression", 1.0)


def test_knn_predict_rejects_a_query_that_is_not_one_finite_row():
    # a NaN query was answered ('control', 1.0), and a short row or a scalar was
    # broadcast to every dimension and answered
    rng = np.random.default_rng(34)
    features = rng.normal(size=(20, 16))
    labels = ["control"] * 10 + ["depression"] * 10
    model = knn_fit(features, labels, k=3, scaler=fit_scaler(features))
    nan_row = features[15].copy()
    nan_row[4] = np.nan
    for query, message in [
        ([np.nan] * 16, "query value 0 is not finite"),
        (nan_row, "query value 4 is not finite"),
        (np.r_[np.zeros(15), -np.inf], "query value 15 is not finite"),
        ([0.5], r"a query must be one row of 16 feature values, got shape \(1,\)"),
        (0.5, r"a query must be one row of 16 feature values, got shape \(\)"),
        (features[:2], r"a query must be one row of 16 feature values, got shape \(2, 16\)"),
        (np.zeros(17), r"a query must be one row of 16 feature values, got shape \(17,\)"),
        # a complex query was answered on its real part, with only a ComplexWarning
        (features[15] + 5j, "a query must hold real numbers, got dtype complex128"),
        (["0.5"] * 16, "a query must hold real numbers, got dtype <U3"),
    ]:
        with pytest.raises(VocalScreenError, match=f"^{message}"):
            knn_predict(model, query)
    assert knn_predict(model, features[15]) == ("depression", 2 / 3)  # the row the NaN was put in


def test_knn_predict_majority_two_thirds():
    model = small_model(k=3)
    label, score = knn_predict(model, [0.05, 0.0])
    assert label == "control"
    assert score == pytest.approx(2 / 3)


def test_knn_tie_breaks_to_lower_index():
    # two training rows equidistant from the query; row 0 must win the slot
    features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 50.0]])
    model = knn_fit(features, ["depression", "control", "control"], k=1,
                    scaler=identity_scaler(2))
    label, score = knn_predict(model, [0.0, 0.0])
    assert (label, score) == ("depression", 1.0)


def test_knn_duplicate_query_wins():
    rng = np.random.default_rng(32)
    features = rng.normal(size=(20, 4))
    labels = ["control"] * 10 + ["depression"] * 10
    query = rng.normal(size=4)
    augmented = np.vstack([features, query])
    model = knn_fit(augmented, labels + ["depression"], k=1, scaler=identity_scaler(4))
    assert knn_predict(model, query) == ("depression", 1.0)


def test_knn_matches_exhaustive_scan():
    rng = np.random.default_rng(33)
    train = rng.normal(size=(200, 16))
    labels = ["depression" if x else "control" for x in rng.integers(0, 2, 200)]
    for k, p in ((1, 2.0), (3, 2.0), (5, 1.0), (7, 3.0)):
        model = knn_fit(train, labels, k=k, p=p, scaler=identity_scaler(16))
        for _ in range(25):
            query = rng.normal(size=16)
            assert knn_predict(model, query) == knn_scan(train, labels, query, k, p)


def test_knn_permutation_invariant_without_ties():
    rng = np.random.default_rng(34)
    train = rng.normal(size=(60, 8))
    labels = ["depression" if x else "control" for x in rng.integers(0, 2, 60)]
    queries = rng.normal(size=(10, 8))
    model = knn_fit(train, labels, k=3, scaler=identity_scaler(8))
    perm = rng.permutation(60)
    permuted = knn_fit(train[perm], [labels[i] for i in perm], k=3,
                       scaler=identity_scaler(8))
    for q in queries:
        assert knn_predict(model, q) == knn_predict(permuted, q)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([1.0, 2.0]), use_scaler=st.booleans())
def test_nearest_rows_is_head_of_stable_argsort(data, p, use_scaler):
    # integer coordinates in 0..2 and repeated rows make many distances tie
    # at the count-th place, where a partial ordering could go wrong
    dims = data.draw(st.integers(min_value=1, max_value=4), label="dims")
    row = st.lists(st.integers(min_value=0, max_value=2), min_size=dims, max_size=dims)
    distinct = data.draw(st.lists(row, min_size=1, max_size=8), label="distinct")
    rows = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30), label="rows")
    query = data.draw(row, label="query")
    train = np.array(rows, dtype=float)
    scaler = fit_scaler(train) if use_scaler else identity_scaler(dims)
    model = knn_fit(train, ["control"] * len(rows), k=1, p=p, scaler=scaler)
    full = np.argsort(former_minkowski(model.train_matrix, transform(model.scaler, query), p),
                      kind="stable")
    for count in range(1, len(rows) + 1):
        assert _nearest(query_distances(model, query), count)[1].tolist() == full[:count].tolist()


def test_nearest_rows_of_a_large_table_are_head_of_stable_argsort():
    # past a few hundred rows np.partition leaves the values beside its index
    # unordered, so a partition at the wrong index shows here and not on the
    # small tables above; rounding makes ties at many counts
    d = np.round(np.random.default_rng(37).normal(size=1000) ** 2, 2)
    full = np.argsort(d, kind="stable").tolist()
    for count in range(1, 1001):
        assert _nearest(d, count)[1].tolist() == full[:count]


def test_nearest_rows_of_nan_query_follow_stable_argsort():
    # the order is what counts: p = 2 squares without abs, so a -NaN query may
    # give -NaN distances where the former formula gave +NaN; both sort last.
    # knn_predict itself rejects such a query rather than answer it
    for p in (1.0, 1.5, 2.0, 3.0):
        model = small_model(k=3, p=p)
        for query in ([np.nan, 0.0], [-np.nan, 0.0], [0.05, -np.nan]):
            former = former_minkowski(model.train_matrix, np.array(query), p)
            distances = query_distances(model, query)
            assert np.isnan(former).all() and np.isnan(distances).all()
            assert (_nearest(distances, 3)[1].tolist()
                    == np.argsort(former, kind="stable").tolist())
            with pytest.raises(VocalScreenError, match="is not finite"):
                knn_predict(model, query)


def former_vote(train_labels, nearest, k):
    """The vote as first written: one dict count per k, lexicographic tie rule."""
    votes = {}
    for idx in nearest[:k]:
        votes[train_labels[idx]] = votes.get(train_labels[idx], 0) + 1
    winner = max(sorted(votes), key=lambda label: votes[label])
    return winner, votes[winner] / k


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vote_equals_former_vote_and_scan_for_every_k(data):
    # labels of one class or two, and rows that each order every training row
    # their own way: query i's neighbours are the rows of its permutation. Every
    # k up to the largest: the odd ones a model takes, and even ones, whose ties
    # go to the lower label
    labels = data.draw(st.lists(st.sampled_from(["depression", "control"]), min_size=1,
                                max_size=12), label="labels")
    rows = data.draw(st.lists(st.permutations(range(len(labels))), min_size=1, max_size=6),
                     label="neighbours")
    top = data.draw(st.integers(1, len(labels)), label="max k")
    ks = range(1, top + 1)
    classes, codes = _encode(labels)
    votes = _vote(np.array(rows)[:, :top], codes, ks)
    assert sorted(votes) == list(ks)
    for i, nearest in enumerate(rows):
        # a 1-d training set whose distances from 0 order its rows as ``nearest`` does
        train = np.empty((len(labels), 1))
        train[nearest, 0] = np.arange(len(labels))
        for k in ks:
            winners, fractions = votes[k]
            vote = (classes[winners[i]], fractions[i])
            assert vote == former_vote(labels, nearest, k) == knn_scan(train, labels, [0.0], k, 1.0)
            assert type(fractions.tolist()[i]) is float


def test_relabelling_the_codes_changes_only_the_votes():
    # the neighbours of a model do not depend on its labels: a model of the same rows
    # under permuted labels finds the same neighbour array, and voting that array with
    # the permuted codes answers as the permuted model does
    rng = np.random.default_rng(45)
    train = rng.normal(size=(120, 6))
    labels = ["depression" if x else "control" for x in rng.integers(0, 2, 120)]
    permuted = [labels[i] for i in rng.permutation(120)]
    queries = rng.normal(size=(40, 6))
    counts = {1.0: 7, 2.0: 7}
    model = knn_fit(train, labels, k=1, scaler=fit_scaler(train))
    relabelled = knn_fit(train, permuted, k=1, scaler=fit_scaler(train))
    neighbours = _neighbours(model, queries, counts)
    again = _neighbours(relabelled, queries, counts)
    assert all(np.array_equal(neighbours[p], again[p]) for p in counts)
    classes, codes = relabelled._encoded
    changed = False
    for p in counts:
        for k, (winners, fractions) in _vote(neighbours[p], codes, (1, 3, 5, 7)).items():
            answers = [knn_predict(replace(relabelled, k=k, p=p), q) for q in queries]
            assert [(classes[w], f) for w, f in zip(winners, fractions)] == answers
            former = _vote(neighbours[p], model._encoded[1], (k,))[k][0]
            changed |= not np.array_equal(winners, former)
    assert changed


def test_standardization_absorbs_feature_scaling():
    rng = np.random.default_rng(35)
    train = rng.normal(size=(50, 6))
    labels = ["depression" if x else "control" for x in rng.integers(0, 2, 50)]
    queries = rng.normal(size=(20, 6))

    def predictions(matrix, qs):
        scaler = fit_scaler(matrix)
        model = knn_fit(matrix, labels, k=3, scaler=scaler)
        return [knn_predict(model, q) for q in qs]

    scaled_train, scaled_queries = train.copy(), queries.copy()
    scaled_train[:, 2] *= 37.5
    scaled_queries[:, 2] *= 37.5
    assert predictions(train, queries) == predictions(scaled_train, scaled_queries)


# --- persistence ----------------------------------------------------------------


def fitted_model():
    rng = np.random.default_rng(36)
    train = rng.normal(size=(40, 16))
    labels = ["depression" if x else "control" for x in rng.integers(0, 2, 40)]
    return knn_fit(train, labels, k=3, p=2.0, scaler=fit_scaler(train)), rng


def test_save_load_roundtrip_predicts_identically(tmp_path):
    model, rng = fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    queries = rng.normal(size=(100, 16))
    for q in queries:
        assert knn_predict(loaded, q) == knn_predict(model, q)
    assert loaded.extraction == model.extraction


def test_save_load_keeps_every_extraction_constant(tmp_path):
    model, _ = fitted_model()
    extraction = Extraction(FeatureConfig(n_fft=1024), SilenceParams(threshold_ratio=0.25), 2.5)
    model = replace(model, extraction=extraction)
    save_model(model, tmp_path / "model.json")
    payload = json.loads((tmp_path / "model.json").read_text())
    assert (payload["segment_seconds"], payload["silence"]) == (
        2.5, {"frame_seconds": 0.05, "hop_seconds": 0.025, "threshold_ratio": 0.25})
    loaded = load_model(tmp_path / "model.json")
    assert loaded.extraction == extraction


def former_save_model(model, path):
    """The model writer as first written: json's pure-Python indent=1 encoder on the payload.

    A reference the streamed writer cannot share, so a fault in its
    chunking, re-indenting or streamed digest shows as a changed byte.
    """
    write_redigested(path, {
        "version": 2,
        "k": model.k,
        "p": model.p,
        "scaler": {
            "means": [float(x) for x in model.scaler.means],
            "stds": [float(x) for x in model.scaler.stds],
        },
        "feature_config": asdict(model.extraction.feature_config),
        "segment_seconds": model.extraction.segment_seconds,
        "silence": asdict(model.extraction.silence),
        "train": {
            "matrix": [[float(x) for x in row] for row in model.train_matrix],
            "labels": list(model.train_labels),
        },
    })


# quotes, backslashes, control characters, non-ASCII and the JSON punctuation
# the writer splits and re-indents around
label_texts = st.text(alphabet=st.sampled_from('ab"\\\x00\x1f\x7f\u00e9\u2028\U0001f600 ,:[]'),
                      max_size=8)
matrix_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]))


@st.composite
def saved_models(draw):
    """Any model a file can hold: 1-300 rows, so chunks of rows split, and 1-20 dims."""
    rows = draw(st.integers(1, 300), label="rows")
    dims = draw(st.integers(1, 20), label="dims")
    pool = draw(st.lists(label_texts, min_size=1, max_size=2), label="label pool")
    return KnnModel(
        train_matrix=draw(arrays(np.float64, (rows, dims), elements=matrix_values),
                          label="matrix"),
        train_labels=draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)),
        k=draw(st.sampled_from([1, 3, 5]).filter(lambda k: k <= rows), label="k"),
        p=draw(st.sampled_from([1, 1.0, 1.5, 2.0, 1e300]), label="p"),
        scaler=ScalerParams(
            means=draw(arrays(np.float64, dims, elements=matrix_values), label="means"),
            stds=draw(arrays(np.float64, dims, elements=st.floats(5e-324, 1.7e308)), label="stds"),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(model=saved_models())
def test_save_model_writes_the_former_bytes(tmp_path_factory, model):
    directory = tmp_path_factory.mktemp("writer")
    save_model(model, directory / "model.json")
    former_save_model(model, directory / "former.json")
    assert (directory / "model.json").read_bytes() == (directory / "former.json").read_bytes()
    loaded = load_model(directory / "model.json")
    assert bits(loaded.train_matrix) == bits(model.train_matrix)
    assert loaded.train_labels == model.train_labels


def test_load_rejects_version_mismatch(tmp_path):
    model, _ = fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaVersionMismatch):
        load_model(path)


@pytest.mark.parametrize("version", [1, True, 1.0, 2.0, "2", None])
def test_load_takes_only_the_integer_version_2(tmp_path, version):
    # version 1 files hashed a re-rendering of the payload; a bool or float passes == 2
    # or == 1 but is not the integer the file format names
    payload = saved_payload(tmp_path)
    payload["version"] = version
    path = tmp_path / "other.json"
    write_redigested(path, payload)
    with pytest.raises(SchemaVersionMismatch, match=re.escape(
            f"{path}: version {version!r}, expected 2")):
        load_model(path)


def test_load_rejects_a_version_1_file(tmp_path):
    # the former layout with its own digest: the version is read before the digest
    model, _ = fitted_model()
    path = tmp_path / "v1.json"
    payload = {"version": 1, "k": model.k, "p": model.p,
               "scaler": {"means": model.scaler.means.tolist(),
                          "stds": model.scaler.stds.tolist()},
               "feature_config": asdict(model.extraction.feature_config),
               "train": {"matrix": model.train_matrix.tolist(),
                         "labels": list(model.train_labels)}}
    payload["digest"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    with pytest.raises(SchemaVersionMismatch, match="version 1, expected 2"):
        load_model(path)


@pytest.mark.parametrize("edit", [
    lambda text: text.replace('\n "k": 3', '\n "k":  3', 1),  # whitespace inside the payload
    lambda text: text + "\n",  # a second newline at the end
    lambda text: text[:-1],  # the last newline dropped
    lambda text: text.replace("\n", "\r\n"),  # another line ending everywhere but line 2's
])
def test_any_byte_edit_after_the_digest_line_fails(tmp_path, edit):
    model, _ = fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    head, rest = text[:81], text[81:]  # lines 1-2 are 2 + 79 bytes
    assert head.endswith('",\n') and edit(rest) != rest
    path.write_text(head + edit(rest), newline="")
    assert json.loads(path.read_text()) == json.loads(text)  # the same payload
    with pytest.raises(CorruptModelFile, match=f"^{re.escape(str(path))}: digest mismatch$"):
        load_model(path)


@pytest.mark.parametrize("edit", [
    lambda text: json.dumps(json.loads(text)),  # compact: no line 2
    lambda text: json.dumps(json.loads(text), indent=2, sort_keys=True),  # other indent
    lambda text: text.replace('"digest": "', '"digest":"', 1),
    lambda text: re.sub('"digest": "([0-9a-f]+)"', lambda m: f'"digest": "{m[1].upper()}"', text),
    lambda text: re.sub('"digest": "([0-9a-f]+)"', lambda m: f'"digest": "{m[1][1:]}"', text),
    lambda text: re.sub('\n "digest": "[0-9a-f]+",', "", text),  # no digest at all
])
def test_load_rejects_a_second_line_not_in_the_digest_form(tmp_path, edit):
    model, _ = fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(CorruptModelFile, match=f"^{re.escape(str(path))}: line 2 is not the"
                                               f" digest line$"):
        load_model(path)


def test_load_reads_only_utf8(tmp_path):
    # json.loads takes bytes in UTF-16 and UTF-32 too; a model file is UTF-8
    model, _ = fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    for encoding in ("utf-16", "utf-32", "utf-8-sig"):
        path.write_bytes(text.encode(encoding))
        with pytest.raises(CorruptModelFile, match="not valid JSON"):
            load_model(path)


def test_model_file_io_costs(tmp_path, monkeypatch):
    """load_model opens the file once and renders nothing; save_model renders the matrix
    in one C-encoder call per _CHUNK_ROWS rows and the rest of the payload in one call.
    Exact counts, no headroom: a change that renders or reads more changes this test."""
    rng = np.random.default_rng(37)
    rows = 2 * _CHUNK_ROWS + 1  # three chunks, the last of one row
    train = rng.normal(size=(rows, 16))
    model = knn_fit(train, ["control", "depression"] * (rows // 2) + ["control"], k=3,
                    scaler=fit_scaler(train))
    path = tmp_path / "model.json"
    dumps, opens = [], []
    real_dumps, real_open = json.dumps, builtins.open

    def counting_dumps(obj, **kwargs):
        dumps.append(kwargs.get("indent"))
        return real_dumps(obj, **kwargs)

    def counting_open(file, *args, **kwargs):
        if file == path:
            opens.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    monkeypatch.setattr(builtins, "open", counting_open)
    save_model(model, path)
    assert dumps == [1, None, None, None] and opens == ["wb"]  # the rest, then each chunk
    dumps.clear(), opens.clear()
    load_model(path)
    assert dumps == [] and opens == ["rb"]


def test_load_rejects_flipped_payload(tmp_path):
    model, _ = fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    assert '"k": 3' in text
    path.write_text(text.replace('"k": 3', '"k": 5', 1))
    with pytest.raises(CorruptModelFile):
        load_model(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\x00\x01 not json")
    with pytest.raises(CorruptModelFile):
        load_model(path)


def saved_payload(tmp_path):
    model, _ = fitted_model()
    save_model(model, tmp_path / "model.json")
    return json.loads((tmp_path / "model.json").read_text())


def test_load_takes_a_model_extracted_with_empty_mel_filters(tmp_path):
    # extract --n-fft 512 once wrote such a model: its constants are compared with
    # the features' record, never turned into a filterbank, so it still loads
    payload = saved_payload(tmp_path)
    payload["feature_config"].update(n_fft=512, hop=128)
    path = tmp_path / "n_fft_512.json"
    write_redigested(path, payload)
    assert load_model(path).extraction.feature_config == FeatureConfig(n_fft=512, hop=128)


@pytest.mark.parametrize("mutate, reason", [
    (lambda m: m.update(p=0.5), "p must be >= 1"),
    (lambda m: m.pop("scaler"), "missing field 'scaler'"),
    (lambda m: m["scaler"]["stds"].__setitem__(0, 0.0), "stds must be positive"),
    (lambda m: m.update(k=-1), "k must be >= 1"),
    (lambda m: m.update(k=4), "k must be odd"),
    (lambda m: m.update(k=3.0), "integer"),
    (lambda m: m.update(k=True), "k must be an integer, got True"),
    (lambda m: m.update(p=True), "p must be a number, got True"),
    (lambda m: m.update(p=float("inf")), "p must be finite, got inf"),
    (lambda m: m["train"]["labels"].__setitem__(0, [1]), "labels must be strings"),
    (lambda m: m["train"]["labels"].__setitem__(0, "other"),
     r"labels must be binary, got \['control', 'depression', 'other'\]"),
    (lambda m: m["train"]["matrix"][0].__setitem__(0, float("nan")), "must be finite"),
    # numeric text was read as the number it spells, and the model answered queries
    (lambda m: m["train"]["matrix"][1].__setitem__(2, "0.25"),
     "a train matrix must hold real numbers, got dtype <U"),
    (lambda m: m["scaler"]["means"].__setitem__(0, "0.25"),
     "scaler means must hold real numbers, got dtype <U"),
    (lambda m: (m["scaler"]["means"].pop(), m["scaler"]["stds"].pop()), "scaler dimensions"),
    (lambda m: m["train"]["labels"].pop(), "train matrix rows must match label count"),
    (lambda m: m.update(feature_config=[1, 2]), "feature_config must be an object"),
    (lambda m: m.update(feature_config=2048), "feature_config must be an object"),
    (lambda m: m.update(feature_config=None), "feature_config must be an object"),
    (lambda m: m["feature_config"].pop("hop"), "exactly the fields fmax, fmin, hop"),
    (lambda m: m["feature_config"].update(window="hann"), "exactly the fields"),
    (lambda m: m["feature_config"].update(peak_threshold_db=None),
     "peak_threshold_db must be a number, got None"),
    (lambda m: m["feature_config"].update(hop=True), "hop must be an integer, got True"),
    (lambda m: m["feature_config"].update(n_mels=128.5), "n_mels must be an integer"),
    # json reads NaN and Infinity, and extract then wrote non-finite features
    (lambda m: m["feature_config"].update(log_floor=float("nan")), "log_floor must be positive"),
    (lambda m: m["feature_config"].update(log_floor=float("inf")), "log_floor must be positive"),
    # only mel_filterbank caught an infinite fmax, once a segment met a sample rate
    (lambda m: m["feature_config"].update(fmax=float("inf")), "need 0 <= fmin < fmax < inf"),
    (lambda m: m.pop("segment_seconds"), "missing field 'segment_seconds'"),
    (lambda m: m.update(segment_seconds=0.0), "segment_seconds must be positive and finite"),
    (lambda m: m.update(segment_seconds=float("nan")), "segment_seconds must be positive"),
    (lambda m: m.update(segment_seconds=1e-5), r"got 1e-05 \(0\.16 samples at 16000 Hz\)"),
    (lambda m: m.update(segment_seconds="4.0"), "segment_seconds must be a number, got '4.0'"),
    # a bool passed each range check as 0 or 1 and was stored as a bool
    (lambda m: m.update(segment_seconds=True), "segment_seconds must be a number, got True"),
    (lambda m: m["silence"].update(frame_seconds=True, hop_seconds=True),
     "frame_seconds must be a number, got True"),
    (lambda m: m["silence"].update(frame_seconds=2.0, hop_seconds=True),
     "hop_seconds must be a number, got True"),
    (lambda m: m["feature_config"].update(fmin=True), "fmin must be a number, got True"),
    (lambda m: m["feature_config"].update(fmax=True), "fmax must be a number, got True"),
    (lambda m: m["feature_config"].update(log_floor=True), "log_floor must be a number, got True"),
    (lambda m: m["feature_config"].update(peak_threshold_db=True),
     "peak_threshold_db must be a number, got True"),
    (lambda m: m.pop("silence"), "missing field 'silence'"),
    (lambda m: m.update(silence=None),
     "silence must be an object with exactly the fields frame_seconds, hop_seconds,"
     " threshold_ratio"),
    (lambda m: m["silence"].pop("hop_seconds"), "silence must be an object with exactly"),
    (lambda m: m["silence"].update(gate=1), "silence must be an object with exactly"),
    (lambda m: m["silence"].update(threshold_ratio=1.5), r"threshold_ratio must be in \(0, 1\)"),
    (lambda m: m["silence"].update(hop_seconds=0.1), "need 0 < hop_seconds <= frame_seconds"),
])
def test_load_rejects_invalid_model_with_valid_digest(tmp_path, mutate, reason):
    payload = saved_payload(tmp_path)
    mutate(payload)
    path = tmp_path / "bad.json"
    write_redigested(path, payload)
    with pytest.raises(CorruptModelFile, match=reason) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def model_mutations():
    """(path into the payload, new value or None to drop the entry) pairs."""
    places = st.sampled_from([
        ("k",), ("p",), ("version",), ("feature_config",), ("scaler",), ("scaler", "means"),
        ("scaler", "stds"), ("scaler", "means", 0), ("scaler", "stds", 1), ("train",),
        ("train", "matrix"), ("train", "matrix", 0), ("train", "matrix", 2, 1),
        ("train", "labels"), ("train", "labels", 0), ("segment_seconds",), ("silence",),
        ("silence", "hop_seconds"), ("silence", "threshold_ratio"),
    ])
    values = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 5), st.text(max_size=3),
        st.sampled_from([0.0, -1.0, 0.5, 2.0, float("nan"), float("inf"), 1e300]),
        st.lists(st.integers(-2, 2), max_size=3), st.just([[1.0, 2.0, 3.0]]), st.just({}),
    )
    return st.lists(st.tuples(places, st.one_of(st.none(), st.tuples(values))),
                    min_size=1, max_size=3)


def apply_mutation(payload, place, value):
    """Drop (value None) or replace the entry at ``place``; a missing place is left alone."""
    try:
        parent = payload
        for key in place[:-1]:
            parent = parent[key]
        if value is None:
            del parent[place[-1]]
        else:
            parent[place[-1]] = copy.deepcopy(value[0])  # drawn values may be shared
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=300, deadline=None)
@given(mutations=model_mutations(), redigest=st.booleans(), raw=st.binary(max_size=64))
@example(mutations=[(("p",), (1e300,))], redigest=True, raw=b"")  # |a - b|^p overflows
@example(mutations=[(("k",), (True,))], redigest=True, raw=b"")  # True passes k >= 1
@example(mutations=[(("p",), (True,))], redigest=True, raw=b"")  # and p >= 1
@example(mutations=[(("p",), (float("inf"),))], redigest=True, raw=b"")  # every distance 1.0
def test_load_model_fuzz_raises_only_vocalscreen_errors(tmp_path_factory, mutations, redigest,
                                                        raw):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    model = knn_fit(np.arange(15.0).reshape(5, 3), ["a", "b", "a", "b", "a"], k=3)
    save_model(model, path)
    payload = json.loads(path.read_text())
    for place, value in mutations:
        apply_mutation(payload, place, value)
    if redigest:
        write_redigested(path, payload)
    else:
        path.write_text(json.dumps(payload))
    for content in (path.read_bytes(), raw):
        path.write_bytes(content)
        try:
            loaded = load_model(path)
        except VocalScreenError as exc:
            assert str(exc).startswith(f"{path}: ")
            continue
        assert isinstance(loaded, KnnModel)
        assert type(loaded.k) is int and type(loaded.p) in (int, float) and loaded.p < np.inf
        try:
            label, fraction = knn_predict(loaded, np.zeros(len(loaded.scaler.means)))
        except DistanceOverflow as exc:
            assert str(exc).startswith(f"p = {loaded.p!r}: ")
            continue
        assert label in loaded.train_labels and 0 < fraction <= 1


def test_overflowing_distance_raises_naming_p():
    rng = np.random.default_rng(33)
    model = knn_fit(rng.random((10, 16)) * 10, ["control", "depression"] * 5, k=3, p=1e300)
    with pytest.raises(DistanceOverflow, match=r"^p = 1e\+300: "):
        knn_predict(model, np.zeros(16))
    # selection reports it too, here on raw values whose every difference is too large to square
    matrix = np.repeat(np.arange(6.0)[:, None] * 1e200, 2, axis=1)
    with pytest.raises(DistanceOverflow, match=r"^p = 2\.0: "):
        grid_select([PipelineCandidate(k=1, p=2.0, use_scaler=False)], matrix,
                    ["control", "depression"] * 3, folds=3)


def test_grid_select_names_the_only_overflowing_p():
    # raw differences of 1e160 or more: every square overflows, every p = 1 sum stays
    # finite, so the p = 2 candidate fails after the p = 1 one of the same scaler
    # has taken its copy of the shared differences, and in either order
    matrix = np.repeat(np.arange(6.0)[:, None] * 1e160, 2, axis=1)
    labels = ["control", "depression"] * 3
    p1, p2 = (PipelineCandidate(k=1, p=p, use_scaler=False) for p in (1.0, 2.0))
    assert grid_select([p1], matrix, labels, folds=3)["best"]["fold_scores"] == [0.5, 0.5, 0.0]
    for space in ([p1, p2], [p2, p1]):
        with pytest.raises(DistanceOverflow, match=r"^p = 2\.0: .* nearest row 1 "):
            grid_select(space, matrix, labels, folds=3)


def test_overflow_of_farther_rows_keeps_the_answer():
    # with p = 400 the row 10 away overflows (10^400), and with p = 2 the row 1e200
    # away (its square), but the three nearest do not, so a bare query, in numpy's
    # default error state, is answered as without the overflow: no exception and no
    # warning (which pytest makes an error), the head of the stable argsort, the
    # same vote
    for p, far, named in ((400.0, 10.0, r"400\.0"), (2.0, 1e200, r"2\.0")):
        matrix = np.array([[0.0, 0.5], [1.0, 0.0], [0.5, 1.0], [0.2, 0.1], [far, 0.0]])
        labels = ["control", "depression", "depression", "control", "depression"]
        model = knn_fit(matrix, labels, k=3, p=p, scaler=identity_scaler(2))
        query = np.zeros(2)
        with np.errstate(over="ignore"):
            former = former_minkowski(model.train_matrix, query, p)
            distances = query_distances(model, query)
        assert np.isinf(former[4]) and np.isfinite(former[:4]).all()
        full = np.argsort(former, kind="stable")
        assert bits(distances) == bits(former)
        assert _nearest(distances, 3)[1].tolist() == full[:3].tolist()
        assert knn_predict(model, query) == former_vote(labels, full, 3)
        with pytest.raises(DistanceOverflow, match=rf"^p = {named}: .* nearest row 5 "):
            _neighbours(model, [query], {p: 5})
        grid_select([PipelineCandidate(k=1, p=p, use_scaler=False)],
                    matrix[:4].repeat(2, axis=0), labels[:4] * 2, folds=2)


# --- p = 2 candidate filter -------------------------------------------------------


def answers(model, queries, ks_by_p):
    """{p: {k: (label, vote fraction)}} of each query, from one _neighbours call and one
    _vote per p, as grid selection votes, {p: ks}."""
    neighbours = _neighbours(model, queries, {p: max(ks) for p, ks in ks_by_p.items()})
    classes, codes = model._encoded
    votes = {p: _vote(neighbours[p], codes, ks) for p, ks in ks_by_p.items()}
    return [{p: {k: (classes[winners[i]], fractions[i]) for k, (winners, fractions) in by_k.items()}
             for p, by_k in votes.items()} for i in range(len(queries))]


def scan_answers(model, queries, ks_by_p):
    """Each query answered alone, so by the scan that the filter must match."""
    return [answers(model, [query], ks_by_p)[0] for query in queries]


def assert_block_neighbours_equal_scan(model, queries, counts):
    """The neighbour rows of a table are those of each query found alone, by the scan."""
    blocked = _neighbours(model, queries, counts)
    for p, count in counts.items():
        assert blocked[p].shape == (len(queries), count) and blocked[p].dtype == np.intp
        scanned = [_neighbours(model, [query], counts)[p][0].tolist() for query in queries]
        assert blocked[p].tolist() == scanned


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_answers_equal_oracle_and_scan_on_exact_ties(data):
    # integer coordinates times a power of two from about 1e-150 to 1e150: every
    # difference, square and sum is exact, so duplicated rows and equal integer
    # distances tie exactly, for the kernel and the plain-Python oracle alike
    dims = data.draw(st.integers(1, 17), label="dims")
    scale = 2.0 ** data.draw(st.integers(-498, 498), label="exponent")
    row = st.lists(st.integers(-3, 3), min_size=dims, max_size=dims)
    distinct = data.draw(st.lists(row, min_size=1, max_size=6), label="distinct")
    rows = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40), label="rows")
    labels = data.draw(st.lists(st.sampled_from(["control", "depression"]),
                                min_size=len(rows), max_size=len(rows)), label="labels")
    # 2 to 40 queries: one to three blocks, the last of any size
    queries = np.array(data.draw(st.lists(row, min_size=2, max_size=40), label="queries")) * scale
    ks = data.draw(st.sets(st.sampled_from(range(1, len(rows) + 1, 2)), min_size=1), label="ks")
    train = np.array(rows, dtype=float) * scale
    model = knn_fit(train, labels, k=1, scaler=identity_scaler(dims))
    assert_block_neighbours_equal_scan(model, queries, {2.0: max(ks)})
    blocked = answers(model, queries, {2.0: ks})
    assert blocked == scan_answers(model, queries, {2.0: ks})
    for query, answer in zip(queries, blocked):
        assert answer[2.0] == {k: knn_scan(train, labels, query, k, 2.0) for k in ks}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_answers_equal_scan_from_1e_minus_150_to_1e150(data):
    # any floats times 10^-150 .. 10^150: subnormal and underflowing squares at
    # the low end, sums past the filter's ceiling at the high end
    dims = data.draw(st.integers(1, 17), label="dims")
    scale = 10.0 ** data.draw(st.integers(-150, 150), label="exponent")
    values = st.floats(-1e3, 1e3)
    shape = (data.draw(st.integers(1, 30), label="rows"), dims)
    train = data.draw(arrays(np.float64, shape, elements=values), label="train") * scale
    shape = (data.draw(st.integers(2, 40), label="query count"), dims)
    queries = data.draw(arrays(np.float64, shape, elements=values), label="queries") * scale
    labels = data.draw(st.lists(st.sampled_from(["control", "depression"]),
                                min_size=len(train), max_size=len(train)), label="labels")
    ks = data.draw(st.sets(st.sampled_from(range(1, len(train) + 1, 2)), min_size=1), label="ks")
    model = knn_fit(train, labels, k=1, scaler=identity_scaler(dims))
    ks_by_p = {1.0: ks, 2.0: ks}
    assert_block_neighbours_equal_scan(model, queries, {1.0: max(ks), 2.0: max(ks)})
    assert answers(model, queries, ks_by_p) == scan_answers(model, queries, ks_by_p)


def far_cluster(seed):
    """Rows and queries 1e7 from the origin and about 0.1 apart, labelled by row parity.

    |t|^2 - 2 q.t of such rows is near -1e14, where its rounding error
    exceeds the spread of their squared distances.
    """
    rng = np.random.default_rng(seed)
    train = 1e7 + rng.normal(scale=0.1, size=(64, 16))
    queries = 1e7 + rng.normal(scale=0.1, size=(16, 16))
    labels = ["control", "depression"] * 32
    return knn_fit(train, labels, k=1, scaler=identity_scaler(16)), queries


def test_filter_margin_keeps_the_neighbours_rounding_hides(monkeypatch):
    model, queries = far_cluster(40)
    ks_by_p = {2.0: {1, 3, 5}}
    work = np.empty((2, len(queries), 64))
    nearest = [_nearest(query_distances(model, q), 5)[1].tolist() for q in queries]
    # the premise: ranked by s alone, some query's nearest row is not among its
    # first five, so a filter without its margin would drop it
    s = (-2.0 * queries) @ model.train_matrix.T + (model.train_matrix ** 2).sum(axis=1)
    assert any(head[0] not in np.argsort(row, kind="stable")[:5] for head, row in zip(nearest, s))
    assert _filtered_heads(model, queries, 5, work)[1].tolist() == nearest
    assert answers(model, queries, ks_by_p) == scan_answers(model, queries, ks_by_p)
    monkeypatch.setattr("vocalscreen.model._MARGIN", 0.0)
    assert _filtered_heads(model, queries, 5, work)[1].tolist() != nearest


def test_filter_takes_few_exact_distances(monkeypatch):
    # 1600 rows of separated clusters: each query of a block needs exact distances for
    # at most 2 x 7 rows, not 1600. The filter is row by row, so a block of one query
    # takes that query's share of a block of 16. Each takes exactly 7 here: headroom 2x
    rng = np.random.default_rng(41)
    train = rng.normal(size=(1600, 16)) + rng.integers(0, 4, size=(1600, 1)) * 3.0
    labels = ["control", "depression"] * 800
    model = knn_fit(train, labels, k=1, scaler=fit_scaler(train))
    queries = rng.normal(size=(16, 16))
    columns = []

    def counting(diffs, p):
        columns.append(diffs.shape[1])
        return _minkowski(diffs, p)

    monkeypatch.setattr("vocalscreen.model._minkowski", counting)
    work = np.empty((2, 1, 1600))
    for query in transform(model.scaler, queries):
        columns.clear()
        _filtered_heads(model, query[None], 7, work)
        assert columns and sum(columns) <= 2 * 7
    columns.clear()
    blocked = answers(model, queries, {2.0: {1, 3, 5, 7}})
    assert columns and sum(columns) <= 2 * 16 * 7
    assert blocked == scan_answers(model, queries, {2.0: {1, 3, 5, 7}})


def test_filter_takes_every_row_past_its_ceiling(monkeypatch):
    # rows 1e200 from the origin put |q|^2 + max|t|^2 past _CEILING, where the margin
    # could overflow: every query of the block takes all 5 exact distances, no headroom
    matrix = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1e200, 0.0], [1e200, 1.0]])
    model = knn_fit(matrix, ["control", "depression", "control", "depression", "control"],
                    k=1, scaler=identity_scaler(2))
    columns = []

    def counting(diffs, p):
        columns.append(diffs.shape[1])
        return _minkowski(diffs, p)

    monkeypatch.setattr("vocalscreen.model._minkowski", counting)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in ([[0.0, 0.0]], [[1e200, 0.5]], [[0.0, 0.0], [1e200, 0.5]]):
            columns.clear()
            _filtered_heads(model, np.array(block), 3, np.empty((2, 2, 5)))
            assert columns == [5 * len(block)]


def test_only_several_queries_take_the_filter(monkeypatch):
    # one query is faster as a scan, so knn_predict never builds a filter
    model, queries = far_cluster(42)
    calls = []

    def counting(model, block, count, out):
        calls.append(len(block))
        return _filtered_heads(model, block, count, out)

    monkeypatch.setattr("vocalscreen.model._filtered_heads", counting)
    _neighbours(model, queries[:1], {2.0: 1})
    assert calls == []
    _neighbours(model, queries[:2], {1.0: 1})
    assert calls == []
    _neighbours(model, queries[:2], {2.0: 1})
    assert calls == [2]
    # and then differences no query against every row
    monkeypatch.setattr("vocalscreen.model._differences", None)
    _neighbours(model, queries, {2.0: 1})


def test_block_raises_for_the_query_whose_nearest_rows_overflow():
    # in one block, query 0's third nearest distance is 2 and query 1's is past
    # float64 (its two nearest are 0.5 away): a block of query 0 alone is answered,
    # and a block holding query 1, before or after query 0, raises
    matrix = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1e200, 0.0], [1e200, 1.0]])
    model = knn_fit(matrix, ["control", "depression", "control", "depression", "control"],
                    k=1, scaler=identity_scaler(2))
    near, far = [0.0, 0.0], [1e200, 0.5]
    answer = {2.0: {1: ("control", 1.0), 3: ("control", 2 / 3)}}
    assert answers(model, np.array([near, near]), {2.0: {1, 3}}) == [answer, answer]
    for block in ([near, far], [far, near]):
        with pytest.raises(DistanceOverflow, match=r"^p = 2\.0: .* nearest row 3 "):
            _neighbours(model, np.array(block), {2.0: 3})
    # the filter still finds query 0's rows in the block query 1 overflows in
    with np.errstate(over="ignore", invalid="ignore"):
        kths, heads = _filtered_heads(model, np.array([near, far]), 3, np.empty((2, 2, 5)))
    assert kths[0] == 2.0 and heads[0].tolist() == [0, 1, 2]
    assert kths[1] == np.inf and heads[1][:2].tolist() == [3, 4]


def test_block_raises_for_the_first_overflowing_p_in_ks_by_p_order():
    # every distance of these queries overflows under p = 2 and p = 3 alike; the
    # error names the p asked for first, as the scan of each p in turn did,
    # whether p = 2 comes from the block filter or not
    matrix = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    model = knn_fit(matrix, ["control", "depression", "control"], k=1,
                    scaler=identity_scaler(2))
    queries = np.array([[1e200, 0.0], [0.0, -1e200]])
    for order in ([2.0, 3.0], [3.0, 2.0]):
        for block in (queries, queries[:1]):
            with pytest.raises(DistanceOverflow, match=rf"^p = {order[0]!r}: .* nearest row 3 "):
                _neighbours(model, block, {p: 3 for p in order})
