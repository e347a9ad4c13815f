import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import knn_scan
from vocalscreen.errors import VocalScreenError
from vocalscreen.evaluation import PipelineCandidate, grid_select
from vocalscreen.features import FeatureConfig
from vocalscreen.model import (
    CorruptModelFile,
    DistanceOverflow,
    KnnModel,
    EmptyTrainingSet,
    EvenK,
    SchemaVersionMismatch,
    TooFewSamples,
    fit_scaler,
    identity_scaler,
    knn_fit,
    knn_predict,
    load_model,
    minkowski_distance,
    overflow_guard,
    save_model,
    transform,
    _distances,
    _nearest_rows,
    _payload_digest,
    _votes,
)


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


def test_knn_fit_empty():
    for features in ([], np.zeros((0, 16))):
        with pytest.raises(EmptyTrainingSet):
            knn_fit(features, [])


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
    matrix[2, 1] = bad
    with pytest.raises(VocalScreenError, match="row 2 holds a non-finite value"):
        fit(matrix)
    with pytest.raises(VocalScreenError, match="row 2"):
        fit([list(row) for row in matrix])


# --- minkowski ----------------------------------------------------------------


def test_minkowski_examples():
    assert minkowski_distance([1.0, 2.0], [1.0, 2.0], 2.0) == 0.0
    assert minkowski_distance([0.0, 0.0], [3.0, 4.0], 2.0) == pytest.approx(5.0)
    assert minkowski_distance([0.0, 0.0], [3.0, 4.0], 1.0) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        minkowski_distance([0.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        minkowski_distance([0.0], [1.0, 2.0], 2.0)
    with pytest.raises(ValueError):
        minkowski_distance(np.zeros((4, 3)), np.zeros(2), 2.0)
    for empty in (np.zeros(0), np.zeros((4, 0)), np.float64(1.0)):
        with pytest.raises(ValueError, match="at least one dimension"):
            minkowski_distance(empty, empty, 2.0)
    # a stacked call gives each row exactly the single-pair distance,
    # exact ties included (duplicated rows, integer-valued coordinates)
    rng = np.random.default_rng(30)
    matrix = np.vstack([rng.normal(size=(200, 16)),
                        rng.integers(-3, 4, size=(40, 16)).astype(float)])
    matrix = np.vstack([matrix, matrix[:20]])
    for p in (1.0, 2.0, 3.0):
        for query in (rng.normal(size=16), matrix[210], np.zeros(16)):
            stacked = minkowski_distance(matrix, query, p)
            assert stacked.shape == (len(matrix),)
            per_row = [minkowski_distance(row, query, p) for row in matrix]
            assert all(isinstance(d, float) for d in per_row)
            assert stacked.tolist() == per_row


def former_minkowski(matrix, query, p):
    """Distances as first written: np.sum over each row, then the 1/p root.

    A reference the kernel cannot share, so a fault in the kernel's
    summation order shows as a changed bit.
    """
    return np.sum(np.abs(matrix - query) ** p, axis=-1) ** (1.0 / p)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_distance_paths_equal_former(matrix, query, p):
    former = former_minkowski(matrix, query, p)
    assert bits(minkowski_distance(matrix, query, p)) == bits(former)  # stack
    assert bits([minkowski_distance(row, query, p) for row in matrix]) == bits(former)  # pairs
    model = knn_fit(matrix, ["control"] * len(matrix), k=1, p=p)
    assert bits(_distances(model, query)) == bits(former)  # dims-major, as every query runs
    with overflow_guard():
        assert bits(_distances(model, query)) == bits(former)


# 1-40 dims cover the sequential, block-of-eight and tail steps; 127-129 the
# switch to halving above 128, and 200 a halving at a multiple of 8
DISTANCE_DIMS = [*range(1, 41), 64, 127, 128, 129, 200]


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


coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(coord, min_size=3, max_size=3),
    b=st.lists(coord, min_size=3, max_size=3),
    c=st.lists(coord, min_size=3, max_size=3),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_minkowski_metric_properties(a, b, c, p):
    dab = minkowski_distance(a, b, p)
    dba = minkowski_distance(b, a, p)
    assert dab == pytest.approx(dba, rel=1e-9, abs=1e-9)
    assert dab >= 0
    dac = minkowski_distance(a, c, p)
    dcb = minkowski_distance(c, b, p)
    assert dab <= dac + dcb + 1e-9 * max(1.0, dab)


# --- knn fit / predict --------------------------------------------------------


def small_model(k=3, p=2.0):
    features = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    labels = ["control", "control", "depression"]
    return knn_fit(features, labels, k=k, p=p, scaler=identity_scaler(2))


def test_knn_fit_boundaries():
    small_model(k=3)  # 3 rows, k=3 is fine
    with pytest.raises(TooFewSamples):
        knn_fit(np.zeros((2, 2)), ["control", "depression"], k=3,
                scaler=identity_scaler(2))
    with pytest.raises(EvenK):
        knn_fit(np.zeros((5, 2)), ["control"] * 5, k=4, scaler=identity_scaler(2))
    with pytest.raises(ValueError):
        knn_fit(np.zeros((3, 2)), ["a", "b", "c"], k=1, scaler=identity_scaler(2))
    with pytest.raises(ValueError, match="non-empty"):
        knn_fit(np.zeros((3, 0)), ["control"] * 3, k=1)


@pytest.mark.parametrize("k", [-1, -3])
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
        assert _nearest_rows(model, query, count) == full[:count].tolist()


def test_nearest_rows_of_nan_query_follow_stable_argsort():
    model = small_model(k=3)
    assert _nearest_rows(model, [np.nan, 0.0], 3) == [0, 1, 2]
    assert knn_predict(model, [np.nan, 0.0]) == ("control", 2 / 3)


def former_vote(train_labels, nearest, k):
    """The vote as first written: one dict count per k, lexicographic tie rule."""
    votes = {}
    for idx in nearest[:k]:
        votes[train_labels[idx]] = votes.get(train_labels[idx], 0) + 1
    winner = max(sorted(votes), key=lambda label: votes[label])
    return winner, votes[winner] / k


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_votes_equal_former_vote_for_every_k(data):
    # three labels and even k reach ties that a binary model with odd k never does
    labels = data.draw(st.lists(st.sampled_from(["b", "a", "c"]), min_size=1, max_size=12),
                       label="labels")
    nearest = data.draw(st.permutations(range(len(labels))), label="nearest")
    ks = data.draw(st.sets(st.integers(1, len(labels)), min_size=1), label="ks")
    model = KnnModel(train_matrix=np.zeros((len(labels), 1)), train_labels=labels, k=1,
                     p=2.0, scaler=identity_scaler(1), feature_config=FeatureConfig())
    assert _votes(model, nearest, ks) == {k: former_vote(labels, nearest, k) for k in ks}


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
    assert loaded.feature_config_digest == model.feature_config_digest


def test_load_rejects_version_mismatch(tmp_path):
    model, _ = fitted_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaVersionMismatch):
        load_model(path)


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


def write_redigested(path, payload):
    """Write ``payload`` as a model file whose digest matches it."""
    payload = {key: value for key, value in payload.items() if key != "digest"}
    payload["digest"] = _payload_digest(payload)
    path.write_text(json.dumps(payload))


def saved_payload(tmp_path):
    model, _ = fitted_model()
    save_model(model, tmp_path / "model.json")
    return json.loads((tmp_path / "model.json").read_text())


@pytest.mark.parametrize("mutate, reason", [
    (lambda m: m.update(p=0.5), "p must be >= 1"),
    (lambda m: m.pop("scaler"), "missing field 'scaler'"),
    (lambda m: m["scaler"]["stds"].__setitem__(0, 0.0), "stds must be positive"),
    (lambda m: m.update(k=-1), "k must be >= 1"),
    (lambda m: m.update(k=4), "k must be odd"),
    (lambda m: m.update(k=3.0), "integer"),
    (lambda m: m["train"]["labels"].__setitem__(0, [1]), "labels must be strings"),
    (lambda m: m["train"]["matrix"][0].__setitem__(0, float("nan")), "must be finite"),
    (lambda m: (m["scaler"]["means"].pop(), m["scaler"]["stds"].pop()), "scaler dimensions"),
    (lambda m: m.update(feature_config=[1, 2]), "feature_config must be an object"),
    (lambda m: m.update(feature_config=2048), "feature_config must be an object"),
    (lambda m: m.update(feature_config=None), "feature_config must be an object"),
    (lambda m: m["feature_config"].pop("hop"), "exactly the fields fmax, fmin, hop"),
    (lambda m: m["feature_config"].update(window="hann"), "exactly the fields"),
    (lambda m: m["feature_config"].update(peak_threshold_db=None), "'>=' not supported"),
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
        ("train", "labels"), ("train", "labels", 0),
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
        try:
            with overflow_guard():
                label, fraction = knn_predict(loaded, np.zeros(len(loaded.scaler.means)))
        except DistanceOverflow as exc:
            assert str(exc).startswith(f"p = {loaded.p!r}: ")
            continue
        assert label in loaded.train_labels and 0 < fraction <= 1


def test_overflowing_distance_raises_naming_p():
    rng = np.random.default_rng(33)
    model = knn_fit(rng.random((10, 16)) * 10, ["control", "depression"] * 5, k=3, p=1e300)
    with pytest.raises(DistanceOverflow, match=r"^p = 1e\+300: "):
        with overflow_guard():
            knn_predict(model, np.zeros(16))
    # selection reports it too, here on raw values whose every difference is too large to square
    matrix = np.repeat(np.arange(6.0)[:, None] * 1e200, 2, axis=1)
    with pytest.raises(DistanceOverflow, match=r"^p = 2\.0: "):
        grid_select([PipelineCandidate(k=1, p=2.0, use_scaler=False)], matrix,
                    ["control", "depression"] * 3, folds=3)


def test_overflow_of_farther_rows_keeps_the_answer():
    # with p = 400 the row 10 away overflows (10^400) but the three nearest do
    # not, so the query is answered as without the error state: no exception,
    # the head of the stable argsort, the same vote
    matrix = np.array([[0.0, 0.5], [1.0, 0.0], [0.5, 1.0], [0.2, 0.1], [10.0, 0.0]])
    labels = ["control", "depression", "depression", "control", "depression"]
    model = knn_fit(matrix, labels, k=3, p=400.0, scaler=identity_scaler(2))
    query = np.zeros(2)
    with np.errstate(over="ignore"):
        former = former_minkowski(model.train_matrix, query, 400.0)
    assert np.isinf(former[4]) and np.isfinite(former[:4]).all()
    full = np.argsort(former, kind="stable")
    with overflow_guard():
        assert bits(_distances(model, query)) == bits(former)
        assert _nearest_rows(model, query, 3) == full[:3].tolist()
        assert knn_predict(model, query) == former_vote(labels, full, 3)
        with pytest.raises(DistanceOverflow, match=r"^p = 400\.0: .* nearest row 5 "):
            _nearest_rows(model, query, 5)
    grid_select([PipelineCandidate(k=1, p=400.0, use_scaler=False)], matrix[:4].repeat(2, axis=0),
                labels[:4] * 2, folds=2)
