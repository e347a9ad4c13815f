import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalscreen.dataset import (
    SEGMENT_LEVEL,
    SPEAKER_DISJOINT,
    BadParticipant,
    DatasetManifest,
    DegenerateSplit,
    DuplicatePath,
    ManifestParseError,
    ManifestRow,
    SplitSpec,
    UnknownLabel,
    load_manifest,
    save_manifest,
    split,
    write_split,
)
from vocalscreen.errors import VocalScreenError
from vocalscreen.rng import SplitMix64, fisher_yates, round_half_up


def rows_for(n, participants=None, labels=None):
    out = []
    for i in range(n):
        label = labels[i] if labels else ("depression" if i % 2 else "control")
        pid = participants[i] if participants else f"p{i % 4}"
        out.append(ManifestRow(path=f"seg{i:03d}", label=label, participant=pid))
    return out


def test_load_manifest_ok(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,label,participant\na.wav,depression,p1\nb.wav,control,p2\nc.wav,control,p2\n")
    manifest = load_manifest(path)
    assert len(manifest) == 3
    assert manifest.label_counts() == {"control": 2, "depression": 1}
    assert [row.participant for row in manifest] == ["p1", "p2", "p2"]


def test_load_manifest_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("file,label\n")
    with pytest.raises(ManifestParseError):
        load_manifest(bad_header)

    short_row = tmp_path / "r.csv"
    short_row.write_text("path,label,participant\na.wav,depression\n")
    with pytest.raises(ManifestParseError):
        load_manifest(short_row)

    unknown = tmp_path / "u.csv"
    unknown.write_text("path,label,participant\na.wav,anxious,p1\n")
    with pytest.raises(UnknownLabel):
        load_manifest(unknown)

    dup = tmp_path / "d.csv"
    dup.write_text("path,label,participant\na.wav,control,p1\na.wav,control,p2\n")
    with pytest.raises(DuplicatePath):
        load_manifest(dup)


@pytest.mark.parametrize("rows, message", [
    ("a.wav,control,p1\nb.wav,control,p2\nc.wav,depression,p1\n",
     "participant 'p1' is labelled both 'control' and 'depression'"),
    ("a.wav,depression,p1\nb.wav,control,p1\n",
     "participant 'p1' is labelled both 'depression' and 'control'"),
    ("a.wav,control,p1\nb.wav,depression,\n", "path 'b.wav' has an empty participant code"),
])
def test_a_participant_keeps_one_label_and_a_code(tmp_path, rows, message):
    # per-participant folds, scores and label permutations need one label per person
    path = tmp_path / "m.csv"
    path.write_text("path,label,participant\n" + rows)
    with pytest.raises(BadParticipant, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_manifest(path)
    rows = [ManifestRow(*line.split(",")) for line in rows.splitlines()]
    with pytest.raises(BadParticipant, match=f"^{re.escape(message)}$"):
        DatasetManifest(rows=rows)


def test_manifest_roundtrip(tmp_path):
    manifest = DatasetManifest(rows=rows_for(7))
    save_manifest(tmp_path / "m.csv", manifest)
    assert load_manifest(tmp_path / "m.csv") == manifest


def test_segment_split_sizes_and_partition():
    manifest = DatasetManifest(rows=rows_for(10))
    train, test = split(manifest, SplitSpec(train_fraction=0.8, seed=1))
    assert (len(train), len(test)) == (8, 2)
    assert set(train.rows) | set(test.rows) == set(manifest.rows)
    assert set(train.rows) & set(test.rows) == set()


def test_split_round_half_up():
    manifest = DatasetManifest(rows=rows_for(10))
    train, test = split(manifest, SplitSpec(train_fraction=0.85, seed=1))
    assert (len(train), len(test)) == (9, 1)  # round(8.5) goes up
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"cannot round {x}"):
            round_half_up(x)


def test_split_deterministic_and_seed_sensitive():
    manifest = DatasetManifest(rows=rows_for(40))
    a1, b1 = split(manifest, SplitSpec(seed=5))
    a2, b2 = split(manifest, SplitSpec(seed=5))
    assert a1 == a2 and b1 == b2
    a3, _ = split(manifest, SplitSpec(seed=6))
    assert (len(a3), ) == (len(a1), )
    assert set(a3.rows) != set(a1.rows)


def test_speaker_disjoint_no_leakage():
    manifest = DatasetManifest(rows=rows_for(
        24,
        participants=[f"p{i // 3}" for i in range(24)],
        labels=["depression" if i // 3 % 2 else "control" for i in range(24)],
    ))
    train, test = split(manifest, SplitSpec(seed=1, mode=SPEAKER_DISJOINT))
    assert {row.participant for row in train}.isdisjoint({row.participant for row in test})
    # every participant's rows are wholly on one side
    for pid in {row.participant for row in manifest}:
        on_train = any(r.participant == pid for r in train)
        on_test = any(r.participant == pid for r in test)
        assert on_train != on_test


def test_degenerate_splits():
    with pytest.raises(DegenerateSplit):
        split(DatasetManifest(rows=rows_for(1)), SplitSpec(train_fraction=0.8, seed=1))
    # two single-class participants force a one-class side
    rows = rows_for(4, participants=["a", "a", "b", "b"],
                    labels=["control", "control", "depression", "depression"])
    with pytest.raises(DegenerateSplit):
        split(DatasetManifest(rows=rows), SplitSpec(train_fraction=0.5, seed=1,
                                                    mode=SPEAKER_DISJOINT))


def test_split_spec_validation():
    for fraction in (0.0, -0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"^train_fraction must lie in \(0, 1\)$"):
            SplitSpec(train_fraction=fraction)
    with pytest.raises(ValueError):
        SplitSpec(mode="bogus")
    # --train-fraction and --mode take their defaults from here, and split.json records them
    assert SplitSpec() == SplitSpec(train_fraction=0.8, seed=0, mode=SEGMENT_LEVEL)


def test_splitmix64_takes_only_a_64_bit_seed():
    # the low 64 bits of -1 and 2^64 are the seeds 2^64 - 1 and 0, so those
    # seeds drew the same stream as these did
    assert SplitMix64(2 ** 64 - 1).next_uint64() != SplitMix64(0).next_uint64()
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\^64\), got {seed}$"):
            SplitMix64(seed)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=120),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    fraction=st.floats(min_value=0.2, max_value=0.8),
)
def test_segment_split_partition_property(n, seed, fraction):
    manifest = DatasetManifest(rows=rows_for(n))
    spec = SplitSpec(train_fraction=fraction, seed=seed)
    try:
        train, test = split(manifest, spec)
    except DegenerateSplit:
        return
    assert len(train) + len(test) == n
    assert set(train.rows) | set(test.rows) == set(manifest.rows)
    assert set(train.rows).isdisjoint(test.rows)
    # same seed reproduces membership exactly
    train2, test2 = split(manifest, spec)
    assert train2 == train and test2 == test


def former_segment_split(manifest, spec):
    """Segment-level split as defined before the one unit-based path: shuffle rows, cut."""
    order = fisher_yates(list(manifest.rows), SplitMix64(spec.seed))
    n_train = round_half_up(len(order) * spec.train_fraction)
    train_rows, test_rows = order[:n_train], order[n_train:]
    if not train_rows or not test_rows:
        raise DegenerateSplit(f"{len(order)} rows cannot split at {spec.train_fraction}")
    return DatasetManifest(rows=train_rows), DatasetManifest(rows=test_rows)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    speakers=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    fraction=st.floats(min_value=0.01, max_value=0.99),
)
def test_segment_split_equals_former_definition(n, speakers, seed, fraction):
    participants = [f"p{i % (2 * speakers)}" for i in range(n)]  # one label each
    manifest = DatasetManifest(rows=rows_for(n, participants=participants))
    spec = SplitSpec(train_fraction=fraction, seed=seed)
    try:
        expected = former_segment_split(manifest, spec)
    except DegenerateSplit:
        with pytest.raises(DegenerateSplit):
            split(manifest, spec)
        return
    assert split(manifest, spec) == expected


def test_write_split_sidecar(tmp_path):
    manifest = DatasetManifest(rows=rows_for(10))
    spec = SplitSpec(train_fraction=0.8, seed=9)
    train, test = split(manifest, spec)
    sidecar = write_split(tmp_path, train, test, spec)
    assert (tmp_path / "train.csv").exists()
    assert (tmp_path / "test.csv").exists()
    text = (tmp_path / "split.json").read_text()
    assert text == json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    on_disk = json.loads(text)
    assert on_disk == sidecar
    assert on_disk["mode"] == SEGMENT_LEVEL
    assert on_disk["counts"]["train"]["total"] == 8
    assert load_manifest(tmp_path / "train.csv") == train


@st.composite
def manifest_tables(draw):
    """A manifest CSV: an optional right header, then rows of 0-4 fields
    drawn from valid values, CSV metacharacters and arbitrary text."""
    field = st.one_of(st.sampled_from(["a.wav", "control", "depression", "p0", "", '"', ",",
                                       "\r", "\n"]), st.text(max_size=4))
    rows = draw(st.lists(st.lists(field, max_size=4), max_size=5))
    if draw(st.booleans()):
        rows.insert(0, ["path", "label", "participant"])
    return "\n".join(",".join(row) for row in rows).encode()


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), manifest_tables()))
def test_load_manifest_fuzz_raises_only_vocalscreen_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "manifest.csv"
    path.write_bytes(data)
    try:
        manifest = load_manifest(path)
    except VocalScreenError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert isinstance(manifest, DatasetManifest)


@pytest.mark.parametrize("content, error, message", [
    (b"path,label\n", ManifestParseError, "bad header"),
    (b"path,label,participant\n\xff.wav,control,p0\n", ManifestParseError, "cannot read"),
    (b"path,label,participant\na.wav,anxious,p0\n", UnknownLabel, "anxious"),
    (b"path,label,participant\na.wav,control,p0\na.wav,control,p1\n", DuplicatePath, "twice"),
    # a quoted path spanning lines 2-3, then a short row on line 4 (it was reported as line 3)
    (b'path,label,participant\n"a\nb.wav",control,p0\nc.wav,control\n', ManifestParseError,
     "manifest.csv:4: expected 3 fields, got 2"),
])
def test_load_manifest_errors_name_the_file(tmp_path, content, error, message):
    path = tmp_path / "manifest.csv"
    path.write_bytes(content)
    with pytest.raises(error, match=message) as excinfo:
        load_manifest(path)
    assert re.match(rf"{re.escape(str(path))}(:\d+)?: ", str(excinfo.value))
