"""Labeled corpus manifests and deterministic train/test splits.

A manifest row is (path, label, participant). The same CSV shape holds
recording on disk (one row per WAV) and extracted segments (one row per
segment id), so splitting works at either granularity.

Splits are reproducible bit-for-bit: a SplitMix64 stream seeds a
Fisher-Yates shuffle of the split units, and the train side takes the
first round-half-up(N * train_fraction) units of the shuffled order.
Segment-level splitting mirrors the screening protocol, each row its own
unit; speaker-disjoint splitting takes participants as units, keeping
each wholly on one side, which is the honest alternative when segments
of one speaker would otherwise leak across the boundary.
"""

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import VocalScreenError, number
from .rng import SplitMix64, check_seed, fisher_yates, round_half_up

LABELS = ("control", "depression")

SEGMENT_LEVEL = "segment-level"
SPEAKER_DISJOINT = "speaker-disjoint"
SPLIT_MODES = (SEGMENT_LEVEL, SPEAKER_DISJOINT)

MANIFEST_HEADER = ["path", "label", "participant"]


class ManifestParseError(VocalScreenError):
    """Manifest CSV violates the (path, label, participant) contract."""


class DuplicatePath(VocalScreenError):
    """Two manifest rows share one path."""


class UnknownLabel(VocalScreenError):
    """Label outside the closed {control, depression} set."""


class BadParticipant(VocalScreenError):
    """A participant code is empty, or one participant holds rows of both labels."""


class DegenerateSplit(VocalScreenError):
    """Requested split would leave a side empty or single-class."""


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    participant: str


@dataclass(frozen=True)
class DatasetManifest:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        seen, label_of = set(), {}
        for row in self.rows:
            if row.label not in LABELS:
                raise UnknownLabel(f"label {row.label!r} not in {LABELS}")
            if row.path in seen:
                raise DuplicatePath(f"path {row.path!r} appears twice")
            seen.add(row.path)
            if not row.participant:
                raise BadParticipant(f"path {row.path!r} has an empty participant code")
            first = label_of.setdefault(row.participant, row.label)
            if first != row.label:
                raise BadParticipant(f"participant {row.participant!r} is labelled both"
                                     f" {first!r} and {row.label!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def label_counts(self) -> dict:
        counts = {label: 0 for label in LABELS}
        for row in self.rows:
            counts[row.label] += 1
        return counts


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0
    mode: str = SEGMENT_LEVEL

    def __post_init__(self):
        if not 0 < number(self.train_fraction, "train_fraction") < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        check_seed(self.seed)
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"mode must be one of {SPLIT_MODES}")


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest CSV, validating header, labels, and uniqueness.

    Every rejection is a VocalScreenError whose message starts with the path.
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != MANIFEST_HEADER:
                raise ManifestParseError(f"{path}: bad header {header}, want {MANIFEST_HEADER}")
            rows = []
            for row in reader:  # line_num counts the lines a quoted newline spans
                if len(row) != 3:
                    raise ManifestParseError(f"{path}:{reader.line_num}: expected 3 fields,"
                                             f" got {len(row)}")
                rows.append(ManifestRow(path=row[0], label=row[1], participant=row[2]))
        return DatasetManifest(rows=rows)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ManifestParseError(f"{path}: cannot read as CSV text: {exc}") from exc
    except (UnknownLabel, DuplicatePath, BadParticipant) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for row in manifest:
            writer.writerow([row.path, row.label, row.participant])


def split(manifest: DatasetManifest, spec: SplitSpec):
    """Deterministically partition a manifest into (train, test).

    Rows are grouped into units, a segment-level unit being one row and a
    speaker-disjoint unit one participant, in first-appearance order. The
    units are shuffled and the train side takes the first
    round(N * train_fraction) of them; rows are emitted grouped by unit in
    the shuffled order.
    """
    column = "path" if spec.mode == SEGMENT_LEVEL else "participant"
    by_unit = {}
    for row in manifest:
        by_unit.setdefault(getattr(row, column), []).append(row)
    units = fisher_yates(list(by_unit.values()), SplitMix64(spec.seed))
    n_train = round_half_up(len(units) * spec.train_fraction)
    train_rows = [row for unit in units[:n_train] for row in unit]
    test_rows = [row for unit in units[n_train:] for row in unit]
    if not train_rows or not test_rows:
        raise DegenerateSplit(f"{len(units)} {column}s cannot split at {spec.train_fraction}")
    if spec.mode == SPEAKER_DISJOINT:
        for side_name, side in (("train", train_rows), ("test", test_rows)):
            if len({r.label for r in side}) < 2:
                raise DegenerateSplit(f"speaker-disjoint {side_name} side has a single class")
        assert {r.participant for r in train_rows}.isdisjoint(r.participant for r in test_rows)
    return DatasetManifest(rows=train_rows), DatasetManifest(rows=test_rows)


def write_split(out_dir, train: DatasetManifest, test: DatasetManifest, spec: SplitSpec) -> dict:
    """Write train.csv, test.csv, and the split.json sidecar; return the sidecar."""
    out_dir = Path(out_dir)
    save_manifest(out_dir / "train.csv", train)
    save_manifest(out_dir / "test.csv", test)
    sidecar = {**asdict(spec), "counts": {
        "train": {**train.label_counts(), "total": len(train)},
        "test": {**test.label_counts(), "total": len(test)},
    }}
    write_json(out_dir / "split.json", sidecar)
    return sidecar


def write_json(path, payload: dict) -> None:
    """Write a JSON sidecar or report: two-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
