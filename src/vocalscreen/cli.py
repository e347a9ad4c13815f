"""Command-line surface for the screening pipeline.

Subcommands mirror the workflow end to end::

    vocalscreen synth    --out cohort/
    vocalscreen extract  --manifest cohort/cohort.csv --out work/
    vocalscreen split    --manifest work/segments.csv --out work/
    vocalscreen train    --features work/features.csv --manifest work/train.csv --out work/
    vocalscreen evaluate --features work/features.csv --manifest work/test.csv \
                         --model work/model.json --split-sidecar work/split.json --out work/
    vocalscreen predict  --model work/model.json --features work/features.csv
    vocalscreen select   --features work/features.csv --manifest work/train.csv --out work/
    vocalscreen stats    --features work/features.csv --out work/

Flag precedence: explicit flag > --config file > VOCALSCREEN_SEED (seed
only) > built-in default, taken from the library's dataclasses. Each
``key = value`` line of a --config file is read as the flag
``--key=value`` (``--key`` / ``--no-key`` for true / false) and parsed
ahead of the command line, so it is checked like the same flag typed
out; an unknown key is a usage error. ``--seed`` exists only for synth,
split and select, the stages that draw random numbers. extract takes no
tuning flag: it runs one features.Extraction(), the pipeline's
constants, which only a library caller sets otherwise. A handler writes
its outputs and prints its summary; then ``main``, the one writer of run
records, writes <out>/<command>.run.json: the parsed flags, all but
--out and --config, or for extract the manifest and asdict of the
Extraction it ran, which train binds into the model from the
extract.run.json beside --features, and evaluate and predict compare
with the model's. A stage that fails writes no record. Outputs never
embed timestamps, so reruns with the same inputs and seed are
byte-identical.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import audio_io, dataset, evaluation, model, preprocess, synth
from .errors import VocalScreenError
from .features import (N_FEATURES, Extraction, extract_features, read_features_csv,
                       write_features_csv)
from .rng import check_seed


class _UsageError(VocalScreenError):
    """A flag value (given on the command line or by --config) out of range."""


@contextlib.contextmanager
def _named(prefix, *errors, usage=False):
    """Re-raise any of ``errors`` as "<prefix>: <error>", the prefix naming the file or flags.

    The error raised is a VocalScreenError, or a _UsageError if ``usage``.
    """
    try:
        yield
    except errors as exc:
        raise (_UsageError if usage else VocalScreenError)(f"{prefix}: {exc}") from exc


def load_config(path) -> list:
    """Read a key = value file as flag arguments; blank lines and # comments ignored.

    ``key = value`` becomes ``--key=value`` (underscores read as dashes,
    surrounding quotes dropped), and ``true`` / ``false`` become
    ``--key`` / ``--no-key``.
    """
    with _named(f"{path}: cannot decode as text", UnicodeDecodeError):
        text = Path(path).read_bytes().decode()
    args = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise VocalScreenError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if "help".startswith(key):  # --help would print usage and exit 0 without running
            raise _UsageError(f"{path}:{lineno}: {key!r} is not a flag a config file can set")
        value = value.strip().strip("\"'")
        if value.lower() in ("true", "false"):
            args.append(f"--{key}" if value.lower() == "true" else f"--no-{key}")
        else:
            args.append(f"--{key}={value}")
    return args


def _recorded_extraction(features_path) -> Extraction | None:
    """The Extraction recorded in the extract.run.json beside a features CSV, or None."""
    path = Path(features_path).parent / "extract.run.json"
    if not path.exists():
        return None
    with open(path) as fh, _named(f"{path}: bad record", KeyError, TypeError, ValueError,
                                  OverflowError):
        return Extraction.from_record(json.load(fh))


def _each_constant(extraction: Extraction) -> dict:
    """Extraction constants by their own names, each group spread: no two share a name."""
    each = {}
    for name, value in asdict(extraction).items():
        each.update(value if isinstance(value, dict) else {name: value})
    return each


def _segment_id(manifest_path: str, index: int) -> str:
    base = re.sub(r"\.wav$", "", manifest_path, flags=re.IGNORECASE)
    base = base.replace("\\", "__").replace("/", "__")
    return f"{base}.seg{index:03d}"


def _join_features(features_path, manifest_path):
    """The feature rows and labels of the manifest's segments, in manifest order; a segment
    missing from the features CSV, or labelled otherwise there, names both files."""
    ids, csv_labels, matrix = read_features_csv(features_path)
    index = {sid: i for i, sid in enumerate(ids)}
    rows, labels = [], []
    for row in dataset.load_manifest(manifest_path):
        if row.path not in index:
            raise VocalScreenError(f"{features_path}: no row for segment {row.path!r}"
                                   f" of {manifest_path}")
        i = index[row.path]
        if csv_labels[i] != row.label:
            raise VocalScreenError(f"{features_path}: segment {row.path!r} is labelled"
                                   f" {csv_labels[i]!r}, {manifest_path} labels it {row.label!r}")
        rows.append(matrix[i])
        labels.append(row.label)
    return np.asarray(rows), labels


def _load_model(path, features_path) -> model.KnnModel:
    """load_model, also rejecting a model that does not take the features CSV's columns,
    or whose extraction constants differ from those recorded next to the CSV."""
    fitted = model.load_model(path)
    dims = len(fitted.scaler.means)
    if dims != N_FEATURES:
        raise VocalScreenError(f"{path}: model takes {dims} feature dimensions,"
                               f" a features CSV holds {N_FEATURES}")
    # features without a record are not checked: the model is compared with itself
    ours = _each_constant(_recorded_extraction(features_path) or fitted.extraction)
    theirs = _each_constant(fitted.extraction)
    differ = ", ".join(f"{key} {ours[key]!r} (model {theirs[key]!r})"
                       for key in ours if ours[key] != theirs[key])
    if differ:
        raise VocalScreenError(f"{features_path}: extracted with other constants than"
                               f" {path} was trained on: {differ}")
    return fitted


def _predictions(fitted: model.KnnModel, model_path, matrix) -> list:
    """(label, vote fraction) of each row of ``matrix``, from one neighbour query and one
    vote, so a p = 2 model answers a table of two or more rows through the block filter;
    a DistanceOverflow names the model."""
    with _named(model_path, model.DistanceOverflow):
        return model._predict_rows(fitted, matrix)


# --- subcommand handlers -------------------------------------------------


def cmd_synth(ns) -> None:
    with _named("--seed", ValueError, usage=True):
        check_seed(ns.seed)
    with _named("--speakers-per-class/--seconds-per-speaker", ValueError, usage=True):
        spec = synth.CohortSpec(
            speakers_per_class=ns.speakers_per_class,
            seconds_per_speaker=ns.seconds_per_speaker,
            seed=ns.seed,
        )
    manifest = synth.generate_cohort(spec, ns.out)
    print(f"synth: wrote {len(manifest)} recordings + cohort.csv to {ns.out}")
    print(f"note: {synth.NON_CLINICAL_NOTE}")


def _recording_features(wav_path, source_id: str, extraction: Extraction) -> list:
    """Feature rows of one recording's segments, made with ``extraction``, in segment order.

    A recording with less voiced audio than one segment yields no row and
    is named on stderr with its voiced seconds. The recording's audio is
    dropped on return, before the caller reads the next file.
    """
    with _named(source_id, VocalScreenError, OSError, ValueError):
        clip = audio_io.load_mono(wav_path)
        voiced = preprocess.remove_silence(clip, extraction.silence)
        segments = preprocess.segment(voiced, extraction.segment_seconds)
    if not segments:
        print(f"extract: {source_id}: no segment, {voiced.duration_seconds:.2f} s voiced"
              f" is shorter than {extraction.segment_seconds} s", file=sys.stderr)
    return [extract_features(seg, extraction.feature_config) for seg in segments]


def cmd_extract(ns) -> dict:
    """Write features.csv and segments.csv with the pipeline's constants, one Extraction;
    return the run record, which holds that object in the nested shape train binds."""
    manifest_path = Path(ns.manifest)
    manifest = dataset.load_manifest(manifest_path)
    if len(manifest) == 0:
        raise VocalScreenError(f"{manifest_path}: empty manifest")
    extraction = Extraction()
    feature_rows, segment_rows, recording_of = [], [], {}
    for row in manifest.rows:
        wav_path = Path(row.path)
        if not wav_path.is_absolute():
            wav_path = manifest_path.parent / wav_path
        values = _recording_features(wav_path, row.path, extraction)
        feature_rows += values
        for i in range(len(values)):
            sid = _segment_id(row.path, i)
            if sid in recording_of:  # a/b.wav and a__b.wav, or x.wav and x.WAV
                raise VocalScreenError(f"{manifest_path}: recordings {recording_of[sid]!r} and"
                                       f" {row.path!r} both give segment id {sid!r}")
            recording_of[sid] = row.path
            segment_rows.append(dataset.ManifestRow(path=sid, label=row.label,
                                                    participant=row.participant))
    segment_manifest = dataset.DatasetManifest(rows=segment_rows)

    ns.out.mkdir(parents=True, exist_ok=True)
    write_features_csv(ns.out / "features.csv", [r.path for r in segment_rows],
                       [r.label for r in segment_rows], feature_rows)
    dataset.save_manifest(ns.out / "segments.csv", segment_manifest)
    counts = segment_manifest.label_counts()
    summary = ", ".join(f"{label}={counts[label]}" for label in sorted(counts))
    print(f"extract: {len(segment_manifest)} segments ({summary}) -> {ns.out}")
    return {"manifest": str(manifest_path), **asdict(extraction)}


def cmd_split(ns) -> None:
    with _named("--seed", ValueError, usage=True):
        check_seed(ns.seed)
    with _named("--train-fraction/--mode", ValueError, usage=True):
        spec = dataset.SplitSpec(train_fraction=ns.train_fraction, seed=ns.seed, mode=ns.mode)
    manifest = dataset.load_manifest(ns.manifest)
    # the fraction passed its own (0, 1) rule, so only the data can fail it: exit 1
    with _named(f"--manifest {ns.manifest} with --train-fraction", dataset.DegenerateSplit):
        train, test = dataset.split(manifest, spec)
    ns.out.mkdir(parents=True, exist_ok=True)
    sidecar = dataset.write_split(ns.out, train, test, spec)
    print(f"split[{spec.mode}]: train={sidecar['counts']['train']['total']}"
          f" test={sidecar['counts']['test']['total']} -> {ns.out}")


def cmd_train(ns) -> None:
    k, p, use_scaler = ns.k, ns.p, ns.scaler
    with _named("--k/--p", ValueError, model.EvenK, usage=True):
        model.check_k_and_p(k, p)
    features, labels = _join_features(ns.features, ns.manifest)
    if not labels:
        raise model.EmptyTrainingSet(f"{ns.manifest}: no segments to train on")
    with _named(ns.features, model.ScalerOverflow):
        scaler = (model.fit_scaler(features) if use_scaler
                  else model.identity_scaler(features.shape[1]))
    with _named(f"{ns.manifest}: too few rows for --k {k}", model.TooFewSamples):
        fitted = model.knn_fit(features, labels, k=k, p=p, scaler=scaler,
                               extraction=_recorded_extraction(ns.features) or Extraction())
    ns.out.mkdir(parents=True, exist_ok=True)
    model.save_model(fitted, ns.out / "model.json")
    print(f"train: {evaluation.PipelineCandidate(k, p, use_scaler).describe()}"
          f" on {len(labels)} segments -> {ns.out / 'model.json'}")


def cmd_evaluate(ns) -> None:
    features, truth = _join_features(ns.features, ns.manifest)
    if not truth:
        raise evaluation.EmptyInput(f"{ns.manifest}: no segments to score")
    fitted = _load_model(ns.model, ns.features)
    split_mode = "unknown"
    if ns.split_sidecar:
        # malformed JSON, not UTF-8, not an object, or a mode no split run writes
        with open(ns.split_sidecar) as fh, _named(f"{ns.split_sidecar}: bad split sidecar",
                                                  ValueError):
            sidecar = json.load(fh)
            if not isinstance(sidecar, dict):
                raise ValueError("not a JSON object")
            if "mode" in sidecar:
                split_mode = sidecar["mode"]
                if split_mode not in dataset.SPLIT_MODES:
                    raise ValueError(f"mode {split_mode!r} is not one of"
                                     f" {', '.join(dataset.SPLIT_MODES)}")
    predictions = [label for label, _score in _predictions(fitted, ns.model, features)]
    report = evaluation.eval_report(predictions, truth, split_mode, fitted.k, fitted.p)
    ns.out.mkdir(parents=True, exist_ok=True)
    dataset.write_json(ns.out / "eval_report.json", report)
    text = evaluation.render_eval_text(report)
    (ns.out / "eval_report.txt").write_text(text)
    print(text, end="")


def cmd_predict(ns) -> None:
    fitted = _load_model(ns.model, ns.features)
    ids, _labels, matrix = read_features_csv(ns.features)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["segment_id", "label", "score"])
    for sid, (label, score) in zip(ids, _predictions(fitted, ns.model, matrix)):
        writer.writerow([sid, label, repr(score)])
    text = buffer.getvalue()
    print(text, end="")
    if ns.out is not None:
        ns.out.mkdir(parents=True, exist_ok=True)
        (ns.out / "predictions.csv").write_text(text)


def cmd_select(ns) -> None:
    with _named("--folds", ValueError, usage=True):
        evaluation.check_folds(ns.folds)
    with _named("--seed", ValueError, usage=True):
        check_seed(ns.seed)
    features, labels = _join_features(ns.features, ns.manifest)
    # a class short of folds, or a fold's training part short of the grid's largest k
    with (_named(ns.features, model.DistanceOverflow, model.ScalerOverflow),
          _named(f"{ns.manifest}: too few rows for --folds {ns.folds}",
                 evaluation.TooFewSamplesPerClass, model.TooFewSamples)):
        report = evaluation.grid_select(evaluation.default_grid(), features, labels,
                                        folds=ns.folds, seed=ns.seed)
    ns.out.mkdir(parents=True, exist_ok=True)
    dataset.write_json(ns.out / "selection_report.json", report)
    print(evaluation.render_selection_text(report), end="")


def cmd_stats(ns) -> None:
    _ids, labels, matrix = read_features_csv(ns.features)
    if not labels:
        raise VocalScreenError(f"{ns.features}: no feature rows")
    column = np.asarray(labels)
    by_group = {label: matrix[column == label] for label in dict.fromkeys(labels)}
    stats = evaluation.descriptive_stats(by_group)
    with _named(ns.features, evaluation.GroupTooSmall):
        t_tests = evaluation.group_t_tests(by_group) if len(by_group) == 2 else None
    ns.out.mkdir(parents=True, exist_ok=True)
    dataset.write_json(ns.out / "stats.json", {"descriptives": stats, "t_tests": t_tests})
    text = evaluation.render_stats_text(stats, t_tests)
    (ns.out / "stats.txt").write_text(text)
    print(text, end="")


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="file of key = value lines, read as flags before the command line")
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--out", type=Path, required=True, help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[writes])
    # a string default goes through type=int, so a bad $VOCALSCREEN_SEED is a usage error
    seeded.add_argument("--seed", type=int,
                        default=os.environ.get("VOCALSCREEN_SEED") or dataset.SplitSpec.seed,
                        help="deterministic seed (default: $VOCALSCREEN_SEED or %(default)s)")

    parser = argparse.ArgumentParser(
        prog="vocalscreen",
        description="Audio-only depression-risk screening pipeline (synthetic data only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic labeled cohort")
    p.add_argument("--speakers-per-class", type=int, default=synth.CohortSpec.speakers_per_class)
    p.add_argument("--seconds-per-speaker", type=float,
                   default=synth.CohortSpec.seconds_per_speaker)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("extract", parents=[writes],
                       help="decode, de-silence, segment, and extract features")
    p.add_argument("--manifest", required=True, help="recording manifest CSV")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("split", parents=[seeded], help="deterministic train/test split")
    p.add_argument("--manifest", required=True, help="segment manifest CSV")
    p.add_argument("--train-fraction", type=float, default=dataset.SplitSpec.train_fraction)
    p.add_argument("--mode", choices=dataset.SPLIT_MODES, default=dataset.SplitSpec.mode)
    p.set_defaults(handler=cmd_split)

    candidate = evaluation.PipelineCandidate
    p = sub.add_parser("train", parents=[writes], help="fit scaler + KNN and persist the model")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True, help="training-side segment manifest")
    p.add_argument("--k", type=int, default=candidate.k)
    p.add_argument("--p", type=float, default=candidate.p)
    p.add_argument("--scaler", action=argparse.BooleanOptionalAction, default=candidate.use_scaler)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", parents=[writes], help="score a model on held-out segments")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True, help="test-side segment manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--split-sidecar", default=None, help="split.json recording the split mode")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common], help="print segment_id,label,score per row")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", type=Path, default=None, help="also write predictions.csv here")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("select", parents=[seeded],
                       help="exhaustive cross-validated grid over KNN pipelines")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True, help="training-side segment manifest")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("stats", parents=[writes], help="per-group descriptive stats and t-tests")
    p.add_argument("--features", required=True)
    p.set_defaults(handler=cmd_stats)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config:
            # config flags go right after the subcommand, so a flag on the command line wins
            at = argv.index(ns.command) + 1
            ns = parser.parse_args(argv[:at] + load_config(ns.config) + argv[at:])
        record = ns.handler(ns)
        if ns.out is not None:  # every stage but predict without --out
            if record is None:
                record = {key: value for key, value in vars(ns).items()
                          if key not in ("out", "config", "handler")}
            dataset.write_json(ns.out / f"{ns.command}.run.json",
                               {**record, "command": ns.command})
        return 0
    except (VocalScreenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
