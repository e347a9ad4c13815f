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
split and select, the stages that draw random numbers. Every run writes
its full effective configuration to run_config.json in the output
directory; primary outputs never embed timestamps, so reruns with the
same inputs and seed are byte-identical.
"""

import argparse
import contextlib
import json
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import audio_io, dataset, evaluation, model, preprocess, synth
from .errors import VocalScreenError
from .features import (N_FEATURES, FeatureConfig, extract_features, read_features_csv,
                       write_features_csv)
from .rng import round_half_up


class _UsageError(VocalScreenError):
    """A flag value (given on the command line or by --config) out of range."""


@contextlib.contextmanager
def _flag_values(*flags):
    """Report a ValueError raised on flag values as a usage error naming them."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(f"{'/'.join(flags)}: {exc}") from exc


@contextlib.contextmanager
def _queries(model_path, fitted):
    """A batch of KNN queries on ``fitted``; a distance overflow names the model file."""
    try:
        with model.overflow_guard():
            yield
    except model.DistanceOverflow as exc:
        raise VocalScreenError(f"{model_path}: {exc}") from exc


def load_config(path) -> list:
    """Read a key = value file as flag arguments; blank lines and # comments ignored.

    ``key = value`` becomes ``--key=value`` (underscores read as dashes,
    surrounding quotes dropped), and ``true`` / ``false`` become
    ``--key`` / ``--no-key``.
    """
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise VocalScreenError(f"{path}: cannot decode as text: {exc}") from exc
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


def _write_run_config(out_dir: Path, command: str, effective: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.write_json(out_dir / "run_config.json", {"command": command, **effective})


def _segment_id(manifest_path: str, index: int) -> str:
    base = re.sub(r"\.wav$", "", manifest_path, flags=re.IGNORECASE)
    base = base.replace("\\", "__").replace("/", "__")
    return f"{base}.seg{index:03d}"


def _join_features(features_path, manifest_path, manifest: dataset.DatasetManifest):
    """Select feature rows by manifest order; fail loudly on missing ids."""
    ids, _labels, matrix = read_features_csv(features_path)
    index = {sid: i for i, sid in enumerate(ids)}
    rows, labels = [], []
    for row in manifest:
        if row.path not in index:
            raise VocalScreenError(f"{features_path}: no row for segment {row.path!r}"
                                   f" of {manifest_path}")
        rows.append(matrix[index[row.path]])
        labels.append(row.label)
    return np.asarray(rows), labels


def _load_model(path) -> model.KnnModel:
    """load_model, also rejecting a model that does not take a features CSV's columns."""
    fitted = model.load_model(path)
    dims = len(fitted.scaler.means)
    if dims != N_FEATURES:
        raise VocalScreenError(f"{path}: model takes {dims} feature dimensions,"
                               f" a features CSV holds {N_FEATURES}")
    return fitted


def _feature_config_from(ns) -> FeatureConfig:
    path = ns.feature_config
    if path is None:
        return FeatureConfig()
    with open(path) as fh:
        try:
            payload = json.load(fh)
            if "feature_config" in payload:  # accept an extract run_config.json directly
                payload = payload["feature_config"]
            return FeatureConfig(**payload)
        except (TypeError, ValueError) as exc:  # bad JSON, unknown key, bad value
            raise VocalScreenError(f"{path}: bad feature config: {exc}") from exc


# --- subcommand handlers -------------------------------------------------


def cmd_synth(ns) -> int:
    out_dir = Path(ns.out)
    with _flag_values("--speakers-per-class", "--seconds-per-speaker"):
        spec = synth.CohortSpec(
            speakers_per_class=ns.speakers_per_class,
            seconds_per_speaker=ns.seconds_per_speaker,
            seed=ns.seed,
        )
    manifest = synth.generate_cohort(spec, out_dir)
    run_config = asdict(spec)
    del run_config["class_profiles"]  # not a flag; cohort.json records the profiles
    _write_run_config(out_dir, "synth", run_config)
    print(f"synth: wrote {len(manifest)} recordings + cohort.csv to {out_dir}")
    print(f"note: {synth.NON_CLINICAL_NOTE}")
    return 0


def _recording_features(wav_path, source_id: str, silence, segment_seconds, config) -> list:
    """Feature rows of one recording's segments, in segment order.

    The recording's audio is dropped on return, before the caller reads
    the next file.
    """
    try:
        clip = audio_io.load_mono(wav_path)
        voiced = preprocess.remove_silence(clip, silence)
        segments = preprocess.segment(voiced, segment_seconds)
    except (VocalScreenError, OSError, ValueError) as exc:
        raise VocalScreenError(f"{source_id}: {exc}") from exc
    return [extract_features(seg, config) for seg in segments]


def cmd_extract(ns) -> int:
    manifest_path = Path(ns.manifest)
    out_dir = Path(ns.out)
    with _flag_values("--frame-seconds", "--hop-seconds", "--threshold-ratio"):
        silence = preprocess.SilenceParams(
            frame_seconds=ns.frame_seconds,
            hop_seconds=ns.hop_seconds,
            threshold_ratio=ns.threshold_ratio,
        )
    segment_seconds = ns.segment_seconds
    if not segment_seconds > 0:
        raise _UsageError(f"--segment-seconds: must be positive, got {segment_seconds}")
    with _flag_values("--n-fft", "--fft-hop", "--n-mels"):
        config = FeatureConfig(
            n_fft=ns.n_fft,
            hop=ns.fft_hop,
            n_mels=ns.n_mels,
        )
    # every segment is cut at the canonical rate, so its length is known before any decode
    segment_samples = round_half_up(segment_seconds * audio_io.DEFAULT_SAMPLE_RATE)
    if segment_samples < config.n_fft:
        raise _UsageError(f"--segment-seconds/--n-fft: a {segment_seconds} s segment holds"
                          f" {segment_samples} samples, fewer than one {config.n_fft}-sample"
                          f" FFT frame")
    manifest = dataset.load_manifest(manifest_path)
    if len(manifest) == 0:
        raise VocalScreenError(f"{manifest_path}: empty manifest")
    feature_rows, segment_rows = [], []
    for row in manifest.rows:
        wav_path = Path(row.path)
        if not wav_path.is_absolute():
            wav_path = manifest_path.parent / wav_path
        values = _recording_features(wav_path, row.path, silence, segment_seconds, config)
        feature_rows += values
        for i in range(len(values)):
            segment_rows.append(dataset.ManifestRow(path=_segment_id(row.path, i),
                                                    label=row.label, participant=row.participant))

    out_dir.mkdir(parents=True, exist_ok=True)
    write_features_csv(out_dir / "features.csv", [r.path for r in segment_rows],
                       [r.label for r in segment_rows], feature_rows)
    segment_manifest = dataset.DatasetManifest(rows=segment_rows)
    dataset.save_manifest(out_dir / "segments.csv", segment_manifest)
    _write_run_config(out_dir, "extract", {
        "manifest": str(manifest_path),
        "segment_seconds": segment_seconds,
        "silence": asdict(silence),
        "feature_config": asdict(config),
    })
    counts = segment_manifest.label_counts()
    summary = ", ".join(f"{label}={counts[label]}" for label in sorted(counts))
    print(f"extract: {len(segment_manifest)} segments ({summary}) -> {out_dir}")
    return 0


def cmd_split(ns) -> int:
    out_dir = Path(ns.out)
    with _flag_values("--train-fraction", "--mode"):
        spec = dataset.SplitSpec(train_fraction=ns.train_fraction, seed=ns.seed, mode=ns.mode)
    manifest = dataset.load_manifest(ns.manifest)
    train, test = dataset.split(manifest, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    sidecar = dataset.write_split(out_dir, train, test, spec)
    _write_run_config(out_dir, "split", {"manifest": str(ns.manifest), **asdict(spec)})
    print(f"split[{spec.mode}]: train={sidecar['counts']['train']['total']}"
          f" test={sidecar['counts']['test']['total']} -> {out_dir}")
    return 0


def cmd_train(ns) -> int:
    out_dir = Path(ns.out)
    k, p, use_scaler = ns.k, ns.p, ns.scaler
    if k < 1 or k % 2 == 0:
        raise _UsageError(f"--k: must be a positive odd integer, got {k}")
    if not p >= 1:
        raise _UsageError(f"--p: must be >= 1, got {p}")
    manifest = dataset.load_manifest(ns.manifest)
    features, labels = _join_features(ns.features, ns.manifest, manifest)
    if not labels:
        raise model.EmptyTrainingSet(f"{ns.manifest}: no segments to train on")
    scaler = model.fit_scaler(features) if use_scaler else model.identity_scaler(features.shape[1])
    try:
        fitted = model.knn_fit(features, labels, k=k, p=p, scaler=scaler,
                               feature_config=_feature_config_from(ns))
    except model.TooFewSamples as exc:
        raise VocalScreenError(f"{ns.manifest}: too few rows for --k {k}: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    model.save_model(fitted, out_dir / "model.json")
    _write_run_config(out_dir, "train", {
        "features": str(ns.features),
        "manifest": str(ns.manifest),
        "k": k,
        "p": p,
        "scaler": use_scaler,
    })
    print(f"train: knn(k={k}, p={p:g}, scaler={'on' if use_scaler else 'off'})"
          f" on {len(labels)} segments -> {out_dir / 'model.json'}")
    return 0


def cmd_evaluate(ns) -> int:
    out_dir = Path(ns.out)
    manifest = dataset.load_manifest(ns.manifest)
    if not len(manifest):
        raise evaluation.EmptyInput(f"{ns.manifest}: no segments to score")
    features, truth = _join_features(ns.features, ns.manifest, manifest)
    fitted = _load_model(ns.model)
    split_mode = "unknown"
    if ns.split_sidecar:
        with open(ns.split_sidecar) as fh:
            try:
                sidecar = json.load(fh)
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise VocalScreenError(f"{ns.split_sidecar}: bad split sidecar: {exc}") from exc
        if not isinstance(sidecar, dict):
            raise VocalScreenError(f"{ns.split_sidecar}: bad split sidecar: not a JSON object")
        if "mode" in sidecar:
            split_mode = sidecar["mode"]
            if split_mode not in dataset.SPLIT_MODES:
                raise VocalScreenError(f"{ns.split_sidecar}: bad split sidecar: mode"
                                       f" {split_mode!r} is not one of"
                                       f" {', '.join(dataset.SPLIT_MODES)}")
    with _queries(ns.model, fitted):
        predictions = [model.knn_predict(fitted, row)[0] for row in features]
    report = evaluation.evaluate_predictions(predictions, truth, split_mode=split_mode,
                                             extra={"model_k": fitted.k, "model_p": fitted.p})
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.write_json(out_dir / "eval_report.json", report.to_json_dict())
    text = evaluation.render_eval_text(report)
    (out_dir / "eval_report.txt").write_text(text)
    _write_run_config(out_dir, "evaluate", {
        "features": str(ns.features),
        "manifest": str(ns.manifest),
        "model": str(ns.model),
        "split_sidecar": str(ns.split_sidecar) if ns.split_sidecar else None,
    })
    print(text, end="")
    return 0


def cmd_predict(ns) -> int:
    fitted = _load_model(ns.model)
    ids, _labels, matrix = read_features_csv(ns.features)
    lines = ["segment_id,label,score"]
    with _queries(ns.model, fitted):
        for sid, row in zip(ids, matrix):
            label, score = model.knn_predict(fitted, row)
            lines.append(f"{sid},{label},{score!r}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if ns.out:
        out_dir = Path(ns.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "predictions.csv").write_text(text)
        _write_run_config(out_dir, "predict", {
            "features": str(ns.features),
            "model": str(ns.model),
        })
    return 0


def cmd_select(ns) -> int:
    out_dir = Path(ns.out)
    if ns.folds < 2:
        raise _UsageError(f"--folds: must be >= 2, got {ns.folds}")
    manifest = dataset.load_manifest(ns.manifest)
    features, labels = _join_features(ns.features, ns.manifest, manifest)
    try:
        report = evaluation.grid_select(evaluation.default_grid(), features, labels,
                                        folds=ns.folds, seed=ns.seed)
    except (evaluation.TooFewSamplesPerClass, model.TooFewSamples) as exc:
        # a class short of folds, or a fold's training part short of the grid's largest k
        raise VocalScreenError(f"{ns.manifest}: too few rows for --folds {ns.folds}: {exc}"
                               ) from exc
    except model.DistanceOverflow as exc:
        raise VocalScreenError(f"{ns.features}: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.write_json(out_dir / "selection_report.json", report.to_json_dict())
    _write_run_config(out_dir, "select", {
        "features": str(ns.features),
        "manifest": str(ns.manifest),
        "folds": ns.folds,
        "seed": ns.seed,
    })
    print(evaluation.render_selection_text(report), end="")
    return 0


def cmd_stats(ns) -> int:
    out_dir = Path(ns.out)
    _ids, labels, matrix = read_features_csv(ns.features)
    if not labels:
        raise VocalScreenError(f"{ns.features}: no feature rows")
    by_group = {}
    for label, row in zip(labels, matrix):
        by_group.setdefault(label, []).append(row)
    by_group = {label: np.asarray(rows) for label, rows in by_group.items()}
    stats = evaluation.descriptive_stats(by_group)
    try:
        t_tests = evaluation.group_t_tests(by_group) if len(by_group) == 2 else None
    except evaluation.GroupTooSmall as exc:
        raise VocalScreenError(f"{ns.features}: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.write_json(out_dir / "stats.json", {"descriptives": stats, "t_tests": t_tests})
    text = evaluation.render_stats_text(stats, t_tests)
    (out_dir / "stats.txt").write_text(text)
    _write_run_config(out_dir, "stats", {"features": str(ns.features)})
    print(text, end="")
    return 0


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="file of key = value lines, read as flags before the command line")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
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
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--speakers-per-class", type=int, default=synth.CohortSpec.speakers_per_class)
    p.add_argument("--seconds-per-speaker", type=float,
                   default=synth.CohortSpec.seconds_per_speaker)
    p.set_defaults(handler=cmd_synth)

    silence, features = preprocess.SilenceParams, FeatureConfig
    p = sub.add_parser("extract", parents=[common],
                       help="decode, de-silence, segment, and extract features")
    p.add_argument("--manifest", required=True, help="recording manifest CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--segment-seconds", type=float, default=4.0)
    p.add_argument("--frame-seconds", type=float, default=silence.frame_seconds,
                   help="silence-detector frame")
    p.add_argument("--hop-seconds", type=float, default=silence.hop_seconds,
                   help="silence-detector hop")
    p.add_argument("--threshold-ratio", type=float, default=silence.threshold_ratio,
                   help="silence RMS ratio")
    p.add_argument("--n-fft", type=int, default=features.n_fft)
    p.add_argument("--fft-hop", type=int, default=features.hop)
    p.add_argument("--n-mels", type=int, default=features.n_mels)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("split", parents=[seeded], help="deterministic train/test split")
    p.add_argument("--manifest", required=True, help="segment manifest CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--train-fraction", type=float, default=dataset.SplitSpec.train_fraction)
    p.add_argument("--mode", choices=dataset.SPLIT_MODES, default=dataset.SplitSpec.mode)
    p.set_defaults(handler=cmd_split)

    candidate = evaluation.PipelineCandidate
    p = sub.add_parser("train", parents=[common], help="fit scaler + KNN and persist the model")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True, help="training-side segment manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=candidate.k)
    p.add_argument("--p", type=float, default=candidate.p)
    p.add_argument("--scaler", action=argparse.BooleanOptionalAction, default=candidate.use_scaler)
    p.add_argument("--feature-config", default=None,
                   help="JSON with the extraction constants to bind into the model")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="score a model on held-out segments")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True, help="test-side segment manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--split-sidecar", default=None, help="split.json recording the split mode")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common], help="print segment_id,label,score per row")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default=None, help="also write predictions.csv here")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("select", parents=[seeded],
                       help="exhaustive cross-validated grid over KNN pipelines")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True, help="training-side segment manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("stats", parents=[common], help="per-group descriptive stats and t-tests")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
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
        return ns.handler(ns)
    except (VocalScreenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
