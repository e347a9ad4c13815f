import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chdir, tone
from vocalscreen.audio_io import (DEFAULT_SAMPLE_RATE, AudioClip, encode_wav, load_wav,
                                  resample, to_mono)
from vocalscreen.cli import build_parser, load_config, main
from vocalscreen.dataset import load_manifest
from vocalscreen.errors import VocalScreenError
from vocalscreen.features import read_features_csv, write_features_csv
from vocalscreen.model import _payload_digest, knn_fit, load_model, save_model, transform
from vocalscreen.preprocess import remove_silence


def test_synth_outputs_exist(small_cohort):
    cohort = small_cohort / "cohort"
    assert sorted(p.name for p in cohort.glob("*.wav"))[:2] == ["control_s00.wav", "control_s01.wav"]
    assert (cohort / "cohort.csv").exists()
    assert (cohort / "cohort.json").exists()
    assert json.loads((cohort / "run_config.json").read_text())["command"] == "synth"


def test_extract_segment_count_matches_voiced_durations(small_cohort):
    manifest = load_manifest(small_cohort / "cohort" / "cohort.csv")
    expected = 0
    for row in manifest:
        clip = resample(to_mono(load_wav(small_cohort / "cohort" / row.path)), DEFAULT_SAMPLE_RATE)
        voiced = remove_silence(clip)
        expected += math.floor(voiced.duration_seconds / 4.0)
    ids, labels, matrix = read_features_csv(small_cohort / "work" / "features.csv")
    assert len(ids) == expected
    assert matrix.shape == (expected, 16)
    segments = load_manifest(small_cohort / "work" / "segments.csv")
    assert [r.path for r in segments] == ids
    assert [r.label for r in segments] == labels


def test_extract_rerun_byte_identical(small_cohort):
    with chdir(small_cohort):
        assert main(["extract", "--manifest", "cohort/cohort.csv", "--out", "work2"]) == 0
    for name in ("features.csv", "segments.csv"):
        baseline = (small_cohort / "work" / name).read_bytes()
        assert (small_cohort / "work2" / name).read_bytes() == baseline


def test_extract_empty_manifest_fails(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("path,label,participant\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {manifest}: empty manifest\n"


def test_extract_names_offending_file(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\nmissing.wav,control,p0\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "missing.wav" in capsys.readouterr().err


def test_extract_rejects_nan_sample(tmp_path, capsys):
    samples = tone(220.0, seconds=10.0).samples
    samples[DEFAULT_SAMPLE_RATE] = np.nan  # one NaN once silenced the whole recording
    (tmp_path / "nan.wav").write_bytes(
        encode_wav(AudioClip(samples=samples, sample_rate=DEFAULT_SAMPLE_RATE), bit_depth=32))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\nnan.wav,control,p0\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: nan.wav: float sample NaN")
    assert not (tmp_path / "out" / "features.csv").exists()


def test_split_outputs(small_cohort):
    sidecar = json.loads((small_cohort / "work" / "split.json").read_text())
    assert sidecar["mode"] == "segment-level"
    assert sidecar["seed"] == 7
    train = load_manifest(small_cohort / "work" / "train.csv")
    test = load_manifest(small_cohort / "work" / "test.csv")
    total = sidecar["counts"]["train"]["total"] + sidecar["counts"]["test"]["total"]
    assert total == len(train) + len(test)
    all_ids = {r.path for r in train} | {r.path for r in test}
    segments = load_manifest(small_cohort / "work" / "segments.csv")
    assert all_ids == {r.path for r in segments}


def test_split_speaker_disjoint(small_cohort, tmp_path):
    rc = main(["split", "--manifest", str(small_cohort / "work" / "segments.csv"),
               "--out", str(tmp_path), "--mode", "speaker-disjoint",
               "--train-fraction", "0.67", "--seed", "2"])
    assert rc == 0
    sidecar = json.loads((tmp_path / "split.json").read_text())
    assert sidecar["mode"] == "speaker-disjoint"
    train = load_manifest(tmp_path / "train.csv")
    test = load_manifest(tmp_path / "test.csv")
    assert set(train.participants()).isdisjoint(test.participants())


def test_train_evaluate_predict_flow(small_cohort, tmp_path, capsys):
    work = small_cohort / "work"
    out = tmp_path / "fit"
    rc = main(["train", "--features", str(work / "features.csv"),
               "--manifest", str(work / "train.csv"), "--out", str(out), "--k", "1"])
    assert rc == 0
    model_path = out / "model.json"
    assert model_path.exists()

    rc = main(["evaluate", "--features", str(work / "features.csv"),
               "--manifest", str(work / "test.csv"), "--model", str(model_path),
               "--split-sidecar", str(work / "split.json"), "--out", str(out / "eval")])
    assert rc == 0
    report = json.loads((out / "eval" / "eval_report.json").read_text())
    assert report["split_mode"] == "segment-level"
    assert report["n"] == len(load_manifest(work / "test.csv"))
    text = (out / "eval" / "eval_report.txt").read_text()
    assert "split mode: segment-level" in text

    capsys.readouterr()
    rc = main(["predict", "--model", str(model_path), "--features", str(work / "features.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "segment_id,label,score"
    predicted = {}
    for line in lines[1:]:
        sid, label, score = line.split(",")
        predicted[sid] = (label, float(score))
    # k=1 memorizes its own training rows
    for row in load_manifest(work / "train.csv"):
        assert predicted[row.path] == (row.label, 1.0)


def test_predict_writes_csv_when_out_given(small_cohort, tmp_path, capsys):
    work = small_cohort / "work"
    out = tmp_path / "fit"
    assert main(["train", "--features", str(work / "features.csv"),
                 "--manifest", str(work / "train.csv"), "--out", str(out)]) == 0
    assert main(["predict", "--model", str(out / "model.json"),
                 "--features", str(work / "features.csv"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    written = (out / "predictions.csv").read_text()
    assert written in printed
    assert written.splitlines()[0] == "segment_id,label,score"


def test_select_report(small_cohort, tmp_path, capsys):
    work = small_cohort / "work"
    rc = main(["select", "--features", str(work / "features.csv"),
               "--manifest", str(work / "train.csv"), "--out", str(tmp_path),
               "--folds", "3", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Generation 1:" in out and "best pipeline:" in out
    report = json.loads((tmp_path / "selection_report.json").read_text())
    assert len(report["candidates"]) == 16
    gens = report["generations"]
    assert gens == sorted(gens)
    assert report["best"]["mean_cv_score"] == max(c["mean_cv_score"] for c in report["candidates"])


def test_stats_output(small_cohort, tmp_path, capsys):
    work = small_cohort / "work"
    rc = main(["stats", "--features", str(work / "features.csv"), "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "stats.txt").read_text()
    for name in ("mfcc_mean", "spectral_centroid", "spectral_complexity", "zero_crossing_rate"):
        assert name in text
    payload = json.loads((tmp_path / "stats.json").read_text())
    ids, labels, _ = read_features_csv(work / "features.csv")
    assert payload["t_tests"][0]["df"] == len(ids) - 2
    assert len(payload["descriptives"]) == 4


def test_usage_error_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train"])  # missing required flags
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["not-a-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["select", "--features", "f.csv", "--manifest", "m.csv", "--out", "o",
              "--jobs", "2"])  # not an option
    assert excinfo.value.code == 2
    capsys.readouterr()
    # out-of-range flag values are rejected before any file is read
    out = str(tmp_path / "o")
    files = ["--features", "f.csv", "--manifest", "m.csv", "--out", out]
    config = tmp_path / "select.conf"
    config.write_text("folds = 1\n")
    asks_help = tmp_path / "help.conf"
    asks_help.write_text("help = true\n")
    for argv, flag in [
        (["train", *files, "--p", "0.5"], "--p"),
        (["train", *files, "--k", "4"], "--k"),
        (["train", *files, "--k", "-1"], "--k"),
        (["select", *files, "--folds", "1"], "--folds"),
        (["select", *files, "--config", str(config)], "--folds"),
        (["select", *files, "--config", str(asks_help)], "'help'"),
        (["split", "--manifest", "m.csv", "--out", out, "--train-fraction", "1.5"],
         "--train-fraction"),
        (["extract", "--manifest", "m.csv", "--out", out, "--n-fft", "1000"], "--n-fft"),
        (["extract", "--manifest", "m.csv", "--out", out, "--n-fft", "1", "--fft-hop", "1"],
         "--n-fft"),
        (["extract", "--manifest", "m.csv", "--out", out, "--segment-seconds", "0"],
         "--segment-seconds"),
        (["extract", "--manifest", "m.csv", "--out", out, "--n-fft", "4096",
          "--segment-seconds", "0.2"], "--segment-seconds/--n-fft: a 0.2 s segment holds 3200"),
        (["synth", "--out", out, "--speakers-per-class", "0"], "--speakers-per-class"),
        (["synth", "--out", out, "--seconds-per-speaker", "nan"], "--seconds-per-speaker"),
        (["synth", "--out", out, "--seconds-per-speaker", "inf"], "--seconds-per-speaker"),
        (["synth", "--out", out, "--seconds-per-speaker", "0.00001"],  # 0.16 samples
         "--seconds-per-speaker"),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err, (argv, err)
    # a config value the flag's type rejects fails in argparse, as on the command line
    typed = tmp_path / "train.conf"
    typed.write_text("k = abc\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["train", *files, "--config", str(typed)])
    assert excinfo.value.code == 2
    assert "argument --k: invalid int value: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_rejects_non_finite_features(small_cohort, tmp_path, capsys):
    work = small_cohort / "work"
    lines = (work / "features.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[5] = "nan"
    lines[1] = ",".join(fields)
    features = tmp_path / "features.csv"
    features.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--features", str(features), "--manifest", str(work / "train.csv"),
               "--out", str(tmp_path / "fit")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {features}:2: non-finite")
    assert not (tmp_path / "fit" / "model.json").exists()


def test_stats_rejects_features_without_rows(small_cohort, tmp_path, capsys):
    features = tmp_path / "features.csv"
    header = (small_cohort / "work" / "features.csv").read_text().splitlines()[0]
    features.write_text(header + "\n")
    assert main(["stats", "--features", str(features), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {features}: no feature rows\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stage", ["train", "select", "evaluate"])
def test_segment_missing_from_features_names_both_files(small_cohort, tmp_path, capsys, stage):
    work = small_cohort / "work"
    manifest = work / ("test.csv" if stage == "evaluate" else "train.csv")
    missing = manifest.read_text().splitlines()[1].split(",")[0]
    features = tmp_path / "features.csv"
    features.write_text("".join(line for line in
                                (work / "features.csv").read_text().splitlines(keepends=True)
                                if line.split(",")[0] != missing))
    argv = [stage, "--features", str(features), "--manifest", str(manifest),
            "--out", str(tmp_path / "o")]
    if stage == "evaluate":
        argv += ["--model", str(tmp_path / "absent.json")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {features}: no row for segment {missing!r}"
                                       f" of {manifest}\n")
    assert not (tmp_path / "o").exists()


def test_stats_rejects_non_utf8_features(tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_bytes(b"segment_id,label\n\xff\n")
    assert main(["stats", "--features", str(features), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {features}: cannot decode as text")


@pytest.mark.parametrize("content, reason", [
    ('{"n_fft": 2048,', "Expecting"),  # malformed JSON
    ('{"n_fft": 2048, "window": "hann"}', "unexpected keyword argument 'window'"),
])
def test_train_rejects_bad_feature_config(small_cohort, tmp_path, capsys, content, reason):
    work = small_cohort / "work"
    config = tmp_path / "features.json"
    config.write_text(content)
    rc = main(["train", "--features", str(work / "features.csv"),
               "--manifest", str(work / "train.csv"), "--out", str(tmp_path / "fit"),
               "--feature-config", str(config)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: bad feature config: ")
    assert reason in err
    assert not (tmp_path / "fit" / "model.json").exists()


def test_bad_label_manifest_fails(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\na.wav,anxious,p0\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "anxious" in capsys.readouterr().err


def test_env_seed_is_default_only(small_cohort, tmp_path, monkeypatch):
    segments = str(small_cohort / "work" / "segments.csv")
    explicit = tmp_path / "explicit"
    via_env = tmp_path / "via_env"
    overridden = tmp_path / "overridden"

    assert main(["split", "--manifest", segments, "--out", str(explicit), "--seed", "11"]) == 0
    monkeypatch.setenv("VOCALSCREEN_SEED", "11")
    assert main(["split", "--manifest", segments, "--out", str(via_env)]) == 0
    monkeypatch.setenv("VOCALSCREEN_SEED", "99")
    assert main(["split", "--manifest", segments, "--out", str(overridden), "--seed", "11"]) == 0

    baseline = (explicit / "train.csv").read_bytes()
    assert (via_env / "train.csv").read_bytes() == baseline
    assert (overridden / "train.csv").read_bytes() == baseline


def test_config_file_supplies_defaults(small_cohort, tmp_path):
    segments = str(small_cohort / "work" / "segments.csv")
    config = tmp_path / "run.cfg"
    config.write_text("# split options\ntrain-fraction = 0.5\nseed = 3\n")

    from_config = tmp_path / "from_config"
    assert main(["split", "--manifest", segments, "--out", str(from_config),
                 "--config", str(config)]) == 0
    sidecar = json.loads((from_config / "split.json").read_text())
    assert sidecar["train_fraction"] == 0.5
    assert sidecar["seed"] == 3

    flag_wins = tmp_path / "flag_wins"
    assert main(["split", "--manifest", segments, "--out", str(flag_wins),
                 "--config", str(config), "--train-fraction", "0.75"]) == 0
    sidecar = json.loads((flag_wins / "split.json").read_text())
    assert sidecar["train_fraction"] == 0.75
    assert sidecar["seed"] == 3


def test_run_config_logged_everywhere(small_cohort):
    payload = json.loads((small_cohort / "work" / "run_config.json").read_text())
    assert payload["command"] in {"extract", "split"}
    assert "feature_config" in payload or "train_fraction" in payload


def test_seed_precedence_flag_config_env(small_cohort, tmp_path, monkeypatch):
    segments = str(small_cohort / "work" / "segments.csv")
    config = tmp_path / "seed.cfg"
    config.write_text("seed = 3\n")
    monkeypatch.setenv("VOCALSCREEN_SEED", "5")
    runs = {
        "env": [],
        "config": ["--config", str(config)],
        "flag": ["--config", str(config), "--seed", "11"],
        "flag_first": ["--seed", "11", "--config", str(config)],
    }
    seeds = {}
    for name, extra in runs.items():
        assert main(["split", "--manifest", segments, "--out", str(tmp_path / name), *extra]) == 0
        seeds[name] = json.loads((tmp_path / name / "split.json").read_text())["seed"]
    assert seeds == {"env": 5, "config": 3, "flag": 11, "flag_first": 11}


def test_config_lines_read_as_flags(small_cohort, tmp_path):
    work = small_cohort / "work"
    train = ["train", "--features", str(work / "features.csv"),
             "--manifest", str(work / "train.csv")]
    for value, expected in [("false", False), ("TRUE", True)]:
        config = tmp_path / f"{value}.cfg"
        config.write_text(f"scaler = {value}\n")
        out = tmp_path / value
        assert main([*train, "--out", str(out), "--config", str(config)]) == 0
        assert json.loads((out / "run_config.json").read_text())["scaler"] is expected
        stds = json.loads((out / "model.json").read_text())["scaler"]["stds"]
        assert (set(stds) == {1.0}) is not expected

    # quoted values, underscores for dashes, and a negative seed
    segments = str(work / "segments.csv")
    config = tmp_path / "split.cfg"
    config.write_text("mode = \"speaker-disjoint\"\ntrain_fraction = '0.67'\nseed = 2\n")
    assert main(["split", "--manifest", segments, "--out", str(tmp_path / "quoted"),
                 "--config", str(config)]) == 0
    assert main(["split", "--manifest", segments, "--out", str(tmp_path / "flags"),
                 "--mode", "speaker-disjoint", "--train-fraction", "0.67", "--seed", "2"]) == 0
    for name in ("split.json", "train.csv", "test.csv", "run_config.json"):
        assert (tmp_path / "quoted" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    config.write_text("seed = -1\n")
    assert main(["split", "--manifest", segments, "--out", str(tmp_path / "negative"),
                 "--config", str(config)]) == 0
    assert json.loads((tmp_path / "negative" / "split.json").read_text())["seed"] == -1


@pytest.mark.parametrize("argv, config, env, message", [
    (["split", "--manifest", "m.csv"], "typo = 3\n", None, "unrecognized arguments: --typo=3"),
    (["extract", "--manifest", "m.csv"], "seed = 1\n", None, "unrecognized arguments: --seed=1"),
    (["train", "--features", "f.csv", "--manifest", "m.csv"], "scaler = 3\n", None,
     "argument --scaler/--no-scaler: ignored explicit argument '3'"),
    (["split", "--manifest", "m.csv"], None, "abc", "argument --seed: invalid int value: 'abc'"),
    (["synth"], None, "1.5", "argument --seed: invalid int value: '1.5'"),
])
def test_config_and_env_usage_errors_exit_2(tmp_path, monkeypatch, capsys, argv, config, env,
                                            message):
    argv = [*argv, "--out", str(tmp_path / "o")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    if env is not None:
        monkeypatch.setenv("VOCALSCREEN_SEED", env)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["extract", "--manifest", "m.csv", "--out", "o"],
    ["train", "--features", "f.csv", "--manifest", "m.csv", "--out", "o"],
    ["evaluate", "--features", "f.csv", "--manifest", "m.csv", "--model", "x", "--out", "o"],
    ["predict", "--model", "x", "--features", "f.csv"],
    ["stats", "--features", "f.csv", "--out", "o"],
])
def test_seed_only_where_a_seed_is_used(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--seed", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=64),
    st.lists(st.tuples(st.sampled_from(["k", "seed", "scaler", "train_fraction", "", "# x"]),
                       st.sampled_from(["=", " = ", "", "=="]),
                       st.one_of(st.sampled_from(["3", "true", "FALSE", "'q'", "-1", ""]),
                                 st.text(max_size=4))),
             max_size=4).map(lambda lines: "\n".join("".join(t) for t in lines).encode()),
))
def test_load_config_fuzz_raises_only_vocalscreen_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    path.write_bytes(data)
    try:
        args = load_config(path)
    except VocalScreenError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert all(isinstance(arg, str) and arg.startswith("--") for arg in args)


def trained_model(small_cohort, tmp_path) -> Path:
    work = small_cohort / "work"
    assert main(["train", "--features", str(work / "features.csv"),
                 "--manifest", str(work / "train.csv"), "--out", str(tmp_path / "fit")]) == 0
    return tmp_path / "fit" / "model.json"


@pytest.mark.parametrize("stage, content, message", [
    ("extract", b"path,label,participant\n\xff.wav,control,p0\n", "cannot read as CSV text"),
    ("extract", b"path,label\na.wav,control\n", "bad header"),
    ("evaluate", b'{"mode": ', "bad split sidecar: Expecting value"),
    ("evaluate", b'["speaker-disjoint"]', "bad split sidecar: not a JSON object"),
    ("evaluate", b'{"mode": "\xff"}', "bad split sidecar: 'utf-8' codec"),
    ("evaluate", b'{"mode": {"x": [1]}}',
     "bad split sidecar: mode {'x': [1]} is not one of segment-level, speaker-disjoint"),
])
def test_bad_manifest_or_sidecar_exits_1(small_cohort, tmp_path, capsys, stage, content,
                                        message):
    work = small_cohort / "work"
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    if stage == "extract":
        argv = ["extract", "--manifest", str(bad), "--out", str(tmp_path / "o")]
    else:
        argv = ["evaluate", "--features", str(work / "features.csv"),
                "--manifest", str(work / "test.csv"),
                "--model", str(trained_model(small_cohort, tmp_path)),
                "--split-sidecar", str(bad), "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ") and message in captured.err, captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_evaluate_sidecar_without_mode_reports_unknown(small_cohort, tmp_path):
    work = small_cohort / "work"
    sidecar = tmp_path / "split.json"
    sidecar.write_text('{"seed": 7}')
    assert main(["evaluate", "--features", str(work / "features.csv"),
                 "--manifest", str(work / "test.csv"),
                 "--model", str(trained_model(small_cohort, tmp_path)),
                 "--split-sidecar", str(sidecar), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "eval_report.json").read_text())["split_mode"] == "unknown"


def test_evaluate_empty_manifest_names_it(small_cohort, tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("path,label,participant\n")
    capsys.readouterr()
    assert main(["evaluate", "--features", str(small_cohort / "work" / "features.csv"),
                 "--manifest", str(manifest), "--model", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: no segments to score\n"
    assert not (tmp_path / "o").exists()


def test_train_empty_manifest_names_it(small_cohort, tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("path,label,participant\n")
    for scaler in ("--scaler", "--no-scaler"):
        capsys.readouterr()
        assert main(["train", "--features", str(small_cohort / "work" / "features.csv"),
                     "--manifest", str(manifest), "--out", str(tmp_path / "o"), scaler]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: no segments to train on\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stage", ["predict", "evaluate"])
def test_overflowing_p_names_model_file(small_cohort, tmp_path, capsys, stage):
    work = small_cohort / "work"
    assert main(["train", "--features", str(work / "features.csv"), "--manifest",
                 str(work / "train.csv"), "--out", str(tmp_path / "fit"), "--p", "1e300"]) == 0
    fitted = tmp_path / "fit" / "model.json"
    # every query a million units off in every feature: no training row stays finite
    ids, labels, matrix = read_features_csv(work / "features.csv")
    far = tmp_path / "far.csv"
    write_features_csv(far, ids, labels, matrix + 1e6)
    argv = [stage, "--model", str(fitted), "--features", str(far)]
    if stage == "evaluate":
        argv += ["--manifest", str(work / "test.csv"), "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {fitted}: p = 1e+300: the distance |a - b|^p to nearest"
                            f" row 3 overflows float64\n")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_overflowing_far_rows_keep_predictions(small_cohort, tmp_path, capsys):
    # with p = 1e300 a training row more than one standard deviation off in any
    # feature is at distance inf, but every query's three nearest rows stay
    # finite, so predict answers as the plain stable argsort does
    work = small_cohort / "work"
    assert main(["train", "--features", str(work / "features.csv"), "--manifest",
                 str(work / "train.csv"), "--out", str(tmp_path / "fit"), "--p", "1e300"]) == 0
    fitted = load_model(tmp_path / "fit" / "model.json")
    ids, _labels, matrix = read_features_csv(work / "features.csv")
    expected = ["segment_id,label,score"]
    for sid, row in zip(ids, matrix):
        with np.errstate(over="ignore"):
            d = np.sum(np.abs(fitted.train_matrix - transform(fitted.scaler, row)) ** fitted.p,
                       axis=-1) ** (1.0 / fitted.p)
        nearest = np.argsort(d, kind="stable")[:fitted.k]
        assert np.isfinite(d[nearest]).all() and np.isinf(d).any()
        votes = [fitted.train_labels[i] for i in nearest]
        label = max(sorted(set(votes)), key=votes.count)
        expected.append(f"{sid},{label},{votes.count(label) / fitted.k!r}")
    capsys.readouterr()
    assert main(["predict", "--model", str(tmp_path / "fit" / "model.json"),
                 "--features", str(work / "features.csv")]) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def first_rows_manifest(work, path, per_class) -> Path:
    """The first ``per_class[label]`` rows of each label of train.csv, as a manifest."""
    header, *rows = (work / "train.csv").read_text().splitlines()
    left, kept = dict(per_class), []
    for row in rows:
        label = row.split(",")[1]
        if left[label]:
            left[label] -= 1
            kept.append(row)
    path.write_text("\n".join([header, *kept]) + "\n")
    return path


@pytest.mark.parametrize("stage, per_class, flags, message", [
    ("select", {"control": 3, "depression": 6}, ["--folds", "5"],
     "too few rows for --folds 5: class 'control' has 3 rows < 5 folds"),
    # every class fills 3 folds, but a fold's training part holds 4 rows < k=5 of the grid
    ("select", {"control": 3, "depression": 3}, ["--folds", "3"],
     "too few rows for --folds 3: 4 rows < k=5"),
    ("train", {"control": 4, "depression": 3}, ["--k", "11"],
     "too few rows for --k 11: 7 rows < k=11"),
])
def test_too_few_rows_names_manifest_and_flag(small_cohort, tmp_path, capsys, stage, per_class,
                                              flags, message):
    work = small_cohort / "work"
    manifest = first_rows_manifest(work, tmp_path / "few.csv", per_class)
    capsys.readouterr()
    assert main([stage, "--features", str(work / "features.csv"), "--manifest", str(manifest),
                 "--out", str(tmp_path / "o"), *flags]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
    assert not (tmp_path / "o").exists()


def test_stats_single_row_group_names_features_and_group(small_cohort, tmp_path, capsys):
    header, *rows = (small_cohort / "work" / "features.csv").read_text().splitlines()
    control = [row for row in rows if row.split(",")[1] == "control"]
    features = tmp_path / "features.csv"
    features.write_text("\n".join([header, control[0], *(r for r in rows if r not in control)])
                        + "\n")
    capsys.readouterr()
    assert main(["stats", "--features", str(features), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {features}: group 'control': a t-test needs"
                                       f" at least 2 rows, got 1\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mutate, message", [
    (lambda m: m.update(p=0.5), "invalid model: p must be >= 1"),
    (lambda m: m.pop("scaler"), "missing field 'scaler'"),
    (lambda m: m["scaler"]["stds"].__setitem__(0, 0.0), "invalid model: stds must be positive"),
])
def test_predict_rejects_invalid_model_with_valid_digest(small_cohort, tmp_path, capsys,
                                                         mutate, message):
    payload = json.loads(trained_model(small_cohort, tmp_path).read_text())
    del payload["digest"]
    mutate(payload)
    payload["digest"] = _payload_digest(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["predict", "--model", str(bad),
                 "--features", str(small_cohort / "work" / "features.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {message}\n" and captured.out == ""


@pytest.mark.parametrize("stage", ["predict", "evaluate"])
def test_model_of_other_dimension_exits_1(small_cohort, tmp_path, capsys, stage):
    work = small_cohort / "work"
    three_dims = tmp_path / "model.json"
    save_model(knn_fit(np.arange(15.0).reshape(5, 3), ["control", "depression"] * 2 + ["control"],
                       k=3), three_dims)
    features = ["--features", str(work / "features.csv"), "--model", str(three_dims)]
    if stage == "predict":
        argv = ["predict", *features]
    else:
        argv = ["evaluate", *features, "--manifest", str(work / "test.csv"),
                "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {three_dims}: model takes 3 feature dimensions,"
                            f" a features CSV holds 16\n")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


# Commands run from the small cohort's directory; each writes run_config.json under pinned/.
PINNED_STAGES = {
    "synth": ["synth", "--out", "pinned/synth", "--seed", "42", "--seconds-per-speaker", "2"],
    "extract": ["extract", "--manifest", "cohort/cohort.csv", "--out", "pinned/extract"],
    "split": ["split", "--manifest", "work/segments.csv", "--out", "pinned/split", "--seed", "42"],
    "select": ["select", "--features", "work/features.csv", "--manifest", "work/train.csv",
               "--out", "pinned/select", "--seed", "42"],
    "train": ["train", "--features", "work/features.csv", "--manifest", "work/train.csv",
              "--out", "pinned/train", "--k", "3", "--p", "2"],
    "evaluate": ["evaluate", "--features", "work/features.csv", "--manifest", "work/test.csv",
                 "--model", "pinned/train/model.json", "--split-sidecar", "work/split.json",
                 "--out", "pinned/evaluate"],
    "predict": ["predict", "--model", "pinned/train/model.json",
                "--features", "work/features.csv", "--out", "pinned/predict"],
    "stats": ["stats", "--features", "work/features.csv", "--out", "pinned/stats"],
}


def test_readme_stage_run_configs_pinned(small_cohort, monkeypatch, capsys):
    """run_config.json of every README stage equals the committed bytes, and
    every built-in flag default keeps its value and type."""
    monkeypatch.delenv("VOCALSCREEN_SEED", raising=False)
    expected_dir = Path(__file__).parent / "run_configs"
    with chdir(small_cohort):
        for stage, argv in PINNED_STAGES.items():
            assert main(argv) == 0, argv
            written = (small_cohort / "pinned" / stage / "run_config.json").read_bytes()
            assert written == (expected_dir / f"{stage}.json").read_bytes(), stage
    capsys.readouterr()

    defaults = [
        (["synth", "--out", "o"],
         {"speakers_per_class": 12, "seconds_per_speaker": 120.0, "seed": 0}),
        (["extract", "--manifest", "m", "--out", "o"],
         {"segment_seconds": 4.0, "frame_seconds": 0.05, "hop_seconds": 0.025,
          "threshold_ratio": 0.1, "n_fft": 2048, "fft_hop": 512, "n_mels": 128}),
        (["split", "--manifest", "m", "--out", "o"],
         {"train_fraction": 0.8, "mode": "segment-level", "seed": 0}),
        (["train", "--features", "f", "--manifest", "m", "--out", "o"],
         {"k": 3, "p": 2.0, "scaler": True, "feature_config": None}),
        (["select", "--features", "f", "--manifest", "m", "--out", "o"],
         {"folds": 5, "seed": 0}),
    ]
    for argv, values in defaults:
        ns = build_parser().parse_args(argv)
        assert {key: repr(getattr(ns, key)) for key in values} == \
            {key: repr(value) for key, value in values.items()}, argv


def test_split_and_cohort_sidecars_pinned(small_cohort, tmp_path):
    """cohort.json and split.json of both modes equal the committed bytes."""
    expected_dir = Path(__file__).parent / "sidecars"
    assert main(["split", "--manifest", str(small_cohort / "work" / "segments.csv"),
                 "--out", str(tmp_path), "--mode", "speaker-disjoint",
                 "--train-fraction", "0.67", "--seed", "2"]) == 0
    for written, expected in [
        (small_cohort / "cohort" / "cohort.json", "cohort.json"),
        (small_cohort / "work" / "split.json", "split.segment-level.json"),
        (tmp_path / "split.json", "split.speaker-disjoint.json"),
    ]:
        assert written.read_bytes() == (expected_dir / expected).read_bytes(), expected
