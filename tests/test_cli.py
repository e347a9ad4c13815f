import json
import math

import numpy as np
import pytest

from conftest import chdir, tone
from vocalscreen.audio_io import (DEFAULT_SAMPLE_RATE, AudioClip, encode_wav, load_wav,
                                  resample, to_mono)
from vocalscreen.cli import main
from vocalscreen.dataset import load_manifest
from vocalscreen.features import read_features_csv
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
    assert "empty manifest" in capsys.readouterr().err


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
    typed = tmp_path / "train.conf"
    typed.write_text("k = abc\n")
    for argv, flag in [
        (["train", *files, "--p", "0.5"], "--p"),
        (["train", *files, "--k", "4"], "--k"),
        (["train", *files, "--k", "-1"], "--k"),
        (["select", *files, "--folds", "1"], "--folds"),
        (["select", *files, "--config", str(config)], "--folds"),
        (["train", *files, "--config", str(typed)], "--k"),
        (["split", "--manifest", "m.csv", "--out", out, "--train-fraction", "1.5"],
         "--train-fraction"),
        (["extract", "--manifest", "m.csv", "--out", out, "--n-fft", "1000"], "--n-fft"),
        (["extract", "--manifest", "m.csv", "--out", out, "--segment-seconds", "0"],
         "--segment-seconds"),
        (["synth", "--out", out, "--speakers-per-class", "0"], "--speakers-per-class"),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err, (argv, err)
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
