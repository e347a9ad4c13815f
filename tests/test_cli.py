import argparse
import csv
import errno
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chdir, feature_cohort, tone, write_redigested
from vocalscreen.audio_io import (_BLOCK, DEFAULT_SAMPLE_RATE, encode_wav, load_wav, resample,
                                  to_mono)
from vocalscreen import cli, evaluation, model
from vocalscreen.cli import _predictions, build_parser, load_config, main
from vocalscreen.dataset import DatasetManifest, ManifestRow, load_manifest, save_manifest
from vocalscreen.errors import VocalScreenError
from vocalscreen.features import (Extraction, FeatureConfig, read_features_csv,
                                  write_features_csv)
from vocalscreen.model import (EvenK, _filtered_heads, _l1_heads, fit_scaler, knn_fit, knn_predict,
                               load_model, save_model, transform)
from vocalscreen.preprocess import remove_silence


def test_synth_outputs_exist(small_cohort):
    cohort = small_cohort / "cohort"
    assert sorted(p.name for p in cohort.glob("*.wav"))[:2] == ["control_s00.wav", "control_s01.wav"]
    assert (cohort / "cohort.csv").exists()
    assert (cohort / "cohort.json").exists()
    assert json.loads((cohort / "synth.run.json").read_text())["command"] == "synth"


def voiced_segment_count(small_cohort, seconds: float) -> int:
    """Whole segments of ``seconds`` in the voiced audio of every cohort recording."""
    count = 0
    for row in load_manifest(small_cohort / "cohort" / "cohort.csv"):
        clip = resample(to_mono(load_wav(small_cohort / "cohort" / row.path)), DEFAULT_SAMPLE_RATE)
        count += math.floor(remove_silence(clip).duration_seconds / seconds)
    return count


def test_extract_segment_count_matches_voiced_durations(small_cohort):
    expected = voiced_segment_count(small_cohort, 4.0)
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


def float32_wav(samples, sample_rate) -> bytes:
    """WAV bytes of a (frames,) or (frames, channels) array as float32, written without
    an AudioClip, so a NaN reaches the payload."""
    body = np.asarray(samples, dtype="<f4").tobytes()
    block_align = 4 * (1 if samples.ndim == 1 else samples.shape[1])
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(body), b"WAVE", b"fmt ", 16, 3,
                       block_align // 4, sample_rate, sample_rate * block_align, block_align,
                       32, b"data", len(body)) + body


def test_extract_rejects_nan_sample(tmp_path, capsys):
    samples = tone(220.0, seconds=10.0).samples.copy()
    samples[DEFAULT_SAMPLE_RATE] = np.nan  # one NaN once silenced the whole recording
    (tmp_path / "nan.wav").write_bytes(float32_wav(samples, DEFAULT_SAMPLE_RATE))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\nnan.wav,control,p0\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: nan.wav: float sample NaN")
    assert not (tmp_path / "out" / "features.csv").exists()


def test_extract_rejects_nan_on_a_frame_no_output_reads(tmp_path, capsys):
    (tmp_path / "good.wav").write_bytes(encode_wav(tone(220.0, seconds=9.0)))
    mono = tone(220.0, seconds=4.0, sample_rate=48000).samples
    stereo = np.stack([mono, mono], axis=1)
    # at 48 kHz the first block reads frames 0..3 * (_BLOCK - 1); the next two
    # frames are read only to be checked
    stereo[3 * _BLOCK - 2, 1] = np.nan
    (tmp_path / "nan48k.wav").write_bytes(float32_wav(stereo, 48000))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\n"
                        "good.wav,control,p0\nnan48k.wav,depression,p1\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: nan48k.wav: float sample NaN")
    assert not (tmp_path / "out" / "features.csv").exists()


def test_extract_names_a_recording_without_a_segment(tmp_path, capsys):
    for name, seconds in (("short.wav", 3.0), ("long.wav", 9.0)):
        (tmp_path / name).write_bytes(encode_wav(tone(220.0, seconds=seconds)))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\n"
                        "short.wav,control,p0\nlong.wav,depression,p1\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert err == "extract: short.wav: no segment, 3.00 s voiced is shorter than 4.0 s\n"
    assert out.startswith("extract: 2 segments (control=0, depression=2) ->")
    ids, _, _ = read_features_csv(tmp_path / "out" / "features.csv")
    assert ids == ["long.seg000", "long.seg001"]


def test_extract_reads_an_absolute_path_as_it_is(tmp_path):
    # a manifest elsewhere holding the WAV's absolute path gives the rows of a manifest
    # beside it holding the relative path
    (tmp_path / "wavs").mkdir()
    wav = tmp_path / "wavs" / "long.wav"
    wav.write_bytes(encode_wav(tone(220.0, seconds=9.0)))
    (tmp_path / "elsewhere").mkdir()
    tables = []
    for manifest, path in ((tmp_path / "m.csv", "wavs/long.wav"),
                           (tmp_path / "elsewhere" / "m.csv", str(wav))):
        manifest.write_text(f"path,label,participant\n{path},control,p0\n")
        out = manifest.parent / "out"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 0
        tables.append(read_features_csv(out / "features.csv"))
    (rel_ids, rel_labels, relative), (abs_ids, abs_labels, absolute) = tables
    assert rel_ids == ["wavs__long.seg000", "wavs__long.seg001"]
    assert abs_ids == [cli._segment_id(str(wav), i) for i in range(2)]
    assert abs_labels == rel_labels and absolute.tobytes() == relative.tobytes()


@pytest.mark.parametrize("first, second, sid", [
    ("a/b.wav", "a__b.wav", "a__b.seg000"),
    ("x.wav", "x.WAV", "x.seg000"),
])
def test_extract_rejects_recordings_that_share_a_segment_id(tmp_path, capsys, first, second,
                                                            sid):
    # extract wrote both rows to features.csv, then failed naming only the id
    (tmp_path / "a").mkdir()
    for name in (first, second):
        (tmp_path / name).write_bytes(encode_wav(tone(220.0, seconds=5.0)))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"path,label,participant\n{first},control,p0\n{second},control,p1\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {manifest}: recordings {first!r} and"
                                       f" {second!r} both give segment id {sid!r}\n")
    assert not (tmp_path / "out").exists()


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
    assert {row.participant for row in train}.isdisjoint({row.participant for row in test})


@pytest.mark.parametrize("mode, fraction, message", [
    ("segment-level", "1e-300", "3 paths cannot split at 1e-300"),
    ("speaker-disjoint", "0.34", "speaker-disjoint train side has a single class"),
])
def test_degenerate_split_names_manifest_and_fraction(tmp_path, capsys, mode, fraction, message):
    # the fraction lies in (0, 1), so it is no usage error: only the data fails it
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\na.wav,control,p0\nb.wav,control,p1\n"
                        "c.wav,depression,p2\n")
    assert main(["split", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                 "--mode", mode, f"--train-fraction={fraction}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --manifest {manifest} with --train-fraction: {message}\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


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

    # a segment id holding a comma (from a manifest path "ctl,a.wav") is quoted
    ids, labels, matrix = read_features_csv(work / "features.csv")
    ids[0] = "ctl,a.seg000"
    write_features_csv(tmp_path / "features.csv", ids, labels, matrix)
    assert main(["predict", "--model", str(out / "model.json"),
                 "--features", str(tmp_path / "features.csv"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert printed == (out / "predictions.csv").read_text()
    assert printed.splitlines()[1].startswith('"ctl,a.seg000",')
    assert [row[0] for row in rows] == ["segment_id", *ids]
    assert {len(row) for row in rows} == {3}


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


def test_select_report_does_not_depend_on_blas_threads(tmp_path):
    # selection ranks p = 2 candidates with a BLAS product; with 1120 training
    # rows per fold that product is large enough for OpenBLAS to split it across
    # threads, so its rounding may differ, but the report must not
    rng = np.random.default_rng(50)
    labels = ["control", "depression"] * 700
    matrix = rng.normal(size=(1400, 16)) + np.array([[0.0], [1.0]] * 700)
    ids = [f"s{i:04d}" for i in range(1400)]
    write_features_csv(tmp_path / "features.csv", ids, labels, matrix)
    save_manifest(tmp_path / "train.csv", DatasetManifest(
        rows=[ManifestRow(sid, label, f"p{i % 2}-{i // 40}") for i, (sid, label)
              in enumerate(zip(ids, labels))]))
    src = [str(Path(__file__).resolve().parent.parent / "src")]
    src += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(src))
        out = tmp_path / f"threads{threads}"
        done = subprocess.run([sys.executable, "-m", "vocalscreen.cli", "select",
                               "--features", str(tmp_path / "features.csv"),
                               "--manifest", str(tmp_path / "train.csv"),
                               "--out", str(out), "--seed", "3"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        reports.append((out / "selection_report.json").read_bytes())
    assert reports[0] == reports[1]


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
        (["train", *files, "--p", "inf"], "--k/--p: p must be finite, got inf"),  # distances 1.0
        (["train", *files, "--k", "4"], "--k"),
        (["train", *files, "--k", "-1"], "--k"),
        (["select", *files, "--folds", "1"], "--folds"),
        (["select", *files, "--config", str(config)], "--folds"),
        (["select", *files, "--config", str(asks_help)], "'help'"),
        (["split", "--manifest", "m.csv", "--out", out, "--train-fraction", "1.5"],
         "--train-fraction"),
        (["synth", "--out", out, "--speakers-per-class", "0"], "--speakers-per-class"),
        (["synth", "--out", out, "--seconds-per-speaker", "nan"], "--seconds-per-speaker"),
        (["synth", "--out", out, "--seconds-per-speaker", "inf"], "--seconds-per-speaker"),
        (["synth", "--out", out, "--seconds-per-speaker", "0.00001"],  # 0.16 samples
         "--seconds-per-speaker"),
        (["synth", "--out", out, "--seconds-per-speaker", "1e305"],
         "--speakers-per-class/--seconds-per-speaker: seconds_per_speaker must be positive and"
         " finite, got 1e+305"),
        # 1.16 TiB of float64 samples, more than a mono PCM16 WAV holds: numpy's
        # allocation failure escaped as a traceback
        (["synth", "--out", out, "--seconds-per-speaker", "1e7"],
         "--speakers-per-class/--seconds-per-speaker: seconds_per_speaker 10000000.0 gives"
         " 160000000000 samples at 16000 Hz, more than the 2147483629"),
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


def test_extract_takes_no_tuning_flag(tmp_path, capsys):
    # extract runs the pipeline's constants; a library caller sets others
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    flags = {flag for action in subcommands["extract"]._actions for flag in action.option_strings}
    assert flags == {"-h", "--help", "--manifest", "--out", "--config"}
    config = tmp_path / "extract.conf"
    config.write_text("n_fft = 1024\n")
    for extra, unrecognized in ((["--n-fft", "1024"], "--n-fft 1024"),
                                (["--config", str(config)], "--n-fft=1024")):
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", "--manifest", "m.csv", "--out", str(tmp_path / "o"), *extra])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def capped_main(argv, limit_bytes, cwd=None) -> subprocess.CompletedProcess:
    """cli.main(argv) run in a child whose address space is capped, so a regression that
    allocates before it checks cannot take this process's memory."""
    src = [str(Path(__file__).resolve().parent.parent / "src")]
    src += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(src))
    capped = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit_bytes},"
              f" {limit_bytes})); from vocalscreen.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", capped, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_synth_into_a_path_under_a_file_exits_1_naming_it(tmp_path, capsys):
    # a path under a regular file fails for any user, root included, unlike permission bits
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "cohort"
    assert main(["synth", "--out", str(out), "--speakers-per-class", "1",
                 "--seconds-per-speaker", "1"]) == 1
    assert capsys.readouterr().err == (f"error: cannot write cohort to {out}: [Errno 20] Not a"
                                       f" directory: '{out}'\n")


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-1")])
def test_synth_rejects_a_negative_seed(tmp_path, monkeypatch, capsys, flag, env):
    # numpy's default_rng raised "expected non-negative integer" as a traceback
    if env is not None:
        monkeypatch.setenv("VOCALSCREEN_SEED", env)
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--speakers-per-class", "1", *flag]) == 2
    assert capsys.readouterr().err == "error: --seed: seed must lie in [0, 2^64), got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_synth_rejects_a_seed_of_2_to_the_64(tmp_path, monkeypatch, capsys, source):
    # numpy seeds from any non-negative integer, so 2^64 ran and synth.run.json recorded
    # it; synth now takes the seed rule of split and select
    seed = 2 ** 64
    argv = ["synth", "--out", str(tmp_path / "o"), "--speakers-per-class", "1"]
    if source == "flag":
        argv += ["--seed", str(seed)]
    elif source == "config":
        (tmp_path / "run.cfg").write_text(f"seed = {seed}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("VOCALSCREEN_SEED", str(seed))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --seed: seed must lie in [0, 2^64), got {seed}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stage", ["split", "select"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_split_and_select_reject_a_seed_outside_64_bits(tmp_path, monkeypatch, capsys, stage,
                                                        seed, source):
    # SplitMix64 kept the seed's low 64 bits: -1 drew the stream of 2^64 - 1, and
    # 2^64 that of 0, while split.json recorded the seed given; the files are absent,
    # as the seed is checked before any is read
    argv = [stage, "--manifest", "m.csv", "--out", str(tmp_path / "o")]
    if stage == "select":
        argv += ["--features", "f.csv"]
    if source == "flag":
        argv += ["--seed", str(seed)]
    elif source == "config":
        (tmp_path / "run.cfg").write_text(f"seed = {seed}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("VOCALSCREEN_SEED", str(seed))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --seed: seed must lie in [0, 2^64), got {seed}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--k", "4", "k must be odd, got 4"),
    ("--k", "0", "k must be >= 1, got 0"),
    ("--k", "-1", "k must be >= 1, got -1"),
    ("--p", "0.5", "p must be >= 1"),
    ("--p", "inf", "p must be finite, got inf"),
    ("--p", "nan", "p must be >= 1"),
])
def test_train_rejects_every_k_and_p_knn_fit_rejects(tmp_path, capsys, flag, value, message):
    # the flags go through the rule knn_fit applies, before any file is read
    features = np.arange(10.0).reshape(5, 2)
    labels = ["control"] * 3 + ["depression"] * 2
    k, p = (int(value), 2.0) if flag == "--k" else (3, float(value))
    with pytest.raises((ValueError, EvenK), match=re.escape(message)):
        knn_fit(features, labels, k=k, p=p)
    out = tmp_path / "o"
    assert main(["train", "--features", "f.csv", "--manifest", "m.csv", "--out", str(out),
                 flag, value]) == 2
    assert capsys.readouterr().err == f"error: --k/--p: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("stage", ["select", "train"])
def test_scaler_overflow_names_features_file(small_cohort, tmp_path, capsys, stage):
    # mfcc1 alternates 1e200 and 2e200: the mean is finite, the variance overflows;
    # numpy's overflow warning would fail the test, as it would have printed
    work = small_cohort / "work"
    ids, labels, matrix = read_features_csv(work / "features.csv")
    matrix[:, 1] = np.where(np.arange(len(ids)) % 2, 2e200, 1e200)
    features = tmp_path / "features.csv"
    write_features_csv(features, ids, labels, matrix)
    argv = [stage, "--features", str(features), "--manifest", str(work / "train.csv"),
            "--out", str(tmp_path / "o")]
    assert main(argv + (["--folds", "2"] if stage == "select" else [])) == 1
    assert capsys.readouterr().err == (f"error: {features}: feature column 1 (from 0): its"
                                       f" mean or std overflows float64\n")
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("stage", ["train", "select", "evaluate"])
def test_segment_labelled_otherwise_in_features_names_both_files(small_cohort, tmp_path, capsys,
                                                                  stage):
    # every control segment of the manifest read as depression: the stage fitted or
    # scored the manifest's labels against the other features without a word
    work = small_cohort / "work"
    manifest = tmp_path / "flipped.csv"
    source = work / ("test.csv" if stage == "evaluate" else "train.csv")
    manifest.write_text(source.read_text().replace(",control,", ",depression,"))
    first = next(row.path for row in load_manifest(source) if row.label == "control")
    argv = [stage, "--features", str(work / "features.csv"), "--manifest", str(manifest),
            "--out", str(tmp_path / "o")]
    if stage == "evaluate":
        argv += ["--model", str(tmp_path / "absent.json")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {work / 'features.csv'}: segment {first!r} is"
                                       f" labelled 'control', {manifest} labels it"
                                       f" 'depression'\n")
    assert not (tmp_path / "o").exists()


def test_stats_rejects_non_utf8_features(tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_bytes(b"segment_id,label\n\xff\n")
    assert main(["stats", "--features", str(features), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {features}: cannot decode as text")


@pytest.mark.parametrize("content, reason", [
    ('{"feature_config": {"n_fft": 2048,', "Expecting"),  # malformed JSON
    ('{"feature_config": {"n_fft": 2048, "window": "hann"}}', "exactly the fields fmax, fmin"),
    ('{"command": "extract"}', "'feature_config'"),
    ('[1, 2]', "list indices must be integers"),
    (json.dumps({"feature_config": {**asdict(FeatureConfig()), "hop": 512.0}}),
     "hop must be an integer, got 512.0"),
    (json.dumps({"feature_config": {**asdict(FeatureConfig()), "log_floor": float("nan")}}),
     "log_floor must be positive and finite, got nan"),
    (json.dumps({"feature_config": {**asdict(FeatureConfig()), "fmax": float("inf")}}),
     "need 0 <= fmin < fmax < inf"),
], ids=["malformed-json", "unknown-field", "no-feature-config", "not-an-object", "float-hop",
        "nan-log-floor", "inf-fmax"])
def test_bad_extract_record_exits_1_naming_it(small_cohort, tmp_path, capsys, content, reason):
    """train, evaluate and predict read extract.run.json beside --features, naming it if bad."""
    work = small_cohort / "work"
    (tmp_path / "features.csv").write_bytes((work / "features.csv").read_bytes())
    record = tmp_path / "extract.run.json"
    record.write_text(content)
    assert main(["train", "--features", str(work / "features.csv"), "--manifest",
                 str(work / "train.csv"), "--out", str(tmp_path / "good")]) == 0
    model_file = str(tmp_path / "good" / "model.json")
    capsys.readouterr()
    for argv in (["train", "--manifest", str(work / "train.csv"), "--out", str(tmp_path / "fit")],
                 ["evaluate", "--manifest", str(work / "test.csv"), "--model", model_file,
                  "--out", str(tmp_path / "fit")],
                 ["predict", "--model", model_file, "--out", str(tmp_path / "fit")]):
        assert main([*argv, "--features", str(tmp_path / "features.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {record}: bad record: ")
        assert reason in captured.err
        assert captured.out == ""
        assert not (tmp_path / "fit").exists()


def test_train_binds_the_constants_extract_recorded(small_cohort, tmp_path, capsys):
    """A run directory whose extract.run.json records n_fft 1024, split and train into it:
    model.json says 1024, and predict and evaluate refuse features whose extract.run.json
    says otherwise."""
    work, run = small_cohort / "work", tmp_path / "run"
    run.mkdir()
    for name in ("features.csv", "segments.csv"):
        (run / name).write_bytes((work / name).read_bytes())
    record = json.loads((Path(__file__).parent / "run_configs" / "extract.json").read_text())
    record["feature_config"]["n_fft"] = 1024
    (run / "extract.run.json").write_text(json.dumps(record))
    assert main(["split", "--manifest", str(run / "segments.csv"), "--out", str(run)]) == 0
    assert main(["train", "--features", str(run / "features.csv"),
                 "--manifest", str(run / "train.csv"), "--out", str(run)]) == 0
    model_file = run / "model.json"
    assert json.loads(model_file.read_text())["feature_config"]["n_fft"] == 1024
    assert sorted(p.name for p in run.glob("*.run.json")) == [
        "extract.run.json", "split.run.json", "train.run.json"]
    with pytest.raises(SystemExit) as excinfo:  # the record replaced the flag
        main(["train", "--features", str(run / "features.csv"), "--manifest",
              str(run / "train.csv"), "--out", str(run), "--feature-config", "x"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --feature-config x" in capsys.readouterr().err

    # features without a record: no check
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "features.csv").write_bytes((work / "features.csv").read_bytes())
    capsys.readouterr()
    for features in (run / "features.csv", bare / "features.csv"):
        assert main(["predict", "--model", str(model_file), "--features", str(features)]) == 0
    # features extracted with the default n_fft 2048
    for argv in (["predict", "--model", str(model_file), "--out", str(tmp_path / "o")],
                 ["evaluate", "--model", str(model_file), "--manifest", str(work / "test.csv"),
                  "--out", str(tmp_path / "o")]):
        capsys.readouterr()
        assert main([*argv, "--features", str(work / "features.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {work / 'features.csv'}: extracted with other constants"
                                f" than {model_file} was trained on: n_fft 2048 (model 1024)\n")
        assert captured.out == ""
        assert not (tmp_path / "o").exists()


def test_model_binds_segment_seconds_and_silence(small_cohort, tmp_path, capsys):
    """train binds the record's segment_seconds and silence constants, and predict and
    evaluate refuse features cut with others, naming each differing key. A model bound
    only feature_config, and predict answered features cut into 2 s segments at a 0.5
    silence threshold with exit 0."""
    work = small_cohort / "work"
    model_file = trained_model(small_cohort, tmp_path)
    assert json.loads(model_file.read_text())["segment_seconds"] == 4.0
    assert json.loads(model_file.read_text())["silence"]["threshold_ratio"] == 0.1
    other = tmp_path / "other"
    other.mkdir()
    (other / "features.csv").write_bytes((work / "features.csv").read_bytes())
    record = json.loads((work / "extract.run.json").read_text())
    record["segment_seconds"] = 2.0
    record["silence"]["threshold_ratio"] = 0.5
    (other / "extract.run.json").write_text(json.dumps(record))
    capsys.readouterr()
    for argv in (["predict", "--model", str(model_file), "--out", str(tmp_path / "o")],
                 ["evaluate", "--model", str(model_file), "--manifest", str(work / "test.csv"),
                  "--out", str(tmp_path / "o")]):
        assert main([*argv, "--features", str(other / "features.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {other / 'features.csv'}: extracted with other"
                                f" constants than {model_file} was trained on: threshold_ratio"
                                f" 0.5 (model 0.1), segment_seconds 2.0 (model 4.0)\n")
        assert captured.out == "" and not (tmp_path / "o").exists()
    # trained beside that record, the model holds its constants and takes those features
    (other / "train.csv").write_bytes((work / "train.csv").read_bytes())
    assert main(["train", "--features", str(other / "features.csv"),
                 "--manifest", str(other / "train.csv"), "--out", str(other)]) == 0
    payload = json.loads((other / "model.json").read_text())
    assert (payload["segment_seconds"], payload["silence"]["threshold_ratio"]) == (2.0, 0.5)
    assert main(["predict", "--model", str(other / "model.json"),
                 "--features", str(other / "features.csv")]) == 0


@pytest.mark.parametrize("change, reason", [
    (lambda r: r.pop("silence"), "'silence'"),
    (lambda r: r.pop("segment_seconds"), "'segment_seconds'"),
    (lambda r: r["silence"].update(threshold_ratio=1.0), r"threshold_ratio must be in \(0, 1\)"),
    (lambda r: r["silence"].pop("hop_seconds"), "silence must be an object with exactly"),
    (lambda r: r.update(segment_seconds=0.0), "segment_seconds must be positive and finite"),
    (lambda r: r.update(segment_seconds=None), "segment_seconds must be a number, got None"),
    (lambda r: r.update(segment_seconds=10 ** 400), "int too large to convert to float"),
    # a bool read as 1 s, and train wrote it into model.json
    (lambda r: r.update(segment_seconds=True), "segment_seconds must be a number, got True"),
    (lambda r: r["silence"].update(frame_seconds=True, hop_seconds=True),
     "frame_seconds must be a number, got True"),
    (lambda r: r["feature_config"].update(fmax=True), "fmax must be a number, got True"),
])
def test_bad_extract_record_constants_exit_1(small_cohort, tmp_path, capsys, change, reason):
    work = small_cohort / "work"
    (tmp_path / "features.csv").write_bytes((work / "features.csv").read_bytes())
    record = json.loads((work / "extract.run.json").read_text())
    change(record)
    (tmp_path / "extract.run.json").write_text(json.dumps(record))
    capsys.readouterr()
    for argv in (["train", "--manifest", str(work / "train.csv"), "--out", str(tmp_path / "o")],
                 ["predict", "--model", str(trained_model(small_cohort, tmp_path))]):
        assert main([*argv, "--features", str(tmp_path / "features.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'extract.run.json'}: bad record: ")
        assert re.search(reason, err)
        assert not (tmp_path / "o").exists()


def test_extract_runs_and_records_one_extraction(small_cohort, tmp_path, monkeypatch, capsys):
    """extract cuts and featurizes with the Extraction it records: with 2 s segments,
    segments.csv counts 2 s segments, extract.run.json says 2.0, and a model trained on
    the 4 s features refuses them."""

    @dataclass(frozen=True)
    class TwoSeconds(Extraction):
        segment_seconds: float = 2.0

    monkeypatch.setattr(cli, "Extraction", TwoSeconds)
    with chdir(small_cohort):
        assert main(["extract", "--manifest", "cohort/cohort.csv", "--out", str(tmp_path)]) == 0
    expected = voiced_segment_count(small_cohort, 2.0)
    assert expected > voiced_segment_count(small_cohort, 4.0)
    assert len(load_manifest(tmp_path / "segments.csv")) == expected
    assert len(read_features_csv(tmp_path / "features.csv")[0]) == expected
    record = json.loads((tmp_path / "extract.run.json").read_text())
    assert record["segment_seconds"] == 2.0
    assert record == {"manifest": "cohort/cohort.csv", "command": "extract",
                      **asdict(TwoSeconds())}
    model_file = trained_model(small_cohort, tmp_path)
    capsys.readouterr()
    assert main(["predict", "--model", str(model_file),
                 "--features", str(tmp_path / "features.csv")]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'features.csv'}: extracted with"
                                       f" other constants than {model_file} was trained on:"
                                       f" segment_seconds 2.0 (model 4.0)\n")


def test_extract_names_the_recording_an_extraction_cannot_featurize(tmp_path, monkeypatch,
                                                                    capsys):
    """A library Extraction whose mel filterbank leaves a filter empty fails in
    extract_features, which once raised a bare ValueError out of main."""

    @dataclass(frozen=True)
    class Coarse(Extraction):
        feature_config: FeatureConfig = FeatureConfig(n_fft=256, hop=128)

    monkeypatch.setattr(cli, "Extraction", Coarse)
    (tmp_path / "a.wav").write_bytes(encode_wav(tone(220.0, seconds=5.0)))
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,participant\na.wav,control,p0\n")
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: a.wav: 14 of the 128 mel filters hold no FFT bin"
                                       " of an n_fft 256 spectrum at 16000 Hz\n")
    assert not (tmp_path / "o").exists()


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
    extract, split = (json.loads((small_cohort / "work" / f"{command}.run.json").read_text())
                      for command in ("extract", "split"))
    assert (extract["command"], split["command"]) == ("extract", "split")
    assert "feature_config" in extract and "train_fraction" in split


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


def test_config_lines_read_as_flags(small_cohort, tmp_path, capsys):
    work = small_cohort / "work"
    train = ["train", "--features", str(work / "features.csv"),
             "--manifest", str(work / "train.csv")]
    for value, expected in [("false", False), ("TRUE", True)]:
        config = tmp_path / f"{value}.cfg"
        config.write_text(f"scaler = {value}\n")
        out = tmp_path / value
        assert main([*train, "--out", str(out), "--config", str(config)]) == 0
        assert capsys.readouterr().out.endswith(f" segments -> {out / 'model.json'}\n")
        assert json.loads((out / "train.run.json").read_text())["scaler"] is expected
        stds = json.loads((out / "model.json").read_text())["scaler"]["stds"]
        assert (set(stds) == {1.0}) is not expected

    # quoted values, underscores for dashes, and a seed value that reaches the parser
    segments = str(work / "segments.csv")
    config = tmp_path / "split.cfg"
    config.write_text("mode = \"speaker-disjoint\"\ntrain_fraction = '0.67'\nseed = 2\n")
    assert main(["split", "--manifest", segments, "--out", str(tmp_path / "quoted"),
                 "--config", str(config)]) == 0
    assert main(["split", "--manifest", segments, "--out", str(tmp_path / "flags"),
                 "--mode", "speaker-disjoint", "--train-fraction", "0.67", "--seed", "2"]) == 0
    for name in ("split.json", "train.csv", "test.csv", "split.run.json"):
        assert (tmp_path / "quoted" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    config.write_text("seed = -1\n")
    capsys.readouterr()
    assert main(["split", "--manifest", segments, "--out", str(tmp_path / "negative"),
                 "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: --seed: seed must lie in [0, 2^64), got -1\n"
    assert not (tmp_path / "negative").exists()
    # a line with no "=" is named by its number, counting the comment and the blank line
    config.write_text("# split options\n\nseed 2\n")
    assert main(["split", "--manifest", segments, "--out", str(tmp_path / "no_equals"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}:3: expected key=value, got 'seed 2'\n"
    assert not (tmp_path / "no_equals").exists()


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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("use_scaler", [True, False])
def test_predictions_equal_one_knn_predict_per_row(p, use_scaler):
    # every training row twice, under the other label, so equal distances tie and
    # the lower row index must win in the block filter as in the scan; a third of
    # the queries sit on a training row
    rng = np.random.default_rng(28)
    distinct = rng.integers(-3, 4, size=(15, 16)).astype(float)
    train = np.concatenate([distinct, distinct])
    labels = ["control", "depression"] * 15
    queries = rng.integers(-3, 4, size=(40, 16)).astype(float)
    queries[::3] = train[rng.integers(0, 30, size=14)]
    for k in (1, 3, 5):
        fitted = knn_fit(train, labels, k=k, p=p,
                         scaler=fit_scaler(train) if use_scaler else None)
        for n in (0, 1, 2, 16, 17, 40):
            assert (_predictions(fitted, "model.json", queries[:n])
                    == [knn_predict(fitted, row) for row in queries[:n]])


def test_predict_takes_the_block_filter(small_cohort, tmp_path, capsys, monkeypatch):
    # a p = 2 model, and a p = 1 one, answers a table of several rows in blocks of 16
    # through its filter, not row by row
    work = small_cohort / "work"
    features = work / "features.csv"
    rows = len(read_features_csv(features)[0])
    for p, filtered in (("2", _filtered_heads), ("1", _l1_heads)):
        assert main(["train", "--features", str(features), "--manifest", str(work / "train.csv"),
                     "--out", str(tmp_path / p), "--k", "1", "--p", p]) == 0
        blocks = []

        def counting(fitted, queries, count, out, filtered=filtered):
            blocks.append(len(queries))
            return filtered(fitted, queries, count, out)

        monkeypatch.setattr(f"vocalscreen.model.{filtered.__name__}", counting)
        assert main(["predict", "--model", str(tmp_path / p / "model.json"),
                     "--features", str(features)]) == 0
        assert rows > 16 and sum(blocks) == rows and blocks[0] == 16


def test_select_reads_the_feature_space_cohort_as_written(tmp_path):
    # the cohort's features.csv and segments.csv, read by select, give the report that
    # grid_select gives on the arrays the generator returns
    matrix, labels, _ = feature_cohort(tmp_path)
    assert main(["select", "--features", str(tmp_path / "features.csv"),
                 "--manifest", str(tmp_path / "segments.csv"), "--out", str(tmp_path),
                 "--seed", "3"]) == 0
    report = json.loads((tmp_path / "selection_report.json").read_text())
    assert report == evaluation.grid_select(evaluation.default_grid(), matrix, labels, folds=5,
                                            seed=3)


def test_query_and_vote_run_once_per_table_fold_and_scaler(small_cohort, tmp_path,
                                                            monkeypatch):
    # predict and evaluate query the neighbours of their whole table once and vote once;
    # select queries once per fold and scaler (5 x 2) and votes once per p of each
    # (2 more), never once per row. The counts are exact: no headroom
    model_path = trained_model(small_cohort, tmp_path)
    work = small_cohort / "work"
    calls = []

    def counted(name, function, rows_at):
        def wrapper(*args):
            calls.append((name, len(args[rows_at])))
            return function(*args)
        return wrapper

    query = counted("query", model._neighbours, 1)
    vote = counted("vote", model._vote, 0)
    for module in (model, evaluation):
        monkeypatch.setattr(module, "_neighbours", query)
        monkeypatch.setattr(module, "_vote", vote)
    features = str(work / "features.csv")
    n_train, n_test = (len(load_manifest(work / name)) for name in ("train.csv", "test.csv"))
    assert main(["predict", "--model", str(model_path), "--features", features]) == 0
    rows = len(read_features_csv(features)[0])
    assert calls == [("query", rows), ("vote", rows)]
    calls.clear()
    assert main(["evaluate", "--features", features, "--manifest", str(work / "test.csv"),
                 "--model", str(model_path), "--split-sidecar", str(work / "split.json"),
                 "--out", str(tmp_path / "eval")]) == 0
    assert calls == [("query", n_test), ("vote", n_test)]
    calls.clear()
    assert main(["select", "--features", features, "--manifest", str(work / "train.csv"),
                 "--out", str(tmp_path / "select")]) == 0
    assert [name for name, _rows in calls] == ["query", "vote", "vote"] * 10
    # every training row is held out once, then queried and voted on per scaler and p
    assert sum(n for name, n in calls if name == "query") == 2 * n_train
    assert sum(n for name, n in calls if name == "vote") == 4 * n_train


@pytest.mark.parametrize("stage", ["predict", "evaluate"])
def test_overflow_in_the_second_block_names_model_file(tmp_path, capsys, stage):
    # 40 queries near the training rows but row 20, the fifth of the second block,
    # whose every square overflows
    rng = np.random.default_rng(20)
    labels = ["control", "depression"] * 20
    train = rng.normal(size=(10, 16))
    fitted = tmp_path / "model.json"
    save_model(knn_fit(train, labels[:10], k=3, p=2.0), fitted)
    queries = rng.normal(size=(40, 16))
    queries[20] = 1e200
    ids = [f"s{i:02d}" for i in range(40)]
    features = tmp_path / "features.csv"
    write_features_csv(features, ids, labels, queries)
    argv = [stage, "--model", str(fitted), "--features", str(features)]
    if stage == "evaluate":
        manifest = tmp_path / "test.csv"
        save_manifest(manifest, DatasetManifest(rows=[
            ManifestRow(path=sid, label=label, participant=f"p-{label}")
            for sid, label in zip(ids, labels)]))
        argv += ["--manifest", str(manifest), "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {fitted}: p = 2.0: the distance |a - b|^p to nearest"
                            f" row 3 overflows float64\n")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()
    queries[20] = 0.0
    write_features_csv(features, ids, labels, queries)
    assert main(argv) == 0


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
    ("select", {"control": 0, "depression": 0}, ["--folds", "5"],
     "too few rows for --folds 5: no rows to deal into 5 folds"),
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


def test_select_checks_folds_before_allocating(small_cohort, tmp_path):
    # on 20 rows, --folds 100000000 and 2**63 built one list per fold before comparing
    # a class with them, and ended in a MemoryError traceback under a 1 GiB cap
    work = small_cohort / "work"
    manifest = first_rows_manifest(work, tmp_path / "few.csv", {"control": 10, "depression": 10})
    for folds in (100000000, 2 ** 63):
        done = capped_main(["select", "--features", str(work / "features.csv"),
                            "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                            "--folds", str(folds)], 1 << 30)
        assert done.returncode == 1, done.stderr
        assert done.stderr == (f"error: {manifest}: too few rows for --folds {folds}:"
                               f" class 'control' has 10 rows < {folds} folds\n")
    assert not (tmp_path / "o").exists()


def test_synth_names_the_out_dir_when_the_disk_fills(tmp_path, monkeypatch, capsys):
    # a speaker passes through a scratch file in --out, so a long one needs disk, not
    # memory; here the disk has room for 1000 bytes of the first block
    class FullDisk(io.RawIOBase):
        room = 1000

        def seekable(self):
            return True

        def seek(self, offset, whence=0):
            return 0

        def write(self, data):
            if not self.room:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            taken = min(self.room, len(data))
            self.room -= taken
            return taken

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kwargs: FullDisk())
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--speakers-per-class", "1",
                 "--seconds-per-speaker", "2"]) == 1
    assert capsys.readouterr().err == (f"error: cannot write cohort to {out}: [Errno 28]"
                                       f" {os.strerror(errno.ENOSPC)}\n")
    assert list(out.iterdir()) == []  # no WAV was opened, and no run record written


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
    (lambda m: m.update(p=float("inf")), "invalid model: p must be finite, got inf"),
    (lambda m: m.pop("scaler"), "missing field 'scaler'"),
    (lambda m: m["scaler"]["stds"].__setitem__(0, 0.0), "invalid model: stds must be positive"),
])
def test_predict_rejects_invalid_model_with_valid_digest(small_cohort, tmp_path, capsys,
                                                         mutate, message):
    payload = json.loads(trained_model(small_cohort, tmp_path).read_text())
    mutate(payload)
    bad = tmp_path / "bad.json"
    write_redigested(bad, payload)
    capsys.readouterr()
    assert main(["predict", "--model", str(bad),
                 "--features", str(small_cohort / "work" / "features.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {message}\n" and captured.out == ""


@pytest.mark.parametrize("field, message", [
    ("k", "k must be an integer, got True"),
    ("p", "p must be a number, got True"),
])
def test_evaluate_rejects_boolean_k_or_p(small_cohort, tmp_path, capsys, field, message):
    # True passes k >= 1 and p >= 1, and "model_k": true would reach eval_report.json
    payload = json.loads(trained_model(small_cohort, tmp_path).read_text())
    payload[field] = True
    bad = tmp_path / "bad.json"
    write_redigested(bad, payload)
    work = small_cohort / "work"
    capsys.readouterr()
    assert main(["evaluate", "--model", str(bad), "--features", str(work / "features.csv"),
                 "--manifest", str(work / "test.csv"), "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: invalid model: {message}\n" and captured.out == ""
    assert not (tmp_path / "o").exists()


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


# Commands run from the small cohort's directory; each writes <stage>.run.json under pinned/.
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
    """<stage>.run.json of every README stage equals the committed bytes, and
    every built-in flag default keeps its value and type."""
    monkeypatch.delenv("VOCALSCREEN_SEED", raising=False)
    expected_dir = Path(__file__).parent / "run_configs"
    with chdir(small_cohort):
        for stage, argv in PINNED_STAGES.items():
            assert main(argv) == 0, argv
            written = (small_cohort / "pinned" / stage / f"{stage}.run.json").read_bytes()
            assert written == (expected_dir / f"{stage}.json").read_bytes(), stage
    capsys.readouterr()

    defaults = [
        (["synth", "--out", "o"],
         {"speakers_per_class": 12, "seconds_per_speaker": 120.0, "seed": 0}),
        (["split", "--manifest", "m", "--out", "o"],
         {"train_fraction": 0.8, "mode": "segment-level", "seed": 0}),
        (["train", "--features", "f", "--manifest", "m", "--out", "o"],
         {"k": 3, "p": 2.0, "scaler": True}),
        (["select", "--features", "f", "--manifest", "m", "--out", "o"],
         {"folds": 5, "seed": 0}),
    ]
    for argv, values in defaults:
        ns = build_parser().parse_args(argv)
        assert {key: repr(getattr(ns, key)) for key in values} == \
            {key: repr(value) for key, value in values.items()}, argv


def test_every_record_holds_exactly_the_parsed_flags(small_cohort, tmp_path, monkeypatch,
                                                     capsys):
    """Each stage's record but extract's holds its command and every flag it parses, but
    --out and --config: walking the parser, a flag the record dropped would show."""
    monkeypatch.delenv("VOCALSCREEN_SEED", raising=False)
    for name in ("cohort", "work"):
        (tmp_path / name).symlink_to(small_cohort / name)
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert sorted(subcommands) == sorted(PINNED_STAGES)
    with chdir(tmp_path):
        for stage, argv in PINNED_STAGES.items():
            assert main(argv) == 0, argv
    capsys.readouterr()
    for stage, parser in subcommands.items():
        if stage == "extract":  # records its constants nested, as train binds them
            continue
        dests = {action.dest for action in parser._actions} - {"help", "out", "config"}
        record = json.loads((tmp_path / "pinned" / stage / f"{stage}.run.json").read_text())
        assert sorted(record) == sorted({"command", *dests}), stage
        assert record["command"] == stage


README_WORKFLOW = [
    ["extract", "--manifest", "cohort/cohort.csv", "--out", "work"],
    ["split", "--manifest", "work/segments.csv", "--out", "work", "--seed", "42"],
    ["select", "--features", "work/features.csv", "--manifest", "work/train.csv", "--out", "work",
     "--seed", "42"],
    ["train", "--features", "work/features.csv", "--manifest", "work/train.csv", "--out", "work",
     "--k", "3", "--p", "2"],
    ["evaluate", "--features", "work/features.csv", "--manifest", "work/test.csv",
     "--model", "work/model.json", "--split-sidecar", "work/split.json", "--out", "work/eval"],
    ["predict", "--model", "work/model.json", "--features", "work/features.csv"],
    ["stats", "--features", "work/features.csv", "--out", "work"],
]


def test_readme_workflow_keeps_every_record(small_cohort, tmp_path, monkeypatch, capsys):
    """The README workflow, whose stages share work/, leaves each stage's pinned record there;
    evaluate's, in work/eval/, differs from its pin only in the model it names."""
    monkeypatch.delenv("VOCALSCREEN_SEED", raising=False)
    (tmp_path / "cohort").symlink_to(small_cohort / "cohort")
    with chdir(tmp_path):
        for argv in README_WORKFLOW:
            assert main(argv) == 0, argv
    capsys.readouterr()
    expected_dir = Path(__file__).parent / "run_configs"
    stages = ["extract", "select", "split", "stats", "train"]
    assert sorted(p.name for p in (tmp_path / "work").glob("*.run.json")) == \
        [f"{stage}.run.json" for stage in stages]
    for stage in stages:
        written = (tmp_path / "work" / f"{stage}.run.json").read_bytes()
        assert written == (expected_dir / f"{stage}.json").read_bytes(), stage
    evaluate = json.loads((expected_dir / "evaluate.json").read_text())
    assert json.loads((tmp_path / "work" / "eval" / "evaluate.run.json").read_text()) == \
        {**evaluate, "model": "work/model.json"}


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


# each stage's required flags on small_cohort; every other flag keeps its default, so a
# synth that runs makes 12 speakers of 120 s and meets the file-size cap in its scratch file
SWEEP_BASES = {
    "synth": ["synth"],
    "split": ["split", "--manifest", "work/segments.csv"],
    "train": ["train", "--features", "work/features.csv", "--manifest", "work/train.csv"],
    "select": ["select", "--features", "work/features.csv", "--manifest", "work/train.csv"],
}
SWEEP_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e305", "1e-300", str(2 ** 63)]

# run as ``python -c SWEEP_CHILD`` with a JSON list of argv on stdin: main runs each argv in
# this one child, capped at 1 GiB of address space and 1 MiB per written file (Python ignores
# SIGXFSZ, so a write past the cap raises OSError), and prints [exit code, stderr] of each
SWEEP_CHILD = """import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))
from vocalscreen.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except BaseException:
            traceback.print_exc()
            code = None
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def test_every_numeric_flag_takes_extreme_values_without_a_traceback(small_cohort, tmp_path):
    """Each type=int or type=float flag of every stage, given 0, -1, nan, +-inf, 1e305,
    1e-300 or 2**63 as ``--flag=value`` (as two tokens, argparse reads -inf as an option),
    exits 0, 1 or 2 with no traceback, and a usage error (2) names the flag."""
    for name in ("cohort", "work"):
        (tmp_path / name).symlink_to(small_cohort / name)
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    cases = [(flag, [*SWEEP_BASES[stage], "--out", f"sweep/{stage}{flag}{value}",
                     f"{flag}={value}"])
             for stage, parser in subcommands.items() for action in parser._actions
             if action.type in (int, float)
             for flag in action.option_strings for value in SWEEP_VALUES]
    assert sorted({argv[0] for _flag, argv in cases}) == sorted(SWEEP_BASES)
    assert len(cases) == 9 * len(SWEEP_VALUES)
    src = [str(Path(__file__).resolve().parent.parent / "src")]
    src += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(src))
    env.pop("VOCALSCREEN_SEED", None)
    done = subprocess.run([sys.executable, "-c", SWEEP_CHILD], cwd=tmp_path, env=env,
                          input=json.dumps([argv for _flag, argv in cases]),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for (flag, argv), (code, err) in zip(cases, json.loads(done.stdout), strict=True):
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert code != 2 or flag in err, (argv, err)
