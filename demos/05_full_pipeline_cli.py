#!/usr/bin/env python3
# The whole screening workflow through the CLI, on a small synthetic cohort.
#
# Equivalent shell session:
#   vocalscreen synth    --out cohort --seed 11 --speakers-per-class 3 --seconds-per-speaker 40
#   vocalscreen extract  --manifest cohort/cohort.csv --out work
#   vocalscreen split    --manifest work/segments.csv --out work --seed 11
#   vocalscreen select   --features work/features.csv --manifest work/train.csv --out work --seed 11
#   vocalscreen train    --features work/features.csv --manifest work/train.csv --out work
#   vocalscreen evaluate --features work/features.csv --manifest work/test.csv \
#                        --model work/model.json --split-sidecar work/split.json --out work/eval
#   vocalscreen stats    --features work/features.csv --out work

import json
import os
import tempfile

from vocalscreen.cli import main

home = os.getcwd()
with tempfile.TemporaryDirectory(prefix="vocalscreen_demo_") as tmp:
    os.chdir(tmp)  # the commands use the relative paths of the shell session
    print(f"working in {tmp}\n")

    for args in [
        ["synth", "--out", "cohort", "--seed", "11",
         "--speakers-per-class", "3", "--seconds-per-speaker", "40"],
        ["extract", "--manifest", "cohort/cohort.csv", "--out", "work"],
        ["split", "--manifest", "work/segments.csv", "--out", "work", "--seed", "11"],
        ["select", "--features", "work/features.csv", "--manifest", "work/train.csv",
         "--out", "work", "--seed", "11"],
        ["train", "--features", "work/features.csv", "--manifest", "work/train.csv",
         "--out", "work"],
        ["evaluate", "--features", "work/features.csv", "--manifest", "work/test.csv",
         "--model", "work/model.json", "--split-sidecar", "work/split.json",
         "--out", "work/eval"],
        ["stats", "--features", "work/features.csv", "--out", "work"],
    ]:
        print(f"$ vocalscreen {' '.join(args)}")
        rc = main(args)
        assert rc == 0, f"command failed with exit code {rc}"
        print()

    best = json.load(open("work/selection_report.json"))["best"]
    held_out = json.load(open("work/eval/eval_report.json"))
    os.chdir(home)  # leave the directory before it is removed

print(f"selected {best['pipeline']} with CV score {best['mean_cv_score']:.4f}; "
      f"held-out F1 {held_out['f1']:.4f}")
