#!/usr/bin/env python3
# Grid model selection over KNN pipelines plus the per-group statistics.

import numpy as np

from vocalscreen import default_grid, descriptive_stats, grid_select, group_t_tests
from vocalscreen.evaluation import render_selection_text, render_stats_text

rng = np.random.default_rng(2)

# Overlapping 16-d clusters so the candidates actually differ in score.
n = 150
depression = rng.normal(loc=-0.35, size=(n, 16))
control = rng.normal(loc=+0.35, size=(n, 16))
features = np.vstack([depression, control])
labels = ["depression"] * n + ["control"] * n

# 16 candidates: k in {1,3,5,7} x p in {1,2} x scaler on/off,
# each scored by stratified 5-fold cross-validation.
report = grid_select(default_grid(), features, labels, folds=5, seed=2)
print(render_selection_text(report))

for result in report["candidates"][:4]:
    folds = ", ".join(f"{s:.3f}" for s in result["fold_scores"])
    print(f"  {result['pipeline']:<28} folds [{folds}] mean {result['mean_cv_score']:.4f}")
print("  ...")

by_group = {"depression": depression, "control": control}
print()
print(render_stats_text(descriptive_stats(by_group), group_t_tests(by_group)))
