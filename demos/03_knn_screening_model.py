#!/usr/bin/env python3
# Standardize features, classify with KNN, persist and reload the model.

import json
import tempfile
from pathlib import Path

import numpy as np

from vocalscreen import (
    confusion,
    fit_scaler,
    knn_fit,
    knn_predict,
    load_model,
    precision_recall_f1,
    save_model,
)

rng = np.random.default_rng(1)

# Two synthetic 16-d clusters standing in for extracted feature rows.
n_per_class = 120
depression = rng.normal(loc=-1.0, scale=1.0, size=(n_per_class, 16))
control = rng.normal(loc=+1.0, scale=1.0, size=(n_per_class, 16))
features = np.vstack([depression, control])
labels = ["depression"] * n_per_class + ["control"] * n_per_class

train_idx = np.arange(0, len(labels), 2)   # every other row
test_idx = np.arange(1, len(labels), 2)

scaler = fit_scaler(features[train_idx])
model = knn_fit(features[train_idx], [labels[i] for i in train_idx],
                k=3, p=2.0, scaler=scaler)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(model, path)
    model = load_model(path)
    digest = json.loads(path.read_text())["digest"]
    print(f"model file: {path.stat().st_size} bytes, digest {digest[:12]}...")

predictions = [knn_predict(model, features[i])[0] for i in test_idx]
truth = [labels[i] for i in test_idx]
metrics = precision_recall_f1(confusion(predictions, truth))
print(f"precision {metrics.precision:.3f}  recall {metrics.recall:.3f}  "
      f"f1 {metrics.f1:.3f}  accuracy {metrics.accuracy:.3f}")

label, score = knn_predict(model, features[test_idx[0]])
print(f"single query -> {label} (neighbor vote {score:.2f})")
