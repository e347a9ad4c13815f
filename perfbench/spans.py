"""Span tracing of calls into vocalscreen's layers, from outside the program.

``instrument`` replaces every public function of each layer module with a
wrapper that records a span (parent, name, start, end) around the call,
in every vocalscreen namespace that holds it, including names a module
imported from another (``cli.extract_features``, ``evaluation.knn_predict``).
Nested calls nest spans, so self time is a span's duration minus its
children's. Spans stay in memory until ``write`` at the end of the run.

The wrappers only observe: arguments and results pass through unchanged,
so a traced run writes the same bytes as an untraced one.
"""

import functools
import gzip
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# Modules timed as layers; rng and errors are too small to time on their own.
LAYERS = ("audio_io", "preprocess", "features", "model", "evaluation", "dataset", "synth")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []   # [parent index or -1, name, start_ns, end_ns]
        self.counts = {}  # span name -> {counter: total}
        self._stack = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([self._stack[-1] if self._stack else -1, name, 0, 0])
        self._stack.append(index)
        self.spans[index][2] = perf_counter_ns()
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][3] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def count(self, name: str, values: dict) -> None:
        totals = self.counts.setdefault(name, {})
        for key, value in values.items():
            totals[key] = totals.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if counter is not None:
                self.count(name, counter(args, kwargs, result))
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns; per layer: self ns."""
        child_ns = [0] * len(self.spans)
        for parent, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names = {}
        for (parent, name, start, end), children in zip(self.spans, child_ns):
            entry = names.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - children
        layers = {}
        for name, entry in names.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + entry["self_ns"]
        return {"names": names, "layer_self_ns": layers, "counts": self.counts,
                "spans": len(self.spans)}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, after a header line naming the fields."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"run": self.run_id,
                                 "fields": ["id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for index, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end]) + "\n")


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _frames(config_default):
    def counter(args, kwargs, result):
        config = _arg(args, kwargs, 1, "config", config_default)
        n = len(_arg(args, kwargs, 0, "segment").samples)
        return {"segments": 1, "frames": 1 + (n - config.n_fft) // config.hop}
    return counter


def _counters(features_module) -> dict:
    """Work counts taken at the layer boundaries, keyed by span name."""

    def file_bytes(position, name):
        return lambda args, kwargs, result: {"bytes": os.stat(_arg(args, kwargs, position, name)).st_size}

    def resample(args, kwargs, result):
        clip = _arg(args, kwargs, 0, "clip")
        changed = clip.sample_rate != _arg(args, kwargs, 1, "target_rate")
        return {"samples_in": len(clip.samples) if changed else 0}

    def remove_silence(args, kwargs, result):
        return {"samples_in": len(_arg(args, kwargs, 0, "clip")), "samples_out": len(result)}

    def segment(args, kwargs, result):
        clip = _arg(args, kwargs, 0, "clip")
        kept = sum(len(seg) for seg in result)
        return {"segments": len(result), "discarded_s": (len(clip) - kept) / clip.sample_rate}

    def knn_predict(args, kwargs, result):
        return {"queries": 1, "distance_evals": _arg(args, kwargs, 0, "model").train_matrix.shape[0]}

    return {
        "audio_io.load_wav": file_bytes(0, "path"),
        "audio_io.save_wav": file_bytes(0, "path"),
        "audio_io.resample": resample,
        "preprocess.remove_silence": remove_silence,
        "preprocess.segment": segment,
        "features.extract_features": _frames(features_module.FeatureConfig()),
        "model.knn_predict": knn_predict,
        "model.save_model": file_bytes(1, "path"),
        "synth.generate_cohort": lambda args, kwargs, result: {"speakers": len(result)},
    }


def instrument(tracer: Tracer) -> list:
    """Wrap every public function of each layer; return the traced names."""
    import importlib

    modules = {layer: importlib.import_module(f"vocalscreen.{layer}") for layer in LAYERS}
    counters = _counters(modules["features"])
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, counters.get(name)), name)
    for module_name, module in list(sys.modules.items()):
        if module_name != "vocalscreen" and not module_name.startswith("vocalscreen."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return sorted(name for _obj, _wrapper, name in wrappers.values())
