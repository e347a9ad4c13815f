"""vocalscreen benchmark: run one workload for one seed and report it.

Usage, from the repository root:

    python3 perfbench/run.py --workload cohort16k --seed 1 --seconds 25 --trace 0

The workloads, metrics and layer map are described in perfbench/README.md.
A run generates the workload's inputs from the seed (cached per seed
under perfbench/out/inputs, outside every timing), then repeats the
workload, each repeat in a fresh child process (child.py) that drives
``vocalscreen.cli.main`` stage by stage, until ``--seconds`` is spent
(at least two repeats); an import-only child before each repeat adds a
set-up sample. No repeat is discarded as warm-up. Then it checks
the artifacts (checks.py). With ``--trace 1`` one more repeat runs with
every layer instrumented (spans.py) and the per-layer metrics are
reported instead of the end-to-end ones. The bounded wall metric is
``wall_rel``, each repeat's wall time over the mean time of a host probe
(hostprobe.py) that samples the child's CPU during the repeat; raw stage
and wall times are printed and recorded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(per-repeat times, quartiles, digests, checks, environment) is written to
perfbench/out/results/. The run exits non-zero without a result when the
program's sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from spans import LAYERS

BENCH = Path("perfbench")
OUT = BENCH / "out"
WORKLOADS = ("cohort16k", "ingest48k", "model2k", "synth")
STAGES = ("synth", "extract", "split", "select", "train", "evaluate", "predict", "stats")
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150
PROBE_LIMIT_S = 175  # the probe never outlives a run, even one killed mid-way
FEATURE_SAMPLE = 6
PREDICTION_SAMPLE = 12
# On a 2-core machine OpenBLAS's default threads spin beside the main thread:
# extract of a 24 x 120 s cohort read 7.2-8.8 s wall at 14-16 s CPU with them,
# 6.3-7.4 s at one thread. The timed child is pinned to one BLAS thread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WARMUP_POLICY = ("no repeat is discarded: every repeat is a fresh process that pays the "
                 "same lazy start-up costs a CLI invocation pays, and the parent reads "
                 "every input file once before the first timed child so inputs come "
                 "from the page cache")


# Raw stage and repeat times are printed as the minimum over a run's
# repeats, since interference only adds time. On a shared host it comes in
# phases of seconds to minutes that slow everything by up to 1.7x, so whole
# runs land in one and no estimator of raw times steadies them across
# runs; the bounded wall metric is therefore wall_rel (see HostProbe).
def describe(values: list, estimate) -> dict:
    """The run's reported ``value`` of a quantity (``estimate`` of its
    samples: ``min`` for repeat times, ``statistics.median`` otherwise),
    with its minimum, median and quartiles."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": estimate(values), "min": values[0], "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def digest(path: Path) -> str:
    sha = hashlib.sha256()
    if path.is_dir():
        for item in sorted(p for p in path.rglob("*") if p.is_file()):
            sha.update(item.relative_to(path).as_posix().encode() + b"\0")
            sha.update(item.read_bytes())
    else:
        sha.update(path.read_bytes())
    return sha.hexdigest()


class HostProbe:
    """The hostprobe.py process, pinned with every timed child to one CPU.

    ``loop_s(start, end)`` is the mean probe loop time between two
    ``time.monotonic()`` readings; ``wall_rel`` divides a repeat's wall
    time by it over the repeat's stages.
    """

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        self.path = OUT / "tmp" / "hostprobe.txt"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "hostprobe.py"), str(self.cpu),
                                      str(self.path), str(PROBE_LIMIT_S)])

    def loop_s(self, start: float, end: float) -> float:
        rows = [line.split() for line in self.path.read_text().splitlines()]
        times = [float(d) for t, d in (row for row in rows if len(row) == 2)
                 if start <= float(t) <= end]
        if not times:
            raise RuntimeError(f"no host probe samples between {start} and {end}")
        return statistics.mean(times)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=10)


def prepare_inputs(workload: str, seed: int) -> tuple:
    """Generate the inputs of (workload, seed) once; keep one seed per workload.

    The cache key includes a digest of workloads.py, so editing a
    generator never reuses stale inputs.
    """
    base = OUT / "inputs"
    target = base / f"{workload}-{seed}-{digest(BENCH / 'workloads.py')[:12]}"
    marker = target / "sizes.json"
    if not marker.is_file():
        for old in base.glob(f"{workload}-*"):
            shutil.rmtree(old)
        target.mkdir(parents=True)
        sizes = workloads.GENERATORS[workload](target, seed)
        for item in target.iterdir():  # no write-back of the inputs during timing
            with open(item, "rb") as fh:
                os.fsync(fh.fileno())
        marker.write_text(json.dumps(sizes))
    for item in target.iterdir():  # page-cache warm-up, see WARMUP_POLICY
        item.read_bytes()
    return target, json.loads(marker.read_text())


def run_child(spec: dict, tag: str, cpu: int) -> dict:
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = tmp / f"{tag}.spec.json", tmp / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({**spec, "result": str(result_path)}))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path), repr(t0),
                           str(cpu)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          env={**os.environ, **BLAS_THREADS})
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"child {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    if Path(result["module"]).resolve() != (Path("src") / "vocalscreen" / "cli.py").resolve():
        raise RuntimeError(f"child imported {result['module']}, not this checkout's src/")
    return result


def run_repeat(workload: str, inputs: Path, seed: int, tag: str, trace: bool, cpu: int) -> tuple:
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {"stages": workloads.stages(workload, inputs.as_posix(), work.as_posix(), seed),
            "work": work.as_posix(), "trace": trace, "run_id": f"{workload}-{seed}-{tag}",
            "spans": (OUT / "spans" / f"{workload}-{seed}.jsonl.gz").as_posix()}
    if trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
    result = run_child(spec, tag, cpu)
    digests = {}
    for name in workloads.ARTIFACTS[workload]:
        path = work / name
        digests[name] = digest(path) if path.exists() else None
    return result, digests, work


def environment(seed: int, sizes: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    inherited = {var: os.environ[var] for var in BLAS_THREADS if var in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {"timed_child": BLAS_THREADS,
                         "inherited": inherited or "unset (library default)"},
        "git_commit": git_commit(),
        "loadavg": os.getloadavg(),
        "seed": seed,
        "input_sizes": sizes,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = Path(".git") / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git") / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced repeat, as {name: (value, unit)}.

    ``trace.overhead_s`` is the traced wall time minus what the untraced
    median ``wall_rel`` predicts at the host speed the probe read during
    the traced repeat, so a slow or fast phase of the host does not pass
    for tracing cost.
    """
    summary = traced["trace"]
    names, counts = summary["names"], summary["counts"]

    def seconds(*span_names):
        return sum(names.get(n, {}).get("total_ns", 0) for n in span_names) / 1e9

    def count(span, key):
        return counts.get(span, {}).get(key, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    segments = count("features.extract_features", "segments")
    queries = count("model.knn_predict", "queries")
    speakers = count("synth.generate_cohort", "speakers")
    removed_in = count("preprocess.remove_silence", "samples_in")
    metrics = {
        "audio_io.load_wav.s": (seconds("audio_io.load_wav"), "s"),
        "audio_io.load_wav.mb_per_s": (ratio(count("audio_io.load_wav", "bytes") / 1e6,
                                             seconds("audio_io.load_wav")), "MB/s"),
        "audio_io.to_mono.s": (seconds("audio_io.to_mono"), "s"),
        "audio_io.resample.s": (seconds("audio_io.resample"), "s"),
        "audio_io.resample.samples_in": (count("audio_io.resample", "samples_in"), "count"),
        "audio_io.save_wav.s": (seconds("audio_io.save_wav"), "s"),
        "preprocess.remove_silence.s": (seconds("preprocess.remove_silence"), "s"),
        "preprocess.voiced_ratio": (ratio(count("preprocess.remove_silence", "samples_out"),
                                          removed_in), "ratio"),
        "preprocess.segment.s": (seconds("preprocess.segment"), "s"),
        "preprocess.segments": (count("preprocess.segment", "segments"), "count"),
        "preprocess.discarded_s": (count("preprocess.segment", "discarded_s"), "s"),
        "features.extract_features.s": (seconds("features.extract_features"), "s"),
        "features.extract_features.ms_per_segment":
            (ratio(seconds("features.extract_features") * 1e3, segments), "ms"),
        "features.frames": (count("features.extract_features", "frames"), "count"),
    }
    for short, span in (("power_spectra", "power_spectra"), ("mfcc", "mfcc"),
                        ("centroid", "spectral_centroid"), ("complexity", "spectral_complexity"),
                        ("zcr", "zero_crossing_rate")):
        metrics[f"features.{short}.ms_per_segment"] = (
            ratio(seconds(f"features.{span}") * 1e3, segments), "ms")
    metrics.update({
        "features.write_features_csv.s": (seconds("features.write_features_csv"), "s"),
        "features.read_features_csv.s": (seconds("features.read_features_csv"), "s"),
        "model.knn_predict.calls": (queries, "count"),
        "model.knn_predict.s": (seconds("model.knn_predict"), "s"),
        "model.knn_predict.us_per_query": (ratio(seconds("model.knn_predict") * 1e6, queries), "us"),
        "model.distance_evals": (count("model.knn_predict", "distance_evals"), "count"),
        "model.fit_scaler.s": (seconds("model.fit_scaler"), "s"),
        "model.knn_fit.s": (seconds("model.knn_fit"), "s"),
        "model.save_model.s": (seconds("model.save_model"), "s"),
        "model.load_model.s": (seconds("model.load_model"), "s"),
        "model.json_bytes": (count("model.save_model", "bytes"), "bytes"),
        "evaluation.grid_select.s": (seconds("evaluation.grid_select"), "s"),
        "evaluation.cross_validate.s": (seconds("evaluation.cross_validate"), "s"),
        "evaluation.stratified_folds.s": (seconds("evaluation.stratified_folds"), "s"),
        "evaluation.stats.s": (seconds("evaluation.descriptive_stats",
                                       "evaluation.group_t_tests"), "s"),
        "dataset.load_manifest.s": (seconds("dataset.load_manifest"), "s"),
        "dataset.split.s": (seconds("dataset.split"), "s"),
        "synth.generate_cohort.s": (seconds("synth.generate_cohort"), "s"),
        "synth.s_per_speaker": (ratio(seconds("synth.generate_cohort"), speakers), "s"),
        "synth.bytes_written": (count("audio_io.save_wav", "bytes"), "bytes"),
    })
    for stage in STAGES:
        metrics[f"cli.{stage}.s"] = (seconds(f"cli.{stage}"), "s")
    for layer in ("cli",) + LAYERS:
        metrics[f"{layer}.self_s"] = (summary["layer_self_ns"].get(layer, 0) / 1e9, "s")
    metrics.update({
        "process.wall_s": (untraced["wall_s"], "s"),
        "process.host_probe_s": (untraced["host_s"], "s"),
        "process.cpu_s": (untraced["process.cpu_s"], "s"),
        "process.cpu_per_wall": (ratio(untraced["process.cpu_s"], untraced["wall_s"]), "ratio"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_rel"] * traced["host_s"], "s"),
        "trace.spans": (summary["spans"], "count"),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM unwind normally, so the running child and the probe are stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (Path("src") / "vocalscreen" / "cli.py").is_file():
        print("error: run from the repository root; src/vocalscreen/cli.py not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")  # checks.py uses the program's public functions
    inputs, sizes = prepare_inputs(args.workload, args.seed)
    env = environment(args.seed, sizes)
    ops = []  # (name, ok, detail)

    probe = {"stages": [], "work": "", "trace": False, "run_id": "", "spans": ""}
    setups, repeats, durations = [], [], []
    host = HostProbe()
    try:
        start = time.monotonic()
        while len(repeats) < MIN_REPEATS or (
                time.monotonic() - start + statistics.mean(durations) <= args.seconds):
            began = time.monotonic()
            # set-up samples spread over the run
            setups.append(run_child(probe, "probe", host.cpu)["setup_s"])
            result, digests, work = run_repeat(args.workload, inputs, args.seed,
                                               f"r{len(repeats)}", False, host.cpu)
            result["host_s"] = host.loop_s(*result["stages_monotonic"])
            durations.append(time.monotonic() - began)
            setups.append(result["setup_s"])
            for stage in result["stages"]:
                ops.append((f"r{len(repeats)}.{stage['name']}.exit", stage["code"] == 0,
                            f"exit {stage['code']} {stage['stderr'][-300:]}".strip()))
            if repeats:
                for name, value in digests.items():
                    ops.append((f"r{len(repeats)}.identical[{name}]",
                                value is not None and value == repeats[0][1][name],
                                value or "missing"))
                shutil.rmtree(work)
            repeats.append((result, digests))

        traced = None
        if args.trace:
            traced, traced_digests, traced_work = run_repeat(args.workload, inputs, args.seed,
                                                             "traced", True, host.cpu)
            traced["host_s"] = host.loop_s(*traced["stages_monotonic"])
            for stage in traced["stages"]:
                ops.append((f"traced.{stage['name']}.exit", stage["code"] == 0,
                            f"exit {stage['code']}"))
            for name, value in traced_digests.items():
                ops.append((f"traced.identical[{name}]",
                            value is not None and value == repeats[0][1][name], value or "missing"))
            shutil.rmtree(traced_work)
    finally:
        host.close()
    first_work = OUT / "work" / "r0"

    if all(ok for _name, ok, _detail in ops):
        rng = np.random.default_rng([args.seed, 7])
        if args.workload in ("cohort16k", "ingest48k"):
            ops += checks.check_features(first_work, inputs, rng, FEATURE_SAMPLE)
        if args.workload in ("cohort16k", "model2k"):
            features = first_work if args.workload == "cohort16k" else inputs
            ops += checks.check_predictions(first_work, features / "features.csv", rng,
                                            PREDICTION_SAMPLE)
            ops += checks.check_quality(first_work)
        if args.workload == "synth":
            ops += checks.check_synth(first_work / "cohort", sizes["recordings"],
                                      workloads.SYNTH_SECONDS)
    if (first_work / "features.csv").is_file():
        sizes["segments"] = sizes["rows"] = len(checks.read_features(first_work / "features.csv"))
    shutil.rmtree(first_work, ignore_errors=True)

    runs = [result for result, _digests in repeats]
    stage_times = {}
    for result in runs:
        for stage in result["stages"]:
            stage_times.setdefault(f"{stage['name']}_s", []).append(stage["s"])
    summary = {
        "setup_s": describe(setups, statistics.median),
        "wall_s": describe([r["wall_s"] for r in runs], min),
        "peak_rss_mb": describe([r["peak_rss_kb"] / 1024 for r in runs], statistics.median),
        **{name: describe(values, min) for name, values in stage_times.items()},
        "process.cpu_s": describe([r["cpu_s"] for r in runs], statistics.median),
        "wall_rel": describe([r["wall_s"] / r["host_s"] for r in runs], statistics.median),
        "host_s": describe([r["host_s"] for r in runs], statistics.median),
    }
    units = {"peak_rss_mb": "MB", "wall_rel": "ratio"}
    if args.trace:
        untraced = {name: summary[name]["median"]
                    for name in ("wall_s", "process.cpu_s", "host_s", "wall_rel")}
        layer = per_layer(traced, untraced)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": summary[name]["value"], "unit": units.get(name, "s")}
                   for name in ("setup_s", "wall_rel", "peak_rss_mb")}

    failed = sum(1 for _name, ok, _detail in ops if not ok)
    print(f"vocalscreen benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} repeats={len(runs)} "
          f"setup_samples={len(setups)}")
    for name, stats in summary.items():
        print(f"  {name:<16} {stats['value']:12.6f} {units.get(name, 's'):<3} "
              f"(median {stats['median']:.6f}, q1 {stats['q1']:.6f}, q3 {stats['q3']:.6f}, "
              f"n={stats['n']})")
    print(f"  {'ops_attempted':<16} {len(ops):12d}")
    print(f"  {'ops_failed':<16} {failed:12d}")
    for name, ok, detail in ops:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<42} {metric['value']:16.6f} {metric['unit']}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "warmup_policy": WARMUP_POLICY, "environment": env,
        "summary": summary, "metrics": metrics, "digests": repeats[0][1],
        "repeats": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "peak_rss_kb": r["peak_rss_kb"],
                     "stages": {s["name"]: s["s"] for s in r["stages"]}} for r in runs],
        "setup_samples": setups,
        "ops": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in ops],
    }
    if traced is not None:
        record["trace_summary"] = traced["trace"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"full record: {result_file}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
