"""One timed repeat of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py <spec.json> <t0> <cpu>

``t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time is measured from there to ``import vocalscreen.cli``
done, so it covers interpreter start and every import a CLI invocation
pays. Nothing else is imported before that point. The process pins
itself to ``cpu``, where the host probe runs too. The spec names the
stages, each an argv for ``vocalscreen.cli.main``; each stage's wall time
is that call alone. With ``"trace": true`` the layers are instrumented
(``spans.py``) after set-up is measured. The result is written as JSON to
the spec's ``result`` path.
"""

import os
import sys
import time

t0 = float(sys.argv[2])
os.sched_setaffinity(0, {int(sys.argv[3])})
sys.path.insert(0, "src")
import vocalscreen.cli  # noqa: E402

setup_s = time.monotonic() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run_id"])
        spans.instrument(tracer)
    result = {"setup_s": setup_s, "module": vocalscreen.cli.__file__, "stages": []}
    cpu_start, wall, began = cpu_seconds(), 0.0, time.monotonic()
    for name, argv in spec["stages"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = vocalscreen.cli.main(argv)
                else:
                    with tracer.span(f"cli.{name}"):
                        code = vocalscreen.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # record the failure; the parent counts it
                code = -1
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        wall += seconds
        result["stages"].append({"name": name, "code": code, "s": seconds,
                                 "stderr": err.getvalue()[-2000:]})
        if name == "predict" and code == 0:
            with open(os.path.join(spec["work"], "predictions.csv"), "w") as fh:
                fh.write(out.getvalue())
        if code != 0:
            break
    result["stages_monotonic"] = [began, time.monotonic()]
    result["cpu_s"] = cpu_seconds() - cpu_start
    result["wall_s"] = wall
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
