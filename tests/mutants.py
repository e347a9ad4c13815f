"""Mutation score of the tests of each module in TEST_FILES (all but __init__).

    python tests/mutants.py [--jobs 2] [--rerun] [--modules model,evaluation,...]

Run from the repository root. It copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and makes one mutant at a time
of a module there, with the standard library's ``ast``:

- ``compare``: flip one operator of a comparison (``<`` to ``>=``, ``==`` to ``!=``, ...);
- ``constant``: move one integer constant by +1 or -1;
- ``swap``: swap the operands of one binary ``-`` or ``/``;
- ``raise``: replace one ``raise`` statement with ``pass``;
- ``out``: drop one ``out=`` keyword argument from a call.

For each mutant it runs that module's test file with ``pytest -x`` (a fixed
``--hypothesis-seed``, no example database and no shrinking, so a rerun
decides the same, and ``--jobs`` copies test that many mutants at once),
in a child that limits itself to 3 GiB of address space and 512 MiB per
written file before pytest starts, so a mutant that drops a size check
cannot fill memory or the disk. A mutant is ``killed`` when the tests fail,
``timeout`` when they run past ten times the unmutated run (or 60 s), and
``survived`` when they pass. The result goes to ``tests/mutants.json``
after every mutant, with each mutant's module, line, kind, change and
source line.

Mutation sites are enumerated in ``ast.walk`` order, so the list is fixed
for a given source (the report keeps each module's SHA-256).
``--rerun`` tests only the survivors in ``tests/mutants.json`` again, on
the same sources, so a new test shows its effect as killed mutants.
``--modules`` scores only the named modules, from scratch (or, with
``--rerun``, their survivors), and keeps every other module's entries in
``tests/mutants.json``. A module kept unscored must be the source its
entries were made from: if its SHA-256 no longer matches the report's,
the run refuses, naming it, before testing anything.

pytest does not collect this file (its name does not start with
``test_``), and it is not part of tier-1: it runs a test file once per
mutant, 1156 runs for the ten modules. All but ``cli``'s 66 took 31
minutes with ``--jobs 2`` on a 2-core machine; ``model``, ``cli`` and
``rng`` (325 runs) took about 12 minutes, and ``features``, ``cli``,
``synth`` and ``audio_io`` (663 runs) about 17.
"""

import argparse
import ast
import hashlib
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the modules mutated, each with the test file that must kill its mutants
TEST_FILES = {
    "audio_io": "tests/test_audio_io.py",
    "cli": "tests/test_cli.py",
    "dataset": "tests/test_dataset.py",
    "errors": "tests/test_errors.py",
    "evaluation": "tests/test_evaluation.py",
    "features": "tests/test_features.py",
    "model": "tests/test_model.py",
    "preprocess": "tests/test_preprocess.py",
    "rng": "tests/test_rng.py",
    "synth": "tests/test_synth.py",
}

FLIPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
SYMBOLS = {ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in"}

REPORT = ROOT / "tests" / "mutants.json"
HYPOTHESIS_SEED = 0

# run as ``python -c CHILD <pytest args>``: the child limits itself before
# pytest starts (subprocess's preexec_fn is not safe beside threads)
CHILD = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
resource.setrlimit(resource.RLIMIT_FSIZE, (512 << 20, 512 << 20))
import pytest
sys.exit(pytest.main(sys.argv[1:]))
"""


def sites(tree) -> list:
    """Every mutation of a parsed module as (kind, node index in ast.walk, detail)."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [("compare", index, k) for k in range(len(node.ops))]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [("constant", index, 1), ("constant", index, -1)]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Sub, ast.Div)):
            found.append(("swap", index, None))
        elif isinstance(node, ast.Raise):
            found.append(("raise", index, None))
        elif isinstance(node, ast.Call):
            found += [("out", index, k) for k, kw in enumerate(node.keywords) if kw.arg == "out"]
    return found


def mutate(source: str, site) -> tuple:
    """(mutated source, line, change) of one site of ``source``."""
    kind, index, detail = site
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[index]
    if kind == "compare":
        old = type(node.ops[detail])
        node.ops[detail] = FLIPS[old]()
        change = f"{SYMBOLS[old]} -> {SYMBOLS[FLIPS[old]]}"
    elif kind == "constant":
        change = f"{node.value} -> {node.value + detail}"
        node.value += detail
    elif kind == "swap":
        node.left, node.right = node.right, node.left
        change = f"swap the operands of {'-' if isinstance(node.op, ast.Sub) else '/'}"
    elif kind == "raise":
        parent = next(p for p in nodes for _f, value in ast.iter_fields(p)
                      if isinstance(value, list) and node in value)
        body = next(value for _f, value in ast.iter_fields(parent)
                    if isinstance(value, list) and node in value)
        body[body.index(node)] = ast.copy_location(ast.Pass(), node)
        change = "raise -> pass"
    else:
        del node.keywords[detail]
        change = "drop out="
    return ast.unparse(tree), node.lineno, change


# appended to the copied conftest: a failing example kills the mutant whether
# or not it is shrunk, so the shrink phase is skipped
PROFILE = """
from hypothesis import Phase, settings as _settings
_settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
"""


def copy_tree(work: Path) -> None:
    """The sources, the tests (with the "mutants" hypothesis profile) and pyproject.toml."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "pyproject.toml", work)
    with open(work / "tests" / "conftest.py", "a") as fh:
        fh.write(PROFILE)


def run_tests(work: Path, test_file: str, timeout) -> str:
    """'passed', 'failed' or 'timeout' for one run of ``test_file`` in ``work``."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", CHILD, "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", f"--hypothesis-seed={HYPOTHESIS_SEED}",
           "--basetemp", str(work / "basetemp"), test_file]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def source_of(module: str) -> tuple:
    """(path relative to the root, text, SHA-256 of the text) of a mutated module."""
    relative = Path("src") / "vocalscreen" / f"{module}.py"
    source = (ROOT / relative).read_text()
    return relative, source, hashlib.sha256(source.encode()).hexdigest()


def module_list(text: str) -> list:
    """The modules of a comma-separated --modules value, each one of TEST_FILES."""
    modules = list(dict.fromkeys(name.strip() for name in text.split(",")))
    for module in modules:
        if module not in TEST_FILES:
            raise argparse.ArgumentTypeError(f"{module!r} is not one of {', '.join(TEST_FILES)}")
    return modules


def tally(report: dict) -> None:
    """Set each module's counts and the overall score from ``report["mutants"]``."""
    report["modules"] = dict(sorted(report["modules"].items()))
    for module, entry in report["modules"].items():
        statuses = [m["status"] for m in report["mutants"] if m["module"] == f"{module}.py"]
        entry.update({"run": len(statuses), **{s: statuses.count(s)
                                                for s in ("killed", "timeout", "survived")}})
    statuses = [m["status"] for m in report["mutants"]]
    report["score"] = round(1 - statuses.count("survived") / max(len(statuses), 1), 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, choices=range(1, 9),
                        help="mutants tested at once, each in its own copy (1-8)")
    parser.add_argument("--rerun", action="store_true",
                        help=f"test again only the survivors in {REPORT.relative_to(ROOT)}")
    parser.add_argument("--modules", type=module_list,
                        help="comma-separated modules to score, keeping the report's other"
                             f" entries (of {', '.join(TEST_FILES)})")
    args = parser.parse_args(argv)

    if args.rerun or args.modules:
        report = json.loads(REPORT.read_text())
    else:
        report = {"modules": {}, "mutants": []}
    modules = args.modules or (list(report["modules"]) if args.rerun else sorted(TEST_FILES))
    fresh = [] if args.rerun else modules
    # a module that is not scored from scratch keeps entries made from its recorded source
    for module in report["modules"]:
        relative, _source, digest = source_of(module)
        if module not in fresh and report["modules"][module]["sha256"] != digest:
            print(f"{relative} ({module}) changed since {REPORT.relative_to(ROOT)} was written;"
                  f" score it again with --modules {module}", file=sys.stderr)
            return 1
    for module in fresh:
        report["modules"].pop(module, None)
        report["mutants"] = [m for m in report["mutants"] if m["module"] != f"{module}.py"]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = queue.Queue()
        for job in range(args.jobs):
            copy_tree(Path(tmp) / str(job))
            copies.put(Path(tmp) / str(job))
        for module in modules:
            relative, source, digest = source_of(module)
            lines = source.splitlines()
            test_file = TEST_FILES[module]
            all_sites = sites(ast.parse(source))
            if args.rerun:
                todo = [m["site"] for m in report["mutants"]
                        if m["module"] == f"{module}.py" and m["status"] == "survived"]
            else:
                report["modules"][module] = {"sites": len(all_sites), "sha256": digest}
                todo = range(len(all_sites))
            start = time.perf_counter()
            if run_tests(Path(tmp) / "0", test_file, None) != "passed":
                print(f"{test_file} fails on the unmutated source", file=sys.stderr)
                return 1
            timeout = max(60.0, 10 * (time.perf_counter() - start))

            def test_mutant(index):
                mutated, line, change = mutate(source, all_sites[index])
                work = copies.get()
                started = time.perf_counter()
                try:
                    (work / relative).write_text(mutated)
                    result = run_tests(work, test_file, timeout)
                finally:
                    (work / relative).write_text(source)
                    copies.put(work)
                return {"module": f"{module}.py", "site": index, "line": line,
                        "kind": all_sites[index][0], "change": change,
                        "code": lines[line - 1].strip(),
                        "status": {"passed": "survived", "failed": "killed"}.get(result, result),
                        "seconds": round(time.perf_counter() - started, 1)}

            with ThreadPoolExecutor(args.jobs) as pool:
                for mutant in pool.map(test_mutant, todo):
                    key = (mutant["module"], mutant["site"])
                    report["mutants"] = [m for m in report["mutants"]
                                         if (m["module"], m["site"]) != key] + [mutant]
                    report["mutants"].sort(key=lambda m: (m["module"], m["site"]))
                    tally(report)
                    REPORT.write_text(json.dumps(report, indent=1) + "\n")
                    print(f"{module}.py:{mutant['line']} {mutant['kind']} {mutant['change']}:"
                          f" {mutant['status']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
