"""The package surface: the names the README imports, what importing the CLI loads,
and no unused import or private helper in src/."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vocalscreen"


def test_readme_library_use_imports_resolve():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library use\n+```python\n(.*?)^```", text, re.M | re.S).group(1)
    imports = [node for node in ast.parse(block).body
               if isinstance(node, ast.ImportFrom) and node.module == "vocalscreen"]
    assert len(imports) == 1 and imports[0].names, block
    # the statement as the README writes it, run in a namespace of its own
    exec(ast.get_source_segment(block, imports[0]), {})


def unused_imports(source: str) -> list:
    """Names a module binds by import and never reads, in order of binding."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a; "from a import b as c" binds c
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom dataclasses import field, replace\nfield()\n"
    assert unused_imports(source) == ["os", "np", "replace"]


def test_no_module_binds_an_unused_import():
    # __init__.py imports its names to re-export them, so it is the one exception
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    unused = {path.name: names for path in modules
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def private_definitions(source: str) -> list:
    """Module-level private names a module defines (def _x, class _X, _X = ...)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_private_names(sources: dict) -> list:
    """Private module-level names of ``sources`` ({module: text}) that no module reads.

    A read is a name loaded (``_x``) or an attribute taken (``model._x``).
    """
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{name}" for module, source in sources.items()
            for name in private_definitions(source) if name not in read]


def test_unread_private_names_are_found():
    sources = {"a.py": "def _x(): pass\nclass _Y: pass\n_Z: int = 1\n_w = _v = 2\n__all__ = []\n",
               "b.py": "from a import _Y\nimport a\n_Y()\na._v\n"}
    assert unread_private_names(sources) == ["a.py:_x", "a.py:_Z", "a.py:_w"]


def test_no_module_defines_an_unread_private_name():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # synth's Generator annotation, evaluated at import, loaded numpy.random for every
    # stage; only synth's generate_cohort draws from it
    src = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, vocalscreen.cli; print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(src)), capture_output=True, text=True,
        timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
