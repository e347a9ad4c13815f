"""The package surface: the names the README imports, and no unused import in src/."""

import ast
import re
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
