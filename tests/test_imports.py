"""Lint guards: no module under src/wifiprox imports a name it never uses, or
anything but the standard library, numpy and the package itself; scipy, the
tests' Kendall oracle, is not a runtime dependency; and no private name at
module level is left without a reader in the package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wifiprox"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing in the module reads.

    ``from __future__`` imports are skipped.  A name counts as used when it
    appears as an identifier anywhere, including inside a string annotation
    such as ``-> "FeatureTable"`` (which is how names imported under
    ``if TYPE_CHECKING:`` are usually read).  ``__all__`` is not read, so a
    re-export counts as unused: the package is imported through its modules.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_and_forgives():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Optional, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from .model import Tree\n"
        "def f(t: 'Tree') -> Optional[int]:\n"
        "    return np.size(t)\n"
    )
    assert unused_imports(source) == ["Sequence (line 4)", "os (line 2)"]


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def orphans(sources: dict[str, str]) -> list[str]:
    """Underscore-prefixed module-level functions, classes and constants of
    the modules in ``sources`` (file name -> text) that none of them reads.

    A name is read where it is loaded as an identifier, taken as an attribute
    (``features._chunks``) or imported (``from .core import _x``), in any of
    the modules, its own included.  Dunder names are skipped.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [
        f"{file}: {name} (line {line})"
        for file, tree in sorted(trees.items())
        for name, line in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_no_orphaned_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert orphans(sources) == []


def test_orphan_check_flags_and_forgives():
    sources = {
        "a.py": (
            "__all__ = ['public']\n"
            "_UNREAD = 1\n"
            "_READ, _PAIRED = 2, 3\n"
            "_IMPORTED: int = 4\n"
            "_BY_ATTRIBUTE = 5\n"
            "def _helper():\n"
            "    return _READ\n"
            "class _Gone:\n"
            "    _attr = 6\n"
            "def public():\n"
            "    return _helper()\n"
        ),
        "b.py": "from . import a\nfrom .a import _IMPORTED\nprint(a._BY_ATTRIBUTE)\n",
    }
    assert orphans(sources) == ["a.py: _UNREAD (line 2)", "a.py: _PAIRED (line 3)",
                                "a.py: _Gone (line 8)"]


def imported_modules(source: str) -> set[str]:
    """Top-level package of every module an import statement names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_features_imports_scipy(path):
    # no module imports scipy, features.py included: each imports only the
    # standard library, numpy and the package itself
    imported = imported_modules(path.read_text(encoding="utf-8"))
    assert imported - set(sys.stdlib_module_names) - {"numpy", "wifiprox"} == set()


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.split(r"[<>=!~ ;\[]", d, maxsplit=1)[0] for d in project["dependencies"]]
    assert names == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_import_scan_sees_nested_and_dotted_imports():
    source = (
        "import numpy as np\n"
        "from . import features\n"
        "def f():\n"
        "    from scipy.stats import kendalltau\n"
        "    import os.path\n"
    )
    assert imported_modules(source) == {"numpy", "scipy", "os"}


_NO_SCIPY = """
import sys
import numpy as np
import wifiprox.cli
from wifiprox.core import Fingerprint, ProximityClass, bssid_from_int
from wifiprox.features import extract
from wifiprox.pairing import make_pair

def pair(n_aps):
    rng = np.random.default_rng(n_aps)
    a, b = (Fingerprint(id=i, readings={bssid_from_int(k): float(rng.integers(-95, -30))
                                        for k in range(n_aps)},
                        position=(0.0, 0.0), floor_key=("ds", "0", "0"), device_model="d")
            for i in "ab")
    return make_pair(a, b, 1.0, ProximityClass.CLOSE)

print("scipy" in sys.modules)
for n_aps in (12, 60, 90):
    extract(pair(n_aps))
    print("scipy" in sys.modules)
"""


def test_scipy_never_loads():
    # 12 shared APs keep every vector within the direct count (a low-density
    # pair); 60 and 90 give pair-ratio vectors of 3,540 and 8,010 entries,
    # which the block count takes
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"] * 4
