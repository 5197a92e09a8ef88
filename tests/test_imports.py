"""Every module of the package uses each name it imports, and a warning
raised in one fails the test."""

import ast
import warnings
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "calrisk"
# __init__ imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom a import b, c as d\nsys.argv\nd()\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning, UserWarning])
def test_a_warning_raised_in_calrisk_is_an_error(category):
    # pyproject's filterwarnings: any warning a calrisk module raises fails the test
    with pytest.raises(category):
        warnings.warn_explicit("planted", category, "pipeline.py", 1, module="calrisk.pipeline")
