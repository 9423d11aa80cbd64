"""The import contract of the package, read off its source with `ast`.

The runtime is pure stdlib: every absolute import names a standard-library
module.  The definitional frozenset code in `geodesic` is imported only by
the modules that need it: `verifier` (the hull-set claims check),
`orienters` (the extreme-free postcondition) and `__init__` (the public API).
"""

import ast
import sys
from pathlib import Path

import oriconvex

SRC = Path(oriconvex.__file__).parent
GEODESIC_IMPORTERS = {"verifier", "orienters", "__init__"}


def _imports(path: Path):
    """(absolute top-level module names, package modules imported relatively)."""
    absolute, relative = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                absolute.add(node.module.split(".")[0])
            elif node.module:
                relative.add(node.module.split(".")[0])
            else:
                relative |= {alias.name for alias in node.names}
    return absolute, relative


def test_every_module_is_read():
    names = {p.stem for p in SRC.glob("*.py")}
    assert {"cli", "geodesic", "graphs", "invariants", "orienters", "verifier"} <= names


def test_the_package_imports_only_the_standard_library():
    for path in sorted(SRC.glob("*.py")):
        absolute, _ = _imports(path)
        outside = absolute - set(sys.stdlib_module_names)
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_geodesic_is_imported_only_where_it_is_needed():
    importers = {path.stem for path in SRC.glob("*.py") if "geodesic" in _imports(path)[1]}
    assert importers == GEODESIC_IMPORTERS
