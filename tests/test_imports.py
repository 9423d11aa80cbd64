"""The import contract of the package, read off its source with `ast`.

The runtime is pure stdlib: every absolute import names a standard-library
module.  The definitional frozenset code in `geodesic` is imported only by
the modules that need it: `verifier` (the hull-set claims check),
`orienters` (the extreme-free postcondition) and `__init__` (the public API).

Two of these stay on purpose.  `orienters` keeps `geodesic.is_extreme`: on
the 24 seed-1 `search_xfree_n14` digraphs of perfbench its local test takes
0.28-0.32 ms in all, against 2.7-2.8 ms for `invariants._kernel` (2-vCPU
Xeon, CPython 3.11.7), so a kernel there would add about 2.5 ms to that
workload's setup of about 11 ms.
`__init__` keeps the `geodesic` re-exports, because
`demos/01_intervals_and_hulls.py` imports nine of them.  Only `verifier`
waits to move off `geodesic` (its hull-set scan).
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
