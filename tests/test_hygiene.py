"""Source hygiene: no module of the package imports a name it never uses,
every public re-export and every top-level definition has a reader, and
every function the benchmark traces exists.

No linter is assumed; the checks walk each module's syntax tree with the
standard-library `ast`.  `__init__.py` is exempt from the import check
because its imports are the package's public re-exports; the re-export
check asks that each of them is read somewhere in the package or tests,
and the definition check asks the same of each top-level function, class
and constant of the package, counting the benchmark as a reader too.
The tracing check reads the `TRACED` table of `perfbench/spans.py` without
running that module.  Only `cli` may import `ctypes`, which it uses to set
the thread counts of numpy's and scipy's bundled OpenBLAS while a sweep
runs, and `concurrent` and `multiprocessing`, which it imports inside
`run_sweep` for the oracle's worker processes, so that importing the
package does not pay for them.  Only `matter`, home of the ground-state
backends, may import from `scipy.sparse.linalg`, for shift-invert
Lanczos, and no module from `scipy.sparse.csgraph`.
Only the dense algorithms named in DENSE_READERS may read
`Operator.entries`, the dense view that copies a sparse operator;
everything else works on the stored form `Operator.matrix`.
"""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gaugecavity"
TESTS = pathlib.Path(__file__).resolve().parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def unused_imports(source: str) -> list[str]:
    """Imported names (or dotted module paths) that nothing in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            path = _dotted(node)
            if path is not None:
                parts = path.split(".")
                used.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return sorted(name for name in set(imported) if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_names():
    source = "import os\nimport scipy.sparse\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["dumps", "os", "scipy.sparse"]


def references(source: str) -> set[str]:
    """Names and attribute names a module reads, leaving out each top-level
    definition's references to its own name."""
    used = set()
    for top in ast.parse(source).body:
        loads = [node for node in ast.walk(top) if isinstance(getattr(node, "ctx", None), ast.Load)]
        found = {node.id for node in loads if isinstance(node, ast.Name)}
        found |= {node.attr for node in loads if isinstance(node, ast.Attribute)}
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.discard(top.name)
        used |= found
    return used


def test_reexports_are_referenced():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in MODULES + sorted(TESTS.glob("*.py")):
        used |= references(path.read_text())
    assert sorted(exported - used) == []


def test_reference_detector_skips_own_definition():
    source = "class A:\n    default = A\n\ndef f():\n    return f, g.h\n\nB = 1\n"
    assert references(source) == {"g", "h"}


def definitions(source: str) -> set[str]:
    """Names of a module's top-level functions, classes and assigned constants."""
    names = set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_definition_detector():
    source = "import os\nA = 1\nB: int = 2\n\ndef f():\n    C = 3\n\nclass D:\n    E = 4\n"
    assert definitions(source) == {"A", "B", "f", "D"}


def test_every_definition_is_read():
    used = set()
    for path in MODULES + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        used |= references(path.read_text())
    unread = [f"{path.stem}.{name}" for path in MODULES
              for name in sorted(definitions(path.read_text()) - used)]
    assert unread == []


def traced_targets(source: str) -> list[tuple[str, str]]:
    """The (module, attribute) pairs of the module-level `TRACED` literal."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [pair for targets in ast.literal_eval(node.value).values()
                    for pair in targets]
    raise AssertionError("no TRACED table")


def test_traced_names_resolve():
    spans = PACKAGE.parent.parent / "perfbench" / "spans.py"
    targets = traced_targets(spans.read_text())
    assert targets
    missing = []
    for mod_name, attr in targets:
        obj = importlib.import_module(f"gaugecavity.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_detector_sees_nested_imports():
    source = "import os.path\n\ndef f():\n    from ctypes import CDLL\n    from . import cli\n"
    assert imported_modules(source) == {"os", "ctypes"}


def test_only_cli_imports_ctypes():
    paths = MODULES + [PACKAGE / "__init__.py"]
    assert [p.stem for p in paths if "ctypes" in imported_modules(p.read_text())] == ["cli"]


def test_only_cli_imports_process_pools():
    pools = {"concurrent", "multiprocessing"}
    paths = MODULES + [PACKAGE / "__init__.py"]
    assert [p.stem for p in paths if pools & imported_modules(p.read_text())] == ["cli"]
    # and only inside a function, not when the module loads
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    top = ast.Module([node for node in tree.body
                      if isinstance(node, (ast.Import, ast.ImportFrom))], [])
    assert pools & imported_modules(ast.unparse(top)) == set()


def imports_from(source: str, package: str) -> bool:
    """Whether a module imports ``package``, or a name from it, anywhere
    and in any form."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths |= {f"{node.module}.{alias.name}" for alias in node.names}
    return any(f"{path}.".startswith(f"{package}.") for path in paths)


def imports_sparse_solvers(source: str) -> bool:
    return imports_from(source, "scipy.sparse.linalg")


@pytest.mark.parametrize("source, expected", [
    ("import scipy.sparse\nimport scipy.linalg\nfrom scipy.sparse import csr_matrix\n", False),
    ("from scipy.sparse.linalg import cg\n", True),
    ("import scipy.sparse.linalg as sla\n", True),
    ("def f():\n    from scipy.sparse import linalg\n", True),
    ("from scipy.sparse.linalg._isolve import cg\n", True),
], ids=["other_scipy", "from_import", "module_import", "nested_submodule", "private_path"])
def test_sparse_solver_detector(source, expected):
    assert imports_sparse_solvers(source) is expected


def test_only_matter_imports_sparse_solvers():
    paths = MODULES + [PACKAGE / "__init__.py"]
    assert [p.stem for p in paths if imports_sparse_solvers(p.read_text())] == ["matter"]


def test_no_module_imports_csgraph():
    # the oracle splits its Hamiltonian by numpy index arithmetic, so no
    # process, an oracle worker included, pays for loading csgraph
    paths = MODULES + [PACKAGE / "__init__.py"]
    assert [p.stem for p in paths if imports_from(p.read_text(), "scipy.sparse.csgraph")] == []
    assert imports_from("def f():\n    from scipy.sparse.csgraph import connected_components\n",
                        "scipy.sparse.csgraph")


# the functions that need a dense matrix: a full eigendecomposition, a
# matrix exponential, the oscillator basis, and the constrained
# minimisation by repeated eigh
DENSE_READERS = {
    "operators.eigh", "operators.displacement", "operators.coherent_state",
    "matter._single_axis_oscillator", "oracle.constrained_min",
}


def entries_readers(source: str, module: str) -> set[str]:
    """Top-level functions and class methods, as `module.name` or
    `module.Class.method`, that read an attribute named `entries`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scopes = []
    for top in ast.parse(source).body:
        if isinstance(top, functions):
            scopes.append((top.name, top))
        elif isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{node.name}", node) for node in top.body
                       if isinstance(node, functions)]
    return {f"{module}.{name}" for name, scope in scopes
            if any(isinstance(node, ast.Attribute) and node.attr == "entries"
                   for node in ast.walk(scope))}


def test_entries_detector():
    source = ("def f(op):\n    return op.entries\n\ndef g(op):\n    return op.matrix\n\n"
              "class C:\n    def m(self):\n        return [x.entries for x in self.ops]\n")
    assert entries_readers(source, "mod") == {"mod.f", "mod.C.m"}


def test_only_dense_algorithms_read_entries():
    readers = set()
    for path in MODULES:
        readers |= entries_readers(path.read_text(), path.stem)
    assert sorted(readers - DENSE_READERS) == []
