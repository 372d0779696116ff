"""Static checks on the package source.

No linter ships with the project, so the unused-import and unused-definition
checks stand in for one.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mutants import MUTANTS, REPO, mutate

SRC = Path(__file__).resolve().parents[1] / "src" / "fastlight"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that it never uses."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # every Name node counts as a use, annotations included
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def imports_numpy(tree: ast.Module) -> bool:
    """Whether the module has `import numpy...` or `from numpy... import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.partition(".")[0] == "numpy" for name in names):
            return True
    return False


def test_only_the_lazy_helper_brings_in_numpy():
    # _numpy registers numpy to execute at its first use; on Python 3.11 a
    # plain `import numpy` after that reads the lazy module's __spec__, which
    # executes numpy at once, so every command would pay its import again
    importers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if imports_numpy(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert importers == []


def test_importing_the_cli_loads_neither_json_nor_csv():
    # only a file write of their kind, and a JSON scenario's reader, import
    # them; numpy stays registered, unexecuted, since perfbench's probe
    # reads its __version__ right after this import
    code = "import sys, fastlight.cli; print(sorted({'json', 'csv'} & set(sys.modules)), 'numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["[]", "True"]


def dataclasses_in(tree: ast.Module) -> list[str]:
    """Names of the classes a `dataclass` decorator builds, called or not."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                    names.append(node.name)
    return names


def test_only_the_lorentzian_is_a_dataclass():
    """The value types are named tuples: `@dataclass` compiles about six
    methods through `exec` for each class it builds, afresh at every
    import, which is most of what they cost a cold CLI call. The
    Lorentzian stays one because perfbench's `CountingLorentzian` is a
    dataclass subclass of it, built as cls(strength, half_linewidth,
    center, tally), which a named tuple cannot be."""
    found = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in dataclasses_in(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == ["LorentzianAbsorptive"]


PERFBENCH = SRC.parents[1] / "perfbench"


def references(tree: ast.Module) -> set[str]:
    """Names the module refers to: Name nodes, attribute names and the
    names its imports bind or pull from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_definition_is_used():
    # a public top-level function or class that neither the package nor the
    # benchmark refers to is kept alive by tests alone
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    }
    used = set().union(*map(references, trees.values()))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_every_mutant_still_applies(mutant):
    # each old text occurs exactly once (mutate raises otherwise), the
    # mutated file still compiles, and the named test exists; the mutants
    # themselves are run by hand with tests/mutants.py
    text = mutate((REPO / mutant.path).read_text(encoding="utf-8"), mutant)
    compile(text, mutant.path, "exec")
    test_file, _, test_name = mutant.test.partition("::")
    tree = ast.parse((REPO / test_file).read_text(encoding="utf-8"))
    assert test_name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
