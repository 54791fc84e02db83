"""Structure of the package: no name exists only for the tests.

Every module-level function and class in ``src/qcap``, public or private,
and every public method of a public class, must be named somewhere in
``src/qcap`` or ``scripts`` other than in its own definition: as a name, an
attribute, or a ``from`` import.  Names the tests use do not count.  Methods
of private classes (argparse's ``_Parser.error`` override) are exempt.

Every LAPACK call is made in ``linalg.py``, which pins it to one BLAS
thread: no other module names an ``np.linalg`` function but ``norm``.  Every
Gaussian draw is made there too, by the one Haar sampler, which alone knows
the layout of a matrix's normals: no other module names ``standard_normal``.

Importing the CLI loads no ``csv``, which CSV rendering imports itself, and
defines one dataclass, `channels.KrausChannel`: the report records are named
tuples, which generate no methods at import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def definitions(tree: ast.Module):
    """(label, name, node) of the module-level functions and classes, public or private,
    and of the public methods of public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def references(tree: ast.Module):
    """(name, node) of every Name, Attribute and from-imported alias in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def unreached_names(paths) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    refs = [(name, id(node)) for tree in trees.values() for name, node in references(tree)]
    unreached = []
    for path, tree in trees.items():
        if path.parent.name != "qcap":
            continue
        for label, name, definition in definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and node not in inside for ref, node in refs):
                unreached.append(f"{path.stem}.{label}")
    return sorted(unreached)


def test_every_public_name_is_reached_outside_the_tests():
    paths = sorted((ROOT / "src" / "qcap").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(paths) > 5
    assert unreached_names(paths) == []


def test_a_name_only_its_own_body_uses_is_unreached(tmp_path):
    module = tmp_path / "qcap" / "m.py"
    module.parent.mkdir()
    module.write_text("def used():\n    return 1\n\n\ndef unused(n):\n    return unused(n - 1)\n\n\n"
                      "class C:\n    def reached(self):\n        return used()\n\n"
                      "    def lonely(self):\n        return self.reached()\n\n\n"
                      "class _P:\n    def error(self):\n        pass\n\n\n"
                      "def _helper(n):\n    return _helper(n - 1)\n\n\nC()\n_P()\n")
    assert unreached_names([module]) == ["m.C.lonely", "m._helper", "m.unused"]


def numpy_linalg_names(paths) -> list[str]:
    """module.name of every ``np.linalg.<name>`` other than norm outside linalg.py."""
    found = []
    for path in paths:
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr != "norm"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")):
                found.append(f"{path.stem}.{node.attr}")
    return sorted(found)


def test_every_lapack_call_is_made_in_linalg():
    paths = sorted((ROOT / "src" / "qcap").glob("*.py"))
    assert len(paths) > 5
    assert numpy_linalg_names(paths) == []


def standard_normal_users(paths) -> list[str]:
    """The stem of every module other than linalg.py that names ``standard_normal``."""
    return sorted(path.stem for path in paths if path.stem != "linalg"
                  and any(name == "standard_normal"
                          for name, _ in references(ast.parse(path.read_text(encoding="utf-8")))))


def test_every_gaussian_draw_is_made_in_linalg():
    paths = sorted((ROOT / "src" / "qcap").glob("*.py"))
    assert len(paths) > 5
    assert standard_normal_users(paths) == []


_IMPORT_PROBE = """
import dataclasses, json, sys
import qcap.cli
modules = [m for name, m in sys.modules.items() if name.startswith("qcap.")]
print(json.dumps({
    "modules": sorted(m.__name__.split(".")[1] for m in modules),
    "csv": "csv" in sys.modules,
    "dataclasses": sorted(f"{m.__name__}.{name}" for m in modules for name, c in vars(m).items()
                          if isinstance(c, type) and c.__module__ == m.__name__
                          and dataclasses.is_dataclass(c)),
}))
"""


def test_importing_the_cli_loads_no_csv_and_one_dataclass():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    package = sorted(p.stem for p in (ROOT / "src" / "qcap").glob("*.py") if p.stem != "__init__")
    assert loaded["modules"] == package
    assert loaded["csv"] is False
    assert loaded["dataclasses"] == ["qcap.channels.KrausChannel"]
