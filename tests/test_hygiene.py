"""Source hygiene: every name a module imports is used in that module, every
definition has a caller in the package or is public API, and the package runs
on the standard library alone."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import rgperturb
from rgperturb.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rgperturb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree) -> dict:
    """Name bound by each import statement of a module -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree) -> set:
    """Identifiers read anywhere in a module, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


# Entry points outside rgperturb.__all__ that nothing in src/ calls, kept as
# library API; each value says why.
DOCUMENTED_API = {
    "cli.table_from_machine": "reads `expand --format machine` output back (README)",
    "cli.rg_from_machine": "reads `rg --format machine` output back (README)",
    "difference.secular_pm": "the explicit secular formula for one harmonic",
    "difference.closed_form_amplitude": "the Theta-resummed closed form for one harmonic",
    "renorm.polar_projection": "a real observable in multiple-angle form",
    "numeric.integrate_rg": "integrates the complex RG system",
    "poly.MultiPoly.substitute": "named substitution; the benchmark tracer wraps it",
    "poly.MultiPoly.antidiff_t": "the t-antiderivative; the reference engine in the tests uses it",
}


def definitions(tree):
    """(qualified name, node) of each module-level function and class and of
    each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield f"{node.name}.{item.name}", item


def test_every_definition_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    refs = {}  # identifier -> [(module, line)] of each Name or Attribute naming it
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((module, node.lineno))
    defined, uncalled = set(), []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            called = any(
                not (where == module and node.lineno <= line <= node.end_lineno)
                for where, line in refs.get(node.name, ())
            )
            name = f"{module}.{qualname}"
            defined.add(name)
            if not (called or qualname in rgperturb.__all__ or name in DOCUMENTED_API):
                uncalled.append(name)
    assert not uncalled, f"defined in src/ and never called there: {uncalled}"
    assert not DOCUMENTED_API.keys() - defined, "DOCUMENTED_API names a missing definition"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            outside |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            outside.add(node.module.split(".")[0])
    outside -= set(sys.stdlib_module_names) | {"__future__", "rgperturb"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


# a child interpreter in which `import numpy` raises ImportError
WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                 "from rgperturb.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [
    ["expand", "--builtin", "ex_cd"],
    ["verify", "--builtin", "ex_third", "--order", "3"],
    ["simulate", "--t-end", "2"],
], ids=lambda argv: argv[0])
def test_runs_without_numpy(capsys, tmp_path, argv):
    def command(out_dir):
        return argv + ["--out-dir", str(out_dir)] if argv[0] == "simulate" else argv

    def written(stdout, out_dir):
        files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
        return stdout.replace(str(out_dir), "OUT"), files

    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    child = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *command(tmp_path / "child")],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    assert main(command(tmp_path / "here")) == 0
    here = capsys.readouterr().out
    assert written(child.stdout, tmp_path / "child") == written(here, tmp_path / "here")
