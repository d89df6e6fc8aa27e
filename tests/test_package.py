"""The package's public surface."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import massey_census


def test_exports_resolve():
    names = massey_census.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(massey_census, n)]
    assert not missing
    namespace = {}
    exec("from massey_census import *", namespace)
    assert set(names) <= set(namespace)


def _imported_names(path):
    """Every module and name a source file imports, dotted paths included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_census_and_oracle_stay_independent():
    # the two engines check each other only while neither reaches the other
    src = Path(massey_census.__file__).parent
    for module, other in (("census", "oracle"), ("oracle", "census")):
        names = _imported_names(src / f"{module}.py")
        assert not [n for n in names if n.split(".")[-1] == other], module


def test_scan_imports_nothing_from_forms():
    # a listing reads its own index tables; forms.zero_cup_table stays the
    # tests' independent reference mask
    names = _imported_names(Path(massey_census.__file__).parent / "scan.py")
    assert not [n for n in names if n.split(".")[-1] == "forms"]


_CLOSED_COMMANDS = (
    ["count-extensions", "--local-degree", "2", "--p", "2", "--q", "4"],
    ["count-epi", "--model", "dd", "--d", "2", "--q", "4", "--d2", "2",
     "--q2", "4", "--p", "2"],
    ["z1", "--model", "demushkin", "--d", "4", "--q", "4", "--p", "2",
     "--class", "noncentral"],
)
_ARRAY_MODULES = ("numpy", "massey_census.oracle", "massey_census.verify",
                  "massey_census.forms", "massey_census.scan")


def test_closed_form_commands_load_no_array_engine():
    # a fresh interpreter: this one has loaded numpy and every engine
    script = (
        "import json, sys\n"
        "from massey_census.cli import main\n"
        f"for argv in {_CLOSED_COMMANDS!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"print(json.dumps([m for m in {_ARRAY_MODULES!r} "
        "if m in sys.modules]))\n"
    )
    src = str(Path(massey_census.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(_CLOSED_COMMANDS) + 1
    assert json.loads(lines[-1]) == []


# scalar references the tests compare the array engines against
_TEST_REFERENCES = ("trilinear_trace",)


def _read_names(tree):
    """Every name a syntax tree reads: loaded names, attributes, imports and
    identifier-shaped strings (for getattr tables).  Definitions and
    assignment targets are not reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_export_has_a_reader():
    # a public name only the tests and its own module use is surface
    # without a user
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "massey_census"
    files = [f for f in src.glob("*.py") if f.name != "__init__.py"]
    for folder in ("perfbench", "demos"):
        files += (root / folder).glob("*.py")
    reads = {f: _read_names(ast.parse(f.read_text())) for f in files}
    unread = [name for name, module in massey_census._SOURCE.items()
              if name not in _TEST_REFERENCES
              and not any(name in names for f, names in reads.items()
                          if f != src / f"{module}.py")]
    assert not unread, sorted(unread)


def test_every_private_function_has_a_reader():
    # a module-level function or class that nothing in src/, perfbench/ or
    # demos/ reads outside its own definition was left behind when its
    # callers went, public or not; an export answers to
    # test_every_export_has_a_reader instead, which spares the scalar
    # references the tests compare against
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "massey_census"
    files = [*src.glob("*.py"), *(root / "perfbench").glob("*.py"),
             *(root / "demos").glob("*.py")]
    trees = {f: ast.parse(f.read_text()) for f in files}
    reads = {f: _read_names(tree) for f, tree in trees.items()}
    unread = []
    for f in src.glob("*.py"):
        tree = trees[f]
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("__")
                    or massey_census._SOURCE.get(node.name) == f.stem):
                continue
            rest = ast.Module([n for n in tree.body if n is not node], [])
            if not any(node.name in (_read_names(rest) if g == f else names)
                       for g, names in reads.items()):
                unread.append(f"{f.stem}.{node.name}")
    assert not unread, sorted(unread)


def test_demos_run():
    # the demos call the public API; an API change must not break them
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    demos = sorted((root / "demos").glob("*.py"))
    assert len(demos) == 2
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (demo.name, done.stderr)
