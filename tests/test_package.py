"""The package as a whole: its source holds no check that ``python -O``
removes and no process-wide cache, the command line reads only the
library's public names, and the README's Python example runs as
printed."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _package_nodes():
    """(file name, node) for every AST node of the package source."""
    paths = sorted((ROOT / "src" / "qtorb").rglob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def test_package_source_has_no_assert_statement():
    """``python -O`` strips assert statements, so every check in the
    package raises instead; test_golden_output_under_optimize_flag runs
    commands under -O."""
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_package_source_has_no_process_wide_cache():
    """Whatever a command computes lives as long as the command: no
    function or class is decorated with ``functools.lru_cache`` or
    ``functools.cache``, whose entries outlive it."""
    found = []
    for name, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                word = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if word in ("lru_cache", "cache"):
                    found.append(f"{name}:{node.lineno} {node.name}")
    assert found == []


def _dotted(node):
    """``a.b.c`` of a chain of names and attributes, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def test_cli_reads_no_private_name_of_the_package():
    """Library logic lives in the library: ``cli.py`` imports no name
    that starts with an underscore from a qtorb module, and reads no
    such attribute of a qtorb module it imported."""
    path = ROOT / "src" / "qtorb" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, imported, found = set(), [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "qtorb"):
            for alias in node.names:
                imported.append(alias.name)
                if alias.name.startswith("_"):
                    found.append(f"cli.py:{node.lineno} imports {alias.name}")
                if node.module is None:  # ``from . import kernels`` binds a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name.split(".")[0] == "qtorb")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = _dotted(node.value)
            if owner and any(owner == m or owner.startswith(f"{m}.") for m in modules):
                found.append(f"cli.py:{node.lineno} reads {owner}.{node.attr}")
    assert imported and modules
    assert found == []


def test_readme_python_example(monkeypatch):
    """The README's Python block, run from the repository root: each line
    with a trailing ``# value`` comment evaluates to that value."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    monkeypatch.chdir(ROOT)
    namespace = {}
    pending, checked = [], []
    for line in block.splitlines():
        code, _, value = line.partition("#")
        if not value.strip():
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending.clear()
        assert eval(code, namespace) == eval(value), line
        checked.append(line)
    exec("\n".join(pending), namespace)
    assert checked
