"""The package as a whole: its source holds no check that ``python -O``
removes and no process-wide cache, and the README's Python example runs
as printed."""

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
