import ast
import contextlib
import inspect
import io
import re
from pathlib import Path

import dgspec
import dgspec.errors

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_public_names_sorted_unique_and_bound():
    names = dgspec.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(dgspec, name), name


def test_readme_quickstart_and_entry_points():
    # the quickstart runs and prints exactly what its ``# value`` comments say
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected == ["5.0", "ComponentTag.DIRECTED_CYCLE"]
    # every documented entry point resolves on the package
    paragraph = re.search(r"Key entry points:(.*?)\n\n", README, re.S).group(1)
    names = re.findall(r"`(\w+)`", paragraph)
    assert names
    assert [name for name in names if not hasattr(dgspec, name)] == []


def test_every_error_class_is_raised():
    # an exception class that no ``raise X(...)`` in the package names is an
    # orphan: callers would catch an error that can never arrive
    raised = set()
    for path in (ROOT / "src" / "dgspec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    errors = {
        name
        for name, cls in inspect.getmembers(dgspec.errors, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == dgspec.errors.__name__
    }
    assert errors - {"DgspecError"}
    assert sorted(errors - {"DgspecError"} - raised) == []
